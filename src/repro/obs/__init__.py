"""Unified observability layer: tracing, metrics, structured logging.

The paper's argument is built on per-stage timing profiles (its Fig. 2/3
docking-vs-minimization breakdowns are what justify the GPU distribution
schemes); this package makes the same question — *where did this
request's time go?* — answerable for the serving stack in production.

Three zero-dependency pillars:

* :mod:`repro.obs.trace` — lightweight monotonic-clock spans with
  context propagation.  A request carries one :class:`Tracer` from
  gateway ingress through admission-queue wait, dispatch, every
  dock/minimize/cluster/consensus stage, down to per-shard minimization;
  traces attach to ``MapResult.trace`` and export as
  ``chrome://tracing`` JSON.  Off by default: the guarded
  :data:`NULL_TRACER` makes disabled instrumentation a handful of
  attribute reads per request, and instrumentation never touches
  numerics (bitwise-identical outputs either way — CI-gated).
* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  (counters, gauges, bounded-memory streaming histograms with
  p50/p95/p99) fed by the gateway (per-tenant request/shed/queue-depth/
  latency), the service (stage latencies, jobs by state), the cache
  (hits/misses/evictions/bytes by artifact kind) and the engines (poses
  minimized, pose iterations, FFT batches, shard makespans); exposed as
  Prometheus text at the gateway's ``GET /v1/metrics``.
* :mod:`repro.obs.logging` — structured JSON log lines with
  trace/job/tenant correlation ids (off unless configured), plus the
  :class:`RunLogger` the examples and benchmarks use.
"""

from repro.obs.logging import RunLogger, StructuredLogger, configure_logging, log_event
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
    set_metrics_enabled,
)

# Unambiguous alias for consumers outside the obs package (the top-level
# ``repro`` namespace re-exports it, where bare ``registry`` would read
# as anything).
metrics_registry = registry
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    Span,
    Tracer,
    check_trace,
    chrome_trace,
    current_span,
    current_tracer,
    stage_durations,
    use_span,
)

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "Span",
    "Tracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "current_span",
    "current_tracer",
    "use_span",
    "check_trace",
    "chrome_trace",
    "stage_durations",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "metrics_registry",
    "set_metrics_enabled",
    "StructuredLogger",
    "RunLogger",
    "configure_logging",
    "log_event",
]
