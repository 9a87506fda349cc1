"""Worker-process body of process streaming: one task maps one whole probe.

:func:`probe_task` runs inside a :class:`~repro.workers.pool.
ProcessWorkerPool` worker and calls :func:`repro.mapping.ftmap.map_probe`
— the same stage body the sequential path runs in the request's thread,
at the same fp64 numerics — which is what makes ``streaming="process"``
bitwise-identical to ``"sequential"``.  FTMap's probes are independent,
so a request's probes spread over the pool's workers and map side by
side.

Everything a task produces travels back through the pool's result
queue as one pickle: the finished
:class:`~repro.mapping.ftmap.ProbeResult`, the
:class:`~repro.cache.manager.CacheStats` delta of the task's own stats
scope, the stage and ``minimize-shard`` events with the times they
started, and the task's spans.  The spans are recorded on a worker-local
:class:`~repro.obs.trace.Tracer` whose stage spans hang under the
request's root span id; ``perf_counter`` is ``CLOCK_MONOTONIC``, one
clock for every process on the host, so the parent adopts the spans and
replays the events unchanged.

The per-request context (receptor, config, cache manager) installs once
per worker via :func:`init_stage_worker`.  Workers are forked, so each
starts with a copy of the parent's manager.  A configured disk tier —
including its single-flight lockfiles — is shared; a memory tier is per
worker from then on, and what a task puts there never reaches the parent
(the service's ``auto`` streaming keeps memory-only managers in the
request's thread for that reason).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time

from repro.mapping import ftmap as _ftmap
from repro.obs.trace import Tracer

__all__ = ["init_stage_worker", "probe_task"]

#: (receptor, config, cache manager) — installed once per worker.
_STAGE_CTX = None


def init_stage_worker(receptor, config, cache=None) -> None:
    global _STAGE_CTX
    _STAGE_CTX = (receptor, config, cache)
    # Spans recorded here land on one trace row per worker process.
    threading.current_thread().name = (
        f"{mp.current_process().name}-{os.getpid()}"
    )


def probe_task(name: str, probe, parent_span_id: str = "") -> dict:
    """Map one probe; returns what the parent needs to replay it.

    ``events`` lists ``(stage, span_id, shard, perf_counter)`` for every
    :func:`~repro.mapping.ftmap.map_probe` callback, in order.
    """
    receptor, cfg, manager = _STAGE_CTX
    tracer = Tracer()
    events = []

    def on_event(stage, span, shard) -> None:
        events.append((stage, span.span_id, shard, time.perf_counter()))

    with manager.stats_scope() as stats:
        result = _ftmap.map_probe(
            receptor, name, probe, cfg, cache=manager,
            tracer=tracer, parent=parent_span_id, on_event=on_event,
        )
    return {
        "result": result,
        "cache_stats": stats,
        "events": events,
        "spans": tracer.records(),
    }
