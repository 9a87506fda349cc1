#!/usr/bin/env python
"""Watching a mapping run: traces, stage latencies, metrics, logs.

The telemetry layer (:mod:`repro.obs`) answers "where did the time go"
for one request and "what is this process doing" across all of them:

1. **tracing** — ``FTMapConfig(tracing=True)`` (or per-request
   ``MapRequest(tracing=True)``) attaches a span tree to the result:
   every dock/minimize/cluster/consensus stage, cache and backend
   decisions as attributes, per-device minimization shards on their own
   timeline rows.  :func:`repro.obs.trace.stage_durations` folds it into
   the per-stage latency table below — the serving-side analogue of the
   paper's Fig. 2 stage profile,
2. **chrome export** — the same trace serializes to Chrome trace-event
   JSON; drop ``trace.json`` into ``chrome://tracing`` or
   https://ui.perfetto.dev and read the request as a flame chart,
3. **metrics** — counters/gauges/quantile histograms accumulate across
   requests in the process-wide registry, rendered as Prometheus text
   (the gateway serves this at ``GET /v1/metrics``),
4. **structured logs** — JSON lines carrying the same trace/job ids, so
   logs join against traces.

Run:  python examples/observability.py
"""

from __future__ import annotations

import json
import sys
import tempfile

from repro import FTMapConfig, synthetic_protein
from repro.api import FTMapService, MapRequest
from repro.obs.logging import RunLogger, configure_logging
from repro.obs.metrics import registry
from repro.obs.trace import chrome_trace, stage_durations


def main() -> None:
    log = RunLogger()

    config = FTMapConfig(
        probe_names=("ethanol", "acetone", "benzene"),
        num_rotations=12,
        receptor_grid=32,
        minimize_top=3,
        minimizer_iterations=6,
        tracing=True,  # <- the only switch a traced request needs
    )
    protein = synthetic_protein(n_residues=40, seed=3)

    log.section("a traced mapping (structured logs on stderr)")
    configure_logging(stream=sys.stderr)
    with FTMapService(max_workers=2) as service:
        fingerprint = service.register_receptor(protein)
        result = service.submit(
            MapRequest(receptor=fingerprint, config=config)
        ).result(timeout=600)
    configure_logging(enabled=False)
    trace = result.trace
    log.step(f"trace {trace['trace_id']}: {len(trace['spans'])} spans")
    log.done(f"{len(result.result.sites)} consensus site(s)")

    log.section("where did the time go? (per-stage latency)")
    totals = stage_durations(trace)
    wall = totals.pop("map")
    for stage in sorted(totals, key=totals.get, reverse=True):
        share = totals[stage] / wall
        bar = "#" * max(1, int(share * 40))
        log.step(f"{stage:<16s} {totals[stage]*1e3:8.1f} ms  {share:6.1%}  {bar}")
    log.step(f"{'request wall':<16s} {wall*1e3:8.1f} ms")
    log.done()

    log.section("the same trace as a flame chart")
    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", prefix="repro-trace-", delete=False
    ) as fh:
        json.dump(chrome_trace(trace), fh)
    log.step(f"wrote {fh.name}")
    log.step("open chrome://tracing (or ui.perfetto.dev) and load it")
    rows = {s.get("thread", "") for s in trace["spans"]}
    log.done(f"{len(rows)} timeline row(s)")

    log.section("process-wide metrics (what the gateway serves at /v1/metrics)")
    exposition = registry().render()
    interesting = (
        "repro_stage_seconds",
        "repro_dock_runs_total",
        "repro_minimize_poses_total",
        "repro_jobs_total",
    )
    for line in exposition.splitlines():
        if line.startswith(interesting) and "quantile" not in line:
            log.step(line)
    log.done(f"full exposition: {len(exposition.splitlines())} lines")


if __name__ == "__main__":
    main()
