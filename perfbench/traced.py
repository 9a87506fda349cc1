"""The traced pass: per-layer numbers for one workload.

It sets up like a timed run, sends a few of the workload's requests
through the gateway, then replays the same inputs sequentially through
the layers' public calls with one benchmark-side ``Tracer`` span around
each call (nothing inside ``src/`` is instrumented).  It also times the
cache hit path, worker-pool start and close, and probes the gateway with
two concurrent clients under the request deadline, so a request that
hangs under concurrency is counted rather than hidden.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Dict, List, Tuple

from repro import CacheManager, build_probe
from repro.gateway import GatewayClient
from repro.mapping.ftmap import dock_probe, minimize_poses
from repro.obs.trace import NULL_TRACER, Tracer, chrome_trace
from repro.perf.profiles import docking_profile, ftmap_profile, minimization_profile
from repro.workers import ProcessWorkerPool, shm_bytes_in_use
from repro.workers.stages import init_stage_worker

import workloads as wl
from replay import ReplayMismatch, replay_request

#: Requests the traced pass sends through the gateway.
TRACED_REQUESTS = 2
#: Requests each of the two concurrent clients sends.
PROBE_REQUESTS = 4
POOL_CYCLES = 3

#: Spans summed into each part of the paper's profile figures.
PROFILE_SPANS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "fig2a": {
        "docking": ("docking.setup", "docking.run"),
        "minimization": ("minimize.setup", "minimize.run"),
    },
    "fig2b": {
        "gridding": ("docking.gridding",),
        "correlation": ("docking.correlation",),
        "filtering": ("docking.filtering",),
    },
    "fig3b": {
        "electrostatics": ("minimize.eval.electrostatics",),
        "vdw": ("minimize.eval.vdw",),
        "bonded": ("minimize.eval.bonded",),
    },
}

#: The paper's profile figures (Figs. 2a, 2b, 3b), as published.
PAPER = {
    "fig2a.docking_frac": 0.07,
    "fig2a.minimization_frac": 0.93,
    "fig2b.gridding_frac": 0.023,
    "fig2b.correlation_frac": 0.93 + 0.024,  # FFT correlations + accumulation
    "fig2b.filtering_frac": 0.023,
    "fig3b.electrostatics_frac": 0.944,
    "fig3b.vdw_frac": 0.0538,
    "fig3b.bonded_frac": 0.002,
}


def model_profiles() -> Dict[str, float]:
    """The same fractions from ``repro.perf.profiles`` (a cost model)."""
    ftmap = ftmap_profile()
    dock = docking_profile()
    energy = minimization_profile()["energy_evaluation"]
    return {
        "fig2a.docking_frac": ftmap["rigid_docking"],
        "fig2a.minimization_frac": ftmap["energy_minimization"],
        "fig2b.gridding_frac": dock["rotation_grid_assignment"],
        "fig2b.correlation_frac": dock["fft_correlations"] + dock["accumulation"],
        "fig2b.filtering_frac": dock["scoring_filtering"],
        "fig3b.electrostatics_frac": energy["electrostatics"],
        "fig3b.vdw_frac": energy["vdw"],
        "fig3b.bonded_frac": energy["bonded"],
    }


# -- span arithmetic ----------------------------------------------------------------


def spans_by_name(trace: dict) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = defaultdict(list)
    for span in trace["spans"]:
        out[span["name"]].append(span)
    return out


def durations(spans: Dict[str, List[dict]], name: str) -> List[float]:
    return [s["duration_s"] for s in spans.get(name, [])]


def median_of(spans, name: str) -> float:
    values = durations(spans, name)
    return statistics.median(values) if values else 0.0


def self_times(trace: dict) -> Dict[str, float]:
    """Seconds per layer not covered by a child span (layer = name prefix)."""
    child_time: Dict[str, float] = defaultdict(float)
    for span in trace["spans"]:
        if span["parent_id"]:
            child_time[span["parent_id"]] += span["duration_s"]
    layers: Dict[str, float] = defaultdict(float)
    for span in trace["spans"]:
        own = max(0.0, span["duration_s"] - child_time.get(span["span_id"], 0.0))
        layers[span["name"].split(".")[0]] += own
    return dict(sorted(layers.items()))


def fractions(spans, parts: Dict[str, Tuple[str, ...]]) -> Dict[str, float]:
    sums = {key: sum(sum(durations(spans, n)) for n in names) for key, names in parts.items()}
    total = sum(sums.values())
    return {key: (value / total if total else 0.0) for key, value in sums.items()}


# -- the pass -----------------------------------------------------------------------


def span_cost_s(n: int = 20000) -> float:
    """Seconds one nested span adds, measured on a throwaway tracer.

    The replay's own with/without-spans difference is far below the
    run-to-run noise of a multi-second replay, so the overhead is built
    from this cost and the number of spans the replay recorded.
    """
    tracer = Tracer()
    with tracer.span("bench.outer"):
        t0 = time.perf_counter()
        for _ in range(n):
            with tracer.span("bench.inner"):
                pass
        elapsed = time.perf_counter() - t0
    with tracer.span("bench.outer"):
        t0 = time.perf_counter()
        for _ in range(n):
            with NULL_TRACER.span("bench.inner"):
                pass
        baseline = time.perf_counter() - t0
    return max(0.0, elapsed - baseline) / n


def two_client_probe(session: wl.Session, per_client: int) -> Tuple[int, List[str]]:
    """Two clients send set-up's small warm-up request back to back through the gateway.

    Returns the number of missed deadlines and the other failures.
    Each client stops at its first missed deadline (its request keeps a
    service thread, which ``abort`` later frees by killing the workers).
    """
    assert session.gateway is not None
    deadline = session.workload.deadline_s
    timeouts = [0, 0]
    failures: List[str] = []

    def client_loop(k: int) -> None:
        client = GatewayClient(session.gateway.url, api_key=wl.TENANT.api_key, timeout_s=deadline)
        for _ in range(per_client):
            outcome = wl.guarded(deadline, partial(
                wl.gateway_request, client, session.warmup_fingerprint, wl.WARMUP_CONFIG
            ))
            if outcome.late:
                timeouts[k] += 1
                return
            if not outcome.ok:
                failures.append(outcome.error)

    threads = [threading.Thread(target=client_loop, args=(k,), daemon=True) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(deadline * (per_client + 1))
    return sum(timeouts) + sum(1 for t in threads if t.is_alive()), failures


def cache_hits(
    session: wl.Session, inputs: wl.Inputs, tracer, errors: List[str], out_dir: Path
) -> None:
    """Time ``dock_probe`` / ``minimize_poses`` served from a warm disk tier.

    A scratch tier is primed with the first receptor, then read back.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="cache-", dir=out_dir)
    config = replace(session.config, cache_policy="disk", cache_dir=scratch)
    try:
        receptor = inputs.receptors[0]
        for name in config.probe_names:
            probe = build_probe(name)
            primer = CacheManager("disk", directory=scratch)
            run = dock_probe(receptor, probe, config, cache=primer)
            minimize_poses(receptor, probe, run.poses, config, cache=primer)
            manager = CacheManager("disk", directory=scratch)
            with tracer.span("cache.dock_hit", probe=name):
                run = dock_probe(receptor, probe, config, cache=manager)
            with tracer.span("cache.minimize_hit", probe=name):
                stage = minimize_poses(receptor, probe, run.poses, config, cache=manager)
            if not stage.cached or manager.stats.misses or manager.stats.hits != 2:
                errors.append(f"cache hit path missed for probe {name}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def pool_cycles(session: wl.Session, inputs: wl.Inputs, tracer) -> None:
    """Start a stage-worker pool until both workers answer, then close it."""
    initargs = (inputs.receptors[0], session.config, session.config.cache_manager())
    for _ in range(POOL_CYCLES):
        with tracer.span("workers.pool_start"):
            pool = ProcessWorkerPool(
                2, initializer=init_stage_worker, initargs=initargs, name="bench"
            )
            pids = set()
            while len(pids) < 2:
                futures = [pool.submit(os.getpid) for _ in range(2)]
                pids.update(f.result(timeout=session.workload.deadline_s) for f in futures)
        with tracer.span("workers.pool_close"):
            pool.close()


def run_traced(workload: wl.Workload, seed: int, out_dir: Path) -> dict:
    inputs = wl.make_inputs(workload, seed)
    session = wl.setup(workload, inputs)
    client = session.start_gateway()
    config = session.config
    tracer = Tracer()
    errors: List[str] = []
    aborted = False
    try:
        # 1. The workload's own requests, through the gateway.
        outcomes: List[wl.Outcome] = []
        shm_leaked = 0
        for i in range(TRACED_REQUESTS):
            fp = session.fingerprints[i]
            t0 = time.perf_counter()
            outcome = wl.guarded(
                workload.deadline_s, partial(wl.gateway_request, client, fp, config)
            )
            tracer.add_span("gateway.request", t0, t0 + outcome.latency_s, index=i)
            shm_leaked = max(shm_leaked, shm_bytes_in_use())
            outcomes.append(wl.check_shm(outcome))
            if not outcome.ok:
                errors.append(outcome.error)
                aborted = outcome.late
                break
        stats = client.stats()

        # 2. Sequential stage-by-stage replay of the same inputs, with spans.
        cases = [(inputs.receptors[i], o.result) for i, o in enumerate(outcomes) if o.ok]
        replay_s = []
        spans_before = len(tracer.to_dict()["spans"])
        for receptor, expected in cases:
            t0 = time.perf_counter()
            try:
                doc = replay_request(receptor, config, tracer, detail=True)
            except ReplayMismatch as exc:
                errors.append(str(exc))
                continue
            replay_s.append(time.perf_counter() - t0)
            if wl.comparable(doc) != wl.comparable(expected):
                errors.append("service result differs from the sequential replay")
        replay_spans = len(tracer.to_dict()["spans"]) - spans_before

        # 3. Tracing overhead: the replay's spans times the measured cost of one.
        overhead = replay_spans * span_cost_s() / sum(replay_s) if replay_s else 0.0

        # 4-6. Cache hit path, worker pools, two concurrent clients.
        cache_hits(session, inputs, tracer, errors, out_dir)
        pool_cycles(session, inputs, tracer)
        if aborted:
            # A request already hangs; the probe would only queue behind it.
            concurrent_timeouts, probe_failures = 0, ["skipped: a traced request hung"]
        else:
            concurrent_timeouts, probe_failures = two_client_probe(session, PROBE_REQUESTS)
            aborted = concurrent_timeouts > 0
    finally:
        if aborted:
            wl.abort(session)
        else:
            session.close()
    leftover = wl.stop_children()
    if leftover and not aborted:
        errors.append(f"{leftover} child processes outlived the service")

    trace = tracer.to_dict()
    spans = spans_by_name(trace)
    ok = [o for o in outcomes if o.ok]
    n_replayed = max(1, len(durations(spans, "replay.request")))
    lookups = [o.cache_stats["lookups"] if o.cache_stats else 0 for o in ok]
    hit_rates = [o.cache_stats["hit_rate"] if o.cache_stats else 0.0 for o in ok]
    run_s = durations(spans, "minimize.run")
    iterations = [s["attributes"]["iterations"] for s in spans.get("minimize.run", [])]
    dock_run = spans.get("docking.run", [])
    measured = {
        f"{figure}.{part}_frac": share
        for figure, parts in PROFILE_SPANS.items()
        for part, share in fractions(spans, parts).items()
    }
    queue_wait = stats["metrics"]["queue_wait_p50_s"]
    metrics = {
        "docking.setup_s": (median_of(spans, "docking.setup"), "s"),
        "docking.run_s": (median_of(spans, "docking.run"), "s"),
        "docking.rotations_per_s": (
            sum(s["attributes"]["rotations"] for s in dock_run)
            / max(1e-12, sum(s["duration_s"] for s in dock_run)),
            "1/s",
        ),
        "docking.gridding_s": (median_of(spans, "docking.gridding"), "s"),
        "docking.correlation_s": (median_of(spans, "docking.correlation"), "s"),
        "docking.filtering_s": (median_of(spans, "docking.filtering"), "s"),
        "minimize.setup_s": (median_of(spans, "minimize.setup"), "s"),
        "minimize.run_s": (median_of(spans, "minimize.run"), "s"),
        "minimize.iteration_s": (
            statistics.median(t / max(1, k) for t, k in zip(run_s, iterations)) if run_s else 0.0,
            "s",
        ),
        "minimize.list_build_s": (median_of(spans, "minimize.list_build"), "s"),
        "minimize.eval.electrostatics_s": (median_of(spans, "minimize.eval.electrostatics"), "s"),
        "minimize.eval.vdw_s": (median_of(spans, "minimize.eval.vdw"), "s"),
        "minimize.eval.bonded_s": (median_of(spans, "minimize.eval.bonded"), "s"),
        "mapping.cluster_s": (median_of(spans, "mapping.cluster"), "s"),
        "mapping.consensus_s": (median_of(spans, "mapping.consensus"), "s"),
        "cache.dock_hit_s": (median_of(spans, "cache.dock_hit"), "s"),
        "cache.minimize_hit_s": (median_of(spans, "cache.minimize_hit"), "s"),
        "cache.hit_rate": (statistics.median(hit_rates) if hit_rates else 0.0, "ratio"),
        "workers.pool_start_s": (median_of(spans, "workers.pool_start"), "s"),
        "workers.pool_close_s": (median_of(spans, "workers.pool_close"), "s"),
        "workers.shm_bytes_leaked": (shm_leaked, "bytes"),
        "api.request_s": (statistics.median(o.wall_time_s for o in ok) if ok else 0.0, "s"),
        "gateway.overhead_s": (
            statistics.median(o.latency_s - o.wall_time_s for o in ok) if ok else 0.0,
            "s",
        ),
        "gateway.queue_wait_s": (queue_wait if queue_wait is not None else 0.0, "s"),
        "gateway.result_bytes": (
            statistics.median(o.result_bytes for o in ok) if ok else 0.0,
            "bytes",
        ),
        "gateway.concurrent_timeouts": (concurrent_timeouts, "count"),
        "trace.overhead_frac": (overhead, "ratio"),
    }
    # Work per request that no optimisation should change: a shift means
    # the numerics or the cache path changed.  Reported, not scored.
    fixed_work = {
        "docking.rotations": len(durations(spans, "docking.gridding")) / n_replayed,
        "docking.poses": sum(s["attributes"]["poses"] for s in dock_run) / n_replayed,
        "minimize.iterations": sum(iterations) / n_replayed,
        "cache.lookups": statistics.median(lookups) if lookups else 0.0,
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{workload.name}-seed{seed}.trace.json"
    trace_path.write_text(json.dumps(chrome_trace(trace)))
    failed = sum(1 for o in outcomes if not o.ok)
    return {
        "metrics": metrics,
        "attempted": max(1, len(outcomes)),
        "failed": failed,
        "correct": failed == 0 and not errors,
        "errors": errors,
        "record": {
            "self_time_s": self_times(trace),
            "profiles": {
                name: {"paper": PAPER[name], "model": model, "measured": measured[name]}
                for name, model in model_profiles().items()
            },
            "fixed_work": fixed_work,
            "streaming": sorted({o.streaming for o in ok}),
            "replay_s": replay_s,
            "replay_spans": replay_spans,
            "chrome_trace": str(trace_path),
            "spans": len(trace["spans"]),
            "concurrent_probe_failures": probe_failures,
        },
    }
