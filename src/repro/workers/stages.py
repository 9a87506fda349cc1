"""Worker-process body of process streaming: one task maps one whole probe.

:func:`probe_task` runs inside a :class:`~repro.workers.pool.
ProcessWorkerPool` worker and calls the *same* stage functions the
sequential and thread-pipelined paths call
(:func:`repro.mapping.ftmap.dock_probe` → :func:`minimize_poses` →
:func:`cluster_probe`), at the same fp64 numerics — which is what makes
``streaming="process"`` bitwise-identical to ``"sequential"``.  FTMap's
probes are independent, so a request's probes spread over the pool's
workers and map side by side.

Everything a task produces travels back over the worker's pipe as one
pickle: the finished :class:`~repro.mapping.ftmap.ProbeResult`, the
:class:`~repro.cache.manager.CacheStats` delta of the task's own stats
scope, the ``minimize-shard`` starts, and the task's spans.  The spans
are recorded on a worker-local :class:`~repro.obs.trace.Tracer` whose
stage spans hang under the request's root span id; ``perf_counter`` is
``CLOCK_MONOTONIC``, one clock for every process on the host, so the
parent adopts them into the request trace unchanged.

The per-request context (receptor, config, cache manager) installs once
per worker via :func:`init_stage_worker`.  Workers are forked, so each
starts with a copy of the parent's manager: memory tiers are per worker
from then on, while a configured disk tier — including its single-flight
lockfiles — is shared.
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
    """Dock, minimize and cluster one probe; returns what the parent needs.

    Each stage gets a ``dock``/``minimize``/``cluster`` span under
    ``parent_span_id`` (the stage functions annotate it, as in-thread)
    and a ``*-exec`` child for the stage call itself.
    """
    receptor, cfg, manager = _STAGE_CTX
    tracer = Tracer()
    shard_starts = []

    def on_shard(shard_index: int, num_shards: int) -> None:
        shard_starts.append((shard_index, num_shards, time.perf_counter()))

    def exec_span(stage: str, span, t0: float) -> None:
        tracer.add_span(
            f"{stage}-exec", t0, time.perf_counter(), parent=span, probe=name
        )

    with manager.stats_scope() as stats:
        with tracer.span("dock", parent=parent_span_id, probe=name) as span:
            t0 = time.perf_counter()
            run = _ftmap.dock_probe(receptor, probe, cfg, cache=manager)
            exec_span("dock", span, t0)
        with tracer.span("minimize", parent=parent_span_id, probe=name) as span:
            t0 = time.perf_counter()
            stage = _ftmap.minimize_poses(
                receptor, probe, run.poses, cfg, cache=manager,
                on_shard=on_shard,
            )
            exec_span("minimize", span, t0)
        with tracer.span("cluster", parent=parent_span_id, probe=name) as span:
            t0 = time.perf_counter()
            clusters = _ftmap.cluster_probe(stage.centers, stage.energies, cfg)
            exec_span("cluster", span, t0)
    return {
        "result": _ftmap.probe_result(name, run, stage, clusters),
        "cache_stats": stats,
        "shard_starts": shard_starts,
        "spans": tracer.records(),
    }
