"""Process workers: one whole probe per worker process.

FTMap's probes are independent, so ``streaming="process"`` in
:class:`repro.api.FTMapService` maps each probe — dock → minimize →
cluster — as one :func:`~repro.workers.stages.probe_task` on a small
fork/spawn-backed pool (:class:`~repro.workers.pool.ProcessWorkerPool`)
of ``min(probes, usable CPUs)`` workers.  Each task's
:class:`~repro.mapping.ftmap.ProbeResult`, cache-stats delta and spans
come back pickled over the worker's pipe; a result is tens to a hundred
KB, far below the cost of mapping the probe.

The scheduling changes, the values never do — process-streamed results
are bitwise-identical to the sequential stage loop at fp64.
:func:`shm_bytes_in_use` is the leak check: the bytes of ``repro-``
prefixed POSIX shared-memory segments on the host, which nothing here
creates.
"""

from repro.workers.pool import (
    ProcessWorkerPool,
    WorkerFuture,
    shm_bytes_in_use,
    worker_stats,
)

__all__ = [
    "ProcessWorkerPool",
    "WorkerFuture",
    "worker_stats",
    "shm_bytes_in_use",
]
