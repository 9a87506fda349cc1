"""Process workers: one whole probe per worker process.

FTMap's probes are independent, so ``streaming="process"`` in
:class:`repro.api.FTMapService` maps each probe — dock → minimize →
cluster — as one :func:`~repro.workers.stages.probe_task` on a pool of
``min(probes, usable CPUs)`` daemonic worker processes, started for the
request (:class:`~repro.workers.pool.ProcessWorkerPool`, a thin wrapper
over :class:`concurrent.futures.ProcessPoolExecutor`).  Each task's
:class:`~repro.mapping.ftmap.ProbeResult`, cache-stats delta and spans
come back pickled through the executor's result queue; a result is tens
to a hundred KB, far below the cost of mapping the probe.

The scheduling changes, the values never do — process-streamed results
are bitwise-identical to the sequential stage loop at fp64.  The same
pool runs the shards of a ``multi-gpu-sim`` minimization
(:class:`repro.minimize.multidevice.MultiDeviceMinimizer`) that the
calling thread does not run itself.
:func:`shm_bytes_in_use` is the leak check: the bytes of ``repro-``
prefixed POSIX shared-memory segments on the host, which nothing here
creates.
"""

from repro.workers.pool import ProcessWorkerPool, shm_bytes_in_use, worker_stats

__all__ = ["ProcessWorkerPool", "worker_stats", "shm_bytes_in_use"]
