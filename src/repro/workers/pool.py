"""The package's one process pool, built on the standard library.

The only place the package starts processes.  :class:`ProcessWorkerPool`
is a thin wrapper over :class:`concurrent.futures.ProcessPoolExecutor`:
``submit`` returns a stdlib :class:`~concurrent.futures.Future`, a task's
exception re-raises from ``result()``, and a result that cannot be
pickled fails its future with the pickling error while the worker keeps
serving.  A worker that dies mid-task (OOM-kill, segfault, ``SIGKILL``)
breaks the pool: every unfinished future fails at once with
:class:`~concurrent.futures.process.BrokenProcessPool`, and nothing
restarts — the next request starts a new pool.

What the wrapper adds is a small ``mp_context`` that the executor starts
its workers through:

* workers **fork** where ``fork`` exists (cheap, inherits warmed imports
  and the receptor already in memory) and spawn elsewhere;
* workers are **daemonic**, so a task never forks grandchildren — a
  service used inside a worker sees ``current_process().daemon`` and
  maps sequentially;
* every worker is **recorded**, so ``close(cancel=True)`` can terminate
  running tasks instead of waiting them out.

The executor forks lazily, at the first ``submit``.  From Python 3.11 it
forks every worker before its manager thread starts; on 3.10 it forks
them on demand, after that thread exists (cpython#90622).

``repro_worker_pool_size`` / ``repro_worker_busy`` gauges and
:func:`worker_stats` (the ``/v1/stats`` ``workers`` section) aggregate
over every open pool in the process; :func:`shm_bytes_in_use` is the
host-wide shared-memory leak check reported next to them.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import registry

__all__ = ["ProcessWorkerPool", "worker_stats", "shm_bytes_in_use"]

#: Where Linux exposes POSIX shared-memory segments, and the prefix of
#: the names this package's processes would give theirs.
_SHM_DIR = "/dev/shm"
_SHM_PREFIX = "repro-"

_POOLS: "weakref.WeakSet[ProcessWorkerPool]" = weakref.WeakSet()
_STATS_LOCK = threading.Lock()
_TASKS_TOTAL = 0


def _totals() -> Tuple[int, int, int]:
    pools = list(_POOLS)
    sizes = [pool._occupancy() for pool in pools]
    return len(pools), sum(s for s, _ in sizes), sum(b for _, b in sizes)


def _update_gauges() -> None:
    _, size, busy = _totals()
    reg = registry()
    reg.gauge(
        "repro_worker_pool_size", help="Live worker processes."
    ).set(float(size))
    reg.gauge(
        "repro_worker_busy", help="Worker processes executing a task."
    ).set(float(busy))


def shm_bytes_in_use() -> int:
    """Bytes of ``/dev/shm`` entries whose names start with ``repro-``.

    Workers ship results through the executor's pipes and create no
    shared memory, so anything counted here is a leak — from this
    process, one of its workers, or any other process on the host.  0
    where ``/dev/shm`` does not exist.
    """
    total = 0
    try:
        entries = os.scandir(_SHM_DIR)
    except OSError:
        return 0
    with entries:
        for entry in entries:
            if entry.name.startswith(_SHM_PREFIX):
                try:
                    total += entry.stat().st_size
                except OSError:  # unlinked since the listing
                    continue
    return total


def worker_stats() -> Dict[str, int]:
    """Aggregate worker-pool occupancy for ``/v1/stats``."""
    pools, size, busy = _totals()
    with _STATS_LOCK:
        tasks = _TASKS_TOTAL
    return {
        "pools": pools,
        "pool_size": size,
        "busy": busy,
        "shm_bytes_in_use": shm_bytes_in_use(),
        "stage_tasks_total": tasks,
    }


class _WorkerContext:
    """A multiprocessing context whose processes are daemonic and recorded."""

    def __init__(self, name: str) -> None:
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._base = mp.get_context(method)
        self._name = f"{name}-worker"
        self.processes: List[mp.process.BaseProcess] = []

    def __getattr__(self, attr: str):
        return getattr(self._base, attr)

    def Process(self, *args, **kwargs) -> mp.process.BaseProcess:
        proc = self._base.Process(*args, name=self._name, daemon=True, **kwargs)
        self.processes.append(proc)
        return proc


class ProcessWorkerPool:
    """``n_workers`` worker processes executing submitted tasks.

    ``initializer(*initargs)`` runs once in each worker before it serves
    tasks (the per-request context: receptor, config, cache manager —
    everything tasks would otherwise re-ship per call).  Submitted
    functions and arguments must be picklable module-level callables.
    """

    def __init__(
        self,
        n_workers: int,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
        name: str = "workers",
    ) -> None:
        self.name = name
        self._ctx = _WorkerContext(name)
        self._executor = ProcessPoolExecutor(
            n_workers, mp_context=self._ctx,  # type: ignore[arg-type]
            initializer=initializer, initargs=initargs,
        )
        self._lock = threading.Lock()
        self._pending = 0
        _POOLS.add(self)
        _update_gauges()

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(cancel=exc_info[0] is not None)

    def submit(self, fn: Callable, *args) -> Future:
        """Run ``fn(*args)`` on the next idle worker."""
        global _TASKS_TOTAL
        future = self._executor.submit(fn, *args)
        with self._lock:
            self._pending += 1
        with _STATS_LOCK:
            _TASKS_TOTAL += 1
        future.add_done_callback(self._on_done)
        _update_gauges()
        return future

    def _on_done(self, _future: Future) -> None:
        with self._lock:
            self._pending -= 1
        _update_gauges()

    def close(self, cancel: bool = False) -> None:
        """Stop the pool.

        ``cancel=False`` lets submitted tasks finish first;
        ``cancel=True`` terminates the workers at once, so unfinished
        tasks fail with ``BrokenProcessPool`` (or are cancelled, if the
        executor had not yet queued them for a worker).
        """
        if cancel:
            for proc in self._ctx.processes:
                if proc.is_alive():
                    proc.terminate()
        self._executor.shutdown(wait=True, cancel_futures=cancel)
        _POOLS.discard(self)
        _update_gauges()

    def _occupancy(self) -> Tuple[int, int]:
        """(live workers, workers executing a task)."""
        with self._lock:
            pending = self._pending
        size = sum(1 for proc in self._ctx.processes if proc.is_alive())
        return size, min(pending, size)
