"""A small fork/spawn-backed worker pool for whole-probe tasks.

The only place the package starts processes.  The pool is *resident*:
workers start once per request, are fed tasks over per-worker pipes,
and each result (pickled, back over the same pipe) arrives as soon as
its task finishes — which is what lets several probes map at once, one
per worker process, GIL-independently.

Design points:

* **per-worker duplex pipes** — the parent's collector thread waits on
  every worker's pipe *and* its process sentinel in one
  ``multiprocessing.connection.wait`` call, so a worker that dies
  mid-task (OOM-kill, segfault, ``SIGKILL``) is detected immediately:
  its in-flight task fails with a typed
  :class:`~repro.api.errors.JobFailedError`, and the pool refills to its
  configured size so queued tasks still run.
* **fork-without-locks discipline** — worker processes are always
  started outside the pool lock (a lock held across a fork is cloned
  *locked* into the child; rule REPRO-FORK enforces this repo-wide).
* **daemonic workers** — a task never forks grandchildren; a service
  used inside a worker falls back to thread streaming.

``repro_worker_pool_size`` / ``repro_worker_busy`` gauges and
:func:`worker_stats` (the ``/v1/stats`` ``workers`` section) aggregate
over every live pool in the process; :func:`shm_bytes_in_use` is the
host-wide shared-memory leak check reported next to them.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
import weakref
from collections import deque
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.errors import JobFailedError
from repro.obs.logging import log_event
from repro.obs.metrics import registry

__all__ = ["ProcessWorkerPool", "WorkerFuture", "worker_stats", "shm_bytes_in_use"]

#: Where Linux exposes POSIX shared-memory segments, and the prefix of
#: the names this package's processes would give theirs.
_SHM_DIR = "/dev/shm"
_SHM_PREFIX = "repro-"

_POOLS: "weakref.WeakSet[ProcessWorkerPool]" = weakref.WeakSet()
_STATS_LOCK = threading.Lock()
_TASKS_TOTAL = 0
_RESTARTS_TOTAL = 0


def _update_gauges() -> None:
    size = busy = 0
    for pool in list(_POOLS):
        p_size, p_busy = pool._occupancy()
        size += p_size
        busy += p_busy
    reg = registry()
    reg.gauge(
        "repro_worker_pool_size", help="Live worker processes."
    ).set(float(size))
    reg.gauge(
        "repro_worker_busy", help="Worker processes executing a task."
    ).set(float(busy))


def shm_bytes_in_use() -> int:
    """Bytes of ``/dev/shm`` entries whose names start with ``repro-``.

    Workers ship results over their pipes and create no shared memory,
    so anything counted here is a leak — from this process, one of its
    workers, or any other process on the host.  0 where ``/dev/shm``
    does not exist.
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
    pools = list(_POOLS)
    size = busy = 0
    for pool in pools:
        p_size, p_busy = pool._occupancy()
        size += p_size
        busy += p_busy
    with _STATS_LOCK:
        tasks, restarts = _TASKS_TOTAL, _RESTARTS_TOTAL
    return {
        "pools": len(pools),
        "pool_size": size,
        "busy": busy,
        "shm_bytes_in_use": shm_bytes_in_use(),
        "stage_tasks_total": tasks,
        "worker_restarts_total": restarts,
    }


def _count_task() -> None:
    global _TASKS_TOTAL
    with _STATS_LOCK:
        _TASKS_TOTAL += 1


def _count_restart() -> None:
    global _RESTARTS_TOTAL
    with _STATS_LOCK:
        _RESTARTS_TOTAL += 1


class WorkerFuture:
    """Result slot of one submitted task."""

    def __init__(self, task_id: int, label: str) -> None:
        self.task_id = task_id
        self.label = label
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the task finished or ``timeout`` passed; True if done."""
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> Any:
        if not self._event.wait(timeout):
            raise TimeoutError(f"task {self.label!r} did not complete in time")
        if self._error is not None:
            raise self._error
        return self._value

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        if not self._event.wait(timeout):
            raise TimeoutError(f"task {self.label!r} did not complete in time")
        return self._error

    def _resolve(self, value: Any = None, error: Optional[BaseException] = None) -> None:
        self._value, self._error = value, error
        self._event.set()


class _Worker:
    def __init__(self, proc: mp.process.BaseProcess, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.task: Optional[Tuple[WorkerFuture, Callable, tuple]] = None


def _worker_main(conn, initializer, initargs) -> None:
    """Child process loop: init once, then serve tasks until EOF/None."""
    if initializer is not None:
        initializer(*initargs)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        task_id, fn, args, kwargs = msg
        try:
            value = fn(*args, **kwargs)
            reply = (task_id, "ok", value)
        except BaseException as exc:  # ship the failure, keep serving
            reply = (task_id, "error", exc)
        try:
            conn.send(reply)
        except Exception:
            # An unpicklable value/exception must not kill the worker
            # silently: degrade to a described error.
            conn.send((task_id, "error", RuntimeError(
                f"task result not transferable: {reply[2]!r}"
            )))
    conn.close()


class ProcessWorkerPool:
    """``n_workers`` resident processes executing submitted tasks.

    ``initializer(*initargs)`` runs once in each worker before it serves
    tasks (the per-request context: receptor, config, cache manager —
    everything tasks would otherwise re-ship per call).  Submitted
    functions and arguments must be picklable module-level callables;
    results return through :class:`WorkerFuture`.

    ``start_method``: ``"fork"`` where available (cheap, inherits warmed
    imports), else ``"spawn"``; pass explicitly to override.
    """

    def __init__(
        self,
        n_workers: int,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
        start_method: Optional[str] = None,
        name: str = "workers",
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.name = name
        self.n_workers = int(n_workers)
        self._ctx = mp.get_context(start_method)
        self._initializer = initializer
        self._initargs = initargs
        self._lock = threading.Lock()
        self._workers: List[_Worker] = []
        self._queue: "deque[Tuple[WorkerFuture, Callable, tuple, dict]]" = deque()
        self._task_counter = 0
        self._closed = False
        self._wake_r, self._wake_w = os.pipe()
        # Workers fork before the collector thread exists and outside any
        # lock: the children inherit a single-threaded, lock-free world.
        workers = [self._start_worker() for _ in range(self.n_workers)]
        self._workers.extend(workers)
        self._collector = threading.Thread(
            target=self._collect, name=f"{name}-collector", daemon=True
        )
        self._collector.start()
        _POOLS.add(self)
        _update_gauges()

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(cancel=exc_info[0] is not None)

    def _start_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._initializer, self._initargs),
            name=f"{self.name}-worker",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn)

    def close(self, cancel: bool = False, timeout: float = 10.0) -> None:
        """Stop the pool.

        ``cancel=False`` lets in-flight tasks finish first; ``cancel=True``
        terminates workers immediately and fails queued/in-flight futures
        (the cancellation/failure path).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            queued = list(self._queue)
            self._queue.clear()
        for future, _, _, _ in queued:
            future._resolve(error=JobFailedError(
                f"worker pool {self.name!r} closed before task "
                f"{future.label!r} ran"
            ))
        if not cancel:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                with self._lock:
                    if all(w.task is None for w in self._workers):
                        break
                time.sleep(0.01)
        with self._lock:
            workers, self._workers = self._workers, []
        for worker in workers:
            if cancel and worker.proc.is_alive():
                worker.proc.terminate()
            else:
                try:
                    worker.conn.send(None)
                except (OSError, BrokenPipeError):
                    pass
        self._wake()
        for worker in workers:
            worker.proc.join(timeout)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout)
            worker.conn.close()
            if worker.task is not None:
                future = worker.task[0]
                if not future.done():
                    future._resolve(error=JobFailedError(
                        f"worker pool {self.name!r} cancelled task "
                        f"{future.label!r}"
                    ))
        self._collector.join(timeout)
        try:
            os.close(self._wake_r)
            os.close(self._wake_w)
        except OSError:
            pass
        _POOLS.discard(self)
        _update_gauges()

    # -- submission --------------------------------------------------------------

    def submit(
        self, fn: Callable, *args, label: str = "", **kwargs
    ) -> WorkerFuture:
        """Queue ``fn(*args, **kwargs)`` on the next idle worker."""
        with self._lock:
            if self._closed:
                raise JobFailedError(f"worker pool {self.name!r} is closed")
            self._task_counter += 1
            future = WorkerFuture(self._task_counter, label or repr(fn))
            self._queue.append((future, fn, args, kwargs))
        _count_task()
        self._dispatch()
        return future

    def _dispatch(self) -> None:
        sends = []
        with self._lock:
            for worker in self._workers:
                if not self._queue:
                    break
                if worker.task is None and worker.proc.is_alive():
                    item = self._queue.popleft()
                    worker.task = (item[0], item[1], item[2])
                    sends.append((worker, item))
        for worker, (future, fn, args, kwargs) in sends:
            try:
                worker.conn.send((future.task_id, fn, args, kwargs))
            except (OSError, BrokenPipeError, TypeError) as exc:
                with self._lock:
                    worker.task = None
                future._resolve(error=JobFailedError(
                    f"could not dispatch task {future.label!r}: {exc}"
                ))
        if sends:
            self._wake()
            _update_gauges()

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    # -- collection --------------------------------------------------------------

    def _collect(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    break
                workers = list(self._workers)
            waitables: List[Any] = [self._wake_r]
            for worker in workers:
                waitables.append(worker.conn)
                waitables.append(worker.proc.sentinel)
            ready = _conn_wait(waitables, timeout=0.5)
            if self._drain_wakeups(ready):
                continue
            for worker in workers:
                if worker.conn in ready:
                    self._on_message(worker)
                elif worker.proc.sentinel in ready:
                    self._on_death(worker)

    def _drain_wakeups(self, ready) -> bool:
        if self._wake_r in ready:
            try:
                os.read(self._wake_r, 4096)
            except OSError:
                pass
            return len(ready) == 1
        return False

    def _on_message(self, worker: _Worker) -> None:
        try:
            task_id, status, payload = worker.conn.recv()
        except (EOFError, OSError):
            self._on_death(worker)
            return
        with self._lock:
            task, worker.task = worker.task, None
        if task is not None and task[0].task_id == task_id:
            if status == "ok":
                task[0]._resolve(value=payload)
            else:
                task[0]._resolve(error=payload)
        _update_gauges()
        self._dispatch()

    def _on_death(self, worker: _Worker) -> None:
        """A worker process died: fail its task, refill the pool."""
        with self._lock:
            if worker not in self._workers:
                return
            self._workers.remove(worker)
            task, worker.task = worker.task, None
        exitcode = worker.proc.exitcode
        worker.conn.close()
        log_event(
            "worker.died",
            pool=self.name,
            exitcode=exitcode,
            task=task[0].label if task else None,
        )
        if task is not None:
            task[0]._resolve(error=JobFailedError(
                f"worker process died (exit code {exitcode}) while running "
                f"task {task[0].label!r}"
            ))
        # Refill outside the lock (REPRO-FORK: never fork under a lock).
        replacement = None
        with self._lock:
            needs_refill = not self._closed
        if needs_refill:
            replacement = self._start_worker()
            _count_restart()
        with self._lock:
            if replacement is not None:
                if self._closed:
                    needs_refill = False
                else:
                    self._workers.append(replacement)
        if replacement is not None and not needs_refill:
            # Lost the race with close(): retire the fresh worker.
            try:
                replacement.conn.send(None)
            except (OSError, BrokenPipeError):
                pass
            replacement.proc.join(5.0)
        _update_gauges()
        self._dispatch()

    # -- introspection -----------------------------------------------------------

    def _occupancy(self) -> Tuple[int, int]:
        with self._lock:
            if self._closed:
                return 0, 0
            return (
                len(self._workers),
                sum(1 for w in self._workers if w.task is not None),
            )

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        size, busy = self._occupancy()
        return f"ProcessWorkerPool(name={self.name!r}, size={size}, busy={busy})"
