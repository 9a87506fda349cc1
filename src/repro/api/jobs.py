"""Job model of the mapping service: handles, status, progress events.

A submitted :class:`~repro.api.requests.MapRequest` becomes a job.  The
caller holds a :class:`JobHandle` and interacts only through it — poll
the status, wait for the result, cancel, read progress events — while the
service executes the request on its worker pool.  Cancellation is
cooperative once a job runs: the flag is checked at every stage boundary
(per probe, per pipeline stage, and — when the request shards
minimization over multiple virtual devices — per shard start and per
batch chunk within a shard), so a running job stops at the next
boundary rather than mid-kernel.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.api.errors import JobTimeoutError
from repro.api.schema import SCHEMA_VERSION, check_schema_version
from repro.obs.logging import log_event
from repro.obs.metrics import registry
from repro.obs.trace import NULL_TRACER, TracerLike

__all__ = [
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "JOB_STATUSES",
    "JobCancelled",
    "ProgressEvent",
    "JobHandle",
]

#: Job lifecycle states (strings, so they serialize into logs verbatim).
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"
JOB_STATUSES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED, JOB_CANCELLED)

#: States a job never leaves.
_TERMINAL = (JOB_DONE, JOB_FAILED, JOB_CANCELLED)


class JobCancelled(RuntimeError):
    """Raised inside a job when its cancel flag is observed, and re-raised
    by :meth:`JobHandle.result` for a cancelled job."""


@dataclass(frozen=True)
class ProgressEvent:
    """One stage boundary of one job: ``probe`` entered ``stage``.

    ``stage`` is ``"dock"`` / ``"minimize"`` / ``"cluster"`` per probe,
    then a single ``"consensus"`` (with ``probe=""``) for the cross-probe
    stage.  Under process streaming a probe's three events are emitted
    when its worker task returns, stamped with the times the worker
    measured.  ``index``/``total`` locate the probe within the request,
    so a client can render per-stage progress without knowing the
    pipeline.  A multi-device minimization additionally emits
    ``"minimize-shard"`` per shard, where ``index``/``total`` locate the
    *shard* within that probe's shard plan.

    Correlation fields (wire schema v2): ``trace_id``/``span_id`` tie a
    live event to the request's trace (empty strings when tracing is
    off), and ``elapsed_s`` is monotonic seconds since the job started
    executing — event streams order and time consistently even when
    client and server wall clocks disagree.
    """

    job_id: str
    stage: str
    probe: str
    index: int
    total: int
    trace_id: str = ""
    span_id: str = ""
    elapsed_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready wire form (the gateway's SSE ``data:`` payload)."""
        out: Dict[str, object] = {"schema_version": SCHEMA_VERSION}
        out.update(asdict(self))
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ProgressEvent":
        """Rebuild an event from :meth:`to_dict` output (re-validated)."""
        check_schema_version(data, "ProgressEvent")
        known = {
            "schema_version", "job_id", "stage", "probe", "index", "total",
            "trace_id", "span_id", "elapsed_s",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            from repro.api.errors import InvalidRequestError

            raise InvalidRequestError(
                f"unknown ProgressEvent field(s): {unknown}"
            )
        return cls(
            job_id=str(data.get("job_id", "")),
            stage=str(data.get("stage", "")),
            probe=str(data.get("probe", "")),
            index=int(data.get("index", 0)),
            total=int(data.get("total", 0)),
            trace_id=str(data.get("trace_id", "")),
            span_id=str(data.get("span_id", "")),
            elapsed_s=float(data.get("elapsed_s", 0.0)),
        )


class JobHandle:
    """The caller's view of one submitted mapping job.

    Thread-safe; every accessor reflects the live state of the job.  The
    service mutates the underlying record through the package-private
    methods — callers only read, wait and cancel.
    """

    def __init__(
        self,
        job_id: str,
        on_event: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> None:
        self.job_id = job_id
        self._status = JOB_QUEUED
        self._result = None
        self._error: Optional[BaseException] = None
        self._events: List[ProgressEvent] = []
        self._on_event = on_event
        self._done_callbacks: List[Callable[["JobHandle"], None]] = []
        self._cancel = threading.Event()
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._future: Optional[Future] = None  # set by the service after submit
        self._tracer: TracerLike = NULL_TRACER  # set when tracing is on
        self._t0 = time.perf_counter()  # re-anchored when the job starts running

    # -- caller API --------------------------------------------------------------

    def status(self) -> str:
        """Current lifecycle state (one of :data:`JOB_STATUSES`)."""
        with self._lock:
            return self._status

    def poll(self) -> str:
        """Non-blocking status check (alias of :meth:`status`)."""
        return self.status()

    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.status() in _TERMINAL

    def result(self, timeout: Optional[float] = None):
        """Block until terminal, then return the :class:`MapResult`.

        The error contract distinguishes *the wait giving up* from *the
        job going wrong*, so poll loops never confuse the two:

        * **wait timed out** — the job is still queued/running after
          ``timeout`` seconds: raises
          :class:`~repro.api.errors.JobTimeoutError` (a
          :class:`TimeoutError` subclass, so legacy ``except
          TimeoutError:`` handlers still catch it).  The job keeps
          running; calling ``result`` again later is valid and may
          succeed.
        * **job failed** — re-raises the job's own exception, whatever
          its type (even if that happens to be a ``TimeoutError`` raised
          *inside* the job — it will never be a ``JobTimeoutError``,
          which only this wait raises).  The job is terminal; retrying
          ``result`` re-raises the same error.
        * **job cancelled** — raises :class:`JobCancelled`; terminal.
        """
        if not self._done.wait(timeout):
            raise JobTimeoutError(
                f"job {self.job_id!r} still {self.status()!r} after "
                f"{timeout}s (the job keeps running; wait again or cancel)"
            )
        with self._lock:
            if self._status == JOB_CANCELLED:
                raise JobCancelled(f"job {self.job_id!r} was cancelled")
            if self._status == JOB_FAILED:
                error = self._error
                assert error is not None  # _finish("failed", ...) set it
                raise error
            return self._result

    def cancel(self) -> bool:
        """Request cancellation; True unless the job already finished.

        A queued job is cancelled immediately; a running one stops at its
        next stage boundary (cooperative), after which :meth:`status`
        reports ``"cancelled"`` and :meth:`result` raises
        :class:`JobCancelled`.
        """
        with self._lock:
            if self._status in _TERMINAL:
                return False
            self._cancel.set()
            future = self._future
        # Outside the lock: Future.cancel only succeeds while still queued.
        if future is not None and future.cancel():
            self._finish(JOB_CANCELLED)
        return True

    def events(self) -> List[ProgressEvent]:
        """Progress events recorded so far (copy, oldest first)."""
        with self._lock:
            return list(self._events)

    @property
    def trace_id(self) -> str:
        """The id of this job's trace ("" when tracing is off)."""
        return self._tracer.trace_id

    def add_done_callback(self, fn: Callable[["JobHandle"], None]) -> None:
        """Call ``fn(handle)`` once the job reaches a terminal state.

        Fires exactly once per callback, on the thread that finishes the
        job (or immediately, on the caller's thread, if the job is
        already terminal).  The serving layers use this to free admission
        slots the moment a job completes instead of polling.
        """
        with self._lock:
            if self._status not in _TERMINAL:
                self._done_callbacks.append(fn)
                return
        fn(self)

    def exception(self) -> Optional[BaseException]:
        """The error of a failed job, else None."""
        with self._lock:
            return self._error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JobHandle({self.job_id!r}, status={self.status()!r})"

    # -- service-side hooks ------------------------------------------------------

    def _check_cancelled(self) -> None:
        """Stage-boundary check: raise :class:`JobCancelled` if requested."""
        if self._cancel.is_set():
            raise JobCancelled(f"job {self.job_id!r} was cancelled")

    def _set_tracer(self, tracer: Optional[TracerLike]) -> None:
        """Attach the request's tracer so events carry its ids."""
        with self._lock:
            self._tracer = tracer if tracer is not None else NULL_TRACER

    def _emit(
        self,
        stage: str,
        probe: str,
        index: int,
        total: int,
        span_id: str = "",
        at_s: Optional[float] = None,
    ) -> None:
        """Record one event; ``at_s`` is a ``perf_counter`` reading taken
        elsewhere (a worker process's stage start), default now."""
        at = time.perf_counter() if at_s is None else at_s
        event = ProgressEvent(
            job_id=self.job_id,
            stage=stage,
            probe=probe,
            index=index,
            total=total,
            trace_id=self._tracer.trace_id,
            span_id=span_id,
            elapsed_s=at - self._t0,
        )
        with self._lock:
            self._events.append(event)
        if self._on_event is not None:
            self._on_event(event)

    def _set_running(self) -> None:
        with self._lock:
            if self._status == JOB_QUEUED:
                self._status = JOB_RUNNING
                # Event elapsed_s counts from execution start, not submit.
                self._t0 = time.perf_counter()

    def _finish(
        self,
        status: str,
        result=None,
        error: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            if self._status in _TERMINAL:
                return
            self._status = status
            self._result = result
            self._error = error
            callbacks, self._done_callbacks = self._done_callbacks, []
        registry().counter(
            "repro_jobs_total", ("status",),
            help="Jobs finished, by terminal state.",
        ).inc(status=status)
        log_event(
            "job.finished",
            job_id=self.job_id,
            status=status,
            trace_id=self._tracer.trace_id,
            elapsed_s=round(time.perf_counter() - self._t0, 6),
            error=str(error) if error is not None else "",
        )
        self._done.set()
        for fn in callbacks:
            fn(self)
