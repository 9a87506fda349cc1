"""Parallel execution primitives: CPU accounting and stage pipelining.

Stage pipelining (:class:`PipelineExecutor`) flows one item through a
*chain* of stages, and stage ``s`` of item ``k+1`` overlaps stage ``s+1``
of item ``k``.  That is the service's "async probe streaming": probe k+1
docks while probe k minimizes, so a multi-probe mapping request is
bounded by its slowest stage, not the sum of stages.

Worker *processes* are started only by :mod:`repro.workers`.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

T = TypeVar("T")

__all__ = [
    "chunked",
    "usable_cpus",
    "PipelineExecutor",
    "pipeline_map",
]


def usable_cpus() -> int:
    """CPUs this process may actually run on.

    Container/cgroup deployments routinely pin a process to fewer CPUs
    than the machine has; scheduling decisions (thread vs process
    streaming, worker counts) must see the *affinity* count, not the
    hardware count.  Falls back to ``os.cpu_count()`` on platforms
    without ``sched_getaffinity``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platform
            pass
    return max(1, os.cpu_count() or 1)


def chunked(items: Sequence[T], size: int) -> Iterator[List[T]]:
    """Yield consecutive chunks of at most ``size`` items (last may be short)."""
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    for start in range(0, len(items), size):
        yield list(items[start : start + size])


class _StageItem:
    """One item in flight: its index, current payload, or sticky error."""

    __slots__ = ("index", "payload", "error")

    def __init__(self, index: int, payload, error: Optional[BaseException] = None):
        self.index = index
        self.payload = payload
        self.error = error


class PipelineExecutor:
    """Order-preserving map of items through a chain of stages.

    Each stage runs in its own thread with bounded hand-off queues, so
    stage ``s`` processes item ``k+1`` while stage ``s+1`` still works on
    item ``k`` — within one stage, items stay strictly sequential and in
    submission order.  Because every item's computation is independent and
    the per-item work is exactly the composed stage functions, results are
    identical to the serial loop ``[stageN(...stage1(x)) for x in items]``
    — pipelining changes scheduling, never values.

    An exception raised by a stage sticks to its item: downstream stages
    skip it, the remaining items still run, and :meth:`map` re-raises the
    error of the *earliest* failed item — deterministic regardless of
    thread timing.

    Parameters
    ----------
    stages:
        The stage callables, applied left to right.
    mode:
        ``"thread"`` (default) or ``"serial"`` (plain loop; the
        equivalence baseline and the fallback for single-stage or
        single-item work).
    queue_size:
        Bound of each hand-off queue (backpressure: how many finished
        stage-``s`` payloads may wait for stage ``s+1``).
    """

    def __init__(
        self,
        stages: Sequence[Callable],
        mode: str = "thread",
        queue_size: int = 2,
    ) -> None:
        if not stages:
            raise ValueError("PipelineExecutor needs at least one stage")
        if mode not in ("serial", "thread"):
            raise ValueError(f"unknown pipeline mode {mode!r}")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.stages = list(stages)
        self.mode = mode
        self.queue_size = queue_size

    def map(self, items: Sequence[T]) -> List:
        items = list(items)
        if not items:
            return []
        if self.mode == "serial" or len(self.stages) == 1 or len(items) == 1:
            return self._map_serial(items)
        return self._map_threaded(items)

    def _map_serial(self, items: Sequence[T]) -> List:
        out = []
        for item in items:
            value = item
            for stage in self.stages:
                value = stage(value)
            out.append(value)
        return out

    def _map_threaded(self, items: Sequence[T]) -> List:
        queues = [
            queue.Queue(maxsize=self.queue_size)
            for _ in range(len(self.stages) + 1)
        ]
        sentinel = object()
        # Snapshot the caller's contextvars (active trace span, request
        # scope, ...) so stage threads observe the same ambient context
        # the serial loop would — scheduling changes, context doesn't.
        caller_ctx = contextvars.copy_context()

        def run_stage(stage: Callable, q_in: queue.Queue, q_out: queue.Queue):
            ctx = caller_ctx.copy()
            while True:
                got = q_in.get()
                if got is sentinel:
                    q_out.put(sentinel)
                    return
                if got.error is None:
                    try:
                        got.payload = ctx.run(stage, got.payload)
                    except BaseException as exc:  # sticky: later stages skip
                        got.error = exc
                        got.payload = None
                q_out.put(got)

        workers = [
            threading.Thread(
                target=run_stage,
                args=(stage, queues[s], queues[s + 1]),
                name=f"pipeline-stage-{s}",
                daemon=True,
            )
            for s, stage in enumerate(self.stages)
        ]
        for w in workers:
            w.start()

        results: List = [None] * len(items)
        errors: List[_StageItem] = []

        def feed():
            for i, item in enumerate(items):
                queues[0].put(_StageItem(i, item))
            queues[0].put(sentinel)

        feeder = threading.Thread(target=feed, name="pipeline-feed", daemon=True)
        feeder.start()
        while True:
            got = queues[-1].get()
            if got is sentinel:
                break
            if got.error is not None:
                errors.append(got)
            else:
                results[got.index] = got.payload
        feeder.join()
        for w in workers:
            w.join()
        if errors:
            raise min(errors, key=lambda e: e.index).error
        return results


def pipeline_map(
    stages: Sequence[Callable],
    items: Sequence[T],
    mode: str = "thread",
    queue_size: int = 2,
) -> List:
    """One-shot :class:`PipelineExecutor` — map ``items`` through ``stages``."""
    return PipelineExecutor(stages, mode=mode, queue_size=queue_size).map(items)
