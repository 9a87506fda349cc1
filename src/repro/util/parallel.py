"""Parallel execution helpers: CPU accounting and chunking.

Worker *processes* are started only by :mod:`repro.workers`.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Sequence, TypeVar

T = TypeVar("T")

__all__ = ["chunked", "usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may actually run on.

    Container/cgroup deployments routinely pin a process to fewer CPUs
    than the machine has; scheduling decisions (sequential vs process
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
