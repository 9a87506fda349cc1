"""Generic work sharding over virtual devices.

Both accelerated phases fan independent work items out over devices —
docking distributes rotations, minimization distributes conformations
(:mod:`repro.cuda.multigpu` Sec. VI framing: "embarrassingly parallel
across devices") — and both need the same three answers: which device
gets which contiguous slice, how big the busiest slice is (the makespan
driver under ceil-division imbalance), and in what order per-device
results merge back (the deterministic reduction that keeps multi-device
runs bitwise-comparable to single-device ones).

:class:`ShardPlan` answers all three once, so the multi-GPU model
(:mod:`repro.cuda.multigpu`) and the executing minimizer
(:mod:`repro.minimize.multidevice`) cannot drift apart.  What a plan
costs in time is a paper-model question, answered by
:func:`repro.perf.speedup.shard_makespan_s`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Shard", "ShardPlan"]


@dataclass(frozen=True)
class Shard:
    """One device's contiguous slice of the work items."""

    device_index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.device_index < 0:
            raise ValueError(f"device_index must be >= 0, got {self.device_index}")
        if not (0 <= self.start < self.stop):
            raise ValueError(f"need 0 <= start < stop, got [{self.start}, {self.stop})")

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ShardPlan:
    """Balanced contiguous assignment of ``n_items`` to ``num_devices``.

    Items split into contiguous slices whose sizes differ by at most one
    (the first ``n_items % num_devices`` devices take the extra item);
    devices left without work carry no shard, so ``num_shards`` can be
    smaller than ``num_devices`` (e.g. 2 poses on 4 devices -> 2
    single-item shards).  Shards are ordered by item range, which is also
    ascending device index — that order *is* the reduction order, fixed at
    planning time rather than by completion timing.
    """

    n_items: int
    num_devices: int
    shards: Tuple[Shard, ...]

    @classmethod
    def contiguous(cls, n_items: int, num_devices: int) -> "ShardPlan":
        """Plan ``n_items`` over ``num_devices`` (zero items = zero shards)."""
        if n_items < 0:
            raise ValueError(f"n_items must be >= 0, got {n_items}")
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices}")
        base, extra = divmod(n_items, num_devices)
        shards = []
        start = 0
        for d in range(num_devices):
            size = base + (1 if d < extra else 0)
            if size == 0:
                break
            shards.append(Shard(device_index=d, start=start, stop=start + size))
            start += size
        return cls(n_items=n_items, num_devices=num_devices, shards=tuple(shards))

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        return tuple(s.size for s in self.shards)

    @property
    def largest(self) -> int:
        """Busiest device's item count (the ceil-division makespan driver)."""
        return max(self.shard_sizes, default=0)

    @property
    def reduction_order(self) -> Tuple[int, ...]:
        """Device indices in merge order (ascending item range, fixed)."""
        return tuple(s.device_index for s in self.shards)
