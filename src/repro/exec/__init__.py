"""Work sharding: which device gets which contiguous slice.

A :class:`ShardPlan` is a balanced contiguous assignment of work items to
devices with a fixed reduction order.  Multi-device ensemble minimization
(:mod:`repro.minimize.multidevice`) executes one, and the paper's
multi-GPU model (:mod:`repro.cuda.multigpu`) predicts with the same plan,
so the two cannot disagree about sharding.  The package works in device
counts and holds no device or cost model.
"""

from repro.exec.plan import Shard, ShardPlan

__all__ = ["Shard", "ShardPlan"]
