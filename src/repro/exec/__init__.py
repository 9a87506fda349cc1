"""Shared execution-topology layer: devices and sharding.

The one place the package describes *where work runs*: a
:class:`DeviceTopology` (N homogeneous virtual devices) and a generic
:class:`ShardPlan` (balanced contiguous assignment with a fixed reduction
order).  Multi-device docking (:mod:`repro.cuda.multigpu`) and
multi-device ensemble minimization (:mod:`repro.minimize.multidevice`)
consume this module instead of keeping private copies of the same device
math.  It holds no host cost model: backend selection is by rule, on the
inputs (:mod:`repro.docking.selection`, :mod:`repro.minimize.selection`).
"""

from repro.exec.plan import Shard, ShardPlan
from repro.exec.topology import (
    DEFAULT_TOPOLOGY,
    DeviceTopology,
    VirtualDevice,
    default_device_spec,
    default_topology,
)

__all__ = [
    "Shard",
    "ShardPlan",
    "DeviceTopology",
    "VirtualDevice",
    "DEFAULT_TOPOLOGY",
    "default_topology",
    "default_device_spec",
]
