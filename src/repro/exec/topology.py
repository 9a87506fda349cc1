"""Shared execution topology: the virtual devices work is sharded over.

:class:`DeviceTopology` is *N* homogeneous virtual devices (one
:class:`~repro.cuda.device.DeviceSpec`) with sharding
(:meth:`DeviceTopology.plan`) and the serialized host-side broadcast model
(:meth:`DeviceTopology.broadcast_s`) that multi-device docking
(:mod:`repro.cuda.multigpu`) and multi-device minimization
(:mod:`repro.minimize.multidevice`) share, so their device math cannot
drift apart.  Naming a topology of two or more devices is also what lets
minimization ``auto`` shard (:mod:`repro.minimize.selection`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.cuda.costmodel import CostModel
from repro.cuda.device import DeviceSpec, TESLA_C1060
from repro.exec.plan import ShardPlan

__all__ = [
    "VirtualDevice",
    "DeviceTopology",
    "default_topology",
    "default_device_spec",
]


@dataclass(frozen=True)
class VirtualDevice:
    """One addressable device of a topology."""

    index: int
    spec: DeviceSpec


@dataclass(frozen=True)
class DeviceTopology:
    """``num_devices`` homogeneous virtual devices.

    Frozen and hashable: a topology is a value describing hardware, not a
    stateful object — per-run state (predicted-time ledgers) lives with
    the executors that consume it.
    """

    num_devices: int = 1
    device_spec: DeviceSpec = TESLA_C1060

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {self.num_devices}")

    @property
    def devices(self) -> Tuple[VirtualDevice, ...]:
        return tuple(
            VirtualDevice(index=i, spec=self.device_spec)
            for i in range(self.num_devices)
        )

    # -- models -------------------------------------------------------------------

    def cost_model(self) -> CostModel:
        """Per-device GPU cost model."""
        return CostModel(self.device_spec)

    # -- sharding -----------------------------------------------------------------

    def plan(self, n_items: int) -> ShardPlan:
        """Balanced contiguous shard plan of ``n_items`` over the devices."""
        return ShardPlan.contiguous(n_items, self.num_devices)

    def broadcast_s(self, n_bytes: int) -> float:
        """One ``n_bytes`` host->device copy to *every* device, serialized.

        PCIe transfers of this era serialize through the host, so the
        broadcast costs ``num_devices`` full copies — the shared-input
        distribution model both the docking receptor-grid broadcast and
        the minimization template broadcast use.
        """
        return self.num_devices * self.cost_model().transfer_time(n_bytes)


#: The package-default topology: one paper GPU.
DEFAULT_TOPOLOGY = DeviceTopology()


def default_topology(num_devices: int = 1) -> DeviceTopology:
    """Default-hardware topology at a given device count."""
    if num_devices == DEFAULT_TOPOLOGY.num_devices:
        return DEFAULT_TOPOLOGY
    return DeviceTopology(num_devices=num_devices)


def default_device_spec() -> DeviceSpec:
    """The default device spec (the paper's C1060)."""
    return DEFAULT_TOPOLOGY.device_spec

