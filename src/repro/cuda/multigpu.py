"""Multi-GPU extension model (the paper's stated future work).

"In the future, we plan on extending this work to a multi-GPU
implementation and integrating it into a production web server."
(Sec. VI)

FTMap parallelizes naturally at two granularities, both embarrassingly
parallel across devices:

* **docking**: rotations distribute across GPUs (the same coarse-grained
  decomposition the Blue Gene production server uses across nodes),
* **minimization**: independent conformations distribute across GPUs.

The per-device work is the single-GPU pipeline; the multi-GPU model adds
(i) one receptor-grid broadcast per device, (ii) per-batch probe-grid
uploads on every device, and (iii) load imbalance from integer division of
the work items.  There is no inter-GPU communication — the reduction of
filtered poses is a host-side merge of k x rotations tiny records.

A node is a :class:`DeviceTopology`: *N* homogeneous virtual devices with
the serialized host-side broadcast model.  Its per-phase work split is a
:class:`~repro.exec.plan.ShardPlan` — the same plan the minimization
engine executes for real (:mod:`repro.minimize.multidevice`), so the
model and the implementation cannot disagree about sharding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cuda.costmodel import CostModel
from repro.cuda.device import Device, DeviceSpec, TESLA_C1060
from repro.exec.plan import ShardPlan

__all__ = [
    "VirtualDevice",
    "DeviceTopology",
    "MultiGpuTimes",
    "multi_gpu_mapping_times",
    "scaling_curve",
]


@dataclass(frozen=True)
class VirtualDevice:
    """One addressable device of a topology."""

    index: int
    spec: DeviceSpec


@dataclass(frozen=True)
class DeviceTopology:
    """A homogeneous multi-GPU node: ``num_devices`` copies of one spec."""

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

    def cost_model(self) -> CostModel:
        """Per-device GPU cost model."""
        return CostModel(self.device_spec)

    def plan(self, n_items: int) -> ShardPlan:
        """Balanced contiguous shard plan of ``n_items`` over the devices."""
        return ShardPlan.contiguous(n_items, self.num_devices)

    def broadcast_s(self, n_bytes: int) -> float:
        """One ``n_bytes`` host->device copy to *every* device, serialized.

        PCIe transfers of this era serialize through the host, so the
        broadcast costs ``num_devices`` full copies — the shared-input
        model of both the docking receptor-grid broadcast and the
        minimization template broadcast.
        """
        return self.num_devices * self.cost_model().transfer_time(n_bytes)


@dataclass
class MultiGpuTimes:
    """Predicted per-phase wall-clock (seconds) on a multi-GPU node."""

    docking_s: float
    minimization_s: float
    broadcast_s: float

    @property
    def total_s(self) -> float:
        return self.docking_s + self.minimization_s + self.broadcast_s


def multi_gpu_mapping_times(
    topology: DeviceTopology,
    rotations: int = 500,
    conformations: int = 2000,
    **pipeline_kwargs,
) -> MultiGpuTimes:
    """Predict per-probe mapping time on ``topology.num_devices`` devices.

    Work items shard contiguously across devices
    (:meth:`DeviceTopology.plan`); wall-clock per
    phase is the busiest device (ceil-division load imbalance).  Each
    device receives the receptor grids once (22 channels x 128^3 floats
    ~ 184 MB), serialized through the host.
    """
    from repro.gpu.pipeline import GpuFTMapPipeline, ITERATIONS_PER_CONFORMATION

    pipe = GpuFTMapPipeline(Device(topology.device_spec), **pipeline_kwargs)

    per_rotation = pipe.docking_times().total_per_rotation_s
    per_iteration = pipe.minimization_times().total_per_iteration_s

    rec_bytes = pipe.channels * pipe.n**3 * 4

    return MultiGpuTimes(
        docking_s=topology.plan(rotations).largest * per_rotation,
        minimization_s=topology.plan(conformations).largest
        * ITERATIONS_PER_CONFORMATION
        * per_iteration,
        broadcast_s=topology.broadcast_s(rec_bytes),
    )


def scaling_curve(
    max_gpus: int = 8,
    rotations: int = 500,
    conformations: int = 2000,
    **pipeline_kwargs,
) -> Dict[int, float]:
    """Speedup over one GPU as a function of device count.

    Near-linear until ceil-division imbalance and the serialized receptor
    broadcast flatten it — the scaling a production multi-GPU FTMap server
    would see before any algorithmic changes.
    """
    base = multi_gpu_mapping_times(
        DeviceTopology(1), rotations, conformations, **pipeline_kwargs
    ).total_s
    out: Dict[int, float] = {}
    for g in range(1, max_gpus + 1):
        t = multi_gpu_mapping_times(
            DeviceTopology(g), rotations, conformations, **pipeline_kwargs
        ).total_s
        out[g] = base / t
    return out
