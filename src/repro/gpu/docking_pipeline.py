"""End-to-end GPU rigid docking: the paper's accelerated PIPER, executed.

Wraps :class:`~repro.docking.piper.PiperDocker`'s workload in the GPU path:
rotations are gridded on the host, batched into constant memory
(:mod:`repro.gpu.batching`), correlated by the direct-correlation kernel,
and filtered on a single SM (:mod:`repro.gpu.scoring_kernel`) — with the
virtual device accounting time for every kernel and transfer.  Poses are
tested identical to the serial ``PiperDocker.run``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.docking.piper import DockedPose, PiperConfig, PiperDocker
from repro.cuda.device import Device
from repro.gpu.batching import gpu_batched_correlation, max_batch_rotations
from repro.gpu.scoring_kernel import gpu_score_and_filter
from repro.structure.molecule import Molecule
from repro.util.parallel import chunked

__all__ = ["GpuDockingRun", "GpuPiperDocker"]


@dataclass
class GpuDockingRun:
    """Poses plus the device-time ledger of one GPU docking run."""

    poses: List[DockedPose]
    predicted_device_time_s: float
    batches: int
    batch_size: int


class GpuPiperDocker:
    """GPU-path PIPER: identical poses, accounted device time.

    Reuses the serial :class:`PiperDocker` for receptor gridding, rotation
    sets and pose/world-transform bookkeeping; only the per-rotation inner
    loop (correlate + score + filter) runs through the GPU modules.
    """

    def __init__(
        self,
        receptor: Molecule,
        probe: Molecule,
        config: PiperConfig | None = None,
        device: Device | None = None,
    ) -> None:
        self.serial = PiperDocker(receptor, probe, config)
        self.device = device or Device()
        cfg = self.serial.config
        limit = max_batch_rotations(
            cfg.probe_grid,
            self.serial.receptor_grids.n_channels,
            self.device.spec,
        )
        if limit < 1:
            raise MemoryError(
                "probe grids do not fit constant memory; direct correlation "
                "on this device requires a smaller probe grid"
            )
        # An explicit configured batch may shrink below the constant-memory
        # cap (never exceed it — the device would reject the upload).
        self.batch_size = min(limit, cfg.batch_size) if cfg.batch_size else limit

    def run(self, rotation_indices: Sequence[int] | None = None) -> GpuDockingRun:
        """Dock all (or selected) rotations through the GPU path."""
        cfg = self.serial.config
        indices = list(
            range(len(self.serial.rotations))
            if rotation_indices is None
            else rotation_indices
        )
        t_total = 0.0
        poses: List[DockedPose] = []
        n_batches = 0

        for batch_idx in chunked(indices, self.batch_size):
            grids = [self.serial.grid_rotation(ri) for ri in batch_idx]
            corr = gpu_batched_correlation(
                self.device, self.serial.receptor_grids, grids
            )
            t_total += corr.total_time_s
            n_batches += 1
            for ri, scores in zip(batch_idx, corr.scores):
                filt = gpu_score_and_filter(
                    self.device,
                    scores,
                    k=cfg.poses_per_rotation,
                    exclusion_radius=cfg.exclusion_radius,
                )
                t_total += filt.predicted_kernel_time_s + filt.predicted_d2h_time_s
                poses.extend(self.serial._to_docked(ri, f) for f in filt.poses)

        poses.sort()
        return GpuDockingRun(
            poses=poses,
            predicted_device_time_s=t_total,
            batches=n_batches,
            batch_size=self.batch_size,
        )
