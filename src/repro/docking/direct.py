"""Direct (spatial-domain) correlation engine.

This is the algorithm the paper maps onto the GPU (Sec. III.A): translate
the small ligand grid over the receptor grid and accumulate voxel-voxel
products.  For a ligand grid of edge ``m`` the inner loop touches only the
ligand's m^3 voxels, and — crucially — *all channels and multiple rotations
can share a single pass over the receptor grid*, which is why direct beats
FFT for the tiny FTMap probes.

The vectorized implementation iterates over the ligand's (at most m^3,
typically sparse) non-zero voxels and accumulates shifted receptor windows:
work is O(nnz(L) * T^3) per channel, identical to the GPU kernel's
operation count, with NumPy providing the data parallelism that CUDA
threads provide in the paper.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.docking.correlation import CorrelationEngine, valid_translation_shape
from repro.grids.energyfunctions import EnergyGrids

__all__ = ["DirectCorrelationEngine", "direct_correlate_batch"]


class DirectCorrelationEngine(CorrelationEngine):
    """Spatial-domain correlation over valid translations.

    Parameters
    ----------
    skip_zero_voxels:
        If True (default), only non-zero ligand voxels contribute terms —
        the data-sparsity the paper exploits by packing probe grids into
        constant memory.  Setting False forces dense iteration (useful for
        cost-model validation, where the GPU kernel also iterates densely).
    """

    name = "direct"

    def __init__(self, skip_zero_voxels: bool = True) -> None:
        self.skip_zero_voxels = skip_zero_voxels

    def correlate(self, receptor: EnergyGrids, ligand: EnergyGrids) -> np.ndarray:
        self._check(receptor, ligand)
        tshape = valid_translation_shape(
            receptor.channels.shape[1:], ligand.channels.shape[1:]
        )
        weights = receptor.weights * ligand.weights
        out = np.zeros(tshape, dtype=np.float64)
        for c in range(receptor.n_channels):
            w = weights[c]
            if w == 0.0:
                continue
            out += w * self._correlate_one(
                receptor.channels[c], ligand.channels[c], tshape
            )
        return out

    def correlate_per_channel(
        self, receptor: EnergyGrids, ligand: EnergyGrids
    ) -> np.ndarray:
        """Unweighted per-channel correlations, shape (C, T, T, T)."""
        self._check(receptor, ligand)
        tshape = valid_translation_shape(
            receptor.channels.shape[1:], ligand.channels.shape[1:]
        )
        return np.stack(
            [
                self._correlate_one(receptor.channels[c], ligand.channels[c], tshape)
                for c in range(receptor.n_channels)
            ]
        )

    def _correlate_one(
        self, rec: np.ndarray, lig: np.ndarray, tshape
    ) -> np.ndarray:
        """corr(a) = sum_d L(d) * R(a + d) for a in [0, t1) x [0, t2) x [0, t3).

        Each term is formed in fp64 in one reused buffer and added in place:
        no fp64 copy of the receptor channel, no temporary per voxel.
        """
        t1, t2, t3 = tshape
        out = np.zeros((t1, t2, t3), dtype=np.float64)
        term = np.empty_like(out)
        if self.skip_zero_voxels:
            nz = np.argwhere(lig != 0)
            vals = lig[lig != 0].astype(np.float64)
        else:
            nz = np.argwhere(np.ones_like(lig, dtype=bool))
            vals = lig.reshape(-1).astype(np.float64)
        for (dx, dy, dz), v in zip(nz, vals):
            if v == 0.0 and self.skip_zero_voxels:
                continue
            window = rec[dx : dx + t1, dy : dy + t2, dz : dz + t3]
            np.multiply(window, v, out=term, dtype=np.float64)
            out += term
        return out


def direct_correlate_batch(
    receptor: EnergyGrids,
    ligand_rotations: Sequence[EnergyGrids],
    engine: DirectCorrelationEngine | None = None,
) -> List[np.ndarray]:
    """Score several rotations in one conceptual pass over the receptor grid.

    Mirrors the paper's multi-rotation batching: "storing the voxel grids for
    multiple rotations in the constant memory ... enables the correlation
    inner loop to compute multiple scores in each iteration" (Sec. III.A).
    Numerically the result equals per-rotation correlation; the *benefit* is
    modeled by the GPU cost model (each receptor voxel fetched once is reused
    by all batched rotations).

    Returns one (T, T, T) weighted score grid per rotation.
    """
    eng = engine or DirectCorrelationEngine()
    if not ligand_rotations:
        return []
    eng._check_batch(receptor, ligand_rotations)
    return [eng.correlate(receptor, lg) for lg in ligand_rotations]
