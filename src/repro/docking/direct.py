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

Two precisions serve the docking loop (:meth:`PiperDocker.run
<repro.docking.piper.PiperDocker.run>`):

* :meth:`DirectCorrelationEngine.propose` scores every translation in
  fp32, as the paper's kernel does, with each channel weight folded into
  the ligand voxel values, and returns a rigorous bound ε on the distance
  between each proposed score and the fp64 score of :meth:`correlate`:

      ε = (γ32(n+C+2) + γ64(n+C+2)) · Σ_{c,d} |w_c·v_{c,d}| · max|R_c|,
      γ(k) = k·u / (1 − k·u),

  for ``n`` non-zero (channel, voxel) terms and ``C`` channels.  The bound
  holds for any summation order, so the proposal sums in whatever order
  is fastest.  A rotation whose terms could underflow or overflow in fp32
  gets ε = inf.
* :meth:`DirectCorrelationEngine.rescore` computes the fp64 score of a few
  translations with :meth:`correlate`'s exact per-channel, per-voxel
  operation sequence, so each value has :meth:`correlate`'s bits.

:func:`repro.docking.filtering.certified_top_poses` combines the two.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

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
        # (receptor, max |R_c|, smallest non-zero |R_c|) of the last
        # receptor proposed against; the reference keeps the identity alive.
        self._bounds: Optional[Tuple[EnergyGrids, np.ndarray, np.ndarray]] = None

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

    # -- fp32 proposal and fp64 rescoring ------------------------------------------

    def propose(
        self, receptor: EnergyGrids, ligand: EnergyGrids
    ) -> Tuple[np.ndarray, float]:
        """fp32 score grid over valid translations and its error bound ε.

        Every proposed score lies within ε of :meth:`correlate`'s fp64 score
        of the same translation.  Each term reads the receptor channel as a
        flat array at the voxel's flat offset, so every multiply-add runs
        over contiguous memory; the rows past each valid ``(b, c)`` range
        read wrapped-around voxels and are dropped at the end.
        """
        self._check(receptor, ligand)
        t1, t2, t3 = valid_translation_shape(
            receptor.channels.shape[1:], ligand.channels.shape[1:]
        )
        n_channels, _, n2, n3 = receptor.channels.shape
        absmax, absmin = self._receptor_bounds(receptor)
        weights = receptor.weights * ligand.weights
        chan, offsets, values = _sparse_terms(ligand, n2, n3)
        used = weights[chan] != 0.0
        chan, offsets = chan[used], offsets[used]
        folded = weights[chan] * values[used].astype(np.float64)
        coef = folded.astype(np.float32)

        flat = receptor.channels.reshape(n_channels, -1)
        length = ((t1 - 1) * n2 + (t2 - 1)) * n3 + t3
        out = np.zeros(t1 * n2 * n3, dtype=np.float32)
        acc = out[:length]
        term = np.empty(length, dtype=np.float32)
        for c, off, a in zip(chan, offsets, coef):
            np.multiply(flat[c, off : off + length], a, out=term)
            acc += term
        scores = np.ascontiguousarray(out.reshape(t1, n2, n3)[:, :t2, :t3])
        return scores, _error_bound(coef, folded, absmax[chan], absmin[chan], n_channels)

    def rescore(
        self, receptor: EnergyGrids, ligand: EnergyGrids, translations: np.ndarray
    ) -> np.ndarray:
        """fp64 scores of ``translations`` (K, 3), bit for bit :meth:`correlate`'s.

        Gathers every (channel, voxel, translation) receptor value at once,
        then repeats :meth:`correlate`'s sequence exactly: per channel the
        voxel products are added in voxel order onto zero, and the weighted
        channel sums are added in channel order onto zero.  With
        ``skip_zero_voxels=False`` the values are the same as long as the
        receptor values are finite: the skipped products are zeros, and
        adding a zero to an accumulator that starts at +0 changes no bit.
        """
        self._check(receptor, ligand)
        n_channels, _, n2, n3 = receptor.channels.shape
        t = np.asarray(translations, dtype=np.int64).reshape(-1, 3)
        base = (t[:, 0] * n2 + t[:, 1]) * n3 + t[:, 2]
        chan, offsets, values = _sparse_terms(ligand, n2, n3)
        counts = np.bincount(chan, minlength=n_channels)
        slot = np.arange(len(chan)) - (np.cumsum(counts) - counts)[chan]
        width = int(counts.max()) if len(chan) else 0
        index = np.zeros((n_channels, width), dtype=np.int64)
        vals = np.zeros((n_channels, width), dtype=np.float64)
        index[chan, slot] = offsets
        vals[chan, slot] = values
        flat = receptor.channels.reshape(n_channels, -1)
        gathered = flat[
            np.arange(n_channels)[:, None, None], index[:, :, None] + base
        ]
        products = gathered * vals[:, :, None]
        corr = np.zeros((n_channels, len(base)), dtype=np.float64)
        for j in range(width):
            np.add(corr, products[:, j], out=corr, where=(counts > j)[:, None])
        weights = receptor.weights * ligand.weights
        out = np.zeros(len(base), dtype=np.float64)
        for c in range(n_channels):
            if weights[c] != 0.0:
                out += weights[c] * corr[c]
        return out

    def _receptor_bounds(self, receptor: EnergyGrids) -> Tuple[np.ndarray, np.ndarray]:
        """Per-channel max |R_c| and smallest non-zero |R_c|, once per receptor."""
        bounds = self._bounds
        if bounds is None or bounds[0] is not receptor:
            mags = np.abs(receptor.channels).reshape(receptor.n_channels, -1)
            absmax = mags.max(axis=1).astype(np.float64)
            absmin = np.where(mags > 0, mags, np.inf).min(axis=1).astype(np.float64)
            bounds = self._bounds = (receptor, absmax, absmin)
        return bounds[1], bounds[2]


#: Unit roundoffs of fp32 and fp64.
_U32 = 2.0**-24
_U64 = 2.0**-53
#: Smallest normal fp32 magnitude: products at least this large do not underflow.
_F32_TINY = 2.0**-126
#: The bound's own fp64 arithmetic, and the threshold comparisons made with
#: it, round by a relative ~1e-9 of ε at most; this slack covers them.
_BOUND_SLACK = 1.0 + 2.0**-20


def _gamma(k: int, u: float) -> float:
    return k * u / (1.0 - k * u)


def _sparse_terms(
    ligand: EnergyGrids, n2: int, n3: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Non-zero ligand voxels as (channel, flat receptor offset, fp32 value).

    Ordered by channel, then voxel in C order: :meth:`correlate`'s order.
    """
    mask = ligand.channels != 0
    chan, x, y, z = np.nonzero(mask)
    return chan, (x * n2 + y) * n3 + z, ligand.channels[mask]


def _error_bound(
    coef: np.ndarray,
    folded: np.ndarray,
    absmax: np.ndarray,
    absmin: np.ndarray,
    n_channels: int,
) -> float:
    """ε of :meth:`DirectCorrelationEngine.propose` for its terms.

    ``coef`` are the fp32 folded voxel values, ``folded`` the same in fp64,
    ``absmax`` / ``absmin`` the receptor bounds of each term's channel.
    Returns inf when an fp32 step could leave the normal range: a folded
    value or a non-zero product below it (underflow voids the relative
    error model), or a folded value or partial sum near overflow.  So a
    finite ε also means a finite proposal.
    """
    if len(coef) == 0:
        return 0.0
    mag = np.abs(coef).astype(np.float64)
    total = float(np.sum(np.abs(folded) * absmax))
    if not (
        mag.min() >= _F32_TINY
        and mag.max() < 2.0**127
        and (mag * absmin).min() >= _F32_TINY
        and total < 2.0**120
    ):
        return float("inf")
    m = len(coef) + n_channels + 2
    return (_gamma(m, _U32) + _gamma(m, _U64)) * total * _BOUND_SLACK


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
