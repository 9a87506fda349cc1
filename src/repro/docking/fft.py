"""FFT correlation engine — PIPER's production algorithm, kept as a reference.

Each channel requires a forward FFT of the (padded) ligand grid, a complex
modulation with the receptor's precomputed spectrum, and an inverse FFT
("Direct correlation on a GPU replaces the steps of forward FFT, modulation,
and inverse FFT", Sec. III.A).  An engine keeps the spectra of the last
receptor it correlated, matching PIPER, which transfers/prepares the
protein grid once.

Complexity per rotation: C channels x O(N^3 log N).  Every transform runs
on one thread; the multicore FFT figures of Sec. V.A are cost-model output
(:mod:`repro.perf.cpumodel`), not a runtime path.

No runtime path docks with this engine: for probe-sized ligands direct
correlation is faster (Sec. III), so :class:`~repro.docking.engine.DockingEngine`
runs :class:`~repro.docking.direct.DirectCorrelationEngine`.  This engine is
the reference kernel that the FFT == direct property tests and the paper
benchmarks (Fig. 2b, the Sec. III crossover) run.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import fft as sp_fft

from repro.docking.correlation import CorrelationEngine, valid_translation_shape
from repro.grids.energyfunctions import EnergyGrids

__all__ = ["FFTCorrelationEngine"]


class FFTCorrelationEngine(CorrelationEngine):
    """Cross-correlation via real FFTs with receptor-spectrum reuse.

    With ``R`` the receptor channel and ``L`` the zero-padded ligand channel,
    the pose score ``corr(a) = sum_d L(d) R(a + d) = sum_i R(i) L(i - a)``
    equals ``irfftn(rfftn(R) * conj(rfftn(L)))`` (conjugation on the ligand
    spectrum).  Restricting to the valid cube ``a in [0, n - m]^3`` discards
    wrap-around terms, so circular equals linear correlation there (ligand
    support is only m^3).
    """

    name = "fft"

    def __init__(self) -> None:
        # (receptor, its fp64 spectra) of the last receptor correlated.
        # Holding the receptor keeps its identity alive, so the ``is``
        # check below cannot match a different object at a recycled id().
        self._spectra: Optional[Tuple[EnergyGrids, np.ndarray]] = None

    def correlate(self, receptor: EnergyGrids, ligand: EnergyGrids) -> np.ndarray:
        self._check(receptor, ligand)
        shape = receptor.channels.shape[1:]
        mshape = ligand.channels.shape[1:]
        t1, t2, t3 = valid_translation_shape(shape, mshape)

        if self._spectra is None or self._spectra[0] is not receptor:
            self._spectra = (
                receptor,
                sp_fft.rfftn(receptor.channels.astype(np.float64), axes=(1, 2, 3)),
            )
        spectra = self._spectra[1]

        padded = np.zeros((ligand.n_channels, *shape), dtype=np.float64)
        padded[:, : mshape[0], : mshape[1], : mshape[2]] = ligand.channels
        lig_spec = np.conj(sp_fft.rfftn(padded, axes=(1, 2, 3)))

        weights = receptor.weights * ligand.weights
        # Sum channels in the frequency domain: one inverse FFT instead of C.
        combined = np.einsum("c,cijk->ijk", weights, spectra * lig_spec)
        corr = sp_fft.irfftn(combined, s=shape)
        return np.ascontiguousarray(corr[:t1, :t2, :t3])

    def correlate_per_channel(
        self, receptor: EnergyGrids, ligand: EnergyGrids
    ) -> np.ndarray:
        """Unweighted per-channel correlations, shape (C, T, T, T).

        Used by tests and the profiling harness; the production path sums in
        the frequency domain (:meth:`correlate`).
        """
        self._check(receptor, ligand)
        shape = receptor.channels.shape[1:]
        mshape = ligand.channels.shape[1:]
        t1, t2, t3 = valid_translation_shape(shape, mshape)
        padded = np.zeros((ligand.n_channels, *shape), dtype=np.float64)
        padded[:, : mshape[0], : mshape[1], : mshape[2]] = ligand.channels
        rec_spec = sp_fft.rfftn(receptor.channels.astype(np.float64), axes=(1, 2, 3))
        lig_spec = np.conj(sp_fft.rfftn(padded, axes=(1, 2, 3)))
        corr = sp_fft.irfftn(rec_spec * lig_spec, s=shape, axes=(1, 2, 3))
        return np.ascontiguousarray(corr[:, :t1, :t2, :t3])
