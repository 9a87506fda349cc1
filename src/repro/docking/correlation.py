"""Correlation engine interface and shared helpers.

The pose score of Eq. (1) is, per channel ``p``:

    corr_p(a, b, c) = sum_{i,j,k} R_p(i, j, k) * L_p(i + a, j + b, k + c)

with the ligand grid (edge ``m``) much smaller than the receptor grid (edge
``n``).  A translation ``(a, b, c)`` is *valid* when the ligand grid lies
fully inside the receptor grid, i.e. ``0 <= a, b, c <= n - m``.  Engines
return the full weighted score grid over valid translations.

Two engines implement the interface.  The runtime docks with
:class:`~repro.docking.direct.DirectCorrelationEngine` only (the paper's
algorithm for probe-sized ligands, Sec. III).
:class:`~repro.docking.fft.FFTCorrelationEngine` is the reference kernel
that tests and the paper benchmarks compare it against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence, Tuple

import numpy as np

from repro.grids.energyfunctions import EnergyGrids

__all__ = [
    "CorrelationEngine",
    "valid_translations",
    "valid_translation_shape",
]


def valid_translations(n: int, m: int) -> int:
    """Edge of the valid-translation cube: ``n - m + 1``."""
    if m > n:
        raise ValueError(f"ligand grid ({m}) larger than receptor grid ({n})")
    return n - m + 1


def valid_translation_shape(
    receptor_shape: Sequence[int], ligand_shape: Sequence[int]
) -> Tuple[int, int, int]:
    """Per-axis valid-translation extents ``n_i - m_i + 1``.

    The correlation algebra is separable per axis, so non-cubic grids are
    supported: each axis contributes its own valid range independently.
    """
    if len(receptor_shape) != 3 or len(ligand_shape) != 3:
        raise ValueError("grid shapes must be 3-D")
    return tuple(
        valid_translations(int(n), int(m))
        for n, m in zip(receptor_shape, ligand_shape)
    )


class CorrelationEngine(ABC):
    """Computes weighted multi-channel correlation score grids.

    Subclasses implement :meth:`correlate`, mapping a receptor
    :class:`EnergyGrids` and a ligand :class:`EnergyGrids` (same channel
    count) to a (T, T, T) float array of pose energies over valid
    translations, where ``T = n - m + 1``.
    """

    name: str = "abstract"

    @abstractmethod
    def correlate(self, receptor: EnergyGrids, ligand: EnergyGrids) -> np.ndarray:
        """Weighted pose-energy grid over valid translations."""

    def _check(self, receptor: EnergyGrids, ligand: EnergyGrids) -> None:
        if receptor.n_channels != ligand.n_channels:
            raise ValueError(
                f"channel mismatch: receptor {receptor.n_channels} vs "
                f"ligand {ligand.n_channels}"
            )
        rec_shape = receptor.channels.shape[1:]
        lig_shape = ligand.channels.shape[1:]
        if any(m > n for n, m in zip(rec_shape, lig_shape)):
            raise ValueError("ligand grid larger than receptor grid")
