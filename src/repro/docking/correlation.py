"""Correlation engine interface and shared helpers.

The pose score of Eq. (1) is, per channel ``p``:

    corr_p(a, b, c) = sum_{i,j,k} R_p(i, j, k) * L_p(i + a, j + b, k + c)

with the ligand grid (edge ``m``) much smaller than the receptor grid (edge
``n``).  A translation ``(a, b, c)`` is *valid* when the ligand grid lies
fully inside the receptor grid, i.e. ``0 <= a, b, c <= n - m``.  Engines
return the full weighted score grid over valid translations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.cache.keys import compose_key, grids_token
from repro.cache.manager import CacheManager, spectra_cache
from repro.grids.energyfunctions import EnergyGrids

__all__ = [
    "CorrelationEngine",
    "SpectraCache",
    "correlate_channels",
    "valid_translations",
    "valid_translation_shape",
]


class SpectraCache:
    """Content-addressed receptor-spectra cache for the FFT engines.

    Replaces the former ``id()``-keyed weakref cache: keys derive from the
    receptor grid *content* (:func:`repro.cache.keys.grids_token`, memoized
    per object), so structurally equal receptors hit across engine
    instances and object lifetimes, and a recycled ``id()`` can never
    alias another receptor's spectra — the failure mode the weakref scheme
    existed to defend against.

    ``variant`` separates incompatible spectra layouts (per-engine
    precision and memory order) within the shared store.  Entries live in
    the process-wide spectra manager
    (:func:`repro.cache.manager.spectra_cache`, an always-on bounded
    memory tier) unless an explicit :class:`CacheManager` is injected —
    e.g. a disk-backed artifact cache, which then shares spectra across
    processes too.
    """

    def __init__(self, variant: str, cache: Optional[CacheManager] = None) -> None:
        self.variant = variant
        self._cache = cache

    @property
    def manager(self) -> CacheManager:
        return self._cache if self._cache is not None else spectra_cache()

    def _key(self, receptor: EnergyGrids) -> str:
        return compose_key(f"spectra-{self.variant}", [grids_token(receptor)])

    def get(self, receptor: EnergyGrids):
        return self.manager.get(self._key(receptor))

    def put(self, receptor: EnergyGrids, value: np.ndarray) -> None:
        self.manager.put(
            self._key(receptor), value, codec="npz", nbytes=int(value.nbytes)
        )

    def clear(self) -> None:
        """Drop this variant's entries (other engines' spectra survive)."""
        self.manager.clear(namespace=f"spectra-{self.variant}")


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

    def default_batch(self, receptor: EnergyGrids) -> int:
        """Rotations per :meth:`correlate_batch` call when none is configured.

        1 here: the base-class batch is a per-rotation loop, so a larger
        batch would change only the memory footprint, not the arithmetic.
        """
        return 1

    def correlate_batch(
        self, receptor: EnergyGrids, ligand_rotations: Sequence[EnergyGrids]
    ) -> np.ndarray:
        """Score a batch of rotations, returning a (B, T1, T2, T3) stack.

        The base implementation loops :meth:`correlate` per rotation, so
        every engine exposes the batch API with identical numerics; the
        batched-FFT engine overrides this with a vectorized path.
        """
        self._check_batch(receptor, ligand_rotations)
        return np.stack(
            [self.correlate(receptor, lg) for lg in ligand_rotations]
        )

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

    def _check_batch(
        self, receptor: EnergyGrids, ligand_rotations: Sequence[EnergyGrids]
    ) -> None:
        if not ligand_rotations:
            raise ValueError("empty rotation batch")
        base = ligand_rotations[0]
        self._check(receptor, base)
        for lg in ligand_rotations[1:]:
            if (
                lg.channels.shape != base.channels.shape
                or lg.n_channels != base.n_channels
            ):
                raise ValueError("all batched rotations must share grid geometry")


def correlate_channels(
    receptor: EnergyGrids,
    ligand: EnergyGrids,
    engine: "CorrelationEngine",
) -> np.ndarray:
    """Convenience wrapper: validate then delegate to ``engine``."""
    engine._check(receptor, ligand)
    return engine.correlate(receptor, ligand)
