"""Top-pose filtering with region exclusion (Fig. 5).

"Filtering is performed by selecting the best score and then excluding its
neighbors while selecting the next best score.  Such exclusion is done to
avoid selecting multiple best scores from the same region."  (Sec. III.B)

This module provides the serial reference implementation; the GPU version
(``repro.gpu.scoring_kernel``) reproduces the single-multiprocessor
distribution of Fig. 6 and must agree with this one exactly.

:func:`certified_top_poses` makes the same picks from an fp32 proposal
and an error bound, rescoring only the few translations that could be
picked in fp64 (see :mod:`repro.docking.direct`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.constants import FILTER_EXCLUSION_RADIUS

__all__ = [
    "FilteredPose",
    "certified_top_poses",
    "exclusion_mask_size",
    "filter_top_poses",
]

#: Most candidates :func:`certified_top_poses` rescores before it gives up.
MAX_CANDIDATES = 4096


@dataclass(frozen=True)
class FilteredPose:
    """One retained translation: voxel index and its pose energy."""

    translation: Tuple[int, int, int]
    score: float


def filter_top_poses(
    score_grid: np.ndarray,
    k: int,
    exclusion_radius: int = FILTER_EXCLUSION_RADIUS,
) -> List[FilteredPose]:
    """Select the ``k`` best (lowest-energy) poses with region exclusion.

    After each selection, every voxel within Chebyshev distance
    ``exclusion_radius`` of the selected voxel is excluded from later
    selections — the cube marked "for exclusion" in Fig. 5.  The paper keeps
    the exclusion state in a length-T^3 flag array in GPU global memory
    ("an array of length N^3 ... for constant time lookup"); here it lives
    in a work copy of the grid, as ``inf`` in each excluded cube.

    Returns fewer than ``k`` poses only if exclusion exhausts the grid.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    grid = np.asarray(score_grid, dtype=float)
    if grid.ndim != 3:
        raise ValueError(f"expected a 3-D score grid, got shape {grid.shape}")
    return _greedy(grid.copy(), k, exclusion_radius)


def _greedy(work: np.ndarray, k: int, r: int) -> List[FilteredPose]:
    """The greedy of :func:`filter_top_poses`; overwrites ``work``.

    Each pick writes ``inf`` into its own exclusion cube only, so the
    excluded set is the union of the cubes, as in Fig. 5.
    """
    poses: List[FilteredPose] = []
    for _ in range(k):
        flat_idx = int(np.argmin(work))
        best = float(work.reshape(-1)[flat_idx])
        if not np.isfinite(best):
            break  # everything excluded
        a, b, c = np.unravel_index(flat_idx, work.shape)
        poses.append(FilteredPose(translation=(int(a), int(b), int(c)), score=best))
        work[
            max(0, a - r) : a + r + 1,
            max(0, b - r) : b + r + 1,
            max(0, c - r) : c + r + 1,
        ] = np.inf
    return poses


def certified_top_poses(
    proposal: np.ndarray,
    eps: float,
    rescore: Callable[[np.ndarray], np.ndarray],
    k: int,
    exclusion_radius: int,
) -> Tuple[Optional[List[FilteredPose]], int]:
    """:func:`filter_top_poses` of the fp64 grid, from a proposal within ``eps``.

    ``proposal`` is a score grid (any float dtype) with every value within
    ``eps`` of the fp64 grid's; ``rescore`` maps (K, 3) translations to
    their fp64 values.  The greedy runs on the proposal to get its k-th
    pick s_k; every translation proposed at or below θ = s_k + 2ε is a
    candidate and is rescored; the greedy reruns on the sorted candidates
    with the same (score, first flat index) order.  Every other translation
    is worth more than θ − ε in fp64, so when the rerun makes k picks and
    the last is below θ − ε, the greedy over the whole fp64 grid makes the
    same picks.  (θ is rounded up into the proposal's dtype, in which the
    candidates are compared.)

    Returns ``(poses, rescored)``; ``poses`` is None when the certificate
    fails (non-finite ``eps``, fewer than ``k`` picks, more than
    :data:`MAX_CANDIDATES` candidates, or a last pick at or above θ − ε),
    and the caller must run :func:`filter_top_poses` on the fp64 grid.
    """
    if k < 1 or not np.isfinite(eps):
        return None, 0
    picks = _greedy(proposal.copy(), k, exclusion_radius)
    if len(picks) < k:
        return None, 0
    theta = picks[-1].score + 2.0 * eps
    bound = proposal.dtype.type(theta)
    if float(bound) < theta:
        bound = np.nextafter(bound, proposal.dtype.type(np.inf))
    flat = np.flatnonzero(proposal <= bound)
    if len(flat) > MAX_CANDIDATES:
        return None, 0
    translations = np.stack(np.unravel_index(flat, proposal.shape), axis=1)
    scores = np.asarray(rescore(translations), dtype=np.float64)
    if not np.isfinite(scores).all():
        return None, len(flat)
    kept = _greedy_sorted(translations, scores, flat, k, exclusion_radius)
    if len(kept) < k or not kept[-1].score < float(bound) - eps:
        return None, len(flat)
    return kept, len(flat)


def _greedy_sorted(
    translations: np.ndarray,
    scores: np.ndarray,
    flat: np.ndarray,
    k: int,
    r: int,
) -> List[FilteredPose]:
    """The greedy of :func:`filter_top_poses` on a candidate list.

    Walking the candidates by (score, flat index) and keeping each one
    outside every kept pick's exclusion cube (Chebyshev distance > r) is
    the argmin greedy restricted to the candidates.
    """
    order = np.lexsort((flat, scores))
    kept: List[FilteredPose] = []
    for (a, b, c), score in zip(translations[order].tolist(), scores[order].tolist()):
        if all(
            max(abs(a - x), abs(b - y), abs(c - z)) > r
            for x, y, z in (p.translation for p in kept)
        ):
            kept.append(FilteredPose(translation=(a, b, c), score=score))
            if len(kept) == k:
                break
    return kept


def exclusion_mask_size(grid_edge: int) -> int:
    """Bytes of the exclusion flag array for an edge-``grid_edge`` result grid.

    One byte per cell; for N = 128 this is 2 MiB — too large for the 16 KB
    shared memory, which is why the paper keeps it in global memory.
    """
    return grid_edge**3
