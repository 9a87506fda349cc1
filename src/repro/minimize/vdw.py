"""Smoothed Lennard-Jones 6-12 van der Waals term: Eqs. (8)-(10).

FTMap "uses a variant of the Lennard-Jones 6-12 potential" that folds the
cutoff into the functional form through ``(r/rc)^6`` and ``(r/rc)^12``
polynomial tail terms.  We use the unique such variant that is C^1-smooth at
the cutoff:

    E(r) = eps * [ (rm^12/r^12) - 2 (rm^6/r^6)
                 + (r^6/rc^6) * (6 rm^6/rc^6 - 4 rm^12/rc^12)
                 + (r^12/rc^12) * (3 rm^12/rc^12 - 4 rm^6/rc^6) ]   r < rc
    E(r) = 0                                                        r >= rc

The tail coefficients are the unique solution making both E(rc) = 0 and
E'(rc) = 0 for every (eps, rm) — i.e., energy and force vanish continuously
at the cutoff, which a minimizer requires (a force jump at rc would make
line searches oscillate).  Pair parameters combine per Eqs. (9)-(10):
``eps_ik = sqrt(eps_i eps_k)`` and ``rm_ik = (rm_i + rm_k) / 2``... the
paper's Eq. (10) writes the sum; we follow CHARMM's rm_min convention where
per-atom ``rm`` values are half-radii so the pair minimum is their sum.

The math lives in :func:`vdw_from_pairs`, which reads the evaluation's
shared :class:`~repro.minimize.accumulate.PairGeometry` and the pair
list's :class:`VdwPairParams` (built with the list, rebuilt with it);
:func:`vdw_energy` is the standalone form that builds both for one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.constants import VDW_CUTOFF
from repro.minimize.accumulate import (
    PairGeometry,
    pair_geometry,
    scatter_add_rows,
    scatter_sub_rows,
)

__all__ = [
    "VdwPairParams",
    "vdw_energy",
    "vdw_from_pairs",
    "vdw_pair_parameters",
    "vdw_pair_params",
]


def vdw_pair_parameters(
    eps: np.ndarray, rm: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Combine per-atom LJ parameters into per-pair (eps_ik, rm_ik).

    Eq. (9): geometric mean of well depths; Eq. (10): sum of half-radii.
    """
    eps_ik = np.sqrt(eps[pair_i] * eps[pair_j])
    rm_ik = rm[pair_i] + rm[pair_j]
    return eps_ik, rm_ik


@dataclass(frozen=True)
class VdwPairParams:
    """Per-pair Eq. (8)-(10) parameters of one pair list at one cutoff."""

    cutoff: float
    eps_ik: np.ndarray      # Eq. (9) well depth
    u: np.ndarray           # rm_ik^6
    uu: np.ndarray          # rm_ik^12
    tail6: np.ndarray       # 6 (rm/rc)^6 - 4 (rm/rc)^12, the (r/rc)^6 coefficient
    tail12: np.ndarray      # 3 (rm/rc)^12 - 4 (rm/rc)^6, the (r/rc)^12 coefficient


def vdw_pair_params(
    eps: np.ndarray,
    rm: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    cutoff: float,
) -> VdwPairParams:
    """Combined LJ parameters and cutoff-tail coefficients of every pair."""
    eps_ik, rm_ik = vdw_pair_parameters(eps, rm, pair_i, pair_j)
    u = rm_ik**6
    c6 = u / cutoff**6                    # (rm/rc)^6
    c12 = c6 * c6
    return VdwPairParams(
        cutoff=cutoff,
        eps_ik=eps_ik,
        u=u,
        uu=u * u,
        tail6=6.0 * c6 - 4.0 * c12,
        tail12=3.0 * c12 - 4.0 * c6,
    )


def vdw_energy(
    coords: np.ndarray,
    eps: np.ndarray,
    rm: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    cutoff: float = VDW_CUTOFF,
    per_pair: bool = False,
    energies_only: bool = False,
):
    """Smoothed LJ energy, per-atom split, and analytic gradient.

    Returns ``(total, per_atom, gradient)`` (plus per-pair energies when
    ``per_pair=True``).  Pairs at or beyond the cutoff contribute exactly
    zero energy and force.

    Standalone form of :func:`vdw_from_pairs`: builds the pair geometry and
    parameters for this one call.
    """
    return vdw_from_pairs(
        pair_geometry(coords, pair_i, pair_j),
        vdw_pair_params(eps, rm, pair_i, pair_j, cutoff),
        per_pair=per_pair,
        energies_only=energies_only,
    )


def vdw_from_pairs(
    geom: PairGeometry,
    params: VdwPairParams,
    per_pair: bool = False,
    energies_only: bool = False,
):
    """Smoothed LJ from a shared pair geometry and per-list parameters."""
    pair_i, pair_j = geom.pair_i, geom.pair_j
    per_atom = np.zeros(geom.n_atoms, dtype=geom.d.dtype)
    gradient = np.zeros((geom.n_atoms, 3), dtype=geom.d.dtype)
    if len(pair_i) == 0:
        result = (0.0, per_atom, gradient)
        return result + (np.zeros(0),) if per_pair else result

    r = geom.r
    eps_ik, tail6, tail12 = params.eps_ik, params.tail6, params.tail12
    rc = params.cutoff
    inside = r < rc
    r_in = np.where(inside, r, rc)  # dummy values outside; masked later
    r_in = np.where(r_in > 1e-6, r_in, 1e-6)  # guard r=0 overlap

    r6 = r_in**6
    inv_r6 = 1.0 / r6
    a = params.uu * inv_r6 * inv_r6      # rm^12 / r^12
    b = params.u * inv_r6                # rm^6  / r^6
    rc6 = rc**6
    rc12 = rc6 * rc6
    p6 = r6 / rc6                         # (r/rc)^6
    p12 = p6 * p6

    e_pair = eps_ik * (a - 2.0 * b + p6 * tail6 + p12 * tail12)
    e_pair = np.where(inside, e_pair, 0.0)
    total = float(e_pair.sum())

    if energies_only:
        # Line-search fast path: per-pair energies only, no per-atom split,
        # no derivative arithmetic.
        result = (total, None, None)
        return result + (e_pair,) if per_pair else result

    np.add.at(per_atom, pair_i, 0.5 * e_pair)
    np.add.at(per_atom, pair_j, 0.5 * e_pair)

    # dE/dr = eps [ -12 rm^12/r^13 + 12 rm^6/r^7
    #             + 6 r^5/rc^6 (6c6 - 4c12) + 12 r^11/rc^12 (3c12 - 4c6) ]
    de_dr = eps_ik * (
        -12.0 * a / r_in
        + 12.0 * b / r_in
        + 6.0 * (r_in**5) / rc6 * tail6
        + 12.0 * (r_in**11) / rc12 * tail12
    )
    de_dr = np.where(inside, de_dr, 0.0)
    r_safe = np.where(r > 1e-6, r, 1e-6)
    g = (de_dr / r_safe)[:, None] * geom.d
    scatter_add_rows(gradient, pair_i, g)
    scatter_sub_rows(gradient, pair_j, g)

    if per_pair:
        return total, per_atom, gradient, e_pair
    return total, per_atom, gradient
