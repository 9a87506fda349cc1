"""Analytic Continuum Electrostatics (ACE): Eqs. (4)-(7) of the paper.

The electrostatic energy decomposes (Eq. 4) into per-atom self energies and
pairwise interaction energies:

* **Self energy** (Eq. 5): Born self-energy in solvent plus effective
  pairwise contributions from all other solute atoms,

      E_i^self = q_i^2 / (2 eps_s R_i) + sum_{k != i} E_ik^self

* **Pairwise self term** (Eq. 6, Schaefer & Karplus 1996):

      E_ik^self = omega_ik q_i^2 exp(-r_ik^2 / sigma_ik^2)
                + tau q_i^2 Vtilde_k / (8 pi) * (r_ik^3 / (r_ik^4 + mu_ik^4))^4

* **Pairwise interaction** (Eq. 7, generalized Born):

      E_ij^int = 332 q_i q_j / r_ij
               - 166 tau q_i q_j / sqrt(r^2 + a_i a_j exp(-r^2 / (4 a_i a_j)))

Born radii ``a_i`` "depend on the self-energy of the atom"; we use the
standard inversion ``a_i = 166 tau q_i^2 / E_i^self`` clamped to a physical
range (see :func:`born_radii_from_self_energies`).

Pair parameters: ``sigma_ik`` and ``mu_ik`` are arithmetic means of per-atom
ACE radii, and ``omega_ik`` is chosen so the Gaussian height scales with the
neighbor's volume — physically plausible stand-ins for the fitted CHARMM/ACE
tables (documented substitution; DESIGN.md).

Gradients: all terms are differentiated analytically with Born radii held
fixed during a force evaluation (radii are refreshed once per iteration,
like the neighbor lists) — the standard frozen-alpha approximation.

One pair pass: the math lives in :func:`ace_self_from_pairs` and
:func:`gb_from_pairs`, which read a :class:`~repro.minimize.accumulate.PairGeometry`
computed once per evaluation (shared with the vdW term) and per-pair
parameters (:class:`AceSelfPairParams`, :class:`GbPairParams`) whose
lifetime follows the pair list: the energy models build them when a list
is built and rebuild them with it.  :func:`ace_self_energies` and
:func:`gb_pairwise_energy` are the standalone forms, building both for a
single call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.constants import BORN_166, COULOMB_332, SOLVENT_DIELECTRIC, TAU
from repro.minimize.accumulate import (
    PairGeometry,
    as_float_array,
    pair_geometry,
    scatter_add_rows,
    scatter_sub_rows,
)

__all__ = [
    "AceSelfPairParams",
    "AceSelfResult",
    "GbPairParams",
    "ace_self_energies",
    "ace_self_from_pairs",
    "ace_self_pair_params",
    "born_radii_from_self_energies",
    "gb_from_pairs",
    "gb_pair_params",
    "gb_pairwise_energy",
]

#: Clamp range for effective Born radii (Angstrom).
BORN_RADIUS_MIN = 0.8
BORN_RADIUS_MAX = 16.0

#: Height scale of the ACE self-energy Gaussian (kcal/mol per charge^2 per A^3).
OMEGA_SCALE = 0.08


@dataclass
class AceSelfResult:
    """Per-atom self energies and the gradient of their sum.

    When requested (``per_pair=True``), ``pair_terms_forward`` holds the
    directional contributions E_ik^self credited to the pair's *first* atom
    and ``pair_terms_reverse`` those credited to the *second* atom — the
    quantities the split pairs-lists of Fig. 10 route separately.
    """

    self_energies: np.ndarray          # (N,)
    gradient: np.ndarray | None        # (N, 3) d(sum_i E_i^self)/dx; None on
                                       # the energies-only fast path
    pair_terms_forward: np.ndarray | None = None   # (P,) e_ij
    pair_terms_reverse: np.ndarray | None = None   # (P,) e_ji


def _pair_params(
    born_i: np.ndarray, born_k: np.ndarray, vol_k: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega_ik, sigma_ik, mu_ik) for pair arrays.

    sigma and mu are arithmetic-mean radii; omega scales with the neighbor
    volume so bulky neighbors desolvate more, normalized by sigma^3 to keep
    the Gaussian integral volume-like.
    """
    sigma = born_i + born_k
    mu = 0.5 * (born_i + born_k)
    omega = OMEGA_SCALE * TAU * vol_k / (sigma**3)
    return omega, sigma, mu


@dataclass(frozen=True)
class AceSelfPairParams:
    """Per-pair Eq. (6) parameters of one pair list.

    They depend only on the per-atom parameters of the listed pairs, so a
    model builds them once per pair-list build and reuses them until the
    list is rebuilt.
    """

    omega_qi2: np.ndarray   # omega_ij q_i^2: Gaussian height, direction i<-j
    omega_qj2: np.ndarray   # omega_ji q_j^2: Gaussian height, direction j<-i
    sig2: np.ndarray        # sigma_ik^2
    mu4: np.ndarray         # mu_ik^4
    tail_i: np.ndarray      # tau q_i^2 Vtilde_j / (8 pi)
    tail_j: np.ndarray      # tau q_j^2 Vtilde_i / (8 pi)


def ace_self_pair_params(
    charges: np.ndarray,
    born_params: np.ndarray,
    volumes: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
) -> AceSelfPairParams:
    """Eq. (6)'s per-pair parameters for a half pairs-list.

    Direction i<-j uses ``Vtilde_j``; direction j<-i uses ``Vtilde_i``.  The
    pair geometry (r, sigma, mu) is symmetric under our parameter choice.
    """
    qi2 = charges[pair_i] ** 2
    qj2 = charges[pair_j] ** 2
    omega_ij, sigma, mu = _pair_params(
        born_params[pair_i], born_params[pair_j], volumes[pair_j]
    )
    omega_ji, _, _ = _pair_params(
        born_params[pair_j], born_params[pair_i], volumes[pair_i]
    )
    return AceSelfPairParams(
        omega_qi2=omega_ij * qi2,
        omega_qj2=omega_ji * qj2,
        sig2=sigma**2,
        mu4=mu**4,
        tail_i=TAU * qi2 * volumes[pair_j] / (8.0 * np.pi),
        tail_j=TAU * qj2 * volumes[pair_i] / (8.0 * np.pi),
    )


def ace_self_energies(
    coords: np.ndarray,
    charges: np.ndarray,
    born_params: np.ndarray,
    volumes: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    per_pair: bool = False,
    with_gradient: bool = True,
) -> AceSelfResult:
    """Evaluate Eq. (5)/(6) over a half pairs-list.

    Parameters
    ----------
    coords, charges:
        (N, 3) positions and (N,) charges.
    born_params:
        (N,) per-type ACE radii ``R_i`` (the force-field Born radius
        parameter, *not* the effective GB radius).
    volumes:
        (N,) ACE solute volumes ``Vtilde``.
    pair_i, pair_j:
        Half list of interacting pairs (each unordered pair once).  Both
        directions of Eq. (6) are evaluated: atom i gains a term using
        ``Vtilde_j`` and atom j gains a term using ``Vtilde_i``.

    Returns
    -------
    :class:`AceSelfResult` with per-atom self energies (including the
    constant Born term ``q^2 / (2 eps_s R)``) and the analytic gradient of
    the *total* self energy.

    Standalone form of :func:`ace_self_from_pairs`: builds the pair geometry
    and parameters for this one call.
    """
    return ace_self_from_pairs(
        pair_geometry(coords, pair_i, pair_j),
        ace_self_pair_params(charges, born_params, volumes, pair_i, pair_j),
        charges,
        born_params,
        per_pair=per_pair,
        with_gradient=with_gradient,
    )


def ace_self_from_pairs(
    geom: PairGeometry,
    params: AceSelfPairParams,
    charges: np.ndarray,
    born_params: np.ndarray,
    per_pair: bool = False,
    with_gradient: bool = True,
) -> AceSelfResult:
    """Eq. (5)/(6) from a shared pair geometry and per-list parameters."""
    pair_i, pair_j = geom.pair_i, geom.pair_j
    energies = (charges**2) / (2.0 * SOLVENT_DIELECTRIC * born_params)
    gradient = np.zeros((geom.n_atoms, 3), dtype=geom.d.dtype)
    if len(pair_i) == 0:
        empty = np.zeros(0, dtype=geom.d.dtype) if per_pair else None
        return AceSelfResult(energies, gradient, empty, empty)

    r2, r = geom.r2, geom.r
    sig2 = params.sig2
    gauss = np.exp(-r2 / sig2)

    r3 = r2 * r
    r4 = r2 * r2
    denom = r4 + params.mu4
    frac = r3 / denom                     # f = r^3/(r^4 + mu^4)
    frac4 = frac**4

    e_ij = params.omega_qi2 * gauss + params.tail_i * frac4
    e_ji = params.omega_qj2 * gauss + params.tail_j * frac4

    np.add.at(energies, pair_i, e_ij)
    np.add.at(energies, pair_j, e_ji)

    if not with_gradient:
        # Line-search fast path: energies only, no derivative arithmetic.
        if per_pair:
            return AceSelfResult(energies, None, e_ij, e_ji)
        return AceSelfResult(energies, None)

    # Gradient wrt r of each term (then chain rule through d/r).
    # d(gauss)/dr = -2 r / sigma^2 * gauss
    dgauss_dr = -2.0 * r / sig2 * gauss
    # d(f^4)/dr = 4 f^3 * df/dr;  df/dr = (3 r^2 (r^4+mu^4) - r^3 4r^3)/denom^2
    dfrac_dr = (3.0 * r2 * denom - 4.0 * r3 * r3) / (denom**2)
    dfrac4_dr = 4.0 * (frac**3) * dfrac_dr

    de_dr = (
        params.omega_qi2 * dgauss_dr
        + params.tail_i * dfrac4_dr
        + params.omega_qj2 * dgauss_dr
        + params.tail_j * dfrac4_dr
    )
    g = (de_dr / geom.r_safe)[:, None] * geom.d  # dE/dx_i; dE/dx_j = -g
    scatter_add_rows(gradient, pair_i, g)
    scatter_sub_rows(gradient, pair_j, g)
    if per_pair:
        return AceSelfResult(energies, gradient, e_ij, e_ji)
    return AceSelfResult(energies, gradient)


def born_radii_from_self_energies(
    self_energies: np.ndarray,
    charges: np.ndarray,
    fallback: np.ndarray,
) -> np.ndarray:
    """Effective GB radii from self energies (Eq. 7's alpha_i).

    Standard GB inversion ``a_i = 166 * tau * q_i^2 / E_i^self``: an atom
    whose self energy is large (well solvated) gets a small radius.  Atoms
    with negligible charge (or non-positive self energy, which cannot occur
    with our positive-definite Eq. 6 parameters but is guarded anyway) fall
    back to their force-field Born radius.  Results are clamped to
    [0.8, 16] Angstrom.
    """
    q2 = as_float_array(charges) ** 2
    e = as_float_array(self_energies)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = BORN_166 * TAU * q2 / e
    bad = ~np.isfinite(alpha) | (alpha <= 0) | (q2 < 1e-12)
    alpha = np.where(bad, fallback, alpha)
    return np.clip(alpha, BORN_RADIUS_MIN, BORN_RADIUS_MAX)


@dataclass(frozen=True)
class GbPairParams:
    """Per-pair Eq. (7) charge products of one pair list."""

    coul_qq: np.ndarray     # 332 q_i q_j
    gb_qq: np.ndarray       # -166 tau q_i q_j


def gb_pair_params(
    charges: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray
) -> GbPairParams:
    """Eq. (7)'s per-pair charge products for a half pairs-list."""
    qq = charges[pair_i] * charges[pair_j]
    return GbPairParams(coul_qq=COULOMB_332 * qq, gb_qq=-BORN_166 * TAU * qq)


def gb_pairwise_energy(
    coords: np.ndarray,
    charges: np.ndarray,
    alphas: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    per_pair: bool = False,
    energies_only: bool = False,
):
    """Generalized Born pairwise interaction (Eq. 7) with analytic gradient.

    Evaluates, for each half-list pair,

        E = 332 q_i q_j / r - 166 tau q_i q_j / f_GB(r, a_i, a_j)
        f_GB = sqrt(r^2 + a_i a_j exp(-r^2 / (4 a_i a_j)))

    Returns ``(total_energy, per_atom_energy, gradient)`` where per-atom
    energy splits each pair term equally between its two atoms (the paper's
    energy arrays hold per-atom accumulations).  With ``per_pair=True`` a
    fourth element (the per-pair energies) is appended, used by the GPU
    kernel simulations.

    Standalone form of :func:`gb_from_pairs`: builds the pair geometry and
    parameters for this one call.
    """
    return gb_from_pairs(
        pair_geometry(coords, pair_i, pair_j),
        gb_pair_params(charges, pair_i, pair_j),
        alphas,
        per_pair=per_pair,
        energies_only=energies_only,
    )


def gb_from_pairs(
    geom: PairGeometry,
    params: GbPairParams,
    alphas: np.ndarray,
    per_pair: bool = False,
    energies_only: bool = False,
):
    """Eq. (7) from a shared pair geometry and per-list charge products.

    ``alphas`` are this evaluation's effective Born radii, so ``a_i a_j``
    is the one pair quantity gathered here.
    """
    pair_i, pair_j = geom.pair_i, geom.pair_j
    per_atom = np.zeros(geom.n_atoms, dtype=geom.d.dtype)
    gradient = np.zeros((geom.n_atoms, 3), dtype=geom.d.dtype)
    if len(pair_i) == 0:
        result = (0.0, per_atom, gradient)
        return result + (np.zeros(0),) if per_pair else result

    r2, r, r_safe = geom.r2, geom.r, geom.r_safe
    aa = alphas[pair_i] * alphas[pair_j]

    expo = np.exp(-r2 / (4.0 * aa))
    f2 = r2 + aa * expo
    f = np.sqrt(f2)

    e_coul = params.coul_qq / r_safe
    e_gb = params.gb_qq / f
    e_pair = e_coul + e_gb
    total = float(e_pair.sum())

    if energies_only:
        # Line-search fast path: per-pair energies only (callers sum them);
        # no per-atom split, no derivative arithmetic.
        result = (total, None, None)
        return result + (e_pair,) if per_pair else result

    np.add.at(per_atom, pair_i, 0.5 * e_pair)
    np.add.at(per_atom, pair_j, 0.5 * e_pair)

    # dE/dr: coulomb term -332 qq / r^2;
    # GB term: +166 tau qq / f^2 * df/dr, df/dr = (2r + aa * expo * (-2r/(4aa)))/(2f)
    #        = r (1 - expo/4) / f
    df_dr = r * (1.0 - 0.25 * expo) / f
    de_dr = -params.coul_qq / (r_safe**2) - params.gb_qq / f2 * df_dr
    g = (de_dr / r_safe)[:, None] * geom.d
    scatter_add_rows(gradient, pair_i, g)
    scatter_sub_rows(gradient, pair_j, g)

    if per_pair:
        return total, per_atom, gradient, e_pair
    return total, per_atom, gradient
