"""PIPER energy-function grid channels.

The pose score (Eq. 2) is ``E = E_shape + w2 * E_elec + w3 * E_desol`` where

* **shape complementarity** is a weighted sum of two correlation components:
  a core clash penalty (probe overlapping protein-occupied voxels) and an
  attractive *halo* reward — PIPER's attractive shape layer.  The halo
  channel stores, on each *empty* voxel, the local burial density (count of
  protein-occupied voxels within a small box), so a probe nestled in a
  concave pocket — surrounded by wall on several sides — out-scores the
  same probe on a convex surface patch,
* **electrostatics** is a weighted sum of two components: the receptor
  Coulomb potential correlated with ligand charge, plus a screened
  (Yukawa) short-range component,
* **desolvation** is a sum of 4..18 pairwise-potential terms.  PIPER obtains
  these by eigendecomposition of a symmetric atom-type contact potential
  ``P = sum_k lambda_k u_k u_k^T`` so that the pairwise sum factorizes into
  ``K`` independent correlations — exactly the structure we reproduce here.

Each correlation channel ``p`` contributes ``w_p * sum_ijk R_p * L_p`` to the
pose energy (Eq. 1); **lower energy = better pose** throughout this package.

Receptor potential grids are computed by FFT convolution of the deposited
charge grid with the appropriate radial kernel (O(N^3 log N)), which stands
in for PIPER's grid preparation step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy import fft as sp_fft

from repro.constants import (
    DEFAULT_DESOLVATION_WEIGHT,
    DEFAULT_ELEC_WEIGHT,
    MAX_DESOLVATION_TERMS,
    MIN_DESOLVATION_TERMS,
)
from repro.grids.gridding import GridSpec, voxelize_molecule
from repro.structure.molecule import Molecule

__all__ = [
    "EnergyGrids",
    "CHANNELS",
    "protein_grids",
    "protein_grids_cached",
    "ligand_grids",
    "num_channels",
    "desolvation_eigenterms",
]

#: Clash penalty per probe voxel overlapping a protein-occupied voxel.
CORE_CLASH_PENALTY = 10.0

#: Reward per unit of probe-voxel burial (halo channel is a burial count).
SURFACE_CONTACT_REWARD = -0.1

#: Chebyshev radius (voxels) of the burial-count box around each empty voxel.
HALO_THICKNESS = 2

#: Debye-like screening length for the short-range electrostatic channel (A).
SCREENING_LENGTH = 3.0


def num_channels(n_desolvation_terms: int) -> int:
    """Total correlation channels: 2 shape + 2 elec + K desolvation."""
    _check_terms(n_desolvation_terms)
    return 4 + n_desolvation_terms


def _check_terms(k: int) -> None:
    if not (MIN_DESOLVATION_TERMS <= k <= MAX_DESOLVATION_TERMS):
        raise ValueError(
            f"desolvation terms must be in [{MIN_DESOLVATION_TERMS}, "
            f"{MAX_DESOLVATION_TERMS}], got {k}"
        )


#: Human-readable channel group names in storage order.
CHANNELS = ("shape_core", "shape_halo", "elec_coulomb", "elec_screened", "desolvation_*")


@dataclass
class EnergyGrids:
    """Multi-channel voxel grids for one molecule.

    Attributes
    ----------
    spec:
        Grid geometry.
    channels:
        (C, n, n, n) float32 array; channel order is shape_core,
        shape_halo, elec_coulomb, elec_screened, then K desolvation terms.
    weights:
        (C,) per-channel weights ``w_p`` applied when summing correlations
        into the pose energy.  By convention the receptor carries the
        physical weights and the ligand weights are all 1, so the product
        is applied exactly once.
    labels:
        Channel labels for reporting.
    """

    spec: GridSpec
    channels: np.ndarray
    weights: np.ndarray
    labels: List[str]

    def __post_init__(self) -> None:
        self.channels = np.ascontiguousarray(self.channels, dtype=np.float32)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.channels.ndim != 4:
            raise ValueError("channels must be (C, n, n, n)")
        c = self.channels.shape[0]
        if self.weights.shape != (c,) or len(self.labels) != c:
            raise ValueError("weights/labels must match channel count")

    @property
    def n_channels(self) -> int:
        return self.channels.shape[0]


def _radial_kernel(n: int, spacing: float, kind: str) -> np.ndarray:
    """Periodic radial kernel on an n^3 grid (min-image distances).

    ``kind`` is ``"coulomb"`` (1/r) or ``"yukawa"`` (exp(-r/lambda)/r); the
    r=0 singularity is replaced by the value at half a voxel spacing.
    """
    ax = np.arange(n, dtype=float)
    ax = np.minimum(ax, n - ax) * spacing  # min-image distance per axis
    dx = ax[:, None, None]
    dy = ax[None, :, None]
    dz = ax[None, None, :]
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    r0 = spacing / 2.0
    r_safe = np.where(r < r0, r0, r)
    if kind == "coulomb":
        k = 1.0 / r_safe
    elif kind == "yukawa":
        k = np.exp(-r_safe / SCREENING_LENGTH) / r_safe
    else:
        raise ValueError(f"unknown kernel {kind!r}")
    return k


def _fft_convolve(grid: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Circular convolution of two equal-shape real grids via FFT."""
    return sp_fft.irfftn(
        sp_fft.rfftn(grid) * sp_fft.rfftn(kernel), s=grid.shape
    )


def desolvation_eigenterms(
    type_names: Sequence[str], n_terms: int, seed: int = 2010
):
    """Per-atom weights for each desolvation eigen-term.

    Builds a deterministic symmetric atom-type contact potential ``P`` over
    the *global* force-field type table (so receptor and ligand factorize
    against the same eigenvectors), eigendecomposes it, and returns

    * ``weights``: (K, N) array ``w[k, a] = sqrt(|lambda_k|) *
      eigvec_k[type(a)]``,
    * ``signs``: (K,) eigenvalue signs.

    The pairwise desolvation energy ``sum_ab P[t_a, t_b]`` then equals
    ``sum_k sign_k * (receptor corr_k) * (ligand corr_k)`` — the
    factorization PIPER exploits to turn a pairwise potential into K grid
    correlations.  The sign of each eigenvalue is folded into the *receptor*
    channel weight by :func:`protein_grids`; weights carry magnitudes only.
    """
    _check_terms(n_terms)
    from repro.structure.forcefield import DEFAULT_ATOM_TYPES

    universe = sorted(DEFAULT_ATOM_TYPES)
    extra = sorted(set(type_names) - set(universe))
    universe = universe + extra  # tolerate user-registered types
    t_index = {t: i for i, t in enumerate(universe)}
    m = len(universe)
    eigvals, eigvecs = _contact_eigenpairs(tuple(universe), seed)
    # Keep the K largest-magnitude terms (PIPER keeps the leading terms).
    order = np.argsort(-np.abs(eigvals))[: min(n_terms, m)]
    weights = np.zeros((n_terms, len(type_names)))
    signs = np.ones(n_terms)
    atom_type_idx = np.array([t_index[t] for t in type_names])
    for slot, k in enumerate(order):
        scale = np.sqrt(abs(eigvals[k]))
        weights[slot] = scale * eigvecs[atom_type_idx, k]
        signs[slot] = np.sign(eigvals[k]) if eigvals[k] != 0 else 1.0
    # Unused slots (if fewer types than requested terms) stay zero, sign +1.
    return weights, signs


@functools.lru_cache(maxsize=8)
def _contact_eigenpairs(universe: tuple, seed: int):
    """Eigenpairs of the seeded contact potential over a type universe.

    Every rotation's ligand gridding asks for the same decomposition, so it
    is computed once per (universe, seed) and returned as read-only arrays.
    """
    m = len(universe)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(m, m))
    pot = 0.5 * (raw + raw.T)  # symmetric contact potential
    eigvals, eigvecs = np.linalg.eigh(pot)
    eigvals.flags.writeable = False
    eigvecs.flags.writeable = False
    return eigvals, eigvecs


def _halo_mask(occupied: np.ndarray, thickness: int) -> np.ndarray:
    """Empty voxels within ``thickness`` face-steps of an occupied voxel."""
    grown = occupied.copy()
    for _ in range(thickness):
        padded = np.pad(grown, 1, mode="constant", constant_values=False)
        grown = (
            padded[1:-1, 1:-1, 1:-1]
            | padded[:-2, 1:-1, 1:-1]
            | padded[2:, 1:-1, 1:-1]
            | padded[1:-1, :-2, 1:-1]
            | padded[1:-1, 2:, 1:-1]
            | padded[1:-1, 1:-1, :-2]
            | padded[1:-1, 1:-1, 2:]
        )
    return grown & ~occupied


def _burial_density(occupied: np.ndarray, radius: int) -> np.ndarray:
    """Per-voxel count of occupied voxels within a Chebyshev ``radius`` box.

    Computed by FFT convolution with a (2r+1)^3 box kernel; grids are padded
    in practice (molecule centered), so the circular wrap is inert.
    """
    n = occupied.shape[0]
    kernel = np.zeros(occupied.shape)
    idx = np.arange(-radius, radius + 1) % n
    kernel[np.ix_(idx, idx, idx)] = 1.0
    counts = _fft_convolve(occupied.astype(float), kernel)
    return np.maximum(counts, 0.0)  # clip FFT ringing


def protein_grids(
    protein: Molecule,
    spec: GridSpec,
    n_desolvation_terms: int = MIN_DESOLVATION_TERMS,
    elec_weight: float = DEFAULT_ELEC_WEIGHT,
    desolvation_weight: float = DEFAULT_DESOLVATION_WEIGHT,
    desolvation_seed: int = 2010,
) -> EnergyGrids:
    """Build the receptor-side channel grids ``R_p``.

    The receptor carries the channel weights (clash penalty, contact reward,
    w2, w3 and the desolvation eigenvalue signs) so that ligand channels can
    be pure geometry/charge and weights apply exactly once per channel.
    """
    from repro.grids.gridding import voxelize_spheres

    occupied = voxelize_spheres(protein, spec)  # vdW-sphere fill
    core = occupied                       # any overlap with an atom clashes
    # Burial density on empty voxels: high inside pockets, low on convex
    # surface, zero in open solvent.
    halo = _burial_density(occupied, HALO_THICKNESS) * (~occupied)
    # Desolvation deposits on surface-proximal atoms: the occupied shell
    # within 2 voxel-steps of solvent.
    surface = _halo_mask(~occupied, 2)

    charge_grid = voxelize_molecule(protein, spec, weights=protein.charges)
    coulomb = _fft_convolve(charge_grid, _radial_kernel(spec.n, spec.spacing, "coulomb"))
    screened = _fft_convolve(charge_grid, _radial_kernel(spec.n, spec.spacing, "yukawa"))

    desol_w, desol_signs = desolvation_eigenterms(
        protein.type_names, n_desolvation_terms, seed=desolvation_seed
    )
    # Desolvation contact is short-ranged: deposit eigen-weights only on the
    # surface shell by masking the deposited grid.
    shell = surface.astype(float)

    chans = [core.astype(np.float32), halo.astype(np.float32),
             coulomb.astype(np.float32), screened.astype(np.float32)]
    for k in range(n_desolvation_terms):
        g = voxelize_molecule(protein, spec, weights=desol_w[k]) * shell
        chans.append(g.astype(np.float32))

    weights = np.concatenate(
        [
            [CORE_CLASH_PENALTY, SURFACE_CONTACT_REWARD, elec_weight, elec_weight * 0.5],
            desolvation_weight * desol_signs,
        ]
    )
    labels = ["shape_core", "shape_halo", "elec_coulomb", "elec_screened"] + [
        f"desolvation_{k}" for k in range(n_desolvation_terms)
    ]
    return EnergyGrids(spec=spec, channels=np.stack(chans), weights=weights, labels=labels)


def protein_grids_cached(
    protein: Molecule,
    spec: GridSpec,
    n_desolvation_terms: int = MIN_DESOLVATION_TERMS,
    elec_weight: float = DEFAULT_ELEC_WEIGHT,
    desolvation_weight: float = DEFAULT_DESOLVATION_WEIGHT,
    desolvation_seed: int = 2010,
    cache=None,
) -> EnergyGrids:
    """:func:`protein_grids` behind the content-addressed artifact cache.

    The receptor grid build (vdW-sphere fill, burial density, two FFT
    potential convolutions, K desolvation deposits) is the most expensive
    per-receptor artifact in the pipeline and depends only on the receptor
    content and the grid/workload parameters hashed here — so a repeat
    mapping, another probe of the same run, or a sweep variant that keeps
    the receptor fixed reuses it as an O(lookup).

    ``cache`` is a :class:`repro.cache.manager.CacheManager` (or ``None`` /
    policy ``off``, which computes exactly like :func:`protein_grids`).
    Cached grids are shared objects and must be treated as immutable.
    """
    if cache is None or not cache.enabled:
        return protein_grids(
            protein,
            spec,
            n_desolvation_terms=n_desolvation_terms,
            elec_weight=elec_weight,
            desolvation_weight=desolvation_weight,
            desolvation_seed=desolvation_seed,
        )
    from repro.cache.keys import compose_key, mapping_token, molecule_token

    key = compose_key(
        "receptor-grids",
        [
            molecule_token(protein),
            spec.cache_token(),
            mapping_token(
                n_desolvation_terms=n_desolvation_terms,
                elec_weight=float(elec_weight),
                desolvation_weight=float(desolvation_weight),
                desolvation_seed=desolvation_seed,
            ),
        ],
    )
    return cache.get_or_compute(
        key,
        lambda: protein_grids(
            protein,
            spec,
            n_desolvation_terms=n_desolvation_terms,
            elec_weight=elec_weight,
            desolvation_weight=desolvation_weight,
            desolvation_seed=desolvation_seed,
        ),
        codec="pickle",
    )


def ligand_grids(
    ligand: Molecule,
    spec: GridSpec,
    n_desolvation_terms: int = MIN_DESOLVATION_TERMS,
    desolvation_seed: int = 2010,
) -> EnergyGrids:
    """Build the ligand-side channel grids ``L_p`` on a (small) probe grid.

    Channel semantics mirror :func:`protein_grids`: occupancy correlates with
    the receptor core channel (clash) *and* the surface channel (contact);
    charge correlates with both potential channels; desolvation eigen-weights
    deposit per-term.  Ligand weights are all 1 (receptor carries physics).
    """
    occupancy = (voxelize_molecule(ligand, spec) > 0).astype(np.float32)
    charge = voxelize_molecule(ligand, spec, weights=ligand.charges).astype(np.float32)
    desol_w, _ = desolvation_eigenterms(
        ligand.type_names, n_desolvation_terms, seed=desolvation_seed
    )
    chans = [occupancy, occupancy, charge, charge]
    for k in range(n_desolvation_terms):
        chans.append(
            voxelize_molecule(ligand, spec, weights=desol_w[k]).astype(np.float32)
        )
    labels = ["shape_core", "shape_halo", "elec_coulomb", "elec_screened"] + [
        f"desolvation_{k}" for k in range(n_desolvation_terms)
    ]
    return EnergyGrids(
        spec=spec,
        channels=np.stack(chans),
        weights=np.ones(len(chans)),
        labels=labels,
    )
