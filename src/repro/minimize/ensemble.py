"""Vectorized ensemble energy evaluation: many conformations, one topology.

FTMap's minimization phase refines ~2000 docked conformations of the *same*
receptor+probe complex (Sec. II.B) — the serial code builds a fresh
:class:`~repro.minimize.energy.EnergyModel` per conformation and walks the
pair terms one pose at a time.  :class:`EnsembleEnergyModel` instead stacks
``P`` same-topology conformations into one ``(P, N, 3)`` array, offsets each
pose's pair and bonded index arrays into its own ``N``-atom block, and
evaluates Eqs. (3)-(10) once over the concatenated arrays.

Exactness: pose ``k``'s pair list is the list its own serial
:class:`EnergyModel` would build (per-pose neighbor lists, per-pose movable
filters, the same "seldom updated" refresh policy), and pairs never cross
pose blocks, so per-pose energies, components, and forces match the serial
reference to summation-order-level floating point.  What changes is the
*number of NumPy dispatches* per evaluation — one vectorized pass instead of
``P`` — which is where the batched minimizer's wall-clock win comes from.

One pair pass: each evaluation computes the flattened pairs' geometry once
and hands it to the ACE self, GB and vdW math.  Each pose keeps a
:class:`~repro.minimize.energy.PairTable` of its per-pair parameters,
built when that pose's list is built and replaced when it is rebuilt; an
evaluation lays the evaluated poses' tables end to end (cached for the
full pose set until any list changes), so a pose-id subset never reads a
stale table.

Bonded exclusions, bonded parameters and the receptor's core neighbor
list depend on the complex, not on a pose.  A model builds them on first
use; the models of a multi-device run's shards are pose subsets of one
ensemble model and read its copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.constants import NEIGHBOR_LIST_CUTOFF, VDW_CUTOFF
from repro.minimize.accumulate import pair_geometry
from repro.minimize.ace import (
    ace_self_from_pairs,
    born_radii_from_self_energies,
    gb_from_pairs,
)
from repro.minimize.bonded import (
    angle_energy,
    bond_energy,
    dihedral_energy,
    improper_energy,
)
from repro.minimize.energy import PairTable, resolve_bonded_params
from repro.minimize.neighborlist import (
    NeighborList,
    SharedNeighborCore,
    bonded_exclusions,
    build_neighbor_list,
)
from repro.minimize.vdw import vdw_from_pairs
from repro.structure.molecule import Molecule

__all__ = ["EnsembleEnergyReport", "EnsembleEnergyModel"]


@dataclass
class EnsembleEnergyReport:
    """Decomposed evaluation of a stack of conformations.

    All arrays are aligned with ``pose_ids`` (the ensemble slots evaluated,
    in order); ``components`` holds the same seven keys as
    :class:`~repro.minimize.energy.EnergyReport`, each as a ``(K,)`` array.
    """

    pose_ids: np.ndarray                # (K,)
    totals: np.ndarray                  # (K,)
    components: Dict[str, np.ndarray]   # each (K,)
    forces: np.ndarray                  # (K, N, 3)
    per_atom_nonbonded: np.ndarray      # (K, N)
    born_radii: np.ndarray              # (K, N)

    @property
    def n_poses(self) -> int:
        return len(self.pose_ids)


class EnsembleEnergyModel:
    """Evaluates the CHARMM/ACE potential for a stack of conformations.

    Parameters
    ----------
    molecule:
        Template complex: topology, force-field parameters, and (when
        ``meta['calibrate_bonded_equilibrium']`` is set) the build geometry
        the bonded equilibria are measured from.  All conformations share
        this topology.
    coords_stack:
        ``(P, N, 3)`` start coordinates, one conformation per row.  Pose
        neighbor lists are built lazily from the first coordinates each pose
        is evaluated at (mirroring ``EnergyModel``'s lazy first build).
    movable:
        Optional movable mask — ``(N,)`` shared by every pose, or ``(P, N)``
        per pose (FTMap's pocket masks depend on where the probe docked).
        Pair lists are movable-filtered per pose exactly like the serial
        model.
    nonbonded_cutoff, list_cutoff:
        As in :class:`~repro.minimize.energy.EnergyModel`.
    precision:
        ``"double"`` (default) evaluates in float64 and matches the serial
        model to summation order; ``"single"`` evaluates the stacked arrays
        in float32 — the paper's GPU arithmetic, and the batched engine's
        production configuration (mirroring the docking side's fp32 batched
        FFT path).  Neighbor lists are always built in float64.
    core_atoms:
        Number of leading atoms shared (bitwise) by every pose — the
        receptor block of an FTMap ensemble.  Defaults to
        ``n_atoms - molecule.meta["n_probe_atoms"]`` when that metadata is
        present, else 0.  When ``0 < core_atoms < n_atoms``, the core-core
        half list is built once per ensemble (:class:`SharedNeighborCore`)
        and each pose list is derived from its probe-environment delta —
        identical pairs, ~P-fold less build work.  Any pose whose core
        block differs from the shared core (receptor moved) silently falls
        back to a full per-pose build, so the optimization never changes
        results.  Pass ``0`` to disable sharing.
    """

    def __init__(
        self,
        molecule: Molecule,
        coords_stack: np.ndarray,
        movable: np.ndarray | None = None,
        nonbonded_cutoff: float = VDW_CUTOFF,
        list_cutoff: float = NEIGHBOR_LIST_CUTOFF,
        precision: str = "double",
        core_atoms: int | None = None,
    ) -> None:
        if precision not in ("single", "double"):
            raise ValueError(f"unknown precision {precision!r}")
        self.precision = precision
        self.dtype = np.float32 if precision == "single" else np.float64
        self.molecule = molecule
        stack = np.asarray(coords_stack, dtype=self.dtype)
        n = molecule.n_atoms
        if stack.ndim != 3 or stack.shape[1:] != (n, 3):
            raise ValueError(
                f"coords_stack must be (P, {n}, 3), got {stack.shape}"
            )
        self.coords_stack = stack.copy()
        self.n_poses = len(stack)
        self.n_atoms = n
        self.nonbonded_cutoff = nonbonded_cutoff
        self.list_cutoff = list_cutoff
        self.movable = self._normalize_movable(movable)
        # One pose's per-atom non-bonded parameters, cast once; the pose
        # pair tables are built from them.
        self._atom_params = {
            "charges": np.asarray(molecule.charges, dtype=self.dtype),
            "born": np.asarray(molecule.born_radii, dtype=self.dtype),
            "volumes": np.asarray(molecule.volumes, dtype=self.dtype),
            "eps": np.asarray(molecule.eps, dtype=self.dtype),
            "rm": np.asarray(molecule.rm, dtype=self.dtype),
        }
        self._nlists: List[Optional[NeighborList]] = [None] * self.n_poses
        self._pose_pairs: List[Optional[Tuple[np.ndarray, np.ndarray]]] = (
            [None] * self.n_poses
        )
        self._pose_tables: List[Optional[PairTable]] = [None] * self.n_poses
        self._flat_full: Optional[_FlatPairs] = None
        self._tiled_cache: Dict[int, Dict[str, np.ndarray]] = {}
        self.list_rebuilds = 0
        self.pair_table_builds = 0
        self.pose_list_rebuilds = np.zeros(self.n_poses, dtype=int)
        if core_atoms is None:
            n_probe = molecule.meta.get("n_probe_atoms")
            core_atoms = n - int(n_probe) if n_probe else 0
        if not 0 <= core_atoms <= n:
            raise ValueError(f"core_atoms must be in [0, {n}], got {core_atoms}")
        self.core_atoms = int(core_atoms)
        self._shared_core: Optional[SharedNeighborCore] = None
        # Build-path counters, for tests and perf accounting: every pose
        # list build is exactly one delta build or one full build.
        self.shared_core_builds = 0   # core-core list constructions (per ensemble)
        self.delta_list_builds = 0    # cheap probe-delta pose builds
        self.full_list_builds = 0     # full per-pose fallback builds

    # -- per-complex set-up (built on first use, shared by pose subsets) --------------

    @cached_property
    def exclusions(self) -> FrozenSet[Tuple[int, int]]:
        return bonded_exclusions(self.molecule.topology)

    @cached_property
    def _bonded_params(self) -> Dict[str, np.ndarray]:
        return resolve_bonded_params(self.molecule)

    def _core(self, coords: np.ndarray) -> SharedNeighborCore:
        if self._shared_core is None:
            self._shared_core = SharedNeighborCore(
                coords[: self.core_atoms], self.list_cutoff, self.exclusions
            )
            self.shared_core_builds += 1
        return self._shared_core

    def _complex_setup(
        self,
    ) -> Tuple[
        FrozenSet[Tuple[int, int]], Dict[str, np.ndarray], Optional[SharedNeighborCore]
    ]:
        """Exclusions, bonded parameters and the shared core, built now.

        The core is captured from pose 0 if no pose list was built yet.
        """
        core = None
        if 0 < self.core_atoms < self.n_atoms and self.n_poses:
            core = self._core(np.asarray(self.coords_stack[0], dtype=np.float64))
        return self.exclusions, self._bonded_params, core

    def _pose_subset(self, lo: int, hi: int) -> "EnsembleEnergyModel":
        """A model of poses ``lo:hi`` that shares this model's set-up.

        The shards of a multi-device run are such subsets, so the
        per-complex set-up is built once for all of them.
        """
        sub = EnsembleEnergyModel(
            self.molecule,
            self.coords_stack[lo:hi],
            movable=None if self.movable is None else self.movable[lo:hi],
            nonbonded_cutoff=self.nonbonded_cutoff,
            list_cutoff=self.list_cutoff,
            precision=self.precision,
            core_atoms=self.core_atoms,
        )
        sub.exclusions, sub._bonded_params, sub._shared_core = self._complex_setup()
        return sub

    # -- masks -------------------------------------------------------------------

    def _normalize_movable(self, movable) -> Optional[np.ndarray]:
        if movable is None:
            return None
        movable = np.asarray(movable, dtype=bool)
        if movable.shape == (self.n_atoms,):
            movable = np.broadcast_to(movable, (self.n_poses, self.n_atoms)).copy()
        if movable.shape != (self.n_poses, self.n_atoms):
            raise ValueError(
                f"movable must be ({self.n_atoms},) or "
                f"({self.n_poses}, {self.n_atoms}), got {movable.shape}"
            )
        return movable

    def movable_stack(self) -> np.ndarray:
        """(P, N) movable mask (all-True when no mask was given)."""
        if self.movable is None:
            return np.ones((self.n_poses, self.n_atoms), dtype=bool)
        return self.movable

    # -- per-pose pair structure ----------------------------------------------------

    def _pose_neighbor_list(self, coords: np.ndarray) -> NeighborList:
        """Build one pose's list — shared-core delta path when applicable.

        The shared core is captured lazily from the first qualifying pose;
        any pose whose core block moved (``core_matches`` is bitwise) takes
        the full-build fallback, preserving exact per-pose semantics.
        """
        c = np.asarray(coords, dtype=np.float64)
        if 0 < self.core_atoms < self.n_atoms:
            core = self._core(c)
            if core.core_matches(c):
                self.delta_list_builds += 1
                return core.pose_list(c)
        self.full_list_builds += 1
        return build_neighbor_list(c, self.list_cutoff, self.exclusions)

    def _build_pose(self, p: int, coords: np.ndarray) -> None:
        nlist = self._pose_neighbor_list(coords)
        i, j = nlist.pair_arrays()
        if self.movable is not None:
            mv = self.movable[p]
            keep = mv[i] | mv[j]
            i, j = i[keep], j[keep]
        self._nlists[p] = nlist
        self._pose_pairs[p] = (i, j)
        self._pose_tables[p] = PairTable.build(
            self._atom_params, i, j, self.nonbonded_cutoff
        )
        self.pair_table_builds += 1
        self._flat_full = None
        self.list_rebuilds += 1
        self.pose_list_rebuilds[p] += 1

    def _ensure_pose(self, p: int, coords: np.ndarray | None = None) -> None:
        if self._nlists[p] is None:
            c = self.coords_stack[p] if coords is None else coords
            self._build_pose(p, c)

    def pair_arrays(self, p: int) -> Tuple[np.ndarray, np.ndarray]:
        """Movable-filtered (first, second) pair arrays of pose ``p``."""
        self._ensure_pose(p)
        return self._pose_pairs[p]

    def pose_pair_counts(self) -> np.ndarray:
        """(P,) active-pair count per pose (builds missing lists)."""
        return np.array(
            [len(self.pair_arrays(p)[0]) for p in range(self.n_poses)], dtype=int
        )

    @property
    def n_active_pairs(self) -> int:
        """Total active pairs across the ensemble."""
        return int(self.pose_pair_counts().sum())

    def maybe_refresh(
        self, coords: np.ndarray, pose_ids: Sequence[int] | None = None
    ) -> bool:
        """Rebuild the lists of any pose whose pairs drifted out of validity.

        ``coords`` rows are aligned with ``pose_ids`` (all poses when None).
        Returns True when at least one pose rebuilt — the event that, on the
        GPU, forces assignment tables to be regenerated and re-uploaded.
        """
        ids = np.arange(self.n_poses) if pose_ids is None else np.asarray(pose_ids)
        rebuilt = False
        for k, p in enumerate(ids):
            nlist = self._nlists[p]
            if nlist is None:
                self._build_pose(int(p), coords[k])
                continue
            if not nlist.max_distance_ok(coords[k]):
                self._build_pose(int(p), coords[k])
                rebuilt = True
        return rebuilt

    def force_refresh(
        self, coords: np.ndarray, pose_ids: Sequence[int] | None = None
    ) -> None:
        ids = np.arange(self.n_poses) if pose_ids is None else np.asarray(pose_ids)
        for k, p in enumerate(ids):
            self._build_pose(int(p), coords[k])

    # -- flattening ------------------------------------------------------------------

    def _flat_pairs(self, pose_ids: np.ndarray) -> "_FlatPairs":
        """Concatenated pair arrays with each pose offset to its own block.

        The pair table is the poses' own tables laid end to end: every pose
        block carries the same per-atom parameters, so a pose's pair
        parameters do not depend on where its block sits.  The full set is
        cached until any pose's list is rebuilt; a subset is assembled from
        the current per-pose tables, so it is never stale.
        """
        full = pose_ids.size == self.n_poses and np.array_equal(
            pose_ids, np.arange(self.n_poses)
        )
        if full and self._flat_full is not None:
            return self._flat_full
        n = self.n_atoms
        arrs_i, arrs_j, counts = [], [], []
        for k, p in enumerate(pose_ids):
            i, j = self._pose_pairs[p]
            arrs_i.append(i + k * n)
            arrs_j.append(j + k * n)
            counts.append(len(i))
        boundaries = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        out = _FlatPairs(
            np.concatenate(arrs_i),
            np.concatenate(arrs_j),
            boundaries,
            PairTable.concatenate([self._pose_tables[p] for p in pose_ids]),
        )
        if full:
            self._flat_full = out
        return out

    def _tiled(self, k: int) -> Dict[str, np.ndarray]:
        """Per-atom parameters and bonded topology tiled for a K-pose stack.

        Tiled once at the full ensemble size; smaller active sets (the
        shrinking line-search and moved-pose subsets) are served as views of
        the full tile — every pose block is identical, so the first ``k``
        blocks of the P-pose tile *are* the k-pose tile.
        """
        full = self._tiled_cache.get(self.n_poses)
        if full is None:
            full = self._build_tiled(self.n_poses)
            self._tiled_cache[self.n_poses] = full
        if k == self.n_poses:
            return full
        out = {}
        for key, arr in full.items():
            per_pose = len(arr) // self.n_poses
            out[key] = arr[: k * per_pose]
        return out

    def _build_tiled(self, k: int) -> Dict[str, np.ndarray]:
        m = self.molecule
        n = self.n_atoms
        p = self._bonded_params
        offsets = np.arange(k) * n

        def tile_topo(arr: np.ndarray) -> np.ndarray:
            arr = np.asarray(arr, dtype=np.intp)
            if len(arr) == 0:
                return arr
            return np.tile(arr, (k, 1)) + np.repeat(offsets, len(arr))[:, None]

        def tile_param(arr: np.ndarray) -> np.ndarray:
            return np.tile(np.asarray(arr, dtype=self.dtype), k)

        out = {
            "charges": tile_param(m.charges),
            "born": tile_param(m.born_radii),
            "bonds": tile_topo(m.topology.bonds),
            "angles": tile_topo(m.topology.angles),
            "dihedrals": tile_topo(m.topology.dihedrals),
            "impropers": tile_topo(m.topology.impropers),
            "kb": tile_param(p["kb"]),
            "r0": tile_param(p["r0"]),
            "ka": tile_param(p["ka"]),
            "th0": tile_param(p["th0"]),
            "kd": tile_param(p["kd"]),
            "nmul": tile_param(p["nmul"]),
            "delt": tile_param(p["delt"]),
            "ki": tile_param(p["ki"]),
            "psi0": tile_param(p["psi0"]),
        }
        return out

    # -- evaluation ------------------------------------------------------------------

    def evaluate(
        self, coords: np.ndarray, pose_ids: Sequence[int] | None = None
    ) -> EnsembleEnergyReport:
        """Energies, components, per-atom arrays, and forces for a stack.

        ``coords`` is ``(K, N, 3)`` with rows aligned to ``pose_ids`` (all
        poses in order when None).
        """
        ids = (
            np.arange(self.n_poses)
            if pose_ids is None
            else np.asarray(pose_ids, dtype=np.intp)
        )
        coords = np.asarray(coords, dtype=self.dtype)
        n = self.n_atoms
        k = ids.size
        if coords.shape != (k, n, 3):
            raise ValueError(f"coords must be ({k}, {n}, 3), got {coords.shape}")
        if k == 0:
            # Empty results still carry the ensemble dtype: a "single"
            # ensemble's zero-pose path must not leak fp64 arrays.
            return EnsembleEnergyReport(
                pose_ids=ids,
                totals=np.zeros(0, dtype=self.dtype),
                components={},
                forces=np.zeros((0, n, 3), dtype=self.dtype),
                per_atom_nonbonded=np.zeros((0, n), dtype=self.dtype),
                born_radii=np.zeros((0, n), dtype=self.dtype),
            )
        for row, p in enumerate(ids):
            self._ensure_pose(int(p), coords[row])
        pairs = self._flat_pairs(ids)
        bounds, table = pairs.boundaries, pairs.table
        flat = coords.reshape(k * n, 3)
        geom = pair_geometry(flat, pairs.pair_i, pairs.pair_j)
        par = self._tiled(k)
        m = self.molecule

        # (i) self energies + gradients (GPU kernel (a) in the paper)
        self_res = ace_self_from_pairs(
            geom, table.ace_self, par["charges"], par["born"]
        )
        alphas = born_radii_from_self_energies(
            self_res.self_energies, par["charges"], par["born"]
        )

        # (ii)+(iii) pairwise elec + vdw (GPU kernel (b)); per-pair energies
        # are kept so pose sums replicate the serial accumulation order.
        _, per_atom_gb, grad_gb, gb_pair = gb_from_pairs(
            geom, table.gb, alphas, per_pair=True
        )
        _, per_atom_vdw, grad_vdw, vdw_pair = vdw_from_pairs(
            geom, table.vdw, per_pair=True
        )

        # Bonded terms (host side), one flattened pass per term.
        _, g_bond, bond_t = bond_energy(
            flat, par["bonds"], par["kb"], par["r0"], per_term=True
        )
        _, g_angle, angle_t = angle_energy(
            flat, par["angles"], par["ka"], par["th0"], per_term=True
        )
        _, g_dih, dih_t = dihedral_energy(
            flat, par["dihedrals"], par["kd"], par["nmul"], par["delt"], per_term=True
        )
        _, g_imp, imp_t = improper_energy(
            flat, par["impropers"], par["ki"], par["psi0"], per_term=True
        )

        components = {
            "elec_self": self_res.self_energies.reshape(k, n).sum(axis=1),
            "elec_pairwise": _segment_sums(gb_pair, bounds),
            "vdw": _segment_sums(vdw_pair, bounds),
            "bond": bond_t.reshape(k, len(m.topology.bonds)).sum(axis=1),
            "angle": angle_t.reshape(k, len(m.topology.angles)).sum(axis=1),
            "dihedral": dih_t.reshape(k, len(m.topology.dihedrals)).sum(axis=1),
            "improper": imp_t.reshape(k, len(m.topology.impropers)).sum(axis=1),
        }
        # Same accumulation sequence as the serial EnergyModel's total.
        totals = np.zeros(k, dtype=self.dtype)
        for key in (
            "elec_self", "elec_pairwise", "vdw", "bond", "angle", "dihedral", "improper",
        ):
            totals = totals + components[key]
        gradient = (
            self_res.gradient + grad_gb + grad_vdw + g_bond + g_angle + g_dih + g_imp
        )
        per_atom = self_res.self_energies + per_atom_gb + per_atom_vdw
        return EnsembleEnergyReport(
            pose_ids=ids,
            totals=totals,
            components=components,
            forces=-gradient.reshape(k, n, 3),
            per_atom_nonbonded=per_atom.reshape(k, n),
            born_radii=alphas.reshape(k, n),
        )

    def energy_only(
        self, coords: np.ndarray, pose_ids: Sequence[int] | None = None
    ) -> np.ndarray:
        """(K,) total energies — the batched line search's fast path.

        Skips every derivative and per-atom-split computation (roughly half
        the per-pair arithmetic plus all gradient scatters); the energy
        values themselves are computed by the same operations in the same
        order as :meth:`evaluate`, so line-search decisions are identical.
        """
        ids = (
            np.arange(self.n_poses)
            if pose_ids is None
            else np.asarray(pose_ids, dtype=np.intp)
        )
        coords = np.asarray(coords, dtype=self.dtype)
        n = self.n_atoms
        k = ids.size
        if coords.shape != (k, n, 3):
            raise ValueError(f"coords must be ({k}, {n}, 3), got {coords.shape}")
        if k == 0:
            return np.zeros(0, dtype=self.dtype)
        for row, p in enumerate(ids):
            self._ensure_pose(int(p), coords[row])
        pairs = self._flat_pairs(ids)
        bounds, table = pairs.boundaries, pairs.table
        flat = coords.reshape(k * n, 3)
        geom = pair_geometry(flat, pairs.pair_i, pairs.pair_j)
        par = self._tiled(k)
        m = self.molecule

        self_res = ace_self_from_pairs(
            geom, table.ace_self, par["charges"], par["born"], with_gradient=False
        )
        alphas = born_radii_from_self_energies(
            self_res.self_energies, par["charges"], par["born"]
        )
        _, _, _, gb_pair = gb_from_pairs(
            geom, table.gb, alphas, per_pair=True, energies_only=True
        )
        _, _, _, vdw_pair = vdw_from_pairs(
            geom, table.vdw, per_pair=True, energies_only=True
        )
        _, _, bond_t = bond_energy(
            flat, par["bonds"], par["kb"], par["r0"],
            per_term=True, with_gradient=False,
        )
        _, _, angle_t = angle_energy(
            flat, par["angles"], par["ka"], par["th0"],
            per_term=True, with_gradient=False,
        )
        _, _, dih_t = dihedral_energy(
            flat, par["dihedrals"], par["kd"], par["nmul"], par["delt"],
            per_term=True, with_gradient=False,
        )
        _, _, imp_t = improper_energy(
            flat, par["impropers"], par["ki"], par["psi0"],
            per_term=True, with_gradient=False,
        )
        totals = np.zeros(k, dtype=self.dtype)
        for part in (
            self_res.self_energies.reshape(k, n).sum(axis=1),
            _segment_sums(gb_pair, bounds),
            _segment_sums(vdw_pair, bounds),
            bond_t.reshape(k, len(m.topology.bonds)).sum(axis=1),
            angle_t.reshape(k, len(m.topology.angles)).sum(axis=1),
            dih_t.reshape(k, len(m.topology.dihedrals)).sum(axis=1),
            imp_t.reshape(k, len(m.topology.impropers)).sum(axis=1),
        ):
            totals = totals + part
        return totals


@dataclass(frozen=True)
class _FlatPairs:
    """A pose stack's pair list: each pose's pairs offset into its block."""

    pair_i: np.ndarray
    pair_j: np.ndarray
    boundaries: np.ndarray    # (K+1,) delimits each pose's segment
    table: PairTable


def _segment_sums(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Per-segment sums, each segment summed exactly like a serial ``.sum()``."""
    return np.array(
        [
            values[boundaries[s] : boundaries[s + 1]].sum()
            for s in range(len(boundaries) - 1)
        ]
    )
