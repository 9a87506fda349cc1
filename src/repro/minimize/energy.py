"""Total-energy assembly: Eq. (3) with per-term decomposition and forces.

``E_total = (E_vdw + E_elec)  [non-bonded]  +  (E_bond + E_angle +
E_torsion + E_improper)  [bonded]``

The non-bonded terms are evaluated over the neighbor list (built once and
refreshed only when atoms drift, per the paper's "seldom updated" policy);
E_elec is the ACE model: per-atom self energies (Eqs. 5-6) feeding effective
Born radii feeding the GB pairwise term (Eq. 7).  One evaluation makes one
pass over the pairs: their geometry is computed once and shared by the
three non-bonded terms, and their parameters come from a
:class:`PairTable` built once per neighbor-list build.

Forces are analytic with the frozen-alpha approximation (Born radii are
treated as constants within one force evaluation; see ``repro.minimize.ace``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.constants import NEIGHBOR_LIST_CUTOFF, VDW_CUTOFF
from repro.minimize.accumulate import pair_geometry
from repro.minimize.ace import (
    AceSelfPairParams,
    GbPairParams,
    ace_self_from_pairs,
    ace_self_pair_params,
    born_radii_from_self_energies,
    gb_from_pairs,
    gb_pair_params,
)
from repro.minimize.bonded import (
    angle_energy,
    bond_energy,
    dihedral_energy,
    improper_energy,
)
from repro.minimize.neighborlist import (
    NeighborList,
    bonded_exclusions,
    build_neighbor_list,
)
from repro.minimize.vdw import VdwPairParams, vdw_from_pairs, vdw_pair_params
from repro.structure.molecule import Molecule

__all__ = [
    "EnergyReport",
    "EnergyModel",
    "PairTable",
    "resolve_bonded_params",
    "geometry_equilibria",
]


def resolve_bonded_params(molecule: Molecule) -> Dict[str, np.ndarray]:
    """Per-term bonded parameter arrays for one molecule's topology.

    Shared by :class:`EnergyModel` and the ensemble evaluator
    (:class:`repro.minimize.ensemble.EnsembleEnergyModel`): the parameters
    depend only on topology and build geometry, so every conformation of the
    same complex reuses one resolution.
    """
    ff = molecule.forcefield
    topo = molecule.topology
    t = molecule.type_names

    kb = np.array([ff.bond_param(t[i], t[j]).kb for i, j in topo.bonds])
    r0 = np.array([ff.bond_param(t[i], t[j]).r0 for i, j in topo.bonds])
    ka = np.array([ff.angle_param(t[i], t[j], t[k]).ka for i, j, k in topo.angles])
    th0 = np.array(
        [ff.angle_param(t[i], t[j], t[k]).theta0 for i, j, k in topo.angles]
    )
    if molecule.meta.get("calibrate_bonded_equilibrium"):
        r0, th0, psi0_cal = geometry_equilibria(molecule)
    else:
        psi0_cal = None
    kd = np.array(
        [ff.dihedral_param(t[i], t[j], t[k], t[l]).kd for i, j, k, l in topo.dihedrals]
    )
    nmul = np.array(
        [ff.dihedral_param(t[i], t[j], t[k], t[l]).n for i, j, k, l in topo.dihedrals],
        dtype=float,
    )
    delt = np.array(
        [ff.dihedral_param(t[i], t[j], t[k], t[l]).delta for i, j, k, l in topo.dihedrals]
    )
    ki = np.array(
        [ff.improper_param(t[i], t[j], t[k], t[l]).ka for i, j, k, l in topo.impropers]
    )
    psi0 = np.array(
        [ff.improper_param(t[i], t[j], t[k], t[l]).theta0 for i, j, k, l in topo.impropers]
    )
    if psi0_cal is not None:
        psi0 = psi0_cal
    return dict(kb=kb, r0=r0, ka=ka, th0=th0, kd=kd, nmul=nmul, delt=delt, ki=ki, psi0=psi0)


def geometry_equilibria(molecule: Molecule):
    """Bond/angle/improper equilibria measured from the build geometry."""
    from repro.minimize.bonded import _dihedral_angle_and_grads

    c = molecule.coords
    topo = molecule.topology
    if len(topo.bonds):
        d = c[topo.bonds[:, 0]] - c[topo.bonds[:, 1]]
        r0 = np.linalg.norm(d, axis=1)
    else:
        r0 = np.empty(0)
    if len(topo.angles):
        rij = c[topo.angles[:, 0]] - c[topo.angles[:, 1]]
        rkj = c[topo.angles[:, 2]] - c[topo.angles[:, 1]]
        cos_t = (rij * rkj).sum(axis=1) / (
            np.linalg.norm(rij, axis=1) * np.linalg.norm(rkj, axis=1)
        )
        th0 = np.arccos(np.clip(cos_t, -1.0, 1.0))
    else:
        th0 = np.empty(0)
    if len(topo.impropers):
        psi0, _ = _dihedral_angle_and_grads(c, topo.impropers)
    else:
        psi0 = np.empty(0)
    return r0, th0, psi0


@dataclass(frozen=True)
class PairTable:
    """Per-pair parameters of one pair list, for all three non-bonded terms.

    Like the paper's GPU pairs-lists (Sec. III.B), the table is built when
    the list is built and read by every evaluation until the list is
    rebuilt; only the geometry and the Born-radius product change between
    evaluations.
    """

    ace_self: AceSelfPairParams
    gb: GbPairParams
    vdw: VdwPairParams

    @classmethod
    def build(
        cls,
        params: Dict[str, np.ndarray],
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        cutoff: float,
    ) -> "PairTable":
        """Table for pairs ``(pair_i, pair_j)`` from per-atom ``params``."""
        return cls(
            ace_self=ace_self_pair_params(
                params["charges"], params["born"], params["volumes"], pair_i, pair_j
            ),
            gb=gb_pair_params(params["charges"], pair_i, pair_j),
            vdw=vdw_pair_params(params["eps"], params["rm"], pair_i, pair_j, cutoff),
        )

    @classmethod
    def concatenate(cls, tables: Sequence["PairTable"]) -> "PairTable":
        """One table for the pair lists of ``tables`` laid end to end."""
        if len(tables) == 1:
            return tables[0]

        def join(parts):
            first = parts[0]
            return dataclasses.replace(
                first,
                **{
                    f.name: np.concatenate([getattr(p, f.name) for p in parts])
                    for f in dataclasses.fields(first)
                    if isinstance(getattr(first, f.name), np.ndarray)
                },
            )

        return cls(
            ace_self=join([t.ace_self for t in tables]),
            gb=join([t.gb for t in tables]),
            vdw=join([t.vdw for t in tables]),
        )


@dataclass
class EnergyReport:
    """Decomposed energy evaluation at one configuration.

    ``components`` keys: ``elec_self``, ``elec_pairwise``, ``vdw``,
    ``bond``, ``angle``, ``dihedral``, ``improper``.  ``forces`` is the
    negative gradient; ``per_atom_nonbonded`` is the paper's per-atom energy
    array (self + half-split pairwise + half-split vdw).
    """

    total: float
    components: Dict[str, float]
    forces: np.ndarray
    per_atom_nonbonded: np.ndarray
    born_radii: np.ndarray

    @property
    def nonbonded(self) -> float:
        c = self.components
        return c["elec_self"] + c["elec_pairwise"] + c["vdw"]

    @property
    def bonded(self) -> float:
        c = self.components
        return c["bond"] + c["angle"] + c["dihedral"] + c["improper"]


class EnergyModel:
    """Evaluates the CHARMM/ACE potential for one molecule (complex).

    Parameters
    ----------
    molecule:
        The protein-probe complex (or any molecule with parameters).
    movable:
        Optional boolean mask of atoms free to move.  When given, the
        non-bonded pair set is restricted to pairs touching at least one
        movable atom — frozen-frozen interactions are constant during
        minimization, and dropping them is what brings a 2200-atom complex
        down to the paper's ~10,000 pair interactions per term (Sec. V.B).
        The constant frozen-frozen energy is simply not reported.
    nonbonded_cutoff:
        Interaction cutoff for vdW smoothing (Angstrom).
    list_cutoff:
        Neighbor-list cutoff (slightly larger, so lists stay valid).
    dtype:
        Arithmetic precision — ``np.float64`` (default, the historical
        serial behavior) or ``np.float32`` (the paper's GPU arithmetic,
        now available on the serial path too; mirrors the ensemble
        model's ``precision="single"``).  Coordinates and parameters are
        cast once; neighbor lists are always built in float64.

    If ``molecule.meta['calibrate_bonded_equilibrium']`` is set, bonded
    equilibrium values (r0, theta0, psi0) are taken from the molecule's
    build-time geometry instead of the generic force-field constants —
    synthetic structures are their own bonded minimum (DESIGN.md).

    The neighbor list is built lazily on first evaluation and refreshed by
    :meth:`maybe_refresh` when any listed pair stretches 20% past the list
    cutoff — matching the paper's policy that list updates happen "only a
    few times per 1000 minimization iterations".
    """

    def __init__(
        self,
        molecule: Molecule,
        movable: np.ndarray | None = None,
        nonbonded_cutoff: float = VDW_CUTOFF,
        list_cutoff: float = NEIGHBOR_LIST_CUTOFF,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        dt = np.dtype(dtype)
        if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"dtype must be float32 or float64, got {dt}")
        self.dtype = dt
        self.molecule = molecule
        self.nonbonded_cutoff = nonbonded_cutoff
        self.list_cutoff = list_cutoff
        self.exclusions = bonded_exclusions(molecule.topology)
        self._nlist: Optional[NeighborList] = None
        self._active: Optional[tuple] = None
        self._table: Optional[PairTable] = None
        self.list_rebuilds = 0
        self.pair_table_builds = 0
        if movable is not None:
            movable = np.asarray(movable, dtype=bool)
            if movable.shape != (molecule.n_atoms,):
                raise ValueError(f"movable mask must be ({molecule.n_atoms},)")
        self.movable = movable
        self._bonded_params = self._resolve_bonded_params()
        # Parameters cast once to the model dtype (a no-op view at fp64).
        self._params = {
            "charges": np.asarray(molecule.charges, dtype=dt),
            "born": np.asarray(molecule.born_radii, dtype=dt),
            "volumes": np.asarray(molecule.volumes, dtype=dt),
            "eps": np.asarray(molecule.eps, dtype=dt),
            "rm": np.asarray(molecule.rm, dtype=dt),
        }
        self._bonded_params = {
            key: np.asarray(val, dtype=dt) for key, val in self._bonded_params.items()
        }

    # -- neighbor list management ------------------------------------------------

    def neighbor_list(self, coords: np.ndarray | None = None) -> NeighborList:
        """Current neighbor list, building it on first use."""
        if self._nlist is None:
            self.force_refresh(self.molecule.coords if coords is None else coords)
        return self._nlist

    def active_pairs(self, coords: np.ndarray | None = None):
        """(pair_i, pair_j) actually evaluated: movable-filtered half list."""
        nlist = self.neighbor_list(coords)
        if self._active is None:
            i, j = nlist.pair_arrays()
            if self.movable is not None:
                keep = self.movable[i] | self.movable[j]
                i, j = i[keep], j[keep]
            self._active = (i, j)
        return self._active

    def pair_table(self, coords: np.ndarray | None = None) -> PairTable:
        """Per-pair parameters of the active pairs, built once per list build."""
        pair_i, pair_j = self.active_pairs(coords)
        if self._table is None:
            self._table = PairTable.build(
                self._params, pair_i, pair_j, self.nonbonded_cutoff
            )
            self.pair_table_builds += 1
        return self._table

    @property
    def n_active_pairs(self) -> int:
        i, _ = self.active_pairs()
        return len(i)

    def maybe_refresh(self, coords: np.ndarray) -> bool:
        """Rebuild the neighbor list if any pair drifted out of validity.

        Returns True when a rebuild happened (the event that forces the GPU
        pipeline to regenerate and re-upload assignment tables).
        """
        nlist = self.neighbor_list(coords)
        if not nlist.max_distance_ok(coords):
            self.force_refresh(coords)
            return True
        return False

    def force_refresh(self, coords: np.ndarray) -> None:
        """Rebuild the neighbor list; active pairs and pair table follow it."""
        self._nlist = build_neighbor_list(coords, self.list_cutoff, self.exclusions)
        self._active = None
        self._table = None
        self.list_rebuilds += 1

    # -- bonded parameter resolution -----------------------------------------------

    def _resolve_bonded_params(self):
        return resolve_bonded_params(self.molecule)

    # -- evaluation ------------------------------------------------------------------

    def evaluate(self, coords: np.ndarray | None = None) -> EnergyReport:
        """Full energy, decomposition, per-atom array, and forces."""
        m = self.molecule
        c = np.asarray(m.coords if coords is None else coords, dtype=self.dtype)
        table = self.pair_table(c)
        geom = pair_geometry(c, *self.active_pairs(c))
        t = self._params

        # (i) self energies + gradients (GPU kernel (a) in the paper)
        self_res = ace_self_from_pairs(geom, table.ace_self, t["charges"], t["born"])
        e_self = float(self_res.self_energies.sum())

        # Effective Born radii for the GB pairwise term
        alphas = born_radii_from_self_energies(
            self_res.self_energies, t["charges"], t["born"]
        )

        # (ii)+(iii) pairwise elec + vdw (GPU kernel (b))
        e_gb, per_atom_gb, grad_gb = gb_from_pairs(geom, table.gb, alphas)
        e_vdw, per_atom_vdw, grad_vdw = vdw_from_pairs(geom, table.vdw)

        # Bonded terms (host side)
        p = self._bonded_params
        e_bond, g_bond = bond_energy(c, m.topology.bonds, p["kb"], p["r0"])
        e_angle, g_angle = angle_energy(c, m.topology.angles, p["ka"], p["th0"])
        e_dih, g_dih = dihedral_energy(
            c, m.topology.dihedrals, p["kd"], p["nmul"], p["delt"]
        )
        e_imp, g_imp = improper_energy(c, m.topology.impropers, p["ki"], p["psi0"])

        components = {
            "elec_self": e_self,
            "elec_pairwise": e_gb,
            "vdw": e_vdw,
            "bond": e_bond,
            "angle": e_angle,
            "dihedral": e_dih,
            "improper": e_imp,
        }
        total = float(sum(components.values()))
        gradient = (
            self_res.gradient + grad_gb + grad_vdw + g_bond + g_angle + g_dih + g_imp
        )
        per_atom = self_res.self_energies + per_atom_gb + per_atom_vdw
        return EnergyReport(
            total=total,
            components=components,
            forces=-gradient,
            per_atom_nonbonded=per_atom,
            born_radii=alphas,
        )

    def energy_only(self, coords: np.ndarray | None = None) -> float:
        """Total energy (used by line searches).

        Skips every gradient and per-atom-split computation via the
        kernels' ``with_gradient`` / ``energies_only`` fast paths.  Each
        kernel computes its energy total *before* branching on those flags,
        and the seven components are summed here in the same order as
        :meth:`evaluate`, so the returned value — and every line-search
        decision made from it — is bitwise identical to
        ``evaluate(coords).total`` (as ``EnsembleEnergyModel.energy_only``
        is for the batched path).
        """
        m = self.molecule
        c = np.asarray(m.coords if coords is None else coords, dtype=self.dtype)
        table = self.pair_table(c)
        geom = pair_geometry(c, *self.active_pairs(c))
        t = self._params

        self_res = ace_self_from_pairs(
            geom, table.ace_self, t["charges"], t["born"], with_gradient=False
        )
        e_self = float(self_res.self_energies.sum())
        alphas = born_radii_from_self_energies(
            self_res.self_energies, t["charges"], t["born"]
        )
        e_gb, _, _ = gb_from_pairs(geom, table.gb, alphas, energies_only=True)
        e_vdw, _, _ = vdw_from_pairs(geom, table.vdw, energies_only=True)
        p = self._bonded_params
        e_bond, _ = bond_energy(
            c, m.topology.bonds, p["kb"], p["r0"], with_gradient=False
        )
        e_angle, _ = angle_energy(
            c, m.topology.angles, p["ka"], p["th0"], with_gradient=False
        )
        e_dih, _ = dihedral_energy(
            c, m.topology.dihedrals, p["kd"], p["nmul"], p["delt"],
            with_gradient=False,
        )
        e_imp, _ = improper_energy(
            c, m.topology.impropers, p["ki"], p["psi0"], with_gradient=False
        )
        # Same accumulation sequence as evaluate()'s sum over components.
        return float(
            sum((e_self, e_gb, e_vdw, e_bond, e_angle, e_dih, e_imp))
        )
