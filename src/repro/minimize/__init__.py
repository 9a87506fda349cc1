"""CHARMM-potential energy minimization (FTMap phase 2).

Implements Eq. (3): ``E_total = E_vdw + E_elec + E_bond + E_angle +
E_torsion + E_improper`` with the ACE continuum electrostatics model
(Eqs. 4-7), the smoothed Lennard-Jones 6-12 variant (Eqs. 8-10), analytic
gradients, neighbor-list / pairs-list data structures (Figs. 7, 9, 10), and
an iterative minimizer with the paper's "seldom updated" neighbor-list
policy.

The batched subsystem refines whole ensembles of docked conformations:
:class:`EnsembleEnergyModel` evaluates a ``(P, N, 3)`` stack in one
vectorized pass, :class:`BatchedMinimizer` advances every pose in lock-step
with per-pose convergence, and :class:`MinimizationEngine` is the facade
that runs ``serial | batched | multi-gpu-sim``, ``auto`` choosing by
rule (:mod:`repro.minimize.selection`).
"""

from repro.minimize.neighborlist import NeighborList, build_neighbor_list, bonded_exclusions
from repro.minimize.pairslist import PairsList, SplitPairsLists, split_pairs
from repro.minimize.accumulate import as_float_array, scatter_add_rows, scatter_sub_rows
from repro.minimize.ace import (
    ace_self_energies,
    born_radii_from_self_energies,
    gb_pairwise_energy,
)
from repro.minimize.vdw import vdw_energy, vdw_pair_parameters
from repro.minimize.bonded import bond_energy, angle_energy, dihedral_energy, improper_energy
from repro.minimize.energy import (
    EnergyModel,
    EnergyReport,
    geometry_equilibria,
    resolve_bonded_params,
)
from repro.minimize.minimizer import MinimizationResult, Minimizer, MinimizerConfig
from repro.minimize.ensemble import EnsembleEnergyModel, EnsembleEnergyReport
from repro.minimize.batched import BatchedMinimizer
from repro.minimize.multidevice import (
    DEFAULT_MINIMIZE_DEVICES,
    MultiDeviceMinimizer,
    MultiDeviceRun,
    ShardExecution,
)
from repro.minimize.selection import (
    MINIMIZE_CPU_BACKENDS,
    ensemble_batch_limit,
    select_minimize_backend,
)
from repro.minimize.engine import (
    MINIMIZE_BACKEND_NAMES,
    MinimizationEngine,
    MinimizationRun,
)

__all__ = [
    "NeighborList",
    "build_neighbor_list",
    "bonded_exclusions",
    "PairsList",
    "SplitPairsLists",
    "split_pairs",
    "as_float_array",
    "scatter_add_rows",
    "scatter_sub_rows",
    "ace_self_energies",
    "born_radii_from_self_energies",
    "gb_pairwise_energy",
    "vdw_energy",
    "vdw_pair_parameters",
    "bond_energy",
    "angle_energy",
    "dihedral_energy",
    "improper_energy",
    "EnergyModel",
    "EnergyReport",
    "geometry_equilibria",
    "resolve_bonded_params",
    "MinimizationResult",
    "Minimizer",
    "MinimizerConfig",
    "EnsembleEnergyModel",
    "EnsembleEnergyReport",
    "BatchedMinimizer",
    "MultiDeviceMinimizer",
    "MultiDeviceRun",
    "ShardExecution",
    "DEFAULT_MINIMIZE_DEVICES",
    "MINIMIZE_CPU_BACKENDS",
    "ensemble_batch_limit",
    "select_minimize_backend",
    "MINIMIZE_BACKEND_NAMES",
    "MinimizationEngine",
    "MinimizationRun",
]
