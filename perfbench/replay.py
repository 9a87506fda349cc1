"""Sequential stage-by-stage replay of one mapping request.

The replay calls the runtime layers' public entry points one at a time -
``DockingEngine``, ``MinimizationEngine``, ``cluster_probe`` and
``consensus_sites`` - with one benchmark-side span around each call, and
rebuilds the request's ``FTMapResult``.  Its result document must equal
the service's bit for bit, which is the output check of the cold
workloads.  With ``detail`` it also times the paper's finer layers:
per-rotation gridding / correlation / filtering (Fig. 2b), the
neighbour-list build, and one energy evaluation's kernels (Fig. 3b).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro import (
    DockingEngine,
    EnergyModel,
    FTMapConfig,
    MinimizationEngine,
    build_probe,
    consensus_sites,
    filter_top_poses,
)
from repro.geometry.transforms import centered
from repro.mapping.ftmap import FTMapResult, ProbeResult, cluster_probe
from repro.minimize.ace import (
    ace_self_energies,
    born_radii_from_self_energies,
    gb_pairwise_energy,
)
from repro.minimize.bonded import (
    angle_energy,
    bond_energy,
    dihedral_energy,
    improper_energy,
)
from repro.minimize.energy import resolve_bonded_params
from repro.minimize.vdw import vdw_energy
from repro.structure.builder import pocket_movable_mask

#: Energy evaluations timed per probe (their median is the metric).
EVAL_REPEATS = 3


class ReplayMismatch(Exception):
    """A finer-grained replay did not reproduce the engine's own output."""


def replay_request(receptor, config: FTMapConfig, tracer, detail: bool) -> dict:
    """Map ``receptor`` stage by stage; returns ``FTMapResult.to_dict()``."""
    results: Dict[str, ProbeResult] = {}
    with tracer.span("replay.request"):
        for name in config.probe_names:
            probe = build_probe(name)
            with tracer.span("replay.probe", probe=name):
                results[name] = _replay_probe(receptor, name, probe, config, tracer, detail)
        with tracer.span("mapping.consensus"):
            sites = consensus_sites(
                {name: pr.clusters for name, pr in results.items()},
                radius=config.consensus_radius,
            )
    return FTMapResult(probe_results=results, sites=sites).to_dict()


def _replay_probe(receptor, name, probe, config, tracer, detail) -> ProbeResult:
    with tracer.span("docking.setup"):
        docking = DockingEngine(
            receptor,
            probe,
            config.piper_config(),
            backend=config.engine,
            workers=config.docking_workers,
        )
    with tracer.span("docking.run") as span:
        run = docking.run_detailed()
        span.set_attributes(rotations=config.num_rotations, poses=len(run.poses))
    if detail:
        with tracer.span("docking.rotations"):
            _rotation_breakdown(docking, run.poses, tracer)

    top = list(run.poses[: config.minimize_top])
    template, stack, movable = _ensemble(receptor, probe, top, config)
    with tracer.span("minimize.setup"):
        engine = MinimizationEngine(
            template,
            stack,
            movable=movable,
            config=config.minimizer_config(),
            backend=config.minimize_engine,
            batch_size=config.minimize_batch_size,
            devices=config.minimize_devices,
        )
    with tracer.span("minimize.run") as span:
        mrun = engine.run_detailed()
        span.set_attributes(
            iterations=sum(r.iterations for r in mrun.results), backend=mrun.backend
        )
    if detail:
        model = EnergyModel(template.with_coords(stack[0]), movable=movable[0])
        with tracer.span("minimize.list_build"):
            model.neighbor_list()
        _evaluation_kernels(model, stack[0], tracer)

    n_probe = probe.n_atoms
    centers = np.stack([r.coords[-n_probe:].mean(axis=0) for r in mrun.results])
    energies = np.array([r.energy for r in mrun.results], dtype=float)
    with tracer.span("mapping.cluster"):
        clusters = cluster_probe(centers, energies, config)
    return ProbeResult(
        probe_name=name,
        docked_poses=run.poses,
        minimized=mrun.results,
        minimized_centers=centers,
        minimized_energies=energies,
        clusters=clusters,
        docking_backend=run.backend,
        minimize_backend=mrun.backend,
        minimize_devices=mrun.num_devices,
        minimize_shard_sizes=mrun.shard_sizes,
        minimize_reduction_order=mrun.reduction_order,
    )


def _ensemble(receptor, probe, top, config: FTMapConfig):
    """The complex template, pose stack and pocket masks the minimize stage builds."""
    n_probe = probe.n_atoms
    placed0 = probe.with_coords(top[0].transform.apply(centered(probe.coords)))
    template = receptor.merged_with(placed0)
    n_total = template.n_atoms
    stack = np.empty((len(top), n_total, 3))
    stack[:, : n_total - n_probe] = receptor.coords
    for k, pose in enumerate(top):
        stack[k, n_total - n_probe :] = pose.transform.apply(centered(probe.coords))
    movable = np.stack(
        [
            pocket_movable_mask(
                template.with_coords(stack[k]),
                n_probe,
                flexible_radius=config.flexible_radius,
            )
            for k in range(len(top))
        ]
    )
    return template, stack, movable


def _rotation_breakdown(docking: DockingEngine, poses, tracer) -> None:
    """Dock again one rotation at a time, timing the three host steps."""
    docker = docking.docker
    cfg = docker.config
    found: List[Tuple[float, int, tuple]] = []
    for index in range(len(docker.rotations)):
        with tracer.span("docking.gridding"):
            grids = docker.grid_rotation(index)
        with tracer.span("docking.correlation"):
            scores = docker.engine.correlate(docker.receptor_grids, grids)
        with tracer.span("docking.filtering"):
            kept = filter_top_poses(scores, cfg.poses_per_rotation, cfg.exclusion_radius)
        found.extend((f.score, index, tuple(f.translation)) for f in kept)
    found.sort(key=lambda item: item[0])
    expected = [(p.score, p.rotation_index, tuple(p.translation)) for p in poses]
    if found != expected:
        raise ReplayMismatch("per-rotation docking differs from run_detailed()")


def _evaluation_kernels(model: EnergyModel, coords: np.ndarray, tracer) -> None:
    """Time one evaluation's kernels; their energies must sum to ``evaluate``."""
    mol = model.molecule
    topo = mol.topology
    c = np.asarray(coords, dtype=np.float64)
    pair_i, pair_j = model.active_pairs(c)
    charges = np.asarray(mol.charges, dtype=np.float64)
    born = np.asarray(mol.born_radii, dtype=np.float64)
    volumes = np.asarray(mol.volumes, dtype=np.float64)
    eps = np.asarray(mol.eps, dtype=np.float64)
    rm = np.asarray(mol.rm, dtype=np.float64)
    bp = {k: np.asarray(v, dtype=np.float64) for k, v in resolve_bonded_params(mol).items()}
    for _ in range(EVAL_REPEATS):
        with tracer.span("minimize.eval"):
            with tracer.span("minimize.eval.electrostatics"):
                self_res = ace_self_energies(c, charges, born, volumes, pair_i, pair_j)
                alphas = born_radii_from_self_energies(
                    self_res.self_energies, charges, born
                )
                e_gb, _, _ = gb_pairwise_energy(c, charges, alphas, pair_i, pair_j)
            with tracer.span("minimize.eval.vdw"):
                e_vdw, _, _ = vdw_energy(c, eps, rm, pair_i, pair_j, model.nonbonded_cutoff)
            with tracer.span("minimize.eval.bonded"):
                e_bond, _ = bond_energy(c, topo.bonds, bp["kb"], bp["r0"])
                e_angle, _ = angle_energy(c, topo.angles, bp["ka"], bp["th0"])
                e_dih, _ = dihedral_energy(
                    c, topo.dihedrals, bp["kd"], bp["nmul"], bp["delt"]
                )
                e_imp, _ = improper_energy(c, topo.impropers, bp["ki"], bp["psi0"])
    # Same terms, same order as EnergyModel.evaluate: the totals agree exactly.
    total = float(
        sum(
            [
                float(self_res.self_energies.sum()),
                e_gb, e_vdw, e_bond, e_angle, e_dih, e_imp,
            ]
        )
    )
    if total != model.evaluate(c).total:
        raise ReplayMismatch("timed kernels do not reproduce EnergyModel.evaluate")
