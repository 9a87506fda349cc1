"""Tests for the vectorized ensemble energy model."""

import numpy as np
import pytest

from repro.minimize import EnergyModel, EnsembleEnergyModel
from repro.structure import synthetic_complex
from repro.structure.builder import pocket_movable_mask

N_POSES = 4


@pytest.fixture(scope="module")
def complex_mol():
    return synthetic_complex(probe_name="ethanol", n_residues=40, seed=3)


@pytest.fixture(scope="module")
def ensemble(complex_mol):
    """(stack, masks): perturbed-probe conformations with per-pose masks."""
    n_probe = complex_mol.meta["n_probe_atoms"]
    rng = np.random.default_rng(7)
    stack = np.stack([complex_mol.coords.copy() for _ in range(N_POSES)])
    for k in range(N_POSES):
        stack[k, -n_probe:] += rng.normal(scale=0.3, size=(n_probe, 3))
        stack[k, -n_probe:] += np.array([0.2 * k, 0.0, 0.0])
    masks = np.stack(
        [
            pocket_movable_mask(complex_mol.with_coords(stack[k]), n_probe)
            for k in range(N_POSES)
        ]
    )
    return stack, masks


@pytest.fixture(scope="module")
def model(complex_mol, ensemble):
    stack, masks = ensemble
    return EnsembleEnergyModel(complex_mol, stack, movable=masks)


@pytest.fixture(scope="module")
def serial_models(complex_mol, ensemble):
    stack, masks = ensemble
    return [EnergyModel(complex_mol, movable=masks[k]) for k in range(N_POSES)]


class TestConstruction:
    def test_bad_stack_shape(self, complex_mol):
        with pytest.raises(ValueError):
            EnsembleEnergyModel(complex_mol, np.zeros((3, 5, 3)))

    def test_bad_movable_shape(self, complex_mol, ensemble):
        stack, _ = ensemble
        with pytest.raises(ValueError):
            EnsembleEnergyModel(complex_mol, stack, movable=np.ones(3, dtype=bool))

    def test_bad_precision(self, complex_mol, ensemble):
        stack, _ = ensemble
        with pytest.raises(ValueError):
            EnsembleEnergyModel(complex_mol, stack, precision="half")

    def test_shared_mask_broadcasts(self, complex_mol, ensemble):
        stack, masks = ensemble
        em = EnsembleEnergyModel(complex_mol, stack, movable=masks[0])
        assert em.movable.shape == (N_POSES, complex_mol.n_atoms)
        assert np.array_equal(em.movable[0], em.movable[-1])


class TestEquivalence:
    def test_pair_lists_match_serial(self, model, serial_models, ensemble):
        stack, _ = ensemble
        for k in range(N_POSES):
            i, j = model.pair_arrays(k)
            si, sj = serial_models[k].active_pairs(stack[k])
            assert np.array_equal(i, si)
            assert np.array_equal(j, sj)

    def test_totals_and_components_match_serial(self, model, serial_models, ensemble):
        stack, _ = ensemble
        rep = model.evaluate(stack)
        for k in range(N_POSES):
            ref = serial_models[k].evaluate(stack[k])
            assert rep.totals[k] == pytest.approx(ref.total, rel=1e-12, abs=1e-9)
            for key, val in ref.components.items():
                assert rep.components[key][k] == pytest.approx(
                    val, rel=1e-12, abs=1e-9
                )

    def test_forces_and_per_atom_match_serial(self, model, serial_models, ensemble):
        stack, _ = ensemble
        rep = model.evaluate(stack)
        for k in range(N_POSES):
            ref = serial_models[k].evaluate(stack[k])
            np.testing.assert_allclose(rep.forces[k], ref.forces, atol=1e-9)
            np.testing.assert_allclose(
                rep.per_atom_nonbonded[k], ref.per_atom_nonbonded, atol=1e-10
            )
            np.testing.assert_allclose(rep.born_radii[k], ref.born_radii, atol=1e-12)

    def test_energy_only_matches_evaluate(self, model, ensemble):
        stack, _ = ensemble
        np.testing.assert_array_equal(
            model.energy_only(stack), model.evaluate(stack).totals
        )

    def test_subset_matches_full(self, model, ensemble):
        stack, _ = ensemble
        full = model.evaluate(stack)
        sub = model.evaluate(stack[[2, 0]], pose_ids=[2, 0])
        np.testing.assert_array_equal(sub.totals, full.totals[[2, 0]])
        np.testing.assert_array_equal(sub.forces, full.forces[[2, 0]])


class TestSinglePrecision:
    def test_fp32_close_to_fp64(self, complex_mol, ensemble):
        stack, masks = ensemble
        em64 = EnsembleEnergyModel(complex_mol, stack, movable=masks)
        em32 = EnsembleEnergyModel(
            complex_mol, stack, movable=masks, precision="single"
        )
        t64 = em64.evaluate(stack).totals
        rep32 = em32.evaluate(stack)
        assert rep32.totals.dtype == np.float32
        np.testing.assert_allclose(rep32.totals, t64, rtol=1e-4)


class TestRefresh:
    def test_maybe_refresh_rebuilds_only_drifted_pose(self, complex_mol, ensemble):
        stack, masks = ensemble
        em = EnsembleEnergyModel(complex_mol, stack, movable=masks)
        em.evaluate(stack)
        before = em.pose_list_rebuilds.copy()
        moved = stack.copy()
        n_probe = complex_mol.meta["n_probe_atoms"]
        moved[1, -n_probe:] += 30.0   # pose 1 drifts far out of its list
        assert em.maybe_refresh(moved)
        assert em.pose_list_rebuilds[1] == before[1] + 1
        assert np.array_equal(
            np.delete(em.pose_list_rebuilds, 1), np.delete(before, 1)
        )

    def test_no_rebuild_when_static(self, complex_mol, ensemble):
        stack, masks = ensemble
        em = EnsembleEnergyModel(complex_mol, stack, movable=masks)
        em.evaluate(stack)
        before = em.pose_list_rebuilds.copy()
        assert not em.maybe_refresh(stack)
        assert np.array_equal(em.pose_list_rebuilds, before)


class TestSharedCoreLists:
    """Ensemble pose lists come from the shared receptor core + per-pose
    probe deltas; semantics must be indistinguishable from full builds."""

    def test_standard_ensemble_uses_delta_builds(self, complex_mol, ensemble):
        stack, masks = ensemble
        em = EnsembleEnergyModel(complex_mol, stack, movable=masks)
        em.evaluate(stack)
        n_probe = complex_mol.meta["n_probe_atoms"]
        assert em.core_atoms == complex_mol.n_atoms - n_probe
        assert em.shared_core_builds == 1
        assert em.delta_list_builds == N_POSES
        assert em.full_list_builds == 0

    def test_moved_receptor_pose_falls_back_to_full_build(
        self, complex_mol, ensemble
    ):
        stack, masks = ensemble
        moved = stack.copy()
        moved[1, :40] += 0.5          # receptor atoms moved in pose 1 only
        em = EnsembleEnergyModel(complex_mol, moved, movable=masks)
        em.evaluate(moved)
        assert em.delta_list_builds == N_POSES - 1
        assert em.full_list_builds == 1
        # ...and its list still matches an independent serial model.
        serial = EnergyModel(complex_mol, movable=masks[1])
        i, j = em.pair_arrays(1)
        si, sj = serial.active_pairs(moved[1])
        assert np.array_equal(i, si) and np.array_equal(j, sj)

    def test_refresh_rebuilds_only_the_delta(self, complex_mol, ensemble):
        stack, masks = ensemble
        em = EnsembleEnergyModel(complex_mol, stack, movable=masks)
        em.evaluate(stack)
        assert em.shared_core_builds == 1
        moved = stack.copy()
        n_probe = complex_mol.meta["n_probe_atoms"]
        moved[2, -n_probe:] += 30.0   # pose 2's probe drifts out of validity
        assert em.maybe_refresh(moved)
        # The drifted pose rebuilt via the cheap delta path; the shared
        # core was not rebuilt (receptor atoms never moved).
        assert em.shared_core_builds == 1
        assert em.delta_list_builds == N_POSES + 1
        assert em.full_list_builds == 0

    def test_sharing_disabled_with_zero_core(self, complex_mol, ensemble):
        stack, masks = ensemble
        em = EnsembleEnergyModel(complex_mol, stack, movable=masks, core_atoms=0)
        em.evaluate(stack)
        assert em.delta_list_builds == 0
        assert em.full_list_builds == N_POSES
        ref = EnsembleEnergyModel(complex_mol, stack, movable=masks)
        for k in range(N_POSES):
            i, j = em.pair_arrays(k)
            ri, rj = ref.pair_arrays(k)
            assert np.array_equal(i, ri) and np.array_equal(j, rj)

    def test_bad_core_atoms_rejected(self, complex_mol, ensemble):
        stack, _ = ensemble
        with pytest.raises(ValueError):
            EnsembleEnergyModel(complex_mol, stack, core_atoms=-1)
        with pytest.raises(ValueError):
            EnsembleEnergyModel(
                complex_mol, stack, core_atoms=complex_mol.n_atoms + 1
            )


class TestPoseSubsets:
    """A pose subset (a multi-device shard) reads its ensemble's set-up:
    no list or parameter is built twice, and no bit changes."""

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_subset_matches_own_model(self, complex_mol, ensemble, precision):
        stack, masks = ensemble
        full = EnsembleEnergyModel(
            complex_mol, stack, movable=masks, precision=precision
        )
        sub = full._pose_subset(2, N_POSES)
        own = EnsembleEnergyModel(
            complex_mol, stack[2:], movable=masks[2:], precision=precision
        )
        a, b = sub.evaluate(stack[2:]), own.evaluate(stack[2:])
        assert np.array_equal(a.totals, b.totals)
        assert np.array_equal(a.forces, b.forces)
        assert np.array_equal(a.per_atom_nonbonded, b.per_atom_nonbonded)
        # The ensemble built the core once; the subset built none itself.
        assert full.shared_core_builds == 1
        assert sub.shared_core_builds == 0
        assert sub.delta_list_builds == N_POSES - 2
        assert sub.full_list_builds == 0
        assert sub.exclusions is full.exclusions
        for k in range(N_POSES - 2):
            i, j = sub.pair_arrays(k)
            ri, rj = own.pair_arrays(k)
            assert np.array_equal(i, ri) and np.array_equal(j, rj)


class TestEmptyEnsemble:
    def test_zero_pose_model(self, complex_mol):
        em = EnsembleEnergyModel(
            complex_mol, np.empty((0, complex_mol.n_atoms, 3))
        )
        rep = em.evaluate(np.empty((0, complex_mol.n_atoms, 3)))
        assert rep.n_poses == 0
        assert rep.totals.shape == (0,)
        assert em.n_active_pairs == 0


def _kernel_reference(model: EnsembleEnergyModel, coords: np.ndarray, ids):
    """The standalone kernels over the flattened stack, each building its
    own pair geometry and parameters; returns ``(totals, components,
    gradient, per_atom, alphas)`` in the ensemble's layout and dtype."""
    from repro.minimize import (
        ace_self_energies,
        angle_energy,
        bond_energy,
        born_radii_from_self_energies,
        dihedral_energy,
        gb_pairwise_energy,
        improper_energy,
        resolve_bonded_params,
        vdw_energy,
    )

    mol, n, dt, k = model.molecule, model.n_atoms, model.dtype, len(ids)
    flat = np.asarray(coords, dtype=dt).reshape(k * n, 3)
    pairs = [model.pair_arrays(p) for p in ids]
    pair_i = np.concatenate([i + row * n for row, (i, _) in enumerate(pairs)])
    pair_j = np.concatenate([j + row * n for row, (_, j) in enumerate(pairs)])
    bounds = np.concatenate([[0], np.cumsum([len(i) for i, _ in pairs])])

    def tile(a):
        return np.tile(np.asarray(a, dtype=dt), k)

    def tile_topo(a):
        a = np.asarray(a, dtype=np.intp)
        if len(a) == 0:
            return a
        return np.tile(a, (k, 1)) + np.repeat(np.arange(k) * n, len(a))[:, None]

    q, born, vol, eps, rm = (
        tile(a) for a in (mol.charges, mol.born_radii, mol.volumes, mol.eps, mol.rm)
    )
    bp = {key: tile(v) for key, v in resolve_bonded_params(mol).items()}
    topo = mol.topology
    self_res = ace_self_energies(flat, q, born, vol, pair_i, pair_j)
    alphas = born_radii_from_self_energies(self_res.self_energies, q, born)
    _, pa_gb, g_gb, gb_pair = gb_pairwise_energy(
        flat, q, alphas, pair_i, pair_j, per_pair=True
    )
    _, pa_vdw, g_vdw, vdw_pair = vdw_energy(
        flat, eps, rm, pair_i, pair_j, model.nonbonded_cutoff, per_pair=True
    )
    _, g_bond, bond_t = bond_energy(
        flat, tile_topo(topo.bonds), bp["kb"], bp["r0"], per_term=True
    )
    _, g_angle, angle_t = angle_energy(
        flat, tile_topo(topo.angles), bp["ka"], bp["th0"], per_term=True
    )
    _, g_dih, dih_t = dihedral_energy(
        flat, tile_topo(topo.dihedrals), bp["kd"], bp["nmul"], bp["delt"],
        per_term=True,
    )
    _, g_imp, imp_t = improper_energy(
        flat, tile_topo(topo.impropers), bp["ki"], bp["psi0"], per_term=True
    )

    def segments(values):
        return np.array([values[bounds[s]:bounds[s + 1]].sum() for s in range(k)])

    components = {
        "elec_self": self_res.self_energies.reshape(k, n).sum(axis=1),
        "elec_pairwise": segments(gb_pair),
        "vdw": segments(vdw_pair),
        "bond": bond_t.reshape(k, len(topo.bonds)).sum(axis=1),
        "angle": angle_t.reshape(k, len(topo.angles)).sum(axis=1),
        "dihedral": dih_t.reshape(k, len(topo.dihedrals)).sum(axis=1),
        "improper": imp_t.reshape(k, len(topo.impropers)).sum(axis=1),
    }
    totals = np.zeros(k, dtype=dt)
    for value in components.values():
        totals = totals + value
    gradient = self_res.gradient + g_gb + g_vdw + g_bond + g_angle + g_dih + g_imp
    per_atom = self_res.self_energies + pa_gb + pa_vdw
    return (
        totals,
        components,
        gradient.reshape(k, n, 3),
        per_atom.reshape(k, n),
        alphas.reshape(k, n),
    )


class TestOnePairPass:
    """The ensemble's single pair pass (shared geometry, per-pose pair
    tables laid end to end) reproduces the standalone kernels bit for bit."""

    @staticmethod
    def _assert_matches_kernels(model, coords, ids):
        totals, components, gradient, per_atom, alphas = _kernel_reference(
            model, coords, ids
        )
        pose_ids = None if len(ids) == model.n_poses else ids
        rep = model.evaluate(coords, pose_ids=pose_ids)
        np.testing.assert_array_equal(rep.totals, totals)
        assert rep.components.keys() == components.keys()
        for key, value in components.items():
            np.testing.assert_array_equal(rep.components[key], value)
        np.testing.assert_array_equal(rep.forces, -gradient)
        np.testing.assert_array_equal(rep.per_atom_nonbonded, per_atom)
        np.testing.assert_array_equal(rep.born_radii, alphas)
        np.testing.assert_array_equal(
            model.energy_only(coords, pose_ids=pose_ids), totals
        )

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("ids", [list(range(N_POSES)), [2, 0], [3]])
    def test_matches_kernels_before_and_after_refresh(
        self, complex_mol, ensemble, precision, ids
    ):
        stack, masks = ensemble
        em = EnsembleEnergyModel(complex_mol, stack, movable=masks, precision=precision)
        self._assert_matches_kernels(em, stack[ids], ids)
        n_probe = complex_mol.meta["n_probe_atoms"]
        moved = stack.copy()
        moved[:, -n_probe:] += np.array([1.5, -0.5, 0.25])
        em.force_refresh(moved[ids], pose_ids=ids)
        self._assert_matches_kernels(em, moved[ids], ids)
        self._assert_matches_kernels(em, moved, list(range(N_POSES)))

    def test_table_built_once_per_pose_list_build(self, complex_mol, ensemble):
        stack, masks = ensemble
        em = EnsembleEnergyModel(complex_mol, stack, movable=masks)
        assert em.pair_table_builds == 0
        em.evaluate(stack)
        em.energy_only(stack)
        em.energy_only(stack[[1, 3]], pose_ids=[1, 3])
        em.evaluate(stack[[2]], pose_ids=[2])
        assert em.pair_table_builds == N_POSES
        assert not em.maybe_refresh(stack)
        assert em.pair_table_builds == N_POSES
        moved = stack.copy()
        moved[1, -complex_mol.meta["n_probe_atoms"]:] += 30.0
        assert em.maybe_refresh(moved)
        assert em.pair_table_builds == N_POSES + 1
        em.force_refresh(moved[[0, 2]], pose_ids=[0, 2])
        assert em.pair_table_builds == em.list_rebuilds == N_POSES + 3

    def test_subset_table_is_never_stale(self, complex_mol, ensemble):
        """A pose refreshed after the full set was evaluated reads its new
        table in the full set and in every subset."""
        stack, masks = ensemble
        em = EnsembleEnergyModel(complex_mol, stack, movable=masks)
        em.evaluate(stack)
        moved = stack.copy()
        moved[1, -complex_mol.meta["n_probe_atoms"]:] += np.array([2.0, 0.0, 0.0])
        em.force_refresh(moved[[1]], pose_ids=[1])
        self._assert_matches_kernels(em, moved, list(range(N_POSES)))
        self._assert_matches_kernels(em, moved[[1, 0]], [1, 0])
