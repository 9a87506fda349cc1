"""Tests for the assembled energy model (Eq. 3)."""

import numpy as np
import pytest

from repro.minimize import EnergyModel
from repro.structure.builder import pocket_movable_mask


class TestEnergyModel:
    def test_components_sum_to_total(self, small_model):
        rep = small_model.evaluate()
        assert rep.total == pytest.approx(sum(rep.components.values()))

    def test_nonbonded_bonded_partition(self, small_model):
        rep = small_model.evaluate()
        assert rep.total == pytest.approx(rep.nonbonded + rep.bonded)

    def test_calibrated_bonded_near_zero_at_build_geometry(self, small_model):
        """Synthetic structures are their own bonded minimum, so bond/angle/
        improper energies at the build geometry are ~0 (jitter-free terms)."""
        rep = small_model.evaluate()
        assert abs(rep.components["bond"]) < 1e-9
        assert abs(rep.components["angle"]) < 1e-9
        assert abs(rep.components["improper"]) < 1e-9

    def test_electrostatics_dominates_vdw_paper_shape(self, small_model):
        """Fig. 3(b): electrostatics >> vdw in evaluation cost; in energy
        magnitude the elec terms are also the larger contributors at
        equilibrium-ish geometry."""
        rep = small_model.evaluate()
        elec = abs(rep.components["elec_self"]) + abs(rep.components["elec_pairwise"])
        assert elec > 0

    def test_per_atom_sums_to_nonbonded(self, small_model):
        rep = small_model.evaluate()
        assert rep.per_atom_nonbonded.sum() == pytest.approx(rep.nonbonded, rel=1e-9)

    def test_forces_shape_and_finiteness(self, small_model):
        rep = small_model.evaluate()
        n = small_model.molecule.n_atoms
        assert rep.forces.shape == (n, 3)
        assert np.all(np.isfinite(rep.forces))

    def test_frozen_alpha_gradient_consistency(self, small_model, rng):
        """Forces match finite differences of the full energy to a few
        percent: the residual is the documented frozen-alpha approximation
        (Born radii held fixed during a force evaluation; their dependence
        on coordinates re-enters only through the next evaluation).  The
        per-term gradients are exact — see the FD tests in
        test_minimize_ace/vdw/bonded.

        The frozen-alpha residual is an absolute error (it scales with the
        alpha sensitivity of the pair terms, not with the component being
        checked), so tiny force components are compared on the typical
        force scale rather than their own magnitude."""
        x = small_model.molecule.coords.copy()
        rep = small_model.evaluate(x)
        g = -rep.forces
        h = 1e-5
        movable_idx = np.nonzero(small_model.movable)[0]
        errs = []
        for a in rng.choice(movable_idx, 3, replace=False):
            for d in range(3):
                xp, xm = x.copy(), x.copy()
                xp[a, d] += h
                xm[a, d] -= h
                fd = (small_model.energy_only(xp) - small_model.energy_only(xm)) / (2 * h)
                denom = max(10.0, abs(fd))
                errs.append(abs(fd - g[a, d]) / denom)
        assert max(errs) < 3e-2

    def test_movable_filter_reduces_pairs(self, small_complex):
        full = EnergyModel(small_complex)
        mask = pocket_movable_mask(small_complex, small_complex.meta["n_probe_atoms"])
        filtered = EnergyModel(small_complex, movable=mask)
        assert filtered.n_active_pairs < full.neighbor_list().n_pairs

    def test_movable_filter_keeps_movable_pairs(self, small_model):
        i, j = small_model.active_pairs()
        mv = small_model.movable
        assert np.all(mv[i] | mv[j])

    def test_bad_movable_shape(self, small_complex):
        with pytest.raises(ValueError):
            EnergyModel(small_complex, movable=np.ones(3, dtype=bool))

    def test_refresh_on_drift(self, small_complex):
        model = EnergyModel(small_complex)
        x = small_complex.coords.copy()
        assert not model.maybe_refresh(x)          # fresh list is valid
        rebuilds0 = model.list_rebuilds
        x[-1] += 50.0                              # blow one atom far away
        assert model.maybe_refresh(x)
        assert model.list_rebuilds == rebuilds0 + 1

    def test_energy_only_matches_evaluate(self, small_model):
        x = small_model.molecule.coords
        assert small_model.energy_only(x) == pytest.approx(
            small_model.evaluate(x).total
        )

    def test_born_radii_reported(self, small_model):
        rep = small_model.evaluate()
        assert rep.born_radii.shape == (small_model.molecule.n_atoms,)
        assert np.all(rep.born_radii > 0)


class TestSerialFastPaths:
    """The serial fp32 / energies-only fast paths: they must be
    bitwise-invisible at fp64."""

    def test_energy_only_bitwise_identical_to_full(self, small_complex, rng):
        mask = pocket_movable_mask(small_complex, small_complex.meta["n_probe_atoms"])
        fast = EnergyModel(small_complex, movable=mask)
        x = small_complex.coords + rng.normal(
            scale=0.01, size=small_complex.coords.shape
        )
        # Exact equality, not approx: each kernel computes its total before
        # branching on the fast-path flags, and components are summed in
        # evaluate()'s order, so line-search decisions cannot diverge.
        assert fast.energy_only(x) == fast.evaluate(x).total

    def test_fp64_minimization_identical_with_and_without_fast_path(
        self, small_complex, rng
    ):
        from repro.minimize import Minimizer, MinimizerConfig

        n_probe = small_complex.meta["n_probe_atoms"]
        mask = pocket_movable_mask(small_complex, n_probe)
        start = small_complex.coords.copy()
        start[-n_probe:] += rng.normal(scale=0.2, size=(n_probe, 3))
        cfg = MinimizerConfig(max_iterations=30)
        runs = {}
        for eo in (True, False):
            model = EnergyModel(small_complex, movable=mask)
            if not eo:
                # Reference: every line-search energy is a full evaluation.
                model.energy_only = lambda c, model=model: model.evaluate(c).total
            runs[eo] = Minimizer(model, config=cfg).run(coords=start)
        assert runs[True].energy == runs[False].energy
        assert runs[True].iterations == runs[False].iterations
        np.testing.assert_array_equal(runs[True].coords, runs[False].coords)

    def test_fp32_close_to_fp64(self, small_complex):
        mask = pocket_movable_mask(small_complex, small_complex.meta["n_probe_atoms"])
        m64 = EnergyModel(small_complex, movable=mask)
        m32 = EnergyModel(small_complex, movable=mask, dtype=np.float32)
        x = small_complex.coords
        t64 = m64.evaluate(x).total
        t32 = m32.evaluate(x).total
        assert t32 == pytest.approx(t64, rel=5e-3)
        # fast path stays self-consistent at fp32 too
        assert m32.energy_only(x) == t32

    def test_bad_dtype_rejected(self, small_complex):
        with pytest.raises(ValueError):
            EnergyModel(small_complex, dtype=np.float16)


def _kernel_reference(model: EnergyModel, coords: np.ndarray):
    """The standalone kernels composed as the perfbench replay composes them.

    Returns ``(total, components, gradient, per_atom, alphas)`` computed with
    ``model``'s dtype and active pairs, each kernel building its own pair
    geometry and parameters.
    """
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

    mol = model.molecule
    topo = mol.topology
    dt = model.dtype
    c = np.asarray(coords, dtype=dt)
    pair_i, pair_j = model.active_pairs(c)
    q, born, vol, eps, rm = (
        np.asarray(a, dtype=dt)
        for a in (mol.charges, mol.born_radii, mol.volumes, mol.eps, mol.rm)
    )
    bp = {k: np.asarray(v, dtype=dt) for k, v in resolve_bonded_params(mol).items()}
    self_res = ace_self_energies(c, q, born, vol, pair_i, pair_j)
    alphas = born_radii_from_self_energies(self_res.self_energies, q, born)
    e_gb, pa_gb, g_gb = gb_pairwise_energy(c, q, alphas, pair_i, pair_j)
    e_vdw, pa_vdw, g_vdw = vdw_energy(
        c, eps, rm, pair_i, pair_j, model.nonbonded_cutoff
    )
    e_bond, g_bond = bond_energy(c, topo.bonds, bp["kb"], bp["r0"])
    e_angle, g_angle = angle_energy(c, topo.angles, bp["ka"], bp["th0"])
    e_dih, g_dih = dihedral_energy(
        c, topo.dihedrals, bp["kd"], bp["nmul"], bp["delt"]
    )
    e_imp, g_imp = improper_energy(c, topo.impropers, bp["ki"], bp["psi0"])
    components = {
        "elec_self": float(self_res.self_energies.sum()),
        "elec_pairwise": e_gb,
        "vdw": e_vdw,
        "bond": e_bond,
        "angle": e_angle,
        "dihedral": e_dih,
        "improper": e_imp,
    }
    total = float(sum(components.values()))
    gradient = self_res.gradient + g_gb + g_vdw + g_bond + g_angle + g_dih + g_imp
    per_atom = self_res.self_energies + pa_gb + pa_vdw
    return total, components, gradient, per_atom, alphas


class TestOnePairPass:
    """The model's single pair pass (shared geometry, per-list pair table)
    reproduces the standalone kernels bit for bit."""

    @pytest.fixture
    def setup(self, small_complex):
        mask = pocket_movable_mask(small_complex, small_complex.meta["n_probe_atoms"])
        local = np.random.default_rng(11)
        x = small_complex.coords + local.normal(
            scale=0.01, size=small_complex.coords.shape
        )
        return mask, x

    @staticmethod
    def _assert_matches_kernels(model, x):
        total, components, gradient, per_atom, alphas = _kernel_reference(model, x)
        rep = model.evaluate(x)
        assert rep.total == total
        assert rep.components == components
        np.testing.assert_array_equal(rep.forces, -gradient)
        np.testing.assert_array_equal(rep.per_atom_nonbonded, per_atom)
        np.testing.assert_array_equal(rep.born_radii, alphas)
        assert model.energy_only(x) == total

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_kernels_before_and_after_refresh(self, small_complex, setup, dtype):
        mask, x = setup
        model = EnergyModel(small_complex, movable=mask, dtype=dtype)
        self._assert_matches_kernels(model, x)
        n_probe = small_complex.meta["n_probe_atoms"]
        moved = x.copy()
        moved[-n_probe:] += np.array([1.5, -0.5, 0.25])
        pairs_before = model.n_active_pairs
        model.force_refresh(moved)
        self._assert_matches_kernels(model, moved)
        assert model.list_rebuilds == 2
        assert model.n_active_pairs != pairs_before

    def test_table_built_once_per_list_build(self, small_complex, setup):
        mask, x = setup
        model = EnergyModel(small_complex, movable=mask)
        assert model.pair_table_builds == 0
        model.evaluate(x)
        model.energy_only(x)
        model.evaluate(x)
        assert model.pair_table_builds == 1
        assert not model.maybe_refresh(x)
        assert model.pair_table_builds == 1
        far = x.copy()
        far[-1] += 50.0
        assert model.maybe_refresh(far)
        model.energy_only(far)
        assert model.pair_table_builds == 2
        model.force_refresh(x)
        model.evaluate(x)
        assert model.pair_table_builds == model.list_rebuilds == 3

    def test_table_follows_the_active_pairs(self, small_complex, setup):
        mask, x = setup
        model = EnergyModel(small_complex, movable=mask)
        table = model.pair_table(x)
        assert len(table.gb.coul_qq) == model.n_active_pairs
        model.force_refresh(x)
        assert model.pair_table(x) is not table


class TestPairGeometry:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_the_indexed_reduction(self, dtype):
        """``take`` and the unrolled length-3 sum give exactly the bits of
        ``coords[i] - coords[j]`` and ``(d*d).sum(axis=1)``."""
        from repro.minimize.accumulate import pair_geometry

        local = np.random.default_rng(5)
        coords = (local.normal(size=(500, 3)) * 8.0).astype(dtype)
        i = local.integers(0, 500, 20_000)
        j = local.integers(0, 500, 20_000)
        geom = pair_geometry(coords, i, j)
        d = coords[i] - coords[j]
        r2 = (d * d).sum(axis=1)
        np.testing.assert_array_equal(geom.d, d)
        np.testing.assert_array_equal(geom.r2, r2)
        np.testing.assert_array_equal(geom.r, np.sqrt(r2))
        assert geom.r2.dtype == dtype
