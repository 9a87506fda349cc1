"""Tests for the PIPER energy-function channels."""

import numpy as np
import pytest

from repro.grids.energyfunctions import (
    EnergyGrids,
    desolvation_eigenterms,
    num_channels,
    protein_grids,
)
from repro.grids.gridding import GridSpec


class TestChannelCount:
    def test_num_channels(self):
        assert num_channels(4) == 8
        assert num_channels(18) == 22  # the paper's "up to 22"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            num_channels(3)
        with pytest.raises(ValueError):
            num_channels(19)


class TestEnergyGridsContainer:
    def test_validation(self):
        spec = GridSpec(n=4)
        with pytest.raises(ValueError):
            EnergyGrids(spec, np.zeros((2, 4, 4, 4)), np.ones(3), ["a", "b"])
        with pytest.raises(ValueError):
            EnergyGrids(spec, np.zeros((4, 4, 4)), np.ones(1), ["a"])

    def test_float32_storage(self):
        spec = GridSpec(n=4)
        g = EnergyGrids(spec, np.zeros((1, 4, 4, 4)), np.ones(1), ["x"])
        assert g.channels.dtype == np.float32


class TestProteinGrids(object):
    def test_channel_layout(self, small_protein):
        spec = GridSpec.centered_on(small_protein, 24, 1.25)
        g = protein_grids(small_protein, spec, n_desolvation_terms=4)
        assert g.n_channels == 8
        assert g.labels[:4] == [
            "shape_core",
            "shape_halo",
            "elec_coulomb",
            "elec_screened",
        ]
        assert g.labels[4].startswith("desolvation")

    def test_shape_channels_disjoint(self, receptor_grids_32):
        core = receptor_grids_32.channels[0]
        halo = receptor_grids_32.channels[1]
        assert set(np.unique(core)) <= {0.0, 1.0}
        assert np.all(halo >= 0)
        assert not np.any((core > 0) & (halo > 1e-6))  # burial only on empty voxels

    def test_clash_weight_positive_contact_negative(self, receptor_grids_32):
        assert receptor_grids_32.weights[0] > 0   # clash penalty
        assert receptor_grids_32.weights[1] < 0   # contact reward

    def test_coulomb_channel_nonzero(self, receptor_grids_32):
        assert np.abs(receptor_grids_32.channels[2]).max() > 0

    def test_halo_hugs_the_core(self, receptor_grids_32):
        """Burial density is positive only within the Chebyshev box radius
        of occupied voxels, and higher in concavities than open space."""
        from repro.grids.energyfunctions import HALO_THICKNESS, _burial_density

        core = receptor_grids_32.channels[0] > 0
        halo = receptor_grids_32.channels[1]
        assert (halo > 1e-6).sum() > 0
        expected = _burial_density(core, HALO_THICKNESS) * (~core)
        assert np.allclose(halo, expected, atol=1e-3)

    def test_burial_density_concave_beats_convex(self):
        """A voxel inside a cavity counts more neighbors than one beside a
        flat wall — the property that makes pockets win docking."""
        from repro.grids.energyfunctions import _burial_density

        occ = np.zeros((16, 16, 16), dtype=bool)
        occ[4:12, 4:12, 4:12] = True   # solid block
        occ[7:9, 7:9, 8:12] = False    # cavity open to +z
        density = _burial_density(occ, 2)
        in_cavity = density[7, 7, 9]
        beside_wall = density[7, 7, 13]  # just outside the flat +z face
        assert in_cavity > 2 * beside_wall

    def test_desolvation_on_surface_only(self, receptor_grids_32, small_protein):
        """Desolvation eigen-weights deposit only on the protein's own
        surface-layer voxels (occupied, adjacent to empty)."""
        from repro.grids.gridding import GridSpec, surface_layer_mask, voxelize_molecule

        spec = receptor_grids_32.spec
        occ = voxelize_molecule(small_protein, spec)
        surf = surface_layer_mask(occ)
        for k in range(4, receptor_grids_32.n_channels):
            chan = receptor_grids_32.channels[k]
            assert not np.any((chan != 0) & ~surf)


class TestLigandGrids:
    def test_layout_and_weights(self, ethanol_grids_4):
        assert ethanol_grids_4.n_channels == 8
        assert np.allclose(ethanol_grids_4.weights, 1.0)  # receptor carries physics

    def test_occupancy_binary(self, ethanol_grids_4):
        occ = ethanol_grids_4.channels[0]
        assert set(np.unique(occ)) <= {0.0, 1.0}
        assert occ.sum() > 0

    def test_charge_channel_neutral(self, ethanol_grids_4):
        # Probe charges are neutralized, so the deposited charge sums to ~0.
        assert float(ethanol_grids_4.channels[2].sum()) == pytest.approx(0.0, abs=1e-6)


class TestDesolvationEigenterms:
    def test_shapes(self):
        w, s = desolvation_eigenterms(["CT", "O", "NH1"], n_terms=4)
        assert w.shape == (4, 3)
        assert s.shape == (4,)
        assert set(np.unique(s)) <= {-1.0, 1.0}

    def test_deterministic(self):
        w1, s1 = desolvation_eigenterms(["CT", "O"], 4, seed=11)
        w2, s2 = desolvation_eigenterms(["CT", "O"], 4, seed=11)
        assert np.array_equal(w1, w2)
        assert np.array_equal(s1, s2)

    def test_eigensolve_memoized_read_only(self):
        """The cached eigenpairs are the decomposition itself, shared
        read-only by every call with the same type universe and seed."""
        from repro.grids.energyfunctions import _contact_eigenpairs
        from repro.structure.forcefield import DEFAULT_ATOM_TYPES

        universe = tuple(sorted(DEFAULT_ATOM_TYPES))
        vals, vecs = _contact_eigenpairs(universe, 11)
        assert _contact_eigenpairs(universe, 11)[1] is vecs
        assert not vals.flags.writeable and not vecs.flags.writeable
        raw = np.random.default_rng(11).normal(size=(len(universe),) * 2)
        fresh_vals, fresh_vecs = np.linalg.eigh(0.5 * (raw + raw.T))
        assert np.array_equal(vals, fresh_vals)
        assert np.array_equal(vecs, fresh_vecs)

    def test_seed_sensitivity(self):
        w1, _ = desolvation_eigenterms(["CT", "O"], 4, seed=1)
        w2, _ = desolvation_eigenterms(["CT", "O"], 4, seed=2)
        assert not np.allclose(w1, w2)

    def test_consistent_across_molecules(self):
        """Receptor and ligand must factorize against the same eigenvectors:
        the weight assigned to type CT is identical whichever molecule asks."""
        w_a, _ = desolvation_eigenterms(["CT", "O"], 4)
        w_b, _ = desolvation_eigenterms(["NH1", "CT"], 4)
        assert np.allclose(w_a[:, 0], w_b[:, 1])  # CT column matches

    def test_factorization_reconstructs_potential(self):
        """sum_k sign_k w_k[a] w_k[b] approximates P[t_a, t_b]; with all
        eigenterms kept it is exact."""
        from repro.structure.forcefield import DEFAULT_ATOM_TYPES

        types = sorted(DEFAULT_ATOM_TYPES)
        m = len(types)
        k = min(18, m)
        w, s = desolvation_eigenterms(types, n_terms=k)
        recon = np.einsum("k,ka,kb->ab", s[: m], w[: m], w[: m])
        rng = np.random.default_rng(2010)
        raw = rng.normal(size=(m, m))
        pot = 0.5 * (raw + raw.T)
        assert np.allclose(recon, pot, atol=1e-8)
