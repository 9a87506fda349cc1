"""Structural hashing: equal content <-> equal keys, any change -> new key."""

import numpy as np
import pytest

from repro.cache.keys import (
    CACHE_FORMAT_VERSION,
    array_token,
    compose_key,
    grid_spec_token,
    hash_parts,
    mapping_token,
    molecule_token,
    rotation_set_token,
)
from repro.grids.gridding import GridSpec
from repro.structure import build_probe, synthetic_protein


class TestHashParts:
    def test_deterministic(self):
        assert hash_parts("a", b"b", 3) == hash_parts("a", b"b", 3)

    def test_length_delimited(self):
        """("ab", "c") must not collide with ("a", "bc")."""
        assert hash_parts("ab", "c") != hash_parts("a", "bc")

    def test_order_sensitive(self):
        assert hash_parts("a", "b") != hash_parts("b", "a")


class TestArrayToken:
    def test_dtype_distinguished(self):
        a = np.zeros(4, dtype=np.float32)
        b = np.zeros(4, dtype=np.float64)
        assert array_token(a) != array_token(b)

    def test_shape_distinguished(self):
        a = np.zeros((2, 3))
        assert array_token(a) != array_token(a.reshape(3, 2))

    def test_noncontiguous_equals_contiguous(self):
        a = np.arange(12.0).reshape(3, 4)
        assert array_token(a[:, ::2]) == array_token(a[:, ::2].copy())


class TestMoleculeToken:
    def test_equal_molecules_equal_tokens(self):
        a = synthetic_protein(n_residues=10, seed=1)
        b = synthetic_protein(n_residues=10, seed=1)
        assert a is not b
        assert molecule_token(a) == molecule_token(b)

    def test_coordinates_matter(self):
        a = synthetic_protein(n_residues=10, seed=1)
        b = a.with_coords(a.coords + 0.001)
        assert molecule_token(a) != molecule_token(b)

    def test_charges_matter(self):
        a = build_probe("ethanol")
        perturbed = a.with_coords(a.coords)
        perturbed.charges = a.charges + 0.01
        assert molecule_token(a) != molecule_token(perturbed)

    def test_name_and_meta_ignored(self):
        a = synthetic_protein(n_residues=10, seed=1)
        b = synthetic_protein(n_residues=10, seed=1)
        b.name = "renamed"
        b.meta["note"] = "irrelevant"
        assert molecule_token(a) == molecule_token(b)


class TestGridTokens:
    def test_spec_token_exact_floats(self):
        a = GridSpec(n=16, spacing=1.25, origin=(0.0, 0.0, 0.0))
        b = GridSpec(n=16, spacing=1.25, origin=(0.0, 0.0, 0.0))
        assert grid_spec_token(a) == grid_spec_token(b) == a.cache_token()
        c = GridSpec(n=16, spacing=1.25 + 1e-12, origin=(0.0, 0.0, 0.0))
        assert grid_spec_token(a) != grid_spec_token(c)


class TestComposedKeys:
    def test_rotation_token(self):
        assert rotation_set_token(500, "super-fibonacci") == rotation_set_token(
            500, "super-fibonacci"
        )
        assert rotation_set_token(500, "euler") != rotation_set_token(500, "super-fibonacci")

    def test_mapping_token_sorted_and_exact(self):
        assert mapping_token(b=2, a=1.5) == mapping_token(a=1.5, b=2)
        assert mapping_token(a=1.5) != mapping_token(a=1.5000001)

    def test_compose_key_embeds_version(self):
        key = compose_key("ns", ["part"])
        assert key.startswith("ns/")
        # Same parts under a different format version must not collide.
        other = hash_parts(f"v{CACHE_FORMAT_VERSION + 1}", "part")
        assert other not in key

    def test_unknown_mapping_value_types_stringified(self):
        assert "names=a,b" in mapping_token(names=("a", "b"))

    def test_unstable_parts_rejected(self):
        """Objects with id()-dependent reprs cannot become key parts."""
        with pytest.raises(TypeError, match="stable key"):
            hash_parts(object())
