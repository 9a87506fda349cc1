"""Tests for the MinimizationEngine facade."""

import numpy as np
import pytest

from repro.minimize import (
    MINIMIZE_BACKEND_NAMES,
    MinimizationEngine,
    MinimizerConfig,
)
from repro.structure import synthetic_complex
from repro.structure.builder import pocket_movable_mask

N_POSES = 3


@pytest.fixture(scope="module")
def complex_mol():
    return synthetic_complex(probe_name="ethanol", n_residues=30, seed=5)


@pytest.fixture(scope="module")
def ensemble(complex_mol):
    n_probe = complex_mol.meta["n_probe_atoms"]
    rng = np.random.default_rng(2)
    stack = np.stack([complex_mol.coords.copy() for _ in range(N_POSES)])
    for k in range(N_POSES):
        stack[k, -n_probe:] += rng.normal(scale=0.3, size=(n_probe, 3))
    masks = np.stack(
        [
            pocket_movable_mask(complex_mol.with_coords(stack[k]), n_probe)
            for k in range(N_POSES)
        ]
    )
    return stack, masks


@pytest.fixture(scope="module")
def config():
    return MinimizerConfig(max_iterations=12)


@pytest.fixture(scope="module")
def serial_run(complex_mol, ensemble, config):
    stack, masks = ensemble
    return MinimizationEngine(
        complex_mol, stack, movable=masks, config=config, backend="serial"
    ).run_detailed()


class TestValidation:
    def test_unknown_backend(self, complex_mol, ensemble):
        stack, masks = ensemble
        with pytest.raises(ValueError):
            MinimizationEngine(complex_mol, stack, backend="cuda")

    def test_unknown_precision(self, complex_mol, ensemble):
        stack, _ = ensemble
        with pytest.raises(ValueError):
            MinimizationEngine(complex_mol, stack, precision="quad")

    def test_bad_batch_size_rejected(self, complex_mol, ensemble):
        stack, _ = ensemble
        for backend in ("auto", "batched", "serial"):
            with pytest.raises(ValueError, match="batch_size"):
                MinimizationEngine(complex_mol, stack, backend=backend, batch_size=0)

    def test_single_pose_promotion(self, complex_mol, ensemble, config):
        stack, masks = ensemble
        eng = MinimizationEngine(
            complex_mol, stack[0], movable=masks[0], config=config
        )
        assert eng.n_poses == 1
        assert len(eng.run()) == 1


class TestBackends:
    def test_all_backends_execute(self, complex_mol, ensemble, config, serial_run):
        stack, masks = ensemble
        for backend in MINIMIZE_BACKEND_NAMES:
            if backend == "serial":
                continue
            run = MinimizationEngine(
                complex_mol,
                stack,
                movable=masks,
                config=config,
                backend=backend,
            ).run_detailed()
            assert len(run.results) == N_POSES
            for ref, got in zip(serial_run.results, run.results):
                assert got.energy == pytest.approx(ref.energy, rel=5e-3)

    def test_batched_double_matches_serial_exactly(
        self, complex_mol, ensemble, config, serial_run
    ):
        stack, masks = ensemble
        run = MinimizationEngine(
            complex_mol,
            stack,
            movable=masks,
            config=config,
            backend="batched",
            precision="double",
        ).run_detailed()
        for ref, got in zip(serial_run.results, run.results):
            assert got.energy == pytest.approx(ref.energy, rel=1e-12)
            np.testing.assert_allclose(got.coords, ref.coords, atol=1e-10)

    def test_batched_chunking_matches_unchunked(
        self, complex_mol, ensemble, config
    ):
        stack, masks = ensemble
        full = MinimizationEngine(
            complex_mol, stack, movable=masks, config=config,
            backend="batched", precision="double",
        ).run()
        chunked = MinimizationEngine(
            complex_mol, stack, movable=masks, config=config,
            backend="batched", batch_size=2, precision="double",
        ).run()
        for a, b in zip(full, chunked):
            assert a.energy == b.energy
            np.testing.assert_array_equal(a.coords, b.coords)


class TestAutoSelection:
    def test_auto_resolves_to_cpu_backend(self, complex_mol, ensemble, config):
        stack, masks = ensemble
        eng = MinimizationEngine(
            complex_mol, stack, movable=masks, config=config, backend="auto"
        )
        assert eng.backend in ("serial", "batched")

    def test_auto_picks_batched_for_ensembles(self, complex_mol, ensemble, config):
        """At FTMap pair counts the dispatch amortization wins for P >= 2."""
        stack, masks = ensemble
        eng = MinimizationEngine(
            complex_mol, stack, movable=masks, config=config, backend="auto"
        )
        assert eng.backend == "batched"
        assert eng.batch_size >= 2

    def test_single_pose_stays_serial(self, complex_mol, ensemble, config):
        stack, masks = ensemble
        eng = MinimizationEngine(
            complex_mol, stack[:1], movable=masks[:1], config=config, backend="auto"
        )
        assert eng.backend == "serial"

    def test_empty_ensemble(self, complex_mol, config):
        eng = MinimizationEngine(
            complex_mol, np.empty((0, complex_mol.n_atoms, 3)), config=config
        )
        run = eng.run_detailed()
        assert run.results == []
