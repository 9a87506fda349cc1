"""Tests for the batched multi-rotation FFT correlation path.

The invariant: batched-FFT scores equal single-rotation FFT and direct
correlation pose-for-pose — on cubic and non-cubic grids, and for batch
sizes that do not divide the rotation count.
"""

import pickle

import numpy as np
import pytest

from repro.docking.batched import (
    DEFAULT_FFT_BATCH,
    BatchedFFTCorrelationEngine,
    fft_batch_limit,
    stack_rotation_grids,
)
from repro.docking.direct import DirectCorrelationEngine
from repro.docking.fft import FFTCorrelationEngine
from repro.docking.piper import PiperConfig, PiperDocker
from repro.grids.energyfunctions import EnergyGrids
from repro.grids.gridding import GridSpec


@pytest.fixture()
def rng():
    # Module-local stream: keeps the shared session fixture's draw order
    # unchanged for the rest of the suite.
    return np.random.default_rng(20100607)


def random_grid_batch(rng, rec_shape, lig_shape, channels=4, batch=5):
    rec = EnergyGrids(
        spec=GridSpec(n=max(rec_shape)),
        channels=rng.normal(size=(channels, *rec_shape)),
        weights=rng.normal(size=channels),
        labels=[f"c{k}" for k in range(channels)],
    )
    ligs = [
        EnergyGrids(
            spec=GridSpec(n=max(lig_shape)),
            channels=rng.normal(size=(channels, *lig_shape)),
            weights=np.ones(channels),
            labels=[f"c{k}" for k in range(channels)],
        )
        for _ in range(batch)
    ]
    return rec, ligs


class TestBatchedEquivalence:
    @pytest.mark.parametrize("precision,tol", [("double", 1e-10), ("single", 1e-4)])
    def test_matches_serial_fft_and_direct_cubic(self, rng, precision, tol):
        rec, ligs = random_grid_batch(rng, (12, 12, 12), (4, 4, 4))
        batched = BatchedFFTCorrelationEngine(precision=precision)
        serial_fft = FFTCorrelationEngine()
        direct = DirectCorrelationEngine()
        stack = batched.correlate_batch(rec, ligs)
        scale = max(np.abs(stack).max(), 1.0)
        for i, lg in enumerate(ligs):
            assert np.abs(stack[i] - serial_fft.correlate(rec, lg)).max() / scale < tol
            assert np.abs(stack[i] - direct.correlate(rec, lg)).max() / scale < tol

    @pytest.mark.parametrize(
        "rec_shape,lig_shape",
        [((10, 14, 8), (3, 2, 4)), ((9, 6, 11), (2, 5, 3)), ((8, 8, 5), (4, 1, 5))],
    )
    def test_matches_on_non_cubic_grids(self, rng, rec_shape, lig_shape):
        rec, ligs = random_grid_batch(rng, rec_shape, lig_shape)
        batched = BatchedFFTCorrelationEngine(precision="double")
        serial_fft = FFTCorrelationEngine()
        direct = DirectCorrelationEngine()
        stack = batched.correlate_batch(rec, ligs)
        expected_t = tuple(n - m + 1 for n, m in zip(rec_shape, lig_shape))
        assert stack.shape == (len(ligs), *expected_t)
        scale = max(np.abs(stack).max(), 1.0)
        for i, lg in enumerate(ligs):
            assert np.abs(stack[i] - serial_fft.correlate(rec, lg)).max() / scale < 1e-10
            assert np.abs(stack[i] - direct.correlate(rec, lg)).max() / scale < 1e-10

    def test_single_rotation_interface(self, rng):
        rec, ligs = random_grid_batch(rng, (10, 10, 10), (3, 3, 3), batch=1)
        batched = BatchedFFTCorrelationEngine(precision="double")
        one = batched.correlate(rec, ligs[0])
        ref = FFTCorrelationEngine().correlate(rec, ligs[0])
        assert np.allclose(one, ref, atol=1e-9)

    def test_base_class_batch_loop_agrees(self, rng):
        """Every engine's correlate_batch (vectorized or loop) must agree."""
        rec, ligs = random_grid_batch(rng, (10, 10, 10), (3, 3, 3))
        batched = BatchedFFTCorrelationEngine(precision="double")
        for eng in (FFTCorrelationEngine(), DirectCorrelationEngine()):
            loop = eng.correlate_batch(rec, ligs)
            vec = batched.correlate_batch(rec, ligs)
            assert loop.shape == vec.shape
            assert np.allclose(loop, vec, atol=1e-9)

    def test_real_molecule_grids(self, receptor_grids_32, ethanol_grids_4):
        batched = BatchedFFTCorrelationEngine(precision="double")
        out = batched.correlate(receptor_grids_32, ethanol_grids_4)
        ref = FFTCorrelationEngine().correlate(receptor_grids_32, ethanol_grids_4)
        scale = max(np.abs(ref).max(), 1.0)
        assert np.abs(out - ref).max() / scale < 1e-6


class TestBatchedValidation:
    def test_empty_batch_rejected(self, rng):
        rec, _ = random_grid_batch(rng, (8, 8, 8), (2, 2, 2))
        with pytest.raises(ValueError, match="empty"):
            BatchedFFTCorrelationEngine().correlate_batch(rec, [])

    def test_mixed_geometry_rejected(self, rng):
        rec, ligs2 = random_grid_batch(rng, (8, 8, 8), (2, 2, 2), batch=1)
        _, ligs3 = random_grid_batch(rng, (8, 8, 8), (3, 3, 3), batch=1)
        with pytest.raises(ValueError, match="geometry"):
            BatchedFFTCorrelationEngine().correlate_batch(rec, ligs2 + ligs3)

    def test_channel_mismatch_rejected(self, rng):
        rec, _ = random_grid_batch(rng, (8, 8, 8), (2, 2, 2), channels=3)
        _, ligs = random_grid_batch(rng, (8, 8, 8), (2, 2, 2), channels=2)
        with pytest.raises(ValueError, match="channel mismatch"):
            BatchedFFTCorrelationEngine().correlate_batch(rec, ligs)

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            BatchedFFTCorrelationEngine(precision="half")

    def test_stack_helper_shapes(self, rng):
        _, ligs = random_grid_batch(rng, (8, 8, 8), (2, 3, 4), batch=3)
        stack = stack_rotation_grids(ligs)
        assert stack.shape == (3, 4, 2, 3, 4)
        assert stack.dtype == np.float64

    def test_batch_limit_positive_and_monotonic(self):
        small = fft_batch_limit((32, 32, 32), 8)
        large = fft_batch_limit((128, 128, 128), 22)
        assert small >= 1 and large >= 1
        assert small >= large
        # Even an absurdly small budget admits one rotation.
        assert fft_batch_limit((128, 128, 128), 22, budget_bytes=1) == 1

    def test_default_batch_per_engine(self, receptor_grids_32):
        """Per-rotation engines batch 1; batched FFT batches up to its cap."""
        assert DirectCorrelationEngine().default_batch(receptor_grids_32) == 1
        assert FFTCorrelationEngine().default_batch(receptor_grids_32) == 1
        batched = BatchedFFTCorrelationEngine()
        assert batched.default_batch(receptor_grids_32) == min(
            DEFAULT_FFT_BATCH, batched.max_batch(receptor_grids_32)
        )
        tight = BatchedFFTCorrelationEngine(memory_budget_bytes=1)
        assert tight.default_batch(receptor_grids_32) == 1

    def test_receptor_cache(self, rng):
        from repro.cache import CacheManager

        rec, ligs = random_grid_batch(rng, (8, 8, 8), (2, 2, 2))
        manager = CacheManager(policy="memory")
        eng = BatchedFFTCorrelationEngine(spectra_cache=manager)
        eng.correlate_batch(rec, ligs)
        assert (manager.stats.misses, manager.stats.hits) == (1, 0)
        eng.correlate_batch(rec, ligs)
        assert (manager.stats.misses, manager.stats.hits) == (1, 1)
        eng.clear_cache()
        eng.correlate_batch(rec, ligs)
        assert manager.stats.misses == 2   # cold again after clear

    def test_structurally_equal_receptors_hit_across_instances(self, rng):
        """Content-addressed keys: a *different* receptor object with equal
        grids hits, including from a different engine instance — the case
        the old id()-keyed weakref cache could never serve."""
        from repro.cache import CacheManager

        rec_a, ligs = random_grid_batch(rng, (8, 8, 8), (2, 2, 2))
        rec_b = EnergyGrids(
            spec=rec_a.spec,
            channels=rec_a.channels.copy(),
            weights=rec_a.weights.copy(),
            labels=list(rec_a.labels),
        )
        manager = CacheManager(policy="memory")
        eng_a = BatchedFFTCorrelationEngine(spectra_cache=manager)
        eng_b = BatchedFFTCorrelationEngine(spectra_cache=manager)
        out_a = eng_a.correlate_batch(rec_a, ligs)
        out_b = eng_b.correlate_batch(rec_b, ligs)
        assert manager.stats.hits == 1 and manager.stats.misses == 1
        assert np.array_equal(out_a, out_b)

    def test_cache_never_serves_stale_spectra(self, rng):
        """Distinct receptors (including freed ones whose id() could be
        recycled) must each correlate against their own spectra, and the
        cache must stay bounded by its byte budget."""
        from repro.cache import CacheManager

        _, ligs = random_grid_batch(rng, (8, 8, 8), (2, 2, 2), batch=2)
        # Budget sized for only a few 8^3 double-precision spectra sets.
        manager = CacheManager(policy="memory", memory_bytes=64 * 1024)
        eng = BatchedFFTCorrelationEngine(precision="double", spectra_cache=manager)
        fresh = DirectCorrelationEngine()
        for _ in range(50):
            rec, _ = random_grid_batch(rng, (8, 8, 8), (2, 2, 2), batch=1)
            got = eng.correlate_batch(rec, ligs)
            ref = fresh.correlate_batch(rec, ligs)
            assert np.allclose(got, ref, atol=1e-9)
        assert manager.memory.total_bytes <= manager.memory.budget_bytes
        assert manager.stats.evictions > 0


class TestBatchedPiperRuns:
    def test_non_dividing_batch_size_matches_serial(self, small_protein, ethanol):
        """7 rotations with batch_size=3 (last batch short) == per-rotation."""
        cfg = PiperConfig(
            num_rotations=7, receptor_grid=32, probe_grid=4, grid_spacing=1.25
        )
        serial = PiperDocker(small_protein, ethanol, cfg, engine=FFTCorrelationEngine())
        batched_cfg = PiperConfig(
            num_rotations=7,
            receptor_grid=32,
            probe_grid=4,
            grid_spacing=1.25,
            batch_size=3,
        )
        batched = PiperDocker(
            small_protein, ethanol, batched_cfg, engine=BatchedFFTCorrelationEngine()
        )
        p_serial = serial.run(batch_size=1)
        p_batched = batched.run()
        assert len(p_serial) == len(p_batched)
        for a, b in zip(p_serial, p_batched):
            assert a.translation == b.translation
            assert a.rotation_index == b.rotation_index
            assert a.score == pytest.approx(b.score, rel=1e-5)

    def test_identical_top_poses_vs_serial_fft(self, small_protein, ethanol):
        """The acceptance invariant: identical top poses, both precisions."""
        base = dict(
            num_rotations=5, receptor_grid=32, probe_grid=4, grid_spacing=1.25
        )
        serial = PiperDocker(
            small_protein, ethanol, PiperConfig(**base), engine=FFTCorrelationEngine()
        )
        p_serial = serial.run()
        for precision in ("single", "double"):
            batched = PiperDocker(
                small_protein,
                ethanol,
                PiperConfig(**base),
                engine=BatchedFFTCorrelationEngine(precision=precision),
            )
            p_batched = batched.run(batch_size=4)
            assert [(p.rotation_index, p.translation) for p in p_batched] == [
                (p.rotation_index, p.translation) for p in p_serial
            ]

    def test_engine_pickles_with_warm_cache(self, small_protein, ethanol):
        """Engines stay picklable after their spectra cache warms up
        (the cache ships as configuration, not as entries)."""
        cfg = PiperConfig(
            num_rotations=4, receptor_grid=32, probe_grid=4, grid_spacing=1.25
        )
        docker = PiperDocker(
            small_protein, ethanol, cfg, engine=BatchedFFTCorrelationEngine()
        )
        ref = docker.run(batch_size=2)
        docker.engine = pickle.loads(pickle.dumps(docker.engine))
        got = docker.run(batch_size=2)
        assert [(p.rotation_index, p.translation) for p in got] == [
            (p.rotation_index, p.translation) for p in ref
        ]
