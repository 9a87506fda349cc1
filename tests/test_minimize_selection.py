"""Tests for the minimization backend rule."""

from repro.minimize.selection import (
    DEFAULT_MINIMIZE_BATCH,
    ENSEMBLE_PAIR_BUDGET,
    MINIMIZE_CPU_BACKENDS,
    ensemble_batch_limit,
    select_minimize_backend,
)

FTMAP_PAIRS = 10_000


class TestPredictions:
    def test_batched_never_beats_serial_for_one_pose(self):
        for pairs in (100, FTMAP_PAIRS, 400_000):
            assert select_minimize_backend(1, pairs).backend == "serial"

    def test_batched_amortizes_dispatch(self):
        # Batched exactly when at least two poses fit one evaluation.
        limit_two = ENSEMBLE_PAIR_BUDGET // 2
        assert select_minimize_backend(12, limit_two).backend == "batched"
        assert select_minimize_backend(12, limit_two + 1).backend == "serial"


class TestSelection:
    def test_single_pose_selects_serial(self):
        d = select_minimize_backend(1, FTMAP_PAIRS)
        assert d.backend == "serial"
        assert d.batch_size == 1

    def test_ensemble_selects_batched(self):
        d = select_minimize_backend(12, FTMAP_PAIRS)
        assert d.backend == "batched"
        assert 2 <= d.batch_size <= 12

    def test_gpu_included_only_on_request(self):
        # Without named devices auto stays on one device: it never shards.
        for poses in (1, 2, 12, 2000):
            for pairs in (100, FTMAP_PAIRS, 2_000_000):
                backend = select_minimize_backend(poses, pairs).backend
                assert backend in MINIMIZE_CPU_BACKENDS

    def test_explicit_batch_size_respected(self):
        d = select_minimize_backend(12, FTMAP_PAIRS, batch_size=3)
        assert d.backend == "batched"
        assert d.batch_size == 3


class TestBatchLimit:
    def test_budget_bounds_batch(self):
        assert ensemble_batch_limit(ENSEMBLE_PAIR_BUDGET) == 1
        assert ensemble_batch_limit(1) == ENSEMBLE_PAIR_BUDGET
        limit = ensemble_batch_limit(FTMAP_PAIRS)
        assert limit == ENSEMBLE_PAIR_BUDGET // FTMAP_PAIRS

    def test_default_batch_respects_budget(self):
        # Paper-scale ensemble (2000 conformations): batch clamps to the
        # smaller of the default cap and the pair budget.
        d = select_minimize_backend(2000, FTMAP_PAIRS)
        assert d.batch_size <= DEFAULT_MINIMIZE_BATCH
        assert d.batch_size * FTMAP_PAIRS <= ENSEMBLE_PAIR_BUDGET
