"""Tests for minimization backend cost-model selection."""

import pytest

from repro.cuda.device import TESLA_C1060
from repro.minimize.selection import (
    DEFAULT_MINIMIZE_BATCH,
    ENSEMBLE_PAIR_BUDGET,
    ensemble_batch_limit,
    predict_minimize_times,
    select_minimize_backend,
)
from repro.perf.cpumodel import CpuModel

FTMAP_PAIRS = 10_000
FTMAP_ATOMS = 2_200


class TestPredictions:
    def test_cpu_backends_always_predicted(self):
        times = predict_minimize_times(12, FTMAP_PAIRS, FTMAP_ATOMS, 60)
        assert set(times) == {"serial", "batched"}
        assert all(v > 0 for v in times.values())

    def test_gpu_needs_device_spec(self):
        times = predict_minimize_times(
            12, FTMAP_PAIRS, FTMAP_ATOMS, 60, device_spec=TESLA_C1060
        )
        assert "gpu-sim" in times
        assert times["gpu-sim"] > 0

    def test_batched_never_beats_serial_for_one_pose(self):
        times = predict_minimize_times(1, FTMAP_PAIRS, FTMAP_ATOMS, 60)
        assert times["batched"] == pytest.approx(times["serial"])

    def test_batched_amortizes_dispatch(self):
        times = predict_minimize_times(12, FTMAP_PAIRS, FTMAP_ATOMS, 60)
        assert times["batched"] < times["serial"]

    def test_phase_scales_with_poses(self):
        t12 = predict_minimize_times(12, FTMAP_PAIRS, FTMAP_ATOMS, 60)["serial"]
        t24 = predict_minimize_times(24, FTMAP_PAIRS, FTMAP_ATOMS, 60)["serial"]
        assert t24 == pytest.approx(2 * t12)


class TestSelection:
    def test_single_pose_selects_serial(self):
        d = select_minimize_backend(1, FTMAP_PAIRS, FTMAP_ATOMS, 60)
        assert d.backend == "serial"
        assert d.batch_size == 1

    def test_ensemble_selects_batched(self):
        d = select_minimize_backend(12, FTMAP_PAIRS, FTMAP_ATOMS, 60)
        assert d.backend == "batched"
        assert 2 <= d.batch_size <= 12

    def test_gpu_included_only_on_request(self):
        plain = select_minimize_backend(12, FTMAP_PAIRS, FTMAP_ATOMS, 60)
        assert "gpu-sim" not in plain.predictions
        with_gpu = select_minimize_backend(
            12, FTMAP_PAIRS, FTMAP_ATOMS, 60, include_gpu=True
        )
        assert "gpu-sim" in with_gpu.predictions

    def test_explicit_batch_size_respected(self):
        d = select_minimize_backend(12, FTMAP_PAIRS, FTMAP_ATOMS, 60, batch_size=3)
        assert d.batch_size in (1, 3)   # 1 only if a non-batched backend won
        with pytest.raises(ValueError):
            select_minimize_backend(12, FTMAP_PAIRS, FTMAP_ATOMS, 60, batch_size=0)

    def test_decision_carries_all_predictions(self):
        d = select_minimize_backend(
            12, FTMAP_PAIRS, FTMAP_ATOMS, 60, include_gpu=True
        )
        assert {"serial", "batched", "gpu-sim"} == set(d.predictions)
        assert d.predicted_s == d.predictions[d.backend]


class TestBatchLimit:
    def test_budget_bounds_batch(self):
        assert ensemble_batch_limit(ENSEMBLE_PAIR_BUDGET) == 1
        assert ensemble_batch_limit(1) == ENSEMBLE_PAIR_BUDGET
        limit = ensemble_batch_limit(FTMAP_PAIRS)
        assert limit == ENSEMBLE_PAIR_BUDGET // FTMAP_PAIRS

    def test_default_batch_respects_budget(self):
        # Paper-scale ensemble (2000 conformations): batch clamps to the
        # smaller of the default cap and the pair budget.
        d = select_minimize_backend(2000, FTMAP_PAIRS, FTMAP_ATOMS, 60)
        assert d.batch_size <= DEFAULT_MINIMIZE_BATCH
        assert d.batch_size * FTMAP_PAIRS <= ENSEMBLE_PAIR_BUDGET


class TestHostModel:
    def test_vectorized_eval_amortizes_only_dispatch(self):
        cpu = CpuModel()
        one = cpu.vectorized_evaluation_s(FTMAP_PAIRS, FTMAP_ATOMS, poses=1)
        twelve = cpu.vectorized_evaluation_s(FTMAP_PAIRS, FTMAP_ATOMS, poses=12)
        # Twelve stacked poses cost less than twelve dispatches...
        assert twelve < 12 * one
        # ... but more than one (array work is not free).
        assert twelve > one
