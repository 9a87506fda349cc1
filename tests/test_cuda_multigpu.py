"""Tests for the multi-GPU extension model (paper future work)."""

import pytest

from repro.cuda.multigpu import (
    DeviceTopology,
    multi_gpu_mapping_times,
    scaling_curve,
)


class TestMultiGpuConfig:
    """A multi-GPU node is a :class:`DeviceTopology`."""

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceTopology(num_devices=0)


class TestMultiGpuTimes:
    def test_single_gpu_matches_pipeline(self):
        """One GPU = the single-device pipeline plus one broadcast."""
        from repro.cuda.device import Device
        from repro.gpu.pipeline import GpuFTMapPipeline, ITERATIONS_PER_CONFORMATION

        t = multi_gpu_mapping_times(DeviceTopology(1))
        pipe = GpuFTMapPipeline(Device())
        dock = pipe.docking_times().total_per_rotation_s * 500
        mini = (
            pipe.minimization_times().total_per_iteration_s
            * ITERATIONS_PER_CONFORMATION
            * 2000
        )
        assert t.docking_s == pytest.approx(dock, rel=1e-6)
        assert t.minimization_s == pytest.approx(mini, rel=1e-6)
        assert t.broadcast_s > 0

    def test_two_gpus_nearly_halve(self):
        t1 = multi_gpu_mapping_times(DeviceTopology(1)).total_s
        t2 = multi_gpu_mapping_times(DeviceTopology(2)).total_s
        assert 1.8 <= t1 / t2 <= 2.05

    def test_phase_split_scales(self):
        t4 = multi_gpu_mapping_times(DeviceTopology(4))
        t1 = multi_gpu_mapping_times(DeviceTopology(1))
        assert t4.minimization_s == pytest.approx(t1.minimization_s / 4, rel=0.01)

    def test_broadcast_grows_with_gpus(self):
        b2 = multi_gpu_mapping_times(DeviceTopology(2)).broadcast_s
        b8 = multi_gpu_mapping_times(DeviceTopology(8)).broadcast_s
        assert b8 == pytest.approx(4 * b2, rel=1e-6)


class TestScalingCurve:
    @pytest.fixture(scope="class")
    def curve(self):
        return scaling_curve(max_gpus=8)

    def test_monotone_nondecreasing(self, curve):
        vals = [curve[g] for g in sorted(curve)]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_near_linear_at_small_counts(self, curve):
        assert curve[1] == pytest.approx(1.0)
        assert curve[2] > 1.8
        assert curve[4] > 3.4

    def test_sublinear_overall(self, curve):
        """Load imbalance + serialized broadcast keep it below ideal."""
        assert curve[8] < 8.0
        assert curve[8] > 6.0
