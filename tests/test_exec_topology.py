"""Tests for work sharding (repro.exec), the multi-GPU node model that
predicts with the same plan (repro.cuda.multigpu), and device-count
minimization selection."""

import pytest

from repro.cuda.device import TESLA_C1060
from repro.cuda.multigpu import DeviceTopology
from repro.exec import ShardPlan
from repro.minimize.multidevice import MultiDeviceMinimizer
from repro.minimize.selection import DEFAULT_MINIMIZE_BATCH, select_minimize_backend
from repro.perf.speedup import multi_device_phase_s, shard_makespan_s

FTMAP_PAIRS = 10_000
FTMAP_ATOMS = 2_200


class TestShardPlan:
    def test_balanced_contiguous(self):
        plan = ShardPlan.contiguous(10, 4)
        assert plan.shard_sizes == (3, 3, 2, 2)
        assert [(s.start, s.stop) for s in plan.shards] == [
            (0, 3), (3, 6), (6, 8), (8, 10),
        ]
        assert plan.largest == 3
        assert plan.num_shards == 4

    def test_largest_is_ceil_division(self):
        for n in (1, 5, 16, 17, 2000):
            for d in (1, 2, 3, 4, 8):
                assert ShardPlan.contiguous(n, d).largest == -(-n // d)

    def test_fewer_items_than_devices(self):
        plan = ShardPlan.contiguous(2, 4)
        assert plan.num_shards == 2
        assert plan.shard_sizes == (1, 1)
        assert plan.reduction_order == (0, 1)

    def test_zero_items(self):
        plan = ShardPlan.contiguous(0, 4)
        assert plan.shards == ()
        assert plan.largest == 0

    def test_reduction_order_is_plan_order(self):
        plan = ShardPlan.contiguous(7, 3)
        assert plan.reduction_order == (0, 1, 2)
        starts = [s.start for s in plan.shards]
        assert starts == sorted(starts)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPlan.contiguous(-1, 2)
        with pytest.raises(ValueError):
            ShardPlan.contiguous(5, 0)


class TestShardMakespanModel:
    """The makespan model over a plan (paper-model arithmetic, repro.perf)."""

    def test_zero_items(self):
        assert shard_makespan_s(ShardPlan.contiguous(0, 4), 1.0, 0.0) == 0.0

    def test_makespan(self):
        plan = ShardPlan.contiguous(10, 4)
        assert shard_makespan_s(plan, 2.0, 0.0) == pytest.approx(6.0)
        assert shard_makespan_s(plan, 2.0, 0.5) == pytest.approx(6.5)


class TestDeviceTopology:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceTopology(num_devices=0)

    def test_devices_enumerate(self):
        topo = DeviceTopology(num_devices=3)
        assert [d.index for d in topo.devices] == [0, 1, 2]
        assert all(d.spec is TESLA_C1060 for d in topo.devices)

    def test_broadcast_serializes_through_host(self):
        one = DeviceTopology(num_devices=1).broadcast_s(1 << 20)
        four = DeviceTopology(num_devices=4).broadcast_s(1 << 20)
        assert four == pytest.approx(4 * one)

    def test_plan_delegates(self):
        assert DeviceTopology(num_devices=4).plan(10).shard_sizes == (3, 3, 2, 2)

    def test_defaults(self):
        topo = DeviceTopology()
        assert topo.num_devices == 1
        assert topo.device_spec is TESLA_C1060


class TestSharedConstantsNoDrift:
    """The multi-GPU model and the sharded minimizer plan alike."""

    def test_multigpu_config_exposes_topology(self, small_protein):
        stack = small_protein.coords[None].repeat(10, axis=0)
        executed = MultiDeviceMinimizer(small_protein, stack, devices=4).plan()
        assert DeviceTopology(num_devices=4).plan(10) == executed
        assert executed == ShardPlan.contiguous(10, 4)


class TestTopologyAwareMinimizeSelection:
    def test_multi_gpu_prediction_appears_with_topology(self):
        # The sharded-phase model is paper-table output: it needs a node.
        topo = DeviceTopology(num_devices=4)
        assert multi_device_phase_s(2000, FTMAP_PAIRS, FTMAP_ATOMS, 60, topo) > 0
        assert multi_device_phase_s(0, FTMAP_PAIRS, FTMAP_ATOMS, 60, topo) == 0.0

    def test_prediction_scales_down_with_devices(self):
        def phase(g):
            return multi_device_phase_s(
                2000, FTMAP_PAIRS, FTMAP_ATOMS, 60, DeviceTopology(num_devices=g)
            )

        t1, t2, t4 = phase(1), phase(2), phase(4)
        assert t1 > t2 > t4
        assert t1 / t4 > 1.5               # the CI gate's floor, in the model

    def test_auto_ignores_multi_gpu_without_topology(self):
        d = select_minimize_backend(2000, FTMAP_PAIRS)
        assert d.backend == "batched"

    def test_auto_ignores_single_device_topology(self):
        d = select_minimize_backend(
            2000, FTMAP_PAIRS, devices=1
        )
        assert d.backend == "batched"

    def test_auto_picks_sharded_devices_when_topology_given(self):
        d = select_minimize_backend(
            2000, FTMAP_PAIRS, devices=4
        )
        assert d.backend == "multi-gpu-sim"
        assert d.batch_size == DEFAULT_MINIMIZE_BATCH

    def test_single_pose_never_shards(self):
        d = select_minimize_backend(
            1, FTMAP_PAIRS, devices=4
        )
        assert d.backend not in ("batched", "multi-gpu-sim")
