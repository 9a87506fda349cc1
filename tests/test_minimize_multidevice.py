"""Tests for multi-device ensemble minimization (the sharded backend).

Covers the shard-boundary edges the engine must survive — fewer poses
than devices, single-pose shards, zero-pose ensembles, cancellation
between shards — and the load-bearing numeric property: fp64 runs on
1/2/4 virtual devices are bitwise-identical to the single-device
:class:`BatchedMinimizer` (and fp32 runs are shard-invariant, which the
minimized-ensemble cache key relies on).
"""

import numpy as np
import pytest

from repro.api import FTMapService, JobCancelled, MapRequest
from repro.cache import CacheManager
from repro.mapping.ftmap import FTMapConfig
from repro.minimize import (
    BatchedMinimizer,
    EnsembleEnergyModel,
    MinimizationEngine,
    MinimizerConfig,
    MultiDeviceMinimizer,
)
from repro.structure import synthetic_complex, synthetic_protein
from repro.structure.builder import pocket_movable_mask

N_POSES = 6


@pytest.fixture(scope="module")
def complex_mol():
    return synthetic_complex(probe_name="ethanol", n_residues=30, seed=5)


@pytest.fixture(scope="module")
def ensemble(complex_mol):
    n_probe = complex_mol.meta["n_probe_atoms"]
    rng = np.random.default_rng(7)
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
    return MinimizerConfig(max_iterations=10)


@pytest.fixture(scope="module")
def batched_fp64(complex_mol, ensemble, config):
    stack, masks = ensemble
    model = EnsembleEnergyModel(
        complex_mol, stack, movable=masks, precision="double"
    )
    return BatchedMinimizer(model, config).run()


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("devices", [1, 2, 4])
    def test_fp64_bitwise_vs_single_device_batched(
        self, complex_mol, ensemble, config, batched_fp64, devices
    ):
        """The acceptance property: sharding never renumbers anything."""
        stack, masks = ensemble
        run = MinimizationEngine(
            complex_mol,
            stack,
            movable=masks,
            config=config,
            backend="multi-gpu-sim",
            devices=devices,
            precision="double",
        ).run_detailed()
        assert len(run.results) == N_POSES
        for ref, got in zip(batched_fp64, run.results):
            assert got.energy == ref.energy
            np.testing.assert_array_equal(got.coords, ref.coords)
            assert got.iterations == ref.iterations

    def test_fp32_shard_invariance(self, complex_mol, ensemble, config):
        """Production precision: per-pose results are identical whatever
        the shard composition (what keeps the cache key shard-invariant)."""
        stack, masks = ensemble

        def run(devices):
            return MinimizationEngine(
                complex_mol, stack, movable=masks, config=config,
                backend="multi-gpu-sim", devices=devices,
            ).run()

        one, four = run(1), run(4)
        for a, b in zip(one, four):
            assert a.energy == b.energy
            np.testing.assert_array_equal(a.coords, b.coords)

    def test_shard_batch_chunking_matches_whole_shard(
        self, complex_mol, ensemble, config
    ):
        """A batch_size smaller than the shard evaluates it in chunks
        (the memory-budget path) without changing any pose's numbers."""
        stack, masks = ensemble

        def run(batch_size):
            return MultiDeviceMinimizer(
                complex_mol, stack, movable=masks, config=config,
                devices=2, batch_size=batch_size,
            ).run()

        whole, chunked = run(None), run(2)
        for a, b in zip(whole.results, chunked.results):
            assert a.energy == b.energy
            np.testing.assert_array_equal(a.coords, b.coords)

    def test_threaded_matches_sequential(self, complex_mol, ensemble, config):
        stack, masks = ensemble

        def run(workers):
            return MultiDeviceMinimizer(
                complex_mol, stack, movable=masks, config=config,
                devices=3, shard_workers=workers,
            ).run()

        seq, par = run(1), run(3)
        for a, b in zip(seq.results, par.results):
            assert a.energy == b.energy
            np.testing.assert_array_equal(a.coords, b.coords)
        assert seq.reduction_order == par.reduction_order

    def test_one_usable_cpu_runs_shards_in_calling_thread(
        self, complex_mol, ensemble, config, monkeypatch
    ):
        """The default lane count follows the CPUs this process may run on
        (affinity: ``taskset``, a streaming worker), not the host's core
        count, and the sequential fallback keeps every bit."""
        import threading

        import repro.minimize.multidevice as multidevice

        stack, masks = ensemble

        def run(shard_workers=None):
            threads = []
            out = MinimizationEngine(
                complex_mol, stack, movable=masks, config=config,
                backend="multi-gpu-sim", devices=2, shard_workers=shard_workers,
            ).run_detailed(on_shard=lambda k, n: threads.append(threading.get_ident()))
            return out, threads

        threaded, _ = run(shard_workers=2)
        monkeypatch.setattr(multidevice, "usable_cpus", lambda: 1)
        pinned, threads = run()
        assert threads == [threading.get_ident()] * 2
        for a, b in zip(threaded.results, pinned.results):
            assert a.energy == b.energy
            np.testing.assert_array_equal(a.coords, b.coords)


class TestShardEdges:
    def test_fewer_poses_than_devices(self, complex_mol, ensemble, config):
        stack, masks = ensemble
        run = MinimizationEngine(
            complex_mol, stack[:2], movable=masks[:2], config=config,
            backend="multi-gpu-sim", devices=4,
        ).run_detailed()
        assert len(run.results) == 2
        assert run.shard_sizes == (1, 1)          # single-pose shards
        assert run.num_devices == 4               # planned width, unchanged
        assert run.reduction_order == (0, 1)

    def test_single_pose_total(self, complex_mol, ensemble, config):
        stack, masks = ensemble
        run = MinimizationEngine(
            complex_mol, stack[0], movable=masks[0], config=config,
            backend="multi-gpu-sim", devices=4,
        ).run_detailed()
        assert len(run.results) == 1
        assert run.shard_sizes == (1,)

    def test_zero_pose_ensemble(self, complex_mol, config):
        run = MinimizationEngine(
            complex_mol,
            np.empty((0, complex_mol.n_atoms, 3)),
            config=config,
            backend="multi-gpu-sim",
            devices=4,
        ).run_detailed()
        assert run.results == []
        assert run.shards == ()
        assert run.num_devices == 4

    def test_zero_pose_multidevice_run(self, complex_mol, config):
        md = MultiDeviceMinimizer(
            complex_mol,
            np.empty((0, complex_mol.n_atoms, 3)),
            config=config,
            devices=4,
        ).run()
        assert md.results == []
        assert md.shards == ()
        assert md.num_devices == 4

    def test_provenance_covers_every_pose(self, complex_mol, ensemble, config):
        stack, masks = ensemble
        run = MinimizationEngine(
            complex_mol, stack, movable=masks, config=config,
            backend="multi-gpu-sim", devices=4,
        ).run_detailed()
        assert sum(run.shard_sizes) == N_POSES
        assert run.reduction_order == tuple(
            s.device_index for s in run.shards
        )
        spans = [(s.start, s.stop) for s in run.shards]
        assert spans == sorted(spans)
        assert all(s.wall_s > 0 for s in run.shards)

    def test_default_width_without_devices(self, complex_mol, ensemble, config):
        stack, masks = ensemble
        run = MinimizationEngine(
            complex_mol, stack, movable=masks, config=config,
            backend="multi-gpu-sim",
        ).run_detailed()
        assert run.num_devices == 2               # DEFAULT_MINIMIZE_DEVICES

    def test_bad_device_count_rejected(self, complex_mol, ensemble):
        stack, _ = ensemble
        with pytest.raises(ValueError, match="devices"):
            MinimizationEngine(complex_mol, stack, backend="multi-gpu-sim", devices=0)
        with pytest.raises(ValueError, match="devices"):
            MultiDeviceMinimizer(complex_mol, stack, devices=0)


class TestCancellation:
    def test_cancel_between_shards(self, complex_mol, ensemble, config):
        """A cancel raised at the shard boundary stops the run cooperatively:
        the first shard completes, the second never starts."""
        stack, masks = ensemble
        calls = {"n": 0}

        def cancel_check():
            calls["n"] += 1
            if calls["n"] > 1:                    # allow shard 0, stop shard 1
                raise JobCancelled("stop")

        engine = MinimizationEngine(
            complex_mol, stack, movable=masks, config=config,
            backend="multi-gpu-sim", devices=3, shard_workers=1,
        )
        with pytest.raises(JobCancelled):
            engine.run_detailed(cancel_check=cancel_check)
        assert calls["n"] == 2                    # checked per shard boundary

    def test_on_shard_progress(self, complex_mol, ensemble, config):
        stack, masks = ensemble
        seen = []
        MinimizationEngine(
            complex_mol, stack, movable=masks, config=config,
            backend="multi-gpu-sim", devices=3, shard_workers=1,
        ).run_detailed(on_shard=lambda k, n: seen.append((k, n)))
        assert seen == [(0, 3), (1, 3), (2, 3)]


class TestShardProcesses:
    def test_odd_shards_are_process_pool_tasks(self, complex_mol, ensemble, config):
        """Two lanes: shards 0 and 2 run in the calling thread, shards 1
        and 3 are tasks of a worker process."""
        from repro.workers import worker_stats

        stack, masks = ensemble
        before = worker_stats()
        MultiDeviceMinimizer(
            complex_mol, stack, movable=masks, config=config,
            devices=4, shard_workers=2,
        ).run()
        after = worker_stats()
        assert after["stage_tasks_total"] - before["stage_tasks_total"] == 2
        assert after["pools"] == before["pools"]      # the run closed its pool

    def test_cancel_stops_the_pool(self, complex_mol, ensemble, config):
        """Shard 1 is dispatched to a worker; a cancel raised as shard 0
        starts in the calling thread terminates the worker: the run raises
        and leaves no pool behind."""
        from repro.workers import worker_stats

        stack, masks = ensemble
        pools_before = worker_stats()["pools"]
        calls = {"n": 0}

        def cancel_check():
            calls["n"] += 1
            if calls["n"] > 1:
                raise JobCancelled("stop")

        with pytest.raises(JobCancelled):
            MultiDeviceMinimizer(
                complex_mol, stack, movable=masks, config=config,
                devices=3, shard_workers=2,
            ).run(cancel_check=cancel_check)
        assert calls["n"] == 2
        assert worker_stats()["pools"] == pools_before

    def test_daemonic_caller_runs_shards_sequentially(
        self, complex_mol, ensemble, config, monkeypatch
    ):
        """A daemonic process (a process-streaming worker) may not start
        processes, so its shards run in the calling thread, same bits."""
        import repro.minimize.multidevice as multidevice

        stack, masks = ensemble
        pooled = MultiDeviceMinimizer(
            complex_mol, stack, movable=masks, config=config,
            devices=2, shard_workers=2,
        ).run()

        class _Daemon:
            daemon = True

        def no_pool(*args, **kwargs):
            raise AssertionError("a daemonic caller started a process pool")

        monkeypatch.setattr(multidevice.mp, "current_process", lambda: _Daemon())
        monkeypatch.setattr(multidevice, "ProcessWorkerPool", no_pool)
        inline = MultiDeviceMinimizer(
            complex_mol, stack, movable=masks, config=config,
            devices=2, shard_workers=2,
        ).run()
        for a, b in zip(pooled.results, inline.results):
            assert a.energy == b.energy
            np.testing.assert_array_equal(a.coords, b.coords)

    def test_multithreaded_caller_forks_no_workers(
        self, complex_mol, ensemble, config, monkeypatch
    ):
        """A run started while another thread is alive (a service job
        thread) runs every shard in its own thread, same bits."""
        import threading

        import repro.minimize.multidevice as multidevice

        stack, masks = ensemble
        pooled = MultiDeviceMinimizer(
            complex_mol, stack, movable=masks, config=config,
            devices=2, shard_workers=2,
        ).run()

        def no_pool(*args, **kwargs):
            raise AssertionError("a multi-threaded caller started a process pool")

        monkeypatch.setattr(multidevice, "ProcessWorkerPool", no_pool)
        out = {}

        def job():
            out["run"] = MultiDeviceMinimizer(
                complex_mol, stack, movable=masks, config=config,
                devices=2, shard_workers=2,
            ).run()

        worker = threading.Thread(target=job)
        worker.start()
        worker.join()
        for a, b in zip(pooled.results, out["run"].results):
            assert a.energy == b.energy
            np.testing.assert_array_equal(a.coords, b.coords)


def _tiny_config(**overrides):
    base = dict(
        probe_names=("ethanol",),
        num_rotations=4,
        receptor_grid=24,
        probe_grid=4,
        grid_spacing=1.8,
        minimize_top=4,
        minimizer_iterations=6,
        engine="direct",
        cache_policy="off",
    )
    base.update(overrides)
    return FTMapConfig(**base)


class TestServiceDispatch:
    @pytest.fixture(scope="class")
    def protein(self):
        return synthetic_protein(n_residues=24, seed=11)

    def test_shard_events_and_provenance(self, protein):
        """The service's job model dispatches shards: per-shard progress
        events surface, and the result records where the work ran."""
        cfg = _tiny_config(
            minimize_engine="multi-gpu-sim", minimize_devices=2
        )
        with FTMapService(cache=CacheManager(policy="off")) as service:
            handle = service.submit(MapRequest(receptor=protein, config=cfg))
            result = handle.result(timeout=300)
        shard_events = [
            e for e in handle.events() if e.stage == "minimize-shard"
        ]
        # Shards run on pool threads, so event *order* is scheduling
        # timing; the invariant is that every shard announced itself.
        assert sorted(e.index for e in shard_events) == [0, 1]
        assert all(e.total == 2 for e in shard_events)
        assert all(e.probe == "ethanol" for e in shard_events)

        prov = result.minimize_provenance["ethanol"]
        assert prov["backend"] == "multi-gpu-sim"
        assert prov["devices"] == 2
        assert prov["shard_sizes"] == [2, 2]
        assert prov["reduction_order"] == [0, 1]
        assert prov["cached"] is False

    def test_sharded_map_matches_single_device(self, protein):
        """End to end through the service: multi-device requests return
        the same mapping as the batched single-device backend (fp32
        shard-invariance at the application level)."""
        with FTMapService(cache=CacheManager(policy="off")) as service:
            single = service.map(
                protein, _tiny_config(minimize_engine="batched")
            )
            sharded = service.map(
                protein,
                _tiny_config(
                    minimize_engine="multi-gpu-sim", minimize_devices=4
                ),
            )
        a = single.probe_results["ethanol"]
        b = sharded.probe_results["ethanol"]
        np.testing.assert_array_equal(
            a.minimized_energies, b.minimized_energies
        )
        np.testing.assert_array_equal(a.minimized_centers, b.minimized_centers)

    def test_cache_keys_on_resolved_numerics_family(self, protein):
        """The minimized-ensemble cache is shared within a numerics
        family (batched <-> multi-gpu-sim, both fp32 lock-step) and never
        across families (serial's fp64 reference must recompute)."""
        manager = CacheManager(policy="memory")
        with FTMapService(cache=manager) as service:
            batched = service.map(
                protein,
                _tiny_config(minimize_engine="batched", cache_policy="memory"),
            )
            sharded = service.map(
                protein,
                _tiny_config(
                    minimize_engine="multi-gpu-sim",
                    minimize_devices=2,
                    cache_policy="memory",
                ),
            )
            serial = service.map(
                protein,
                _tiny_config(minimize_engine="serial", cache_policy="memory"),
            )
        assert batched.minimize_provenance["ethanol"]["cached"] is False
        assert sharded.minimize_provenance["ethanol"]["cached"] is True
        assert serial.minimize_provenance["ethanol"]["cached"] is False

    def test_warm_repeat_skips_minimization(self, protein):
        """Minimized-ensemble caching is shard-invariant: a warm request
        at a *different* device count is served without running a shard."""
        manager = CacheManager(policy="memory")
        with FTMapService(cache=manager) as service:
            cold = service.map(
                protein,
                _tiny_config(
                    minimize_engine="multi-gpu-sim",
                    minimize_devices=2,
                    cache_policy="memory",
                ),
            )
            warm = service.map(
                protein,
                _tiny_config(
                    minimize_engine="multi-gpu-sim",
                    minimize_devices=4,
                    cache_policy="memory",
                ),
            )
        assert cold.minimize_provenance["ethanol"]["cached"] is False
        prov = warm.minimize_provenance["ethanol"]
        assert prov["cached"] is True
        assert prov["shard_sizes"] == []           # nothing ran
        a = cold.probe_results["ethanol"]
        b = warm.probe_results["ethanol"]
        np.testing.assert_array_equal(
            a.minimized_energies, b.minimized_energies
        )
