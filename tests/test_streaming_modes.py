"""Every streaming mode is observationally equivalent to ``sequential``.

Each test pins the mode it checks; none inherits it from ``auto`` and the
host's CPU count.  ``process`` maps whole probes on worker processes, so
its results, cache stats, progress events and span names must come back
from the workers exactly as the in-thread loop records them.
"""

import multiprocessing as mp
from collections import Counter

import numpy as np
import pytest

from repro.api import FTMapService, JobCancelled, MapRequest
from repro.api import service as service_module
from repro.cache import CacheManager, reset_cache_registry
from repro.mapping.ftmap import FTMapConfig
from repro.structure import synthetic_protein

MODES = ("sequential", "process")
STAGES = ("dock", "minimize", "cluster")


@pytest.fixture(autouse=True)
def _fresh_registry():
    reset_cache_registry()
    yield
    reset_cache_registry()


@pytest.fixture(scope="module")
def protein():
    return synthetic_protein(n_residues=40, seed=3)


def tiny_config(**overrides):
    base = dict(
        probe_names=("ethanol", "acetone", "urea"),
        num_rotations=6,
        receptor_grid=32,
        probe_grid=4,
        grid_spacing=1.25,
        minimize_top=2,
        minimizer_iterations=4,
        engine="fft",
        cache_policy="off",
        tracing=True,
    )
    base.update(overrides)
    return FTMapConfig(**base)


def run_job(protein, cfg, mode, manager=None):
    """One request through ``submit``; returns (result, events)."""
    manager = manager if manager is not None else CacheManager(policy="off")
    with FTMapService(cache=manager) as service:
        handle = service.submit(
            MapRequest(receptor=protein, config=cfg, streaming=mode)
        )
        mapped = handle.result(timeout=300)
    assert mapped.streaming == mode
    return mapped, handle.events()


def assert_same_bits(a, b):
    """Same summary document and the same full per-probe arrays."""
    assert a.to_dict() == b.to_dict()
    assert a.probe_results.keys() == b.probe_results.keys()
    for name, pa in a.probe_results.items():
        pb = b.probe_results[name]
        assert [(p.rotation_index, p.translation, p.score)
                for p in pa.docked_poses] == [
            (p.rotation_index, p.translation, p.score)
            for p in pb.docked_poses
        ]
        assert np.array_equal(pa.minimized_energies, pb.minimized_energies)
        assert np.array_equal(pa.minimized_centers, pb.minimized_centers)
        for ra, rb in zip(pa.minimized, pb.minimized):
            assert np.array_equal(ra.coords, rb.coords)


def span_names(mapped):
    return Counter(s["name"] for s in mapped.trace["spans"])


@pytest.fixture(scope="module")
def sequential_run(protein):
    return run_job(protein, tiny_config(), "sequential")


@pytest.fixture(scope="module")
def warm_disk(protein, tmp_path_factory):
    """A disk tier primed by one sequential request."""
    directory = tmp_path_factory.mktemp("warm-tier")
    cfg = tiny_config(tracing=False)
    run_job(protein, cfg, "sequential", CacheManager("disk", directory=directory))
    return directory


@pytest.mark.parametrize("mode", MODES)
class TestModeContract:
    def test_result_bits_spans_and_events(self, protein, sequential_run, mode):
        reference, reference_events = sequential_run
        mapped, events = run_job(protein, tiny_config(), mode)
        assert_same_bits(reference.result, mapped.result)
        assert span_names(mapped) == span_names(reference)
        assert mapped.cache_stats is None            # cache policy "off"
        cfg = tiny_config()
        for probe in cfg.probe_names:
            stages = [e.stage for e in events if e.probe == probe]
            assert stages == list(STAGES), (probe, stages)
        assert [(e.stage, e.probe) for e in events][-1] == ("consensus", "")
        assert len(events) == len(reference_events)

    def test_warm_disk_tier_stats(self, protein, warm_disk, mode):
        cfg = tiny_config(tracing=False)
        stats = {}
        for m in ("sequential", mode):
            manager = CacheManager("disk", directory=warm_disk)
            mapped, _ = run_job(protein, cfg, m, manager)
            stats[m] = mapped.cache_stats
            # The request's scope is what the manager itself counted.
            assert manager.stats.hits == mapped.cache_stats.hits
        assert stats[mode].hits == stats["sequential"].hits
        assert stats[mode].misses == stats["sequential"].misses == 0
        assert stats[mode].hits == 2 * len(cfg.probe_names)


def sharded_config():
    return tiny_config(minimize_engine="multi-gpu-sim", minimize_devices=2)


@pytest.fixture(scope="module")
def sharded_sequential_run(protein):
    return run_job(protein, sharded_config(), "sequential")


@pytest.mark.parametrize("mode", MODES)
def test_sharded_minimization_events(protein, sharded_sequential_run, mode):
    """Two-device minimization: each shard start reaches the job as a
    ``minimize-shard`` event between its probe's ``minimize`` and
    ``cluster``, from worker processes too."""
    reference, _ = sharded_sequential_run
    mapped, events = run_job(protein, sharded_config(), mode)
    assert_same_bits(reference.result, mapped.result)
    names = span_names(mapped)
    assert names == span_names(reference)
    assert names["minimize-shard"] == 2 * len(sharded_config().probe_names)
    for probe in sharded_config().probe_names:
        probe_events = [e for e in events if e.probe == probe]
        assert [e.stage for e in probe_events] == [
            "dock", "minimize", "minimize-shard", "minimize-shard", "cluster",
        ], probe
        shards = probe_events[2:4]
        assert {e.index for e in shards} == {0, 1}
        assert all(e.total == 2 for e in shards)


class TestProcessStreaming:
    def test_dock_scan_shape_bitwise(self):
        """The benchmark's docking-heavy shape: 40 residues, 72
        rotations, 4 probes, one pose refined for 5 iterations."""
        receptor = synthetic_protein(n_residues=40, seed=17)
        cfg = FTMapConfig(
            probe_names=("ethanol", "acetone", "benzene", "isopropanol"),
            num_rotations=72,
            minimize_top=1,
            minimizer_iterations=5,
            cache_policy="off",
        )
        with FTMapService(cache=CacheManager(policy="off")) as service:
            seq = service.map(receptor, cfg, streaming="sequential")
            proc = service.map(receptor, cfg, streaming="process")
        assert proc.streaming == "process"
        assert_same_bits(seq.result, proc.result)

    def test_pool_size_follows_usable_cpus(self, protein, monkeypatch):
        results = {}
        for cpus in (1, 2):
            monkeypatch.setattr(service_module, "usable_cpus", lambda n=cpus: n)
            mapped, _ = run_job(protein, tiny_config(), "process")
            root = next(s for s in mapped.trace["spans"] if s["name"] == "map")
            assert root["attributes"]["workers"] == cpus
            results[cpus] = mapped
        assert_same_bits(results[1].result, results[2].result)

    def test_pool_never_exceeds_probe_count(self, protein, monkeypatch):
        monkeypatch.setattr(service_module, "usable_cpus", lambda: 8)
        mapped, _ = run_job(
            protein, tiny_config(probe_names=("ethanol", "acetone")), "process"
        )
        root = next(s for s in mapped.trace["spans"] if s["name"] == "map")
        assert root["attributes"]["workers"] == 2

    def test_cancel_from_first_dock_event_stops_workers(self, protein):
        cfg = tiny_config()

        def cancel_after_first_dock(event):
            if event.stage == "dock" and event.index == 0:
                service.job(event.job_id).cancel()

        service = FTMapService(
            cache=CacheManager(policy="off"), on_event=cancel_after_first_dock
        )
        with service:
            handle = service.submit(
                MapRequest(receptor=protein, config=cfg, streaming="process")
            )
            # A generous deadline: a hang fails with JobTimeoutError.
            with pytest.raises(JobCancelled):
                handle.result(timeout=120)
        assert [(e.stage, e.probe) for e in handle.events()] == [
            ("dock", "ethanol")
        ]
        assert mp.active_children() == []
