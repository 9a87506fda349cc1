"""FTMapService lifecycle: jobs, streaming modes, cache-aware serving."""

import multiprocessing as mp
import os
import signal
import threading

import numpy as np
import pytest

from repro.api import (
    JOB_CANCELLED,
    JOB_DONE,
    FTMapService,
    JobCancelled,
    MapRequest,
)
from repro.api import service as service_module
from repro.api.errors import JobFailedError
from repro.cache import CacheManager, reset_cache_registry
from repro.mapping.consensus import consensus_sites
from repro.mapping.ftmap import FTMapConfig, FTMapResult, map_probe
from repro.structure import build_probe
from repro.structure import synthetic_protein
from repro.util.parallel import usable_cpus
from repro.workers import shm_bytes_in_use
from repro.workers import stages as worker_stages


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
        probe_names=("ethanol", "acetone"),
        num_rotations=6,
        receptor_grid=32,
        probe_grid=4,
        grid_spacing=1.25,
        minimize_top=2,
        minimizer_iterations=4,
        engine="fft",
    )
    base.update(overrides)
    return FTMapConfig(**base)


_REAL_PROBE_TASK = worker_stages.probe_task


def _probe_task_killing_acetone(name, probe, parent_span_id=""):
    """``probe_task`` stand-in whose worker dies on the acetone probe."""
    if name == "acetone":
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_PROBE_TASK(name, probe, parent_span_id)


def probe_outputs(result):
    """Bitwise-comparable mapping outputs (poses, energies, centers)."""
    out = {}
    for name, pr in result.probe_results.items():
        out[name] = (
            [(p.rotation_index, p.translation, p.score) for p in pr.docked_poses],
            pr.minimized_energies.copy(),
            pr.minimized_centers.copy(),
        )
    return out


def assert_bitwise_equal(result_a, result_b):
    out_a, out_b = probe_outputs(result_a), probe_outputs(result_b)
    assert out_a.keys() == out_b.keys()
    for name in out_a:
        assert out_a[name][0] == out_b[name][0]
        assert np.array_equal(out_a[name][1], out_b[name][1])
        assert np.array_equal(out_a[name][2], out_b[name][2])
    assert len(result_a.sites) == len(result_b.sites)
    for site_a, site_b in zip(result_a.sites, result_b.sites):
        assert np.array_equal(site_a.center, site_b.center)
        assert site_a.probe_names == site_b.probe_names
        assert site_a.member_clusters == site_b.member_clusters
        assert site_a.best_energy == site_b.best_energy


class TestSynchronousMap:
    def test_map_matches_stage_functions_bitwise(self, protein):
        """The service adds scheduling, never numerics: its result equals
        the public stage functions composed by hand."""
        cfg = tiny_config()
        probe_results = {
            name: map_probe(protein, name, build_probe(name), cfg)
            for name in cfg.probe_names
        }
        by_hand = FTMapResult(
            probe_results=probe_results,
            sites=consensus_sites(
                {name: pr.clusters for name, pr in probe_results.items()},
                radius=cfg.consensus_radius,
            ),
        )
        with FTMapService() as service:
            mapped = service.map(protein, cfg)
        assert_bitwise_equal(by_hand, mapped.result)

    def test_auto_streams_multi_probe_to_processes(self, protein):
        with FTMapService(cache=CacheManager(policy="off")) as service:
            multi = service.map(protein, tiny_config())
            single = service.map(protein, tiny_config(probe_names=("ethanol",)))
        # auto's cost model: process workers need >= 2 CPUs to overlap.
        expected = "process" if usable_cpus() >= 2 else "sequential"
        assert multi.streaming == expected
        assert single.streaming == "sequential"

    def test_process_matches_sequential_bitwise(self, protein):
        cfg = tiny_config(probe_names=("ethanol", "acetone", "urea"))
        with FTMapService() as service:
            seq = service.map(protein, cfg, streaming="sequential")
            proc = service.map(protein, cfg, streaming="process")
        assert seq.streaming == "sequential"
        assert proc.streaming == "process"
        assert_bitwise_equal(seq.result, proc.result)
        # Results travel over the worker pipes: no repro- segment in /dev/shm.
        assert shm_bytes_in_use() == 0

    def test_service_default_streaming_selects_process(self, protein):
        cfg = tiny_config()
        with FTMapService(streaming="process") as service:
            mapped = service.map(protein, cfg)
            seq = service.map(protein, cfg, streaming="sequential")
        assert mapped.streaming == "process"
        assert_bitwise_equal(seq.result, mapped.result)

    def test_explicit_streaming_wins_over_service_default(self, protein):
        """A client's explicit streaming mode is never overridden by the
        service's default."""
        cfg = tiny_config()
        with FTMapService(streaming="process") as service:
            seq = service.map(protein, cfg, streaming="sequential")
        with FTMapService(streaming="sequential") as service:
            proc = service.map(protein, cfg, streaming="process")
        assert seq.streaming == "sequential"
        assert proc.streaming == "process"
        assert_bitwise_equal(seq.result, proc.result)

    def test_process_mode_job_emits_stage_events(self, protein):
        """Process streaming keeps the thread path's per-stage progress
        contract: dock/minimize/cluster per probe, consensus last."""
        cfg = tiny_config()
        with FTMapService() as service:
            handle = service.submit(
                MapRequest(receptor=protein, config=cfg, streaming="process")
            )
            handle.result(timeout=300)
        stages = [(e.stage, e.probe) for e in handle.events()]
        for probe in cfg.probe_names:
            for stage in ("dock", "minimize", "cluster"):
                assert (stage, probe) in stages
        assert stages[-1] == ("consensus", "")

    def test_process_mode_worker_spans_stitched_into_trace(self, protein):
        with FTMapService() as service:
            mapped = service.map(
                protein,
                tiny_config(tracing=True),
                streaming="process",
            )
        names = [s["name"] for s in mapped.trace["spans"]]
        for exec_span in ("dock-exec", "minimize-exec", "cluster-exec"):
            assert names.count(exec_span) == 2  # one per probe
        by_id = {s["span_id"]: s for s in mapped.trace["spans"]}
        for span in mapped.trace["spans"]:
            if span["name"] == "dock-exec":
                parent = by_id[span["parent_id"]]
                assert parent["name"] == "dock"

    def test_result_provenance(self, protein):
        cfg = tiny_config()
        with FTMapService() as service:
            fingerprint = service.register_receptor(protein)
            mapped = service.map(protein, cfg)
        assert mapped.receptor_hash == fingerprint
        assert mapped.config == cfg
        assert mapped.wall_time_s > 0
        assert mapped.top_site is mapped.result.top_site


class TestReceptorRegistry:
    def test_register_is_idempotent_and_structural(self, protein):
        with FTMapService() as service:
            fp1 = service.register_receptor(protein)
            fp2 = service.register_receptor(
                synthetic_protein(n_residues=40, seed=3)
            )
            assert fp1 == fp2
            assert service.registered_receptors() == [fp1]

    def test_map_by_fingerprint(self, protein):
        cfg = tiny_config(probe_names=("ethanol",))
        with FTMapService() as service:
            fingerprint = service.register_receptor(protein)
            by_hash = service.map(fingerprint, cfg)
            inline = service.map(protein, cfg)
        assert_bitwise_equal(by_hash.result, inline.result)

    def test_unknown_fingerprint_rejected(self):
        with FTMapService() as service:
            with pytest.raises(KeyError, match="register_receptor"):
                service.map("f" * 64, tiny_config())


class TestJobs:
    def test_submit_many_poll_results(self, protein):
        cfg = tiny_config()
        with FTMapService(max_workers=2) as service:
            fingerprint = service.register_receptor(protein)
            handles = [
                service.submit(MapRequest(receptor=fingerprint, config=cfg))
                for _ in range(3)
            ]
            results = [h.result(timeout=300) for h in handles]
            assert [h.poll() for h in handles] == [JOB_DONE] * 3
            assert all(h.done() for h in handles)
        for other in results[1:]:
            assert_bitwise_equal(results[0].result, other.result)
        # Job ids are unique and resolvable.
        ids = [h.job_id for h in handles]
        assert len(set(ids)) == 3
        assert service.job(ids[0]) is handles[0]

    def test_progress_events_cover_stages(self, protein):
        cfg = tiny_config()
        with FTMapService() as service:
            handle = service.submit(MapRequest(receptor=protein, config=cfg))
            handle.result(timeout=300)
        stages = [(e.stage, e.probe) for e in handle.events()]
        for probe in cfg.probe_names:
            for stage in ("dock", "minimize", "cluster"):
                assert (stage, probe) in stages
        assert stages[-1] == ("consensus", "")
        assert all(e.total == len(cfg.probe_names) for e in handle.events())

    def test_queued_job_cancels_immediately(self, protein):
        cfg = tiny_config()
        with FTMapService(max_workers=1) as service:
            fingerprint = service.register_receptor(protein)
            running = service.submit(
                MapRequest(receptor=fingerprint, config=cfg)
            )
            queued = service.submit(
                MapRequest(receptor=fingerprint, config=cfg)
            )
            assert queued.cancel() is True
            assert queued.status() == JOB_CANCELLED
            with pytest.raises(JobCancelled):
                queued.result(timeout=10)
            running.result(timeout=300)           # unaffected
            assert running.status() == JOB_DONE
            assert running.cancel() is False      # terminal: nothing to cancel

    def test_running_job_cancels_at_stage_boundary(self, protein):
        cfg = tiny_config(probe_names=("ethanol", "acetone", "urea"))
        cancelled_from = []

        def cancel_after_first_dock(event):
            if event.stage == "dock" and event.index == 0:
                cancelled_from.append(event.job_id)
                service.job(event.job_id).cancel()

        service = FTMapService(on_event=cancel_after_first_dock)
        with service:
            handle = service.submit(MapRequest(receptor=protein, config=cfg))
            with pytest.raises(JobCancelled):
                handle.result(timeout=300)
            assert handle.status() == JOB_CANCELLED
            assert cancelled_from == [handle.job_id]
            # The job stopped early: no consensus event was emitted.
            assert all(e.stage != "consensus" for e in handle.events())

    def test_process_job_cancels_and_unlinks_shared_memory(self, protein):
        """Cancelling a process-streamed job stops it at once and leaves
        no ``repro-`` shared-memory segment behind."""
        cfg = tiny_config(probe_names=("ethanol", "acetone", "urea"))
        cancelled_from = []

        def cancel_after_first_dock(event):
            if event.stage == "dock" and event.index == 0:
                cancelled_from.append(event.job_id)
                service.job(event.job_id).cancel()

        service = FTMapService(on_event=cancel_after_first_dock)
        with service:
            handle = service.submit(
                MapRequest(receptor=protein, config=cfg, streaming="process")
            )
            with pytest.raises(JobCancelled):
                handle.result(timeout=300)
            assert handle.status() == JOB_CANCELLED
            assert cancelled_from == [handle.job_id]
            assert all(e.stage != "consensus" for e in handle.events())
        assert shm_bytes_in_use() == 0

    def test_dead_worker_fails_job_naming_its_probe(self, protein, monkeypatch):
        """A worker killed mid-probe fails the job with a typed error that
        names the probe, leaves no child behind, and the service keeps
        serving."""
        cfg = tiny_config(probe_names=("ethanol", "acetone", "urea"))
        monkeypatch.setattr(worker_stages, "probe_task", _probe_task_killing_acetone)
        with FTMapService() as service:
            handle = service.submit(
                MapRequest(receptor=protein, config=cfg, streaming="process")
            )
            with pytest.raises(JobFailedError, match="acetone"):
                handle.result(timeout=300)
            assert handle.status() == "failed"
            assert mp.active_children() == []
            monkeypatch.undo()
            mapped = service.map(protein, cfg, streaming="process")
            assert set(mapped.result.probe_results) == set(cfg.probe_names)
        assert mp.active_children() == []

    def test_failing_job_reports_error(self, protein):
        cfg = tiny_config(probe_names=("unobtainium",))
        with FTMapService() as service:
            handle = service.submit(MapRequest(receptor=protein, config=cfg))
            with pytest.raises(KeyError, match="unobtainium"):
                handle.result(timeout=300)
            assert handle.status() == "failed"
            assert isinstance(handle.exception(), KeyError)

    def test_result_timeout(self, protein):
        cfg = tiny_config()
        with FTMapService(max_workers=1) as service:
            handle = service.submit(MapRequest(receptor=protein, config=cfg))
            with pytest.raises(TimeoutError):
                handle.result(timeout=0.001)
            handle.result(timeout=300)

    def test_submit_after_close_rejected(self, protein):
        service = FTMapService()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(MapRequest(receptor=protein, config=tiny_config()))

    def test_duplicate_request_id_rejected(self, protein):
        cfg = tiny_config(probe_names=("ethanol",))
        with FTMapService() as service:
            first = service.submit(
                MapRequest(receptor=protein, config=cfg, request_id="req-1")
            )
            with pytest.raises(ValueError, match="duplicate"):
                service.submit(
                    MapRequest(receptor=protein, config=cfg, request_id="req-1")
                )
            first.result(timeout=300)


class TestCacheAwareServing:
    def test_concurrent_requests_share_receptor_artifacts(self, protein):
        """Two in-flight requests against one receptor: the second is
        served from the first one's artifacts (grids, spectra, whole dock
        results) — the mapped-or-cached serving story."""
        cfg = tiny_config()
        manager = CacheManager(policy="memory")
        with FTMapService(cache=manager, max_workers=1) as service:
            fingerprint = service.register_receptor(protein)
            first = service.submit(
                MapRequest(receptor=fingerprint, config=cfg)
            )
            second = service.submit(
                MapRequest(receptor=fingerprint, config=cfg)
            )
            result_1 = first.result(timeout=300)
            result_2 = second.result(timeout=300)

        assert result_1.cache_stats.misses > 0        # cold: filled the cache
        assert result_2.cache_stats.misses == 0       # warm: pure reuse
        assert result_2.cache_stats.hits == 2 * len(cfg.probe_names)
        assert result_2.cache_stats.hit_rate == 1.0
        assert_bitwise_equal(result_1.result, result_2.result)

    def test_overlapping_requests_attribute_stats_independently(self, protein):
        """Request-scoped stats stay disjoint when jobs overlap on the
        shared manager (global snapshot deltas would cross-count)."""
        cfg = tiny_config()
        manager = CacheManager(policy="memory")
        with FTMapService(cache=manager, max_workers=2) as service:
            fingerprint = service.register_receptor(protein)
            warm = service.map(fingerprint, cfg)      # fill the cache
            handles = [
                service.submit(MapRequest(receptor=fingerprint, config=cfg))
                for _ in range(2)
            ]
            results = [h.result(timeout=300) for h in handles]
        assert warm.cache_stats.misses > 0
        for result in results:
            assert result.cache_stats.misses == 0
            assert result.cache_stats.hits == 2 * len(cfg.probe_names)

    def test_cache_off_reports_no_stats(self, protein):
        cfg = tiny_config(cache_policy="off")
        manager = CacheManager(policy="off")
        with FTMapService(cache=manager) as service:
            mapped = service.map(protein, cfg)
        assert mapped.cache_stats is None
        assert manager.stats.lookups == 0

    def test_request_config_resolves_its_own_cache(self, protein):
        """Without an injected manager, a request whose config names an
        explicit policy does not touch the service's default manager."""
        cfg = tiny_config(
            probe_names=("ethanol",), cache_policy="memory",
            cache_memory_bytes=1 << 22,
        )
        with FTMapService() as service:        # default config: inherit/off
            mapped = service.map(protein, cfg)
        assert service.cache.stats.lookups == 0
        assert mapped.cache_stats is not None
        assert mapped.cache_stats.lookups > 0

    def test_injected_cache_wins_over_request_policy(self, protein):
        """An explicitly injected manager is pinned: every request uses
        it regardless of its config's cache fields — the contract
        run_sweep's ``cache=`` argument relies on."""
        pinned = CacheManager(policy="memory")
        cfg = tiny_config(
            probe_names=("ethanol",), cache_policy="memory",
            cache_memory_bytes=1 << 22,
        )
        with FTMapService(cache=pinned) as service:
            mapped = service.map(protein, cfg)
        assert pinned.stats.lookups > 0
        assert mapped.cache_stats is not None
        assert mapped.cache_stats.lookups == pinned.stats.lookups

    def test_explicit_cache_argument_respected(self, protein):
        """FTMapService(cache=manager) fills that manager even when the
        config names its own cache policy."""
        manager = CacheManager(policy="memory")
        cfg = tiny_config(probe_names=("ethanol",), cache_policy="memory")
        with FTMapService(config=cfg, cache=manager) as service:
            result = service.map(protein, cfg).result
        assert manager.stats.puts > 0
        assert result.cache_stats is not None
        assert result.cache_stats.puts == manager.stats.puts


class TestSharedCacheFleet:
    """Two service instances sharing one cache directory — the N-replica
    deployment, minus the second host."""

    def test_cold_miss_on_a_is_warm_hit_on_b(self, protein, tmp_path):
        cfg = tiny_config()
        service_a = FTMapService(
            cache=CacheManager(policy="disk", directory=tmp_path)
        )
        service_b = FTMapService(
            cache=CacheManager(policy="disk", directory=tmp_path)
        )
        with service_a, service_b:
            cold = service_a.map(protein, cfg)
            warm = service_b.map(protein, cfg)
        assert cold.cache_stats.misses > 0            # A filled the directory
        assert warm.cache_stats.disk_hits > 0         # B read A's artifacts
        assert warm.cache_stats.misses == 0
        assert_bitwise_equal(cold.result, warm.result)

    def test_sixteen_concurrent_misses_compute_one_grid(
        self, protein, tmp_path, monkeypatch
    ):
        """The acceptance shape at the artifact level: 16 threads miss the
        receptor-grid key at once — exactly one grid computation runs,
        the other 15 register as single-flight waits."""
        import time as _time

        from repro.grids import energyfunctions as ef

        manager = CacheManager(policy="disk", directory=tmp_path)
        spec = ef.GridSpec(n=24, spacing=1.25)
        real_protein_grids = ef.protein_grids
        computes = []

        def counting_grids(*args, **kwargs):
            computes.append(1)
            # Hold the flight open until every follower is waiting on it,
            # so the wait count is deterministic (generously bounded).
            deadline = _time.monotonic() + 30.0
            while (
                manager.singleflight_waits < 15
                and _time.monotonic() < deadline
            ):
                _time.sleep(0.002)
            return real_protein_grids(*args, **kwargs)

        monkeypatch.setattr(ef, "protein_grids", counting_grids)
        results = [None] * 16

        def racer(i):
            results[i] = ef.protein_grids_cached(
                protein, spec, cache=manager
            )

        threads = [
            threading.Thread(target=racer, args=(i,)) for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert len(computes) == 1                     # one grid computation
        assert manager.singleflight_waits == 15       # the counter, asserted
        first = results[0]
        assert first is not None
        for other in results[1:]:
            assert np.array_equal(other.channels, first.channels)


class TestStreamingSelection:
    def test_auto_runs_sequential_where_processes_cannot_start(
        self, protein, monkeypatch
    ):
        monkeypatch.setattr(service_module, "usable_cpus", lambda: 2)
        monkeypatch.setattr(
            FTMapService, "_process_streaming_available",
            staticmethod(lambda: False),
        )
        cfg = tiny_config(cache_policy="off")
        with FTMapService(cache=CacheManager(policy="off")) as service:
            auto = service.map(protein, cfg)
            explicit = service.map(protein, cfg, streaming="process")
        assert auto.streaming == "sequential"
        assert explicit.streaming == "sequential"

    def test_explicit_process_wins_over_memory_only_cache(
        self, protein, monkeypatch
    ):
        """``auto`` keeps memory-only requests in the caller's thread; an
        explicit ``"process"`` still maps them on workers, whose
        memory-tier puts stay in the workers."""
        monkeypatch.setattr(service_module, "usable_cpus", lambda: 2)
        cfg = tiny_config()
        with FTMapService(cache=CacheManager(policy="memory")) as service:
            auto = service.map(protein, cfg)
            explicit = service.map(protein, cfg, streaming="process")
        assert auto.streaming == "sequential"
        assert explicit.streaming == "process"
        assert_bitwise_equal(auto.result, explicit.result)


class TestServiceValidation:
    def test_bad_max_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            FTMapService(max_workers=0)

    def test_bad_streaming(self):
        with pytest.raises(ValueError, match="streaming"):
            FTMapService(streaming="warp")


def map_from_two_threads(service, protein, cfg, streaming):
    """Run two synchronous ``map()`` calls concurrently under a deadline."""
    results, errors = {}, {}

    def call(tag):
        try:
            results[tag] = service.map(protein, cfg, streaming=streaming)
        except BaseException as exc:  # surfaced by the asserts below
            errors[tag] = exc

    threads = [threading.Thread(target=call, args=(t,)) for t in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not any(t.is_alive() for t in threads), "map() call hung"
    assert errors == {}
    assert set(results) == {"a", "b"}
    return results


class TestThreadSafetyOfScopes:
    @pytest.mark.parametrize("streaming", ["sequential", None])
    def test_map_from_two_caller_threads(self, protein, streaming):
        """Synchronous map() from concurrent caller threads: each result
        still carries its own request-scoped stats.  Under a memory-only
        manager ``auto`` (None) maps in the caller's thread too, since
        forked workers would lose their memory-tier puts."""
        cfg = tiny_config()
        manager = CacheManager(policy="memory")
        with FTMapService(cache=manager) as service:
            warm = service.map(protein, cfg, streaming=streaming)
            results = map_from_two_threads(service, protein, cfg, streaming)
        assert warm.streaming == "sequential"
        for mapped in results.values():
            assert mapped.streaming == "sequential"
            assert mapped.cache_stats.misses == 0
            assert mapped.cache_stats.hits == 2 * len(cfg.probe_names)

    def test_concurrent_process_maps_get_distinct_request_ids(self, protein):
        """Regression: every synchronous map() used the request id "sync",
        so two concurrent process-streamed calls reserved the same
        shared-memory segment names and both failed."""
        cfg = tiny_config(cache_policy="off")
        with FTMapService(cache=CacheManager(policy="off")) as service:
            seq = service.map(protein, cfg, streaming="sequential")
            results = map_from_two_threads(service, protein, cfg, "process")
        assert results["a"].request_id != results["b"].request_id
        for mapped in results.values():
            assert mapped.streaming == "process"
            assert_bitwise_equal(seq.result, mapped.result)
        assert shm_bytes_in_use() == 0
