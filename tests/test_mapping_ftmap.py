"""Integration tests for the end-to-end FTMap driver (scaled down)."""

import numpy as np
import pytest

from repro.api import FTMapService
from repro.mapping.ftmap import (
    FTMapConfig,
    cluster_probe,
    dock_probe,
    map_probe,
    minimize_poses,
)
from repro.mapping.report import mapping_report
from repro.structure import build_probe, synthetic_protein


def map_result(receptor, config, streaming=None):
    """Map on a fresh service that resolves the config's own cache."""
    with FTMapService(config=config) as service:
        return service.map(receptor, config, streaming=streaming).result


@pytest.fixture(scope="module")
def tiny_config():
    return FTMapConfig(
        probe_names=("ethanol", "acetone"),
        num_rotations=4,
        receptor_grid=32,
        grid_spacing=1.25,
        minimize_top=3,
        minimizer_iterations=15,
    )


@pytest.fixture(scope="module")
def protein():
    return synthetic_protein(n_residues=60, seed=3)


@pytest.fixture(scope="module")
def result(protein, tiny_config):
    return map_result(protein, tiny_config)


class TestEndToEndMap:
    def test_all_probes_processed(self, result):
        assert set(result.probe_results) == {"ethanol", "acetone"}

    def test_pose_counts(self, result, tiny_config):
        for pr in result.probe_results.values():
            assert len(pr.docked_poses) == tiny_config.num_rotations * 4
            assert len(pr.minimized) == tiny_config.minimize_top

    def test_minimization_lowered_energy(self, result):
        for pr in result.probe_results.values():
            for res in pr.minimized:
                assert res.energy <= res.initial_energy

    def test_clusters_formed(self, result):
        for pr in result.probe_results.values():
            assert len(pr.clusters) >= 1

    def test_consensus_sites_found(self, result):
        assert len(result.sites) >= 1
        assert result.top_site is not None

    def test_top_site_probe_count_ranked(self, result):
        counts = [s.probe_count for s in result.sites]
        assert counts == sorted(counts, reverse=True)

    def test_minimized_centers_near_protein(self, result, protein):
        """Refined probe centers must stay on/near the protein surface."""
        bound = np.abs(protein.coords - protein.center()).max() + 10
        for pr in result.probe_results.values():
            d = np.linalg.norm(pr.minimized_centers - protein.center(), axis=1)
            assert np.all(d < bound)

    def test_report_renders(self, result):
        text = mapping_report(result)
        assert "consensus sites" in text
        assert "ethanol" in text
        assert "acetone" in text

    def test_report_handles_empty(self):
        from repro.mapping.ftmap import FTMapResult

        text = mapping_report(FTMapResult(probe_results={}, sites=[]))
        assert "none found" in text

    def test_backend_provenance_recorded(self, result):
        for pr in result.probe_results.values():
            assert pr.docking_backend == "direct"
            assert pr.minimize_backend in ("serial", "batched")


class TestStagedPipeline:
    def test_stages_compose_to_map_probe(self, protein, tiny_config):
        probe = build_probe("ethanol")
        docking = dock_probe(protein, probe, tiny_config)
        assert docking.poses
        stage = minimize_poses(protein, probe, docking.poses, tiny_config)
        assert len(stage.results) == tiny_config.minimize_top
        assert stage.centers.shape == (tiny_config.minimize_top, 3)
        assert stage.energies.shape == (tiny_config.minimize_top,)
        assert stage.backend
        clusters = cluster_probe(stage.centers, stage.energies, tiny_config)
        assert clusters
        pr = map_probe(protein, "ethanol", probe, tiny_config)
        assert pr.probe_name == "ethanol"
        assert len(pr.minimized) == tiny_config.minimize_top

    def test_minimize_engine_backends_agree(self, protein, tiny_config):
        """The staged pipeline yields equivalent refinements whichever
        minimization backend the config selects."""
        probe = build_probe("ethanol")
        poses = dock_probe(protein, probe, tiny_config).poses
        results = {}
        for backend in ("serial", "batched"):
            cfg = FTMapConfig(
                **{**tiny_config.__dict__, "minimize_engine": backend}
            )
            stage = minimize_poses(protein, probe, poses, cfg)
            assert stage.backend == backend
            results[backend] = stage.energies
        np.testing.assert_allclose(
            results["batched"], results["serial"], rtol=5e-3
        )


class TestZeroPoseProbe:
    """Regression: a probe whose docking returns no poses must flow through
    the minimize/cluster stages as an explicit empty ensemble."""

    def test_minimize_poses_empty(self, protein, tiny_config):
        probe = build_probe("ethanol")
        stage = minimize_poses(protein, probe, [], tiny_config)
        assert stage.results == []
        assert stage.centers.shape == (0, 3)
        assert stage.energies.shape == (0,)
        assert stage.backend == ""
        assert cluster_probe(stage.centers, stage.energies, tiny_config) == []

    def test_map_with_poseless_probe(self, protein, tiny_config, monkeypatch):
        import repro.mapping.ftmap as ftmap_mod

        real_dock = ftmap_mod.dock_probe

        def no_poses_for_acetone(receptor, probe, config, cache=None):
            run = real_dock(receptor, probe, config, cache=cache)
            if probe.name == "acetone":
                run.poses = []
            return run

        monkeypatch.setattr(ftmap_mod, "dock_probe", no_poses_for_acetone)
        # Sequential: the patched stage runs in this process.
        result = map_result(protein, tiny_config, streaming="sequential")
        empty = result.probe_results["acetone"]
        assert empty.minimized == []
        assert empty.minimized_centers.shape == (0, 3)
        assert empty.minimized_energies.shape == (0,)
        assert empty.clusters == []
        # The other probe still maps, and consensus still forms.
        assert result.probe_results["ethanol"].clusters
        assert result.sites


class TestEngineRouting:
    def test_piper_config_passes_cpu_engines(self):
        """The one engine docks the config's workload: ``engine`` is the
        read-only ``"direct"``, and a document naming it docks the same
        workload as one that does not."""
        cfg = FTMapConfig.from_dict({"engine": "direct"})
        assert cfg.engine == FTMapConfig().engine == "direct"
        assert cfg.piper_config() == FTMapConfig().piper_config()
        with pytest.raises(AttributeError):
            cfg.engine = "fft"


class TestProcessStreaming:
    def test_probe_streaming_matches_serial(self, protein):
        cfg = FTMapConfig(
            probe_names=("ethanol", "acetone"),
            num_rotations=2,
            receptor_grid=24,
            minimize_top=2,
            minimizer_iterations=5,
        )
        serial = map_result(protein, cfg, streaming="sequential")
        streamed = map_result(protein, cfg, streaming="process")
        assert set(streamed.probe_results) == set(serial.probe_results)
        for name in serial.probe_results:
            np.testing.assert_array_equal(
                streamed.probe_results[name].minimized_energies,
                serial.probe_results[name].minimized_energies,
            )
        assert len(streamed.sites) == len(serial.sites)


class TestConfigValidation:
    """Nonsensical FTMapConfig values fail at construction, not mid-pipeline."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_rotations", 0),
            ("num_rotations", -5),
            ("poses_per_rotation", 0),
            ("receptor_grid", 0),
            ("probe_grid", -1),
            ("minimize_top", 0),
            ("minimize_top", -3),
            ("minimizer_iterations", 0),
        ],
    )
    def test_nonpositive_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FTMapConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("grid_spacing", 0.0),
            ("grid_spacing", -1.0),
            ("cluster_radius", -4.0),
            ("consensus_radius", 0.0),
            ("flexible_radius", -8.2),
        ],
    )
    def test_nonpositive_lengths_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            FTMapConfig(**{field: value})

    def test_unknown_engines_rejected(self):
        with pytest.raises(ValueError, match="docking engine"):
            FTMapConfig.from_dict({"engine": "warp-drive"})
        with pytest.raises(ValueError, match="minimize engine"):
            FTMapConfig(minimize_engine="warp-drive")

    def test_gpu_sim_is_an_unknown_engine(self):
        """The virtual GPU is a paper model, not a backend: a config or a
        document naming it gets the unknown-backend error, unmigrated."""
        with pytest.raises(ValueError, match="unknown docking engine 'gpu-sim'"):
            FTMapConfig.from_dict({"engine": "gpu-sim"})
        with pytest.raises(ValueError, match="unknown minimize engine 'gpu-sim'"):
            FTMapConfig(minimize_engine="gpu-sim")
        for field in ("engine", "minimize_engine"):
            doc = FTMapConfig().to_dict()
            doc[field] = "gpu-sim"
            with pytest.raises(ValueError, match="gpu-sim"):
                FTMapConfig.from_dict(doc)

    @pytest.mark.parametrize("engine", ["fft", "batched-fft", "auto"])
    def test_retired_docking_engine_is_unknown(self, engine):
        """The FFT engines and ``auto`` left the runtime in 7.0.0: a
        document naming one gets the unknown-docking-engine error, and
        the constructor has no ``engine`` to set."""
        doc = FTMapConfig().to_dict()
        doc["engine"] = engine
        with pytest.raises(ValueError, match=f"unknown docking engine '{engine}'"):
            FTMapConfig.from_dict(doc)
        with pytest.raises(TypeError):
            FTMapConfig(engine=engine)

    def test_6_2_document_loads(self):
        """A 6.2.0 ``to_dict()`` carries ``engine="direct"`` and
        ``batch_size``: the engine is accepted and the rotation batch,
        which never changed a result bit of ``direct``, is dropped."""
        doc = FTMapConfig(num_rotations=6).to_dict()
        assert "engine" not in doc and "batch_size" not in doc
        for batch_size in (None, 8):
            legacy = dict(doc, engine="direct", batch_size=batch_size)
            assert FTMapConfig.from_dict(legacy) == FTMapConfig(num_rotations=6)

    def test_unknown_cache_policy_rejected(self):
        with pytest.raises(ValueError, match="cache policy"):
            FTMapConfig(cache_policy="turbo")

    def test_bad_optional_counts_rejected(self):
        with pytest.raises(ValueError, match="minimize_devices"):
            FTMapConfig(minimize_devices=0)
        with pytest.raises(ValueError, match="minimize_batch_size"):
            FTMapConfig(minimize_batch_size=0)
        with pytest.raises(ValueError, match="cache_memory_bytes"):
            FTMapConfig(cache_memory_bytes=0)

    def test_empty_probe_names_rejected(self):
        with pytest.raises(ValueError, match="probe_names"):
            FTMapConfig(probe_names=())

    def test_valid_config_accepted(self):
        cfg = FTMapConfig(cache_policy="memory", minimize_devices=2)
        assert cfg.cache_policy == "memory"


class TestArtifactCache:
    """FTMapService x repro.cache: reuse across repeat mappings."""

    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        from repro.cache import reset_cache_registry

        reset_cache_registry()
        yield
        reset_cache_registry()

    def _config(self, **overrides):
        base = dict(
            probe_names=("ethanol",),
            num_rotations=5,
            receptor_grid=32,
            grid_spacing=1.25,
            minimize_top=2,
            minimizer_iterations=4,
        )
        base.update(overrides)
        return FTMapConfig(**base)

    def test_cache_off_matches_cache_on_bitwise(self, protein):
        """The artifact cache must be invisible in the outputs: cache-off,
        cold-cached and warm-cached runs agree bitwise."""
        r_off = map_result(protein, self._config(cache_policy="off"))
        r_cold = map_result(protein, self._config(cache_policy="memory"))
        r_warm = map_result(protein, self._config(cache_policy="memory"))
        assert r_off.cache_stats is None
        for other in (r_cold, r_warm):
            for name, pr in r_off.probe_results.items():
                opr = other.probe_results[name]
                assert [p.score for p in pr.docked_poses] == [
                    p.score for p in opr.docked_poses
                ]
                assert [p.translation for p in pr.docked_poses] == [
                    p.translation for p in opr.docked_poses
                ]
                assert np.array_equal(pr.minimized_energies, opr.minimized_energies)
                assert np.array_equal(pr.minimized_centers, opr.minimized_centers)

    def test_warm_repeat_reuses_dock_results(self, protein):
        """A repeated mapping hits the dock-result and minimized-ensemble
        caches: the warm run does exactly two lookups per probe, both
        hits, and recomputes nothing."""
        cfg = self._config(cache_policy="memory")
        cold = map_result(protein, cfg)
        warm = map_result(protein, cfg)
        assert cold.cache_stats.misses == 3        # grids+dock+minimize
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hits == 2          # one probe: dock + minimize
        assert warm.cache_stats.hit_rate == 1.0
        pr = next(iter(warm.probe_results.values()))
        assert pr.minimize_cached
        assert pr.minimize_shard_sizes == ()       # no shards ran at all

    def test_structurally_equal_receptor_hits(self, protein):
        """A *rebuilt* receptor with identical content reuses artifacts —
        the content-addressed property the id()-keyed cache lacked."""
        cfg = self._config(cache_policy="memory")
        map_result(protein, cfg)
        rebuilt = synthetic_protein(n_residues=60, seed=3)
        assert rebuilt is not protein
        warm = map_result(rebuilt, cfg)
        assert warm.cache_stats.hits == 2          # dock + minimized ensemble
        assert warm.cache_stats.misses == 0

    def test_different_workload_misses(self, protein):
        """Any workload-relevant field change re-docks instead of aliasing."""
        map_result(protein, self._config(cache_policy="memory"))
        bumped = map_result(
            protein, self._config(cache_policy="memory", num_rotations=6)
        )
        assert bumped.cache_stats.misses >= 1      # dock result re-computed
        # But the receptor grids (same receptor, same grid spec) still hit.
        assert bumped.cache_stats.hits >= 1

    def test_disk_cache_hits_across_fresh_managers(self, protein, tmp_path):
        """Disk policy persists artifacts: a fresh registry (as a new
        process would see) still serves the dock result from disk."""
        from repro.cache import reset_cache_registry

        cfg = self._config(cache_policy="disk", cache_dir=str(tmp_path))
        cold = map_result(protein, cfg)
        assert cold.cache_stats.misses >= 3
        reset_cache_registry()                     # simulate a new process
        warm = map_result(protein, cfg)
        assert warm.cache_stats.disk_hits == 2     # dock + minimized ensemble
        assert warm.cache_stats.misses == 0

    def test_cached_dock_run_poses_are_private_copies(self, protein):
        """Mutating a returned pose list must not poison the cache."""
        cfg = self._config(cache_policy="memory")
        first = dock_probe(protein, build_probe("ethanol"), cfg)
        first.poses.clear()                        # caller mangles its copy
        second = dock_probe(protein, build_probe("ethanol"), cfg)
        assert len(second.poses) == cfg.num_rotations * cfg.poses_per_rotation


class TestDockResultKeyGoldens:
    """The dock-result cache key must not move under a docking-config
    refactor: a silent re-key would orphan every stored dock result.
    Values computed before the backend choice left ``PiperConfig``; a
    deliberate key change bumps ``CACHE_FORMAT_VERSION`` and updates them.
    The ``direct`` key of 6.2.0 is today's only dock-result key."""

    GOLDENS = {
        (("engine", "direct"),):
            "ae79f288fdec0ac431947ca4e932445d7c40b1d8dfcd11da9c3ae91e1da4a8fe",
    }

    @pytest.mark.parametrize(
        "fields", list(GOLDENS), ids=lambda f: ",".join(f"{k}={v}" for k, v in f)
    )
    def test_key_matches_golden(self, fields):
        from repro.mapping.ftmap import _dock_result_key

        receptor = synthetic_protein(n_residues=30, seed=11)
        key = _dock_result_key(
            receptor, build_probe("ethanol"), FTMapConfig.from_dict(dict(fields))
        )
        assert key == "dock-results/" + self.GOLDENS[fields]


class TestLegacyDockRunEntries:
    """4.0.0 pickled a ``BackendDecision`` into every cached ``DockingRun``.
    The class is gone (and since 7.0.0 its module too), so such an entry
    cannot load: the disk tier must drop it as corrupt and the dock stage
    recompute, under the same key."""

    def test_entry_naming_deleted_decision_class_is_recomputed(
        self, tmp_path, monkeypatch
    ):
        import sys
        import types
        from dataclasses import dataclass

        from repro.cache import CacheManager
        from repro.cache.store import DiskStore
        from repro.docking.engine import DockingRun
        from repro.mapping.ftmap import _dock_result_key

        @dataclass(frozen=True)
        class BackendDecision:       # the 4.0.0 record, under its old name
            backend: str
            batch_size: int
            predictions: dict

        BackendDecision.__module__ = "repro.docking.selection"
        BackendDecision.__qualname__ = "BackendDecision"
        receptor = synthetic_protein(n_residues=30, seed=11)
        probe = build_probe("ethanol")
        cfg = FTMapConfig(
            probe_names=("ethanol",), num_rotations=2, receptor_grid=32,
            grid_spacing=1.25,
        )
        key = _dock_result_key(receptor, probe, cfg)
        legacy = DockingRun(poses=[], backend="direct")
        legacy.batch_size = 1
        legacy.decision = BackendDecision("direct", 1, {"direct": 1e-3})
        selection = types.ModuleType("repro.docking.selection")
        selection.BackendDecision = BackendDecision
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, "repro.docking.selection", selection)
            DiskStore(tmp_path).put(key, legacy)
        assert "repro.docking.selection" not in sys.modules
        (entry,) = tmp_path.rglob("*.bin")
        assert b"repro.docking.selection" in entry.read_bytes()
        assert b"BackendDecision" in entry.read_bytes()

        manager = CacheManager(policy="disk", directory=str(tmp_path))
        run = dock_probe(receptor, probe, cfg, cache=manager)
        assert len(run.poses) == cfg.num_rotations * cfg.poses_per_rotation
        assert manager.stats.corrupt_entries == 1
        # The recomputed run replaced the legacy entry under the same key.
        again = CacheManager(policy="disk", directory=str(tmp_path))
        hit = dock_probe(receptor, probe, cfg, cache=again)
        assert again.stats.disk_hits == 1
        assert [(p.rotation_index, p.translation) for p in hit.poses] == [
            (p.rotation_index, p.translation) for p in run.poses
        ]

    def test_entry_with_deleted_ledger_field_is_a_hit(self, tmp_path):
        """5.0.0 pickled ``DockingRun.predicted_device_time_s`` (``None`` off
        the deleted ``gpu-sim`` backend).  Unpickling restores attributes,
        not fields, so such an entry is still served, and the run handed
        back has only today's fields."""
        from dataclasses import fields

        from repro.cache import CacheManager
        from repro.cache.store import DiskStore
        from repro.docking.engine import DockingRun
        from repro.mapping.ftmap import _dock_result_key

        receptor = synthetic_protein(n_residues=30, seed=11)
        probe = build_probe("ethanol")
        cfg = FTMapConfig(
            probe_names=("ethanol",), num_rotations=2, receptor_grid=32,
            grid_spacing=1.25,
        )
        fresh = dock_probe(receptor, probe, cfg, cache=CacheManager(policy="off"))
        legacy = DockingRun(poses=list(fresh.poses), backend=fresh.backend)
        legacy.batch_size = 1                     # a 6.x field
        legacy.predicted_device_time_s = None     # the 5.0.0 field
        DiskStore(tmp_path).put(_dock_result_key(receptor, probe, cfg), legacy)
        (entry,) = tmp_path.rglob("*.bin")
        assert b"predicted_device_time_s" in entry.read_bytes()

        manager = CacheManager(policy="disk", directory=str(tmp_path))
        run = dock_probe(receptor, probe, cfg, cache=manager)
        assert manager.stats.disk_hits == 1
        assert manager.stats.corrupt_entries == 0
        assert [(p.score, p.rotation_index, p.translation) for p in run.poses] == [
            (p.score, p.rotation_index, p.translation) for p in fresh.poses
        ]
        assert run.backend == fresh.backend
        assert set(vars(run)) == {f.name for f in fields(DockingRun)}

    def test_6_2_entry_with_batch_size_is_a_hit(self, tmp_path):
        """6.2.0 pickled ``DockingRun.batch_size`` (1 for ``direct``).  The
        dock-result key of the default docking is unchanged, so such an
        entry is served under today's key, and the run handed back has
        only today's fields."""
        from dataclasses import fields

        from repro.cache import CacheManager
        from repro.cache.store import DiskStore
        from repro.docking.engine import DockingRun
        from repro.mapping.ftmap import _dock_result_key

        receptor = synthetic_protein(n_residues=30, seed=11)
        probe = build_probe("ethanol")
        cfg = FTMapConfig.from_dict({
            "probe_names": ["ethanol"], "num_rotations": 2, "receptor_grid": 32,
            "grid_spacing": 1.25, "engine": "direct", "batch_size": None,
        })
        fresh = dock_probe(receptor, probe, cfg, cache=CacheManager(policy="off"))
        legacy = DockingRun(poses=list(fresh.poses), backend="direct")
        legacy.batch_size = 1
        DiskStore(tmp_path).put(_dock_result_key(receptor, probe, cfg), legacy)
        (entry,) = tmp_path.rglob("*.bin")
        assert b"batch_size" in entry.read_bytes()

        manager = CacheManager(policy="disk", directory=str(tmp_path))
        run = dock_probe(receptor, probe, cfg, cache=manager)
        assert manager.stats.disk_hits == 1
        assert manager.stats.misses == 0
        assert manager.stats.corrupt_entries == 0
        assert [(p.score, p.rotation_index, p.translation) for p in run.poses] == [
            (p.score, p.rotation_index, p.translation) for p in fresh.poses
        ]
        assert run.backend == "direct"
        assert set(vars(run)) == {f.name for f in fields(DockingRun)}
