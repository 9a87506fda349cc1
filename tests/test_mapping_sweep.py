"""Parameter-sweep runner: grid expansion, artifact sharing, hit reporting."""

import numpy as np
import pytest

from repro.cache import CacheManager, reset_cache_registry
from repro.mapping.ftmap import FTMapConfig
from repro.mapping.sweep import run_sweep, sweep_grid
from repro.structure import synthetic_protein


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
        probe_names=("ethanol",),
        num_rotations=6,
        receptor_grid=32,
        probe_grid=4,
        grid_spacing=1.25,
        minimize_top=2,
        minimizer_iterations=4,
        cache_policy="memory",
    )
    base.update(overrides)
    return FTMapConfig(**base)


class TestSweepGrid:
    def test_cartesian_expansion(self):
        base = tiny_config()
        configs = sweep_grid(base, cluster_radius=(3.0, 4.0), minimize_top=(2, 3))
        assert len(configs) == 4
        assert {c.cluster_radius for c in configs} == {3.0, 4.0}
        assert {c.minimize_top for c in configs} == {2, 3}

    def test_no_axes_returns_base(self):
        base = tiny_config()
        assert sweep_grid(base) == [base]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown FTMapConfig field"):
            sweep_grid(tiny_config(), not_a_field=(1, 2))

    def test_variants_revalidate(self):
        """Grid expansion goes through dataclasses.replace, so a bad axis
        value fails fast with the config's own validation error."""
        with pytest.raises(ValueError, match="minimize_top"):
            sweep_grid(tiny_config(), minimize_top=(0,))


class TestRunSweep:
    def test_sweep_shares_artifacts_across_variants(self, protein):
        """Variants that only change post-docking parameters reuse grids,
        spectra and whole dock results: every run after the first is
        dominated by cache hits."""
        configs = sweep_grid(
            tiny_config(), cluster_radius=(3.0, 4.0), minimize_top=(2, 3)
        )
        report = run_sweep(protein, configs)
        assert len(report.runs) == 4
        first, rest = report.runs[0], report.runs[1:]
        assert first.cache_stats.misses > 0           # cold: grids+spectra+dock
        # Dock results always hit after the first run; the minimized
        # ensemble hits too, except the first appearance of a new
        # minimize_top (a genuinely new ensemble -> one miss, then cached
        # for the later variant that shares it).
        assert [run.cache_stats.misses for run in rest] == [1, 0, 0]
        for run in rest:
            assert run.cache_stats.hits >= 1
        assert report.overall_hit_rate > 0.5
        # Mapping outputs stay per-variant: runs differ where configs do.
        assert report.runs[0].result.sites
        rendered = report.render()
        assert "cache hit rate" in rendered
        assert "minimize_top=3" in rendered

    def test_sweep_runs_with_cache_off(self, protein):
        """Policy off sweeps still work — every run just computes cold."""
        configs = sweep_grid(
            tiny_config(cache_policy="off"), cluster_radius=(3.0, 4.0)
        )
        report = run_sweep(protein, configs)
        assert len(report.runs) == 2
        assert report.overall_hit_rate == 0.0
        assert all(r.cache_stats.lookups == 0 for r in report.runs)

    def test_sweep_results_match_standalone_runs(self, protein):
        """Cache reuse must not change outcomes: a swept variant's sites
        equal the same config mapped standalone without any cache."""
        from repro.api import FTMapService

        configs = sweep_grid(tiny_config(), minimize_top=(2, 3))
        report = run_sweep(protein, configs)
        for run in report.runs:
            with FTMapService(cache=CacheManager(policy="off")) as service:
                solo = service.map(protein, run.config).result
            assert len(solo.sites) == len(run.result.sites)
            for a, b in zip(solo.sites, run.result.sites):
                assert np.allclose(a.center, b.center)

    def test_sweep_with_disk_cache(self, protein, tmp_path):
        """Sweep variants share artifacts through the disk tier."""
        configs = sweep_grid(
            tiny_config(cache_policy="disk", cache_dir=str(tmp_path)),
            cluster_radius=(3.0, 4.0),
        )
        report = run_sweep(protein, configs)
        assert len(report.runs) == 2
        assert [r.config.cluster_radius for r in report.runs] == [3.0, 4.0]
        for run in report.runs:
            assert run.result.sites
        assert report.runs[1].cache_stats.misses == 0
        # The disk tier now holds the shared artifacts.
        manager = CacheManager(policy="disk", directory=tmp_path)
        assert len(manager.disk) > 0

    def test_empty_configs_rejected(self, protein):
        with pytest.raises(ValueError, match="at least one config"):
            run_sweep(protein, [])

    def test_custom_labels(self, protein):
        configs = sweep_grid(tiny_config(), cluster_radius=(3.0, 4.0))
        report = run_sweep(protein, configs, labels=["loose", "tight"])
        assert [r.label for r in report.runs] == ["loose", "tight"]
        with pytest.raises(ValueError, match="labels"):
            run_sweep(protein, configs, labels=["only-one"])

    def test_runs_record_serialized_configs(self, protein):
        """Every sweep point carries its variant's JSON-ready config, so
        reports and job logs can replay any point without live objects."""
        import json

        from repro.mapping.ftmap import FTMapConfig

        configs = sweep_grid(tiny_config(), cluster_radius=(3.0, 4.0))
        report = run_sweep(protein, configs)
        for run, config in zip(report.runs, configs):
            assert run.config_dict == config.to_dict()
            wire = json.dumps(run.config_dict)          # JSON-clean
            assert FTMapConfig.from_dict(json.loads(wire)) == config
