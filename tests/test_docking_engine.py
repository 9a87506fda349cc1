"""Tests for the DockingEngine facade."""

import numpy as np
import pytest

from repro.docking.engine import DockingEngine
from repro.docking.piper import PiperConfig


class TestDockingEngineFacade:
    @pytest.fixture(scope="class")
    def cfg(self):
        return PiperConfig(
            num_rotations=4, receptor_grid=32, probe_grid=4, grid_spacing=1.25
        )

    def test_run_detailed_provenance(self, small_protein, ethanol, cfg):
        engine = DockingEngine(small_protein, ethanol, cfg, backend="direct")
        run = engine.run_detailed([0, 2])
        assert run.backend == "direct"
        assert {p.rotation_index for p in run.poses} == {0, 2}

    def test_config_engine_is_default_backend(self, small_protein, ethanol):
        """``FTMapConfig.engine`` names the backend the mapping dock stage
        runs: ``direct``, the one backend."""
        from repro.cache import CacheManager
        from repro.mapping.ftmap import FTMapConfig, dock_probe

        cfg = FTMapConfig(
            probe_names=("ethanol",),
            num_rotations=3,
            receptor_grid=32,
            probe_grid=4,
            grid_spacing=1.25,
        )
        run = dock_probe(small_protein, ethanol, cfg, cache=CacheManager(policy="off"))
        assert run.backend == cfg.engine == "direct"

    def test_unknown_backend_rejected(self, small_protein, ethanol, cfg):
        with pytest.raises(ValueError, match="unknown backend"):
            DockingEngine(small_protein, ethanol, cfg, backend="fpga")
        # The engines deleted in 7.0.0 and 6.0.0 are unknown names too.
        for retired in ("fft", "batched-fft", "auto", "gpu-sim"):
            with pytest.raises(ValueError, match=f"unknown backend '{retired}'"):
                DockingEngine(small_protein, ethanol, cfg, backend=retired)

    def test_workers_fan_out_rejected(self, small_protein, ethanol, cfg):
        """Docking runs in the calling thread; only ``workers=1`` is kept."""
        serial = DockingEngine(small_protein, ethanol, cfg).run()
        one = DockingEngine(small_protein, ethanol, cfg, workers=1).run()
        assert [(p.rotation_index, p.translation) for p in serial] == [
            (p.rotation_index, p.translation) for p in one
        ]
        with pytest.raises(ValueError, match="calling thread"):
            DockingEngine(small_protein, ethanol, cfg, workers=2)

    def test_probe_coords_passthrough(self, small_protein, ethanol, cfg):
        engine = DockingEngine(small_protein, ethanol, cfg)
        pose = engine.run()[0]
        coords = engine.docked_probe_coords(pose)
        assert coords.shape == (ethanol.n_atoms, 3)
        assert np.all(np.isfinite(coords))


class TestAutoEngineInPiper:
    def test_ftmap_through_facade(self, small_protein):
        from repro.api import FTMapService
        from repro.mapping.ftmap import FTMapConfig

        cfg = FTMapConfig(
            probe_names=("ethanol",),
            num_rotations=3,
            receptor_grid=32,
            grid_spacing=1.25,
            minimize_top=1,
            minimizer_iterations=3,
        )
        with FTMapService() as service:
            result = service.map(small_protein, cfg).result
        assert "ethanol" in result.probe_results
        assert result.probe_results["ethanol"].docked_poses
