"""Tests for backend selection and the DockingEngine facade."""

import numpy as np
import pytest

from repro.docking.batched import DEFAULT_FFT_BATCH, fft_batch_limit
from repro.docking.engine import DockingEngine
from repro.docking.piper import PiperConfig, PiperDocker
from repro.docking.selection import (
    CPU_BACKENDS,
    batched_fft_correlation_flops,
    direct_correlation_flops,
    fft_correlation_flops,
    select_backend,
)
from repro.grids.energyfunctions import num_channels


class TestBackendSelection:
    def test_small_probe_prefers_direct(self):
        """The paper's Sec. III argument: tiny probes sit below the FFT
        crossover, so spatial-domain correlation wins."""
        decision = select_backend(n=128, m=2, channels=22, num_rotations=500)
        assert decision.backend == "direct"

    def test_large_ligand_prefers_batched_fft(self):
        decision = select_backend(n=128, m=16, channels=22, num_rotations=500)
        assert decision.backend == "batched-fft"
        assert decision.batch_size >= 2

    def test_single_rotation_never_batched(self):
        decision = select_backend(n=128, m=16, channels=22, num_rotations=1)
        assert decision.backend in ("direct", "fft")

    def test_decision_is_argmin_of_predictions(self):
        """The choice is the argmin of per-rotation correlation flops."""
        for m in (2, 4, 8, 16):
            decision = select_backend(n=64, m=m, channels=8, num_rotations=100)
            batch = min(DEFAULT_FFT_BATCH, fft_batch_limit((64, 64, 64), 8))
            flops = {
                "direct": direct_correlation_flops(64, m, 8),
                "fft": fft_correlation_flops(64, 8),
                "batched-fft": batched_fft_correlation_flops(64, m, 8, batch),
            }
            assert decision.backend == min(flops, key=flops.get)

    def test_gpu_included_only_on_request(self, small_protein, ethanol):
        # auto picks a host backend; the virtual GPU is a paper model
        # (repro.gpu.docking_pipeline), not a backend, so naming it fails.
        for m in (2, 4, 16):
            for rotations in (1, 500):
                choice = select_backend(128, m, 22, num_rotations=rotations)
                assert choice.backend in CPU_BACKENDS
        cfg = PiperConfig(num_rotations=2, receptor_grid=32, probe_grid=4)
        with pytest.raises(ValueError, match="unknown backend 'gpu-sim'"):
            DockingEngine(small_protein, ethanol, cfg, backend="gpu-sim")

    def test_batching_amortizes_prep(self):
        t1 = batched_fft_correlation_flops(64, 4, 8, batch=1)
        t8 = batched_fft_correlation_flops(64, 4, 8, batch=8)
        assert t8 < t1

    def test_bad_batch_size_rejected(self, small_protein, ethanol):
        cfg = PiperConfig(num_rotations=8, receptor_grid=32, probe_grid=4)
        for backend in ("direct", "auto", "batched-fft"):
            with pytest.raises(ValueError):
                DockingEngine(small_protein, ethanol, cfg, backend=backend, batch_size=0)


class TestDockingEngineFacade:
    @pytest.fixture(scope="class")
    def cfg(self):
        return PiperConfig(
            num_rotations=4, receptor_grid=32, probe_grid=4, grid_spacing=1.25
        )

    def test_all_backends_agree_on_poses(self, small_protein, ethanol, cfg):
        reference = PiperDocker(small_protein, ethanol, cfg).run()
        for backend in ("direct", "fft", "batched-fft", "auto"):
            engine = DockingEngine(small_protein, ethanol, cfg, backend=backend)
            poses = engine.run()
            assert len(poses) == len(reference), backend
            for a, b in zip(reference, poses):
                assert a.translation == b.translation, backend
                assert a.rotation_index == b.rotation_index, backend
                assert a.score == pytest.approx(b.score, rel=1e-4), backend

    def test_auto_resolves_to_concrete_backend(self, small_protein, ethanol, cfg):
        engine = DockingEngine(small_protein, ethanol, cfg, backend="auto")
        assert engine.backend in CPU_BACKENDS
        channels = num_channels(cfg.n_desolvation_terms)
        assert engine.backend == select_backend(
            cfg.receptor_grid, cfg.probe_grid, channels, cfg.num_rotations
        ).backend

    def test_run_detailed_provenance(self, small_protein, ethanol, cfg):
        engine = DockingEngine(small_protein, ethanol, cfg, backend="batched-fft")
        run = engine.run_detailed([0, 2])
        assert run.backend == "batched-fft"
        assert run.batch_size >= 1
        assert {p.rotation_index for p in run.poses} == {0, 2}

    @pytest.mark.parametrize("explicit", [None, 2])
    def test_engine_batch_is_run_batch(self, small_protein, ethanol, explicit):
        """The batch the facade reports is the batch every backend runs."""
        cfg = PiperConfig(
            num_rotations=6, receptor_grid=32, probe_grid=4, grid_spacing=1.25
        )
        for backend in ("direct", "fft", "batched-fft", "auto"):
            engine = DockingEngine(
                small_protein, ethanol, cfg, backend=backend, batch_size=explicit
            )
            run = engine.run_detailed()
            assert engine.batch_size == run.batch_size, backend
            if explicit is not None:
                assert run.batch_size == explicit, backend

    def test_explicit_batched_backend_really_batches(self, small_protein, ethanol):
        """Requesting batched-fft must use the engine's batch size even when
        the cost model's auto winner would have been a different backend."""
        cfg = PiperConfig(
            num_rotations=8, receptor_grid=32, probe_grid=2, grid_spacing=3.0
        )
        engine = DockingEngine(small_protein, ethanol, cfg, backend="batched-fft")
        # The conflict is real: the selector would have picked direct here.
        channels = num_channels(cfg.n_desolvation_terms)
        assert select_backend(32, 2, channels, num_rotations=8).backend == "direct"
        assert engine.batch_size > 1

    def test_config_engine_is_default_backend(self, small_protein, ethanol):
        """``FTMapConfig.engine`` is the backend the mapping dock stage runs."""
        from repro.cache import CacheManager
        from repro.mapping.ftmap import FTMapConfig, dock_probe

        cfg = FTMapConfig(
            probe_names=("ethanol",),
            num_rotations=3,
            receptor_grid=32,
            probe_grid=4,
            grid_spacing=1.25,
            engine="batched-fft",
        )
        run = dock_probe(small_protein, ethanol, cfg, cache=CacheManager(policy="off"))
        assert run.backend == "batched-fft"

    def test_unknown_backend_rejected(self, small_protein, ethanol, cfg):
        with pytest.raises(ValueError, match="unknown backend"):
            DockingEngine(small_protein, ethanol, cfg, backend="fpga")

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
            engine="batched-fft",
        )
        with FTMapService() as service:
            result = service.map(small_protein, cfg).result
        assert "ethanol" in result.probe_results
        assert result.probe_results["ethanol"].docked_poses
