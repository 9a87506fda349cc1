"""Integration: the end-to-end GPU docking path vs the serial PIPER."""

import numpy as np
import pytest

from repro.docking import PiperConfig, PiperDocker
from repro.gpu.docking_pipeline import GpuPiperDocker


@pytest.fixture(scope="module")
def cfg():
    return PiperConfig(
        num_rotations=6, receptor_grid=32, probe_grid=4, grid_spacing=1.25
    )


@pytest.fixture(scope="module")
def gpu_run(small_protein, ethanol, cfg):
    docker = GpuPiperDocker(small_protein, ethanol, cfg)
    return docker, docker.run()


class TestGpuPiperDocker:
    def test_poses_identical_to_serial(self, small_protein, ethanol, cfg, gpu_run):
        _, run = gpu_run
        serial = PiperDocker(small_protein, ethanol, cfg).run()
        assert len(run.poses) == len(serial)
        for a, b in zip(run.poses, serial):
            assert a.translation == b.translation
            assert a.rotation_index == b.rotation_index
            assert a.score == pytest.approx(b.score, rel=1e-6)

    def test_batching_used(self, gpu_run):
        docker, run = gpu_run
        assert run.batch_size >= 2
        assert run.batches == -(-6 // run.batch_size)

    def test_device_time_positive_and_ledgered(self, gpu_run):
        docker, run = gpu_run
        assert run.predicted_device_time_s > 0
        # The device recorded every kernel: correlations + per-rotation filters.
        assert len(docker.device.launches) == run.batches + 6

    def test_transforms_usable(self, small_protein, ethanol, gpu_run):
        from repro.geometry.transforms import centered

        _, run = gpu_run
        best = run.poses[0]
        coords = best.transform.apply(centered(ethanol.coords))
        d = np.linalg.norm(small_protein.coords - coords.mean(axis=0), axis=1)
        assert d.min() < 5.0  # docked onto the surface

    def test_partial_run(self, small_protein, ethanol, cfg):
        """A rotation subset docks to the host docker's poses for it."""
        run = GpuPiperDocker(small_protein, ethanol, cfg).run([1, 3])
        serial = PiperDocker(small_protein, ethanol, cfg).run([1, 3])
        assert {p.rotation_index for p in run.poses} == {1, 3}
        assert [(p.rotation_index, p.translation) for p in run.poses] == [
            (p.rotation_index, p.translation) for p in serial
        ]

    def test_batch_capped_by_constant_memory(self, small_protein, ethanol, cfg):
        """An explicit batch runs as given below the constant-memory cap;
        the default is the cap (32 rotations on the C1060 here)."""
        from dataclasses import replace

        assert GpuPiperDocker(small_protein, ethanol, cfg).batch_size == 32
        explicit = GpuPiperDocker(small_protein, ethanol, replace(cfg, batch_size=2))
        assert explicit.batch_size == 2
        assert explicit.run().batch_size == 2

    def test_probe_too_big_rejected(self, small_protein, benzene):
        big_cfg = PiperConfig(
            num_rotations=2, receptor_grid=32, probe_grid=16, grid_spacing=1.25,
            n_desolvation_terms=18,
        )
        with pytest.raises(MemoryError):
            GpuPiperDocker(small_protein, benzene, big_cfg)
