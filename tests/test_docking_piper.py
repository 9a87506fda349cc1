"""Tests for the PIPER rotation-loop driver."""

import numpy as np
import pytest

from repro.docking import PiperConfig, PiperDocker
from repro.docking.fft import FFTCorrelationEngine
from repro.docking.filtering import filter_top_poses


class TestPiperConfig:
    def test_paper_defaults(self):
        cfg = PiperConfig()
        assert cfg.num_rotations == 500
        assert cfg.poses_per_rotation == 4
        assert cfg.receptor_grid == 128
        assert cfg.probe_grid == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            PiperConfig(num_rotations=0)
        with pytest.raises(ValueError):
            PiperConfig(poses_per_rotation=0)
        # The backend is DockingEngine(backend=...), not part of the workload.
        with pytest.raises(TypeError):
            PiperConfig(engine="direct")


class TestPiperDocker:
    def test_pose_count(self, small_docker):
        poses = small_docker.run()
        cfg = small_docker.config
        assert len(poses) == cfg.num_rotations * cfg.poses_per_rotation

    def test_poses_sorted_by_energy(self, small_docker):
        poses = small_docker.run()
        scores = [p.score for p in poses]
        assert scores == sorted(scores)

    def test_rotation_indices_recorded(self, small_docker):
        poses = small_docker.poses_for_rotation(2)
        assert all(p.rotation_index == 2 for p in poses)

    def test_partial_run(self, small_docker):
        poses = small_docker.run(rotation_indices=[0, 3])
        assert {p.rotation_index for p in poses} == {0, 3}

    def test_engines_agree_on_best_pose(self, small_protein, ethanol):
        """The per-rotation FFT reference kernel, filtered like the fp64
        loop, keeps the poses that the certified direct run keeps."""
        cfg = PiperConfig(num_rotations=4, receptor_grid=32, probe_grid=4, grid_spacing=1.25)
        docker = PiperDocker(small_protein, ethanol, cfg)
        fft = FFTCorrelationEngine()
        reference = []
        for ri in range(cfg.num_rotations):
            scores = fft.correlate(docker.receptor_grids, docker.grid_rotation(ri))
            kept = filter_top_poses(scores, cfg.poses_per_rotation, cfg.exclusion_radius)
            reference.extend((f.score, ri, f.translation) for f in kept)
        reference.sort()
        poses = docker.run()
        assert len(poses) == len(reference)
        for (score, ri, translation), pose in zip(reference, poses):
            assert (pose.rotation_index, pose.translation) == (ri, translation)
            assert pose.score == pytest.approx(score, rel=1e-4)

    def test_transform_places_probe_on_grid(self, small_docker):
        """The pose transform must map the probe to the receptor-grid region
        implied by its voxel translation."""
        pose = small_docker.run()[0]
        coords = small_docker.docked_probe_coords(pose)
        spec = small_docker.receptor_spec
        v = spec.world_to_voxel(coords.mean(axis=0))
        a = np.asarray(pose.translation, dtype=float)
        # Probe is centered in its own m^3 grid; its center lands within the
        # m-voxel window starting at the translation.
        m = small_docker.config.probe_grid
        assert np.all(v >= a - 1.0)
        assert np.all(v <= a + m + 1.0)

    def test_best_poses_avoid_deep_clash(self, small_docker, small_protein):
        """Top poses should not bury the probe in the protein core: their
        shape-clash contribution must not dominate (score is negative)."""
        best = small_docker.run()[0]
        assert best.score < 0

    def test_best_pose_on_protein_surface(self, small_docker, small_protein):
        """The best pose must hug the protein (within ~4 A of some atom)
        without deep burial — i.e. a genuine surface placement."""
        best = small_docker.run()[0]
        coords = small_docker.docked_probe_coords(best)
        center = coords.mean(axis=0)
        d_atoms = np.linalg.norm(small_protein.coords - center, axis=1)
        assert d_atoms.min() < 5.0  # touching the surface, not off in solvent

    def test_probe_must_fit_grid(self, small_protein, benzene):
        with pytest.raises(ValueError, match="does not fit"):
            PiperDocker(
                small_protein,
                benzene,
                PiperConfig(num_rotations=2, receptor_grid=32, probe_grid=2, grid_spacing=0.5),
            )

    def test_score_rotation_grid_shape(self, small_docker):
        scores = small_docker.score_rotation(0)
        t = 32 - 4 + 1
        assert scores.shape == (t, t, t)
