"""Certified fp32 docking: fp32 proposal, fp64 rescoring, the same poses bit for bit.

The reference everywhere is the fp64 path: ``DirectCorrelationEngine.correlate``
plus ``filter_top_poses`` per rotation, sorted by score as ``PiperDocker.run``
sorts.  Scores are compared by their hex form, so even the sign of a zero
counts.
"""

import math

import numpy as np
import pytest

from repro import FTMapConfig, FTMapService, build_probe, synthetic_protein
from repro.cache.manager import CacheManager
from repro.docking import DockingEngine, PiperConfig, PiperDocker
from repro.docking.correlation import valid_translation_shape
from repro.docking.direct import DirectCorrelationEngine
from repro.docking.filtering import (
    MAX_CANDIDATES,
    FilteredPose,
    certified_top_poses,
    filter_top_poses,
)
from repro.geometry.rotations import is_rotation_matrix, random_rotation_matrix
from repro.grids.energyfunctions import EnergyGrids
from repro.obs.metrics import registry
from repro.obs.trace import Tracer

PROBES = ("ethanol", "acetone", "benzene", "isopropanol")
#: Rotations of the perfbench map-cold and dock-scan requests (the other
#: docking settings are the FTMapConfig defaults: 48^3 receptor, 4^3 probe).
SHAPES = {"map-cold": 24, "dock-scan": 72}


@pytest.fixture
def rng():
    return np.random.default_rng(20261020)


def _counter(name: str) -> float:
    return registry().counter(name, ("backend",)).value(backend="direct")


def _rescored() -> float:
    return _counter("repro_dock_rescored_translations_total")


def _fallbacks() -> float:
    return _counter("repro_dock_certify_fallbacks_total")


def _fp64_poses(docker: PiperDocker):
    cfg = docker.config
    found = []
    for ri in range(len(docker.rotations)):
        scores = docker.engine.correlate(docker.receptor_grids, docker.grid_rotation(ri))
        kept = filter_top_poses(scores, cfg.poses_per_rotation, cfg.exclusion_radius)
        found.extend((f.score, ri, f.translation) for f in kept)
    found.sort(key=lambda item: item[0])
    return [(score.hex(), ri, t) for score, ri, t in found]


def _run_poses(poses):
    return [(p.score.hex(), p.rotation_index, p.translation) for p in poses]


# -- the docking loop ---------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_certified_run_equals_fp64_path(shape, seed):
    receptor = synthetic_protein(n_residues=40, seed=seed)
    cfg = FTMapConfig(num_rotations=SHAPES[shape]).piper_config()
    before = _fallbacks()
    for name in PROBES:
        docker = PiperDocker(receptor, build_probe(name), cfg)
        assert _run_poses(docker.run()) == _fp64_poses(docker), name
    # The certificate held on every rotation: the fp64 path never ran.
    assert _fallbacks() == before


def test_all_zero_receptor_falls_back(small_protein, ethanol):
    cfg = PiperConfig(num_rotations=3, receptor_grid=32, probe_grid=4, grid_spacing=1.25)
    docker = PiperDocker(small_protein, ethanol, cfg)
    rec = docker.receptor_grids
    docker.receptor_grids = EnergyGrids(
        rec.spec, np.zeros_like(rec.channels), rec.weights, list(rec.labels)
    )
    lig = docker.grid_rotation(0)
    proposal, eps = docker.engine.propose(docker.receptor_grids, lig)
    assert eps == 0.0
    kept, _ = certified_top_poses(
        proposal, eps, lambda t: docker.engine.rescore(docker.receptor_grids, lig, t),
        cfg.poses_per_rotation, cfg.exclusion_radius,
    )
    assert kept is None
    before = _fallbacks()
    poses = docker.run()
    assert _fallbacks() - before == cfg.num_rotations
    assert _run_poses(poses) == _fp64_poses(docker)


def test_non_finite_receptor_falls_back(small_protein, ethanol):
    cfg = PiperConfig(num_rotations=2, receptor_grid=32, probe_grid=4, grid_spacing=1.25)
    docker = PiperDocker(small_protein, ethanol, cfg)
    rec = docker.receptor_grids
    channels = rec.channels.copy()
    channels[0, 0, 0, 0] = np.inf
    docker.receptor_grids = EnergyGrids(rec.spec, channels, rec.weights, list(rec.labels))
    _, eps = docker.engine.propose(docker.receptor_grids, docker.grid_rotation(0))
    assert not math.isfinite(eps)
    before = _fallbacks()
    poses = docker.run()
    assert _fallbacks() - before == cfg.num_rotations
    assert _run_poses(poses) == _fp64_poses(docker)


def test_docking_engine_direct_runs_certified(small_protein, ethanol):
    cfg = PiperConfig(num_rotations=4, receptor_grid=32, probe_grid=4, grid_spacing=1.25)
    before = _rescored()
    run = DockingEngine(small_protein, ethanol, cfg, backend="direct").run_detailed()
    assert _rescored() > before
    reference = PiperDocker(small_protein, ethanol, cfg)
    assert _run_poses(run.poses) == _fp64_poses(reference)


# -- the engine's two precisions ------------------------------------------------------


def _correlate_v6(receptor: EnergyGrids, ligand: EnergyGrids) -> np.ndarray:
    """``DirectCorrelationEngine.correlate`` (skip_zero_voxels=True) as of 6.1.0."""
    tshape = valid_translation_shape(receptor.channels.shape[1:], ligand.channels.shape[1:])
    t1, t2, t3 = tshape
    weights = receptor.weights * ligand.weights
    out = np.zeros(tshape, dtype=np.float64)
    for c in range(receptor.n_channels):
        w = weights[c]
        if w == 0.0:
            continue
        rec, lig = receptor.channels[c], ligand.channels[c]
        corr = np.zeros(tshape, dtype=np.float64)
        term = np.empty_like(corr)
        for (dx, dy, dz), v in zip(np.argwhere(lig != 0), lig[lig != 0].astype(np.float64)):
            np.multiply(rec[dx : dx + t1, dy : dy + t2, dz : dz + t3], v, out=term, dtype=np.float64)
            corr += term
        out += w * corr
    return out


def _random_grids(rng, n, shape=None, sparsity=0.0):
    shape = shape or (n, n, n)
    channels = rng.normal(size=(3,) + shape).astype(np.float32)
    channels[rng.random(channels.shape) < sparsity] = 0.0
    return channels


class TestEnginePrecisions:
    @pytest.fixture
    def grids(self, rng, receptor_grids_32):
        spec = receptor_grids_32.spec
        rec = EnergyGrids(spec, _random_grids(rng, 10, (10, 9, 8)), [1.5, -0.25, 0.0], list("abc"))
        lig = EnergyGrids(spec, _random_grids(rng, 3, (3, 2, 3), 0.5), [1.0, 1.0, 1.0], list("abc"))
        return rec, lig

    def test_correlate_bits_unchanged(self, grids, receptor_grids_32, ethanol_grids_4):
        engine = DirectCorrelationEngine()
        for rec, lig in (grids, (receptor_grids_32, ethanol_grids_4)):
            assert engine.correlate(rec, lig).tobytes() == _correlate_v6(rec, lig).tobytes()

    def test_rescore_has_correlate_bits(self, grids, receptor_grids_32, ethanol_grids_4):
        engine = DirectCorrelationEngine()
        for rec, lig in (grids, (receptor_grids_32, ethanol_grids_4)):
            full = engine.correlate(rec, lig)
            every = np.argwhere(np.ones(full.shape, dtype=bool))
            got = engine.rescore(rec, lig, every)
            assert got.tobytes() == full.reshape(-1).tobytes()
            assert engine.rescore(rec, lig, np.zeros((0, 3), dtype=int)).shape == (0,)

    def test_proposal_within_bound(self, grids, receptor_grids_32, ethanol_grids_4):
        engine = DirectCorrelationEngine()
        for rec, lig in (grids, (receptor_grids_32, ethanol_grids_4)):
            proposal, eps = engine.propose(rec, lig)
            assert proposal.dtype == np.float32
            full = engine.correlate(rec, lig)
            assert proposal.shape == full.shape
            assert 0.0 < eps < math.inf
            assert np.abs(proposal.astype(np.float64) - full).max() <= eps
            # eps is (gamma32(n+C+2) + gamma64(n+C+2)) * sum |w v| max|R|, up
            # to the 2^-20 slack for the rounding of its own arithmetic.
            weights = rec.weights * lig.weights
            total = n = 0
            for c in range(rec.n_channels):
                v = lig.channels[c][lig.channels[c] != 0].astype(np.float64)
                if weights[c] != 0.0:
                    total += np.abs(weights[c] * v).sum() * np.abs(rec.channels[c]).max()
                    n += len(v)
            m = n + rec.n_channels + 2
            gamma = sum(m * u / (1 - m * u) for u in (2.0**-24, 2.0**-53))
            assert gamma * total <= eps <= gamma * total * (1 + 2.0**-19)

    def test_underflowing_terms_void_the_bound(self, grids):
        rec, lig = grids
        channels = rec.channels.copy()
        channels[0, 4, 4, 4] = 1e-39  # subnormal in fp32: its products underflow
        tiny = EnergyGrids(rec.spec, channels, rec.weights, rec.labels)
        _, eps = DirectCorrelationEngine().propose(tiny, lig)
        assert eps == math.inf


# -- selection ---------------------------------------------------------------------


def _tied_grid(rng, shape):
    """Coarse integer-valued scores (many exact ties), minima on the faces."""
    grid = rng.integers(-6, 6, size=shape).astype(np.float64)
    grid[0, rng.integers(shape[1]), rng.integers(shape[2])] = -9.0
    grid[-1, -1, rng.integers(shape[2])] = -9.0
    grid[rng.integers(shape[0]), 0, -1] = -8.0
    return grid


class TestCertifiedSelection:
    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_equals_fp64_greedy_with_ties(self, rng, r):
        accepted = 0
        for _ in range(20):
            shape = tuple(int(v) for v in rng.integers(5, 14, size=3))
            exact = _tied_grid(rng, shape)
            eps = 0.25
            noise = rng.uniform(-0.5 * eps, 0.5 * eps, size=shape)
            proposal = (exact + noise).astype(np.float32)
            k = int(rng.integers(1, 6))

            def rescore(t, exact=exact):
                return exact[t[:, 0], t[:, 1], t[:, 2]]

            kept, rescored = certified_top_poses(proposal, eps, rescore, k, r)
            if kept is not None:
                accepted += 1
                assert kept == filter_top_poses(exact, k, r)
                assert 1 <= rescored <= MAX_CANDIDATES
        assert accepted >= 15

    def test_non_finite_eps_fails(self, rng):
        grid = rng.normal(size=(6, 6, 6))
        assert certified_top_poses(grid, math.inf, None, 2, 1) == (None, 0)
        assert certified_top_poses(grid, math.nan, None, 2, 1) == (None, 0)

    def test_exhausted_grid_fails(self):
        grid = np.zeros((3, 3, 3), dtype=np.float32)
        grid[1, 1, 1] = -1.0
        kept, _ = certified_top_poses(grid, 1e-3, lambda t: grid[tuple(t.T)], 2, 3)
        assert kept is None

    def test_last_pick_too_close_to_threshold_fails(self):
        # The rescored values disagree with the proposal by more than eps:
        # the certificate must not accept the candidate greedy.
        proposal = np.zeros((5, 5, 5), dtype=np.float32)
        proposal[0, 0, 0] = -1.0
        kept, rescored = certified_top_poses(
            proposal, 0.01, lambda t: np.full(len(t), 5.0), 1, 1
        )
        assert kept is None and rescored == 1

    def test_candidate_picks_are_filtered_poses(self, rng):
        exact = rng.normal(size=(8, 8, 8))
        kept, _ = certified_top_poses(
            exact.astype(np.float32), 1e-5, lambda t: exact[tuple(t.T)], 3, 2
        )
        assert all(isinstance(p, FilteredPose) for p in kept)
        assert all(isinstance(v, int) for p in kept for v in p.translation)
        assert kept == filter_top_poses(exact, 3, 2)


def _filter_top_poses_v6(score_grid, k, exclusion_radius):
    """``filter_top_poses`` as of 6.1.0: the whole exclusion mask every pass."""
    grid = np.asarray(score_grid, dtype=float)
    t = grid.shape
    excluded = np.zeros(t, dtype=bool)
    poses = []
    work = grid.copy()
    for _ in range(k):
        work[excluded] = np.inf
        flat_idx = int(np.argmin(work))
        best = float(work.reshape(-1)[flat_idx])
        if not np.isfinite(best):
            break
        a, b, c = np.unravel_index(flat_idx, t)
        poses.append(FilteredPose(translation=(int(a), int(b), int(c)), score=best))
        r = exclusion_radius
        excluded[max(0, a - r) : a + r + 1, max(0, b - r) : b + r + 1, max(0, c - r) : c + r + 1] = True
    return poses


class TestFilterMatchesPreviousImplementation:
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_random_tied_grids(self, rng, r):
        for _ in range(25):
            shape = tuple(int(v) for v in rng.integers(2, 12, size=3))
            grid = _tied_grid(rng, shape) if min(shape) > 1 else rng.normal(size=shape)
            for k in (0, 1, 4, 9):
                assert filter_top_poses(grid, k, r) == _filter_top_poses_v6(grid, k, r)

    def test_non_finite_values(self, rng):
        grid = rng.normal(size=(6, 7, 5))
        grid[2, 3, 1] = np.nan
        grid[0, 0, 0] = np.inf
        grid[5, 6, 4] = -np.inf
        for k in (1, 3):
            assert filter_top_poses(grid, k, 1) == _filter_top_poses_v6(grid, k, 1)

    def test_constant_grid_edges(self):
        grid = np.ones((7, 5, 6))
        for r in (0, 1, 2, 4):
            assert filter_top_poses(grid, 12, r) == _filter_top_poses_v6(grid, 12, r)


# -- rotation validation ----------------------------------------------------------------


def _is_rotation_v6(R, atol=1e-8):
    """``is_rotation_matrix`` as of 6.1.0."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        return False
    if not np.allclose(R @ R.T, np.eye(3), atol=atol):
        return False
    return bool(abs(np.linalg.det(R) - 1.0) <= atol)


class TestRotationPredicate:
    def _agree(self, R, atol, expected=None):
        new = is_rotation_matrix(R, atol=atol)
        assert new == _is_rotation_v6(R, atol=atol)
        if expected is not None:
            assert new is expected

    @pytest.mark.parametrize("atol", [1e-8, 1e-6])
    def test_rotations_and_reflections(self, rng, atol):
        for _ in range(50):
            R = random_rotation_matrix(rng)
            self._agree(R, atol, True)
            self._agree(-R, atol, False)
            self._agree(R @ np.diag([1.0, 1.0, -1.0]), atol, False)
        self._agree(np.eye(3), atol, True)
        self._agree(np.zeros((3, 3)), atol, False)
        self._agree(np.eye(4), atol, False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, rng, bad):
        for i in range(3):
            for j in range(3):
                R = random_rotation_matrix(rng)
                R[i, j] = bad
                self._agree(R, 1e-6, False)
        self._agree(np.full((3, 3), bad), 1e-6, False)

    @pytest.mark.parametrize("atol", [1e-8, 1e-6, 1e-4])
    @pytest.mark.parametrize("side", [0.99, 1.01])
    def test_tolerance_boundaries(self, rng, atol, side):
        inside = side < 1.0
        R = random_rotation_matrix(rng)
        # Off-diagonal of R·Rᵀ at atol (det stays 1): a shear.
        shear = np.eye(3)
        shear[0, 1] = atol * side
        self._agree(shear @ R, atol, inside)
        # Diagonal of R·Rᵀ at atol + 1e-5 (det stays 1): opposite stretches.
        d = math.sqrt(1.0 + (atol + 1e-5) * side) - 1.0
        self._agree(np.diag([1.0 + d, 1.0 / (1.0 + d), 1.0]) @ R, atol, inside)
        # Determinant at 1 + atol (R·Rᵀ stays within its tolerance).
        self._agree(R * (1.0 + atol * side) ** (1.0 / 3.0), atol, inside)


# -- observability ------------------------------------------------------------------


def test_dock_span_and_counters_record_certification():
    cfg = FTMapConfig(
        probe_names=("ethanol",),
        num_rotations=4,
        receptor_grid=24,
        minimize_top=1,
        minimizer_iterations=1,
        tracing=True,
    )
    rescored, fallbacks = _rescored(), _fallbacks()
    with FTMapService(cache=CacheManager(policy="off")) as service:
        result = service.map(synthetic_protein(n_residues=30, seed=3), config=cfg,
                             streaming="sequential")
    dock = [s for s in result.trace["spans"] if s["name"] == "dock"]
    assert len(dock) == 1
    attrs = dock[0]["attributes"]
    assert attrs["fallbacks"] == 0
    assert attrs["rescored"] >= cfg.num_rotations * 2
    assert _rescored() - rescored == attrs["rescored"]
    assert _fallbacks() == fallbacks


def test_tracer_span_outside_service(small_protein, ethanol):
    cfg = PiperConfig(num_rotations=2, receptor_grid=32, probe_grid=4, grid_spacing=1.25)
    tracer = Tracer()
    with tracer.span("dock") as span:
        PiperDocker(small_protein, ethanol, cfg).run()
    assert span.attributes["fallbacks"] == 0
    assert span.attributes["rescored"] > 0
