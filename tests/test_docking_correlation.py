"""Tests for the correlation engines — the FFT == direct invariant."""

import numpy as np
import pytest

from repro.docking.correlation import valid_translations
from repro.docking.direct import DirectCorrelationEngine
from repro.docking.fft import FFTCorrelationEngine
from repro.grids.energyfunctions import EnergyGrids
from repro.grids.gridding import GridSpec


def random_grids(rng, n, m, channels=3):
    rec = EnergyGrids(
        spec=GridSpec(n=n),
        channels=rng.normal(size=(channels, n, n, n)),
        weights=rng.normal(size=channels),
        labels=[f"c{k}" for k in range(channels)],
    )
    lig = EnergyGrids(
        spec=GridSpec(n=m),
        channels=rng.normal(size=(channels, m, m, m)),
        weights=np.ones(channels),
        labels=[f"c{k}" for k in range(channels)],
    )
    return rec, lig


class TestValidTranslations:
    def test_formula(self):
        assert valid_translations(128, 4) == 125

    def test_ligand_too_big(self):
        with pytest.raises(ValueError):
            valid_translations(4, 8)


class TestEngineEquivalence:
    @pytest.mark.parametrize("n,m", [(8, 2), (12, 4), (16, 5), (9, 3)])
    def test_fft_equals_direct_random(self, rng, n, m):
        rec, lig = random_grids(rng, n, m)
        direct = DirectCorrelationEngine().correlate(rec, lig)
        fft = FFTCorrelationEngine().correlate(rec, lig)
        scale = max(np.abs(direct).max(), 1.0)
        assert np.abs(direct - fft).max() / scale < 1e-10

    def test_fft_equals_direct_real_molecules(self, receptor_grids_32, ethanol_grids_4):
        direct = DirectCorrelationEngine().correlate(receptor_grids_32, ethanol_grids_4)
        fft = FFTCorrelationEngine().correlate(receptor_grids_32, ethanol_grids_4)
        scale = max(np.abs(direct).max(), 1.0)
        assert np.abs(direct - fft).max() / scale < 1e-6  # float32 channels

    def test_per_channel_paths_agree(self, rng):
        rec, lig = random_grids(rng, 10, 3)
        d = DirectCorrelationEngine().correlate_per_channel(rec, lig)
        f = FFTCorrelationEngine().correlate_per_channel(rec, lig)
        assert np.allclose(d, f, atol=1e-9)

    def test_weighted_sum_equals_per_channel_combination(self, rng):
        from repro.docking.scoring import combine_channel_scores

        rec, lig = random_grids(rng, 10, 3)
        eng = DirectCorrelationEngine()
        combined = eng.correlate(rec, lig)
        per = eng.correlate_per_channel(rec, lig)
        manual = combine_channel_scores(per, rec.weights * lig.weights)
        assert np.allclose(combined, manual, atol=1e-9)


class TestDirectEngine:
    def test_known_small_case(self):
        """Hand-checkable 1-channel case: delta ligand picks out receptor."""
        n, m = 4, 1
        rec_data = np.arange(n**3, dtype=float).reshape(1, n, n, n)
        rec = EnergyGrids(GridSpec(n=n), rec_data, np.ones(1), ["x"])
        lig = EnergyGrids(GridSpec(n=m), np.ones((1, 1, 1, 1)), np.ones(1), ["x"])
        out = DirectCorrelationEngine().correlate(rec, lig)
        assert np.allclose(out, rec_data[0])

    def test_zero_weight_channel_skipped(self, rng):
        rec, lig = random_grids(rng, 8, 2, channels=2)
        rec.weights[:] = [0.0, 1.0]
        out = DirectCorrelationEngine().correlate(rec, lig)
        per = DirectCorrelationEngine().correlate_per_channel(rec, lig)
        assert np.allclose(out, per[1], atol=1e-9)

    def test_dense_equals_sparse_iteration(self, rng):
        rec, lig = random_grids(rng, 8, 3)
        lig.channels[:, 0, :, :] = 0.0  # create zeros to skip
        sparse = DirectCorrelationEngine(skip_zero_voxels=True).correlate(rec, lig)
        dense = DirectCorrelationEngine(skip_zero_voxels=False).correlate(rec, lig)
        assert np.allclose(sparse, dense, atol=1e-9)

    def test_channel_mismatch_rejected(self, rng):
        rec, _ = random_grids(rng, 8, 2, channels=3)
        _, lig = random_grids(rng, 8, 2, channels=2)
        with pytest.raises(ValueError, match="channel mismatch"):
            DirectCorrelationEngine().correlate(rec, lig)

    def test_matches_per_voxel_loop_bitwise(self):
        """The buffered accumulation adds exactly the terms of the plain
        loop ``out += v * rec64[window]``, in the same order."""
        local = np.random.default_rng(21)
        rec, lig = random_grids(local, 12, 4)
        lig.channels[lig.channels < 0.3] = 0.0   # sparse, like probe grids
        t = 12 - 4 + 1
        ref = np.zeros((t, t, t))
        weights = rec.weights * lig.weights
        for c in range(rec.n_channels):
            r64 = rec.channels[c].astype(np.float64)
            l_c = lig.channels[c]
            corr = np.zeros((t, t, t))
            for (dx, dy, dz), v in zip(
                np.argwhere(l_c != 0), l_c[l_c != 0].astype(np.float64)
            ):
                corr += v * r64[dx : dx + t, dy : dy + t, dz : dz + t]
            ref += weights[c] * corr
        got = DirectCorrelationEngine().correlate(rec, lig)
        np.testing.assert_array_equal(got, ref)


class TestFFTEngine:
    def test_receptor_cache_reused(self, rng, monkeypatch):
        """The engine transforms a receptor once and reuses its spectra for
        later rotations; a different receptor object, even one with equal
        content, is transformed anew (identity, not a recyclable id())."""
        import repro.docking.fft as fft_module

        rec, lig = random_grids(rng, 8, 2)
        transforms = []
        rfftn = fft_module.sp_fft.rfftn

        def counting_rfftn(x, *args, **kwargs):
            transforms.append(x.shape)
            return rfftn(x, *args, **kwargs)

        monkeypatch.setattr(fft_module.sp_fft, "rfftn", counting_rfftn)
        eng = FFTCorrelationEngine()
        first = eng.correlate(rec, lig)
        assert len(transforms) == 2                 # receptor + ligand
        np.testing.assert_array_equal(eng.correlate(rec, lig), first)
        assert len(transforms) == 3                 # the ligand only
        twin = EnergyGrids(rec.spec, rec.channels.copy(), rec.weights, rec.labels)
        np.testing.assert_array_equal(eng.correlate(twin, lig), first)
        assert len(transforms) == 5                 # receptor transformed again
