"""Tests for fractional Gaussian noise generation."""

import numpy as np
import pytest

from lmsvtest import fgn
from lmsvtest.dist import RngStream


def complex_hermitian_paths(params, normals):
    """Davies-Harte on the full complex spectrum: the reference construction.

    Row b of `normals` becomes a Hermitian-symmetric complex vector (real
    endpoints 0 and m, interior (re + i im) / sqrt(2) mirrored by its
    conjugate), scaled by sqrt(eigenvalues); the paths are the real part of
    its forward FFT over sqrt(2m).
    """
    eig = fgn.embedding_eigenvalues(params.n, params.hurst)
    m2 = eig.size
    m = m2 // 2
    z = np.empty(normals.shape, dtype=complex)
    z[:, 0] = normals[:, 0]
    z[:, m] = normals[:, m]
    half = (normals[:, 1:m] + 1j * normals[:, m + 1:]) / np.sqrt(2.0)
    z[:, 1:m] = half
    z[:, m + 1:] = np.conj(half[:, ::-1])
    return np.fft.fft(np.sqrt(eig) * z, axis=1)[:, :params.n].real / np.sqrt(m2)


class TestAutocovariance:
    def test_white_noise_case(self):
        assert fgn.autocovariance(0.5, 3) == pytest.approx(0.0, abs=1e-15)

    def test_unit_variance_at_lag_zero(self):
        for hurst in (0.55, 0.6, 0.7, 0.8, 0.9):
            assert fgn.autocovariance(hurst, 0) == pytest.approx(1.0)

    def test_lag_one_closed_form(self):
        # (2^(2H) - 2) / 2 at k = 1; 0.74110 for H = 0.9.
        assert fgn.autocovariance(0.9, 1) == pytest.approx(0.7411011, abs=5e-7)

    def test_vectorized_lags(self):
        lags = np.arange(6)
        vals = fgn.autocovariance(0.8, lags)
        assert vals.shape == (6,)
        assert np.all(np.diff(vals[1:]) < 0)


class TestSampling:
    def test_reproducible(self):
        p = fgn.FgnParams(0.7, 257)
        a = fgn.sample(p, RngStream(1, 2))
        b = fgn.sample(p, RngStream(1, 2))
        assert np.array_equal(a, b)

    def test_white_noise_uncorrelated(self):
        n = 4096
        y = fgn.sample(fgn.FgnParams(0.5, n), RngStream(10))
        lag1 = np.corrcoef(y[:-1], y[1:])[0, 1]
        assert abs(lag1) < 3 / np.sqrt(n)

    def test_autocovariance_matches_closed_form(self):
        # 200 replications at n = 4096: ensemble-mean sample autocovariances
        # at lags 1..5 within 3 standard errors of the exact values. The
        # process has known zero mean, so the estimator does not demean
        # (sample-mean centering is badly biased under long-range dependence).
        n, reps = 4096, 200
        paths = fgn.sample(fgn.FgnParams(0.8, n), RngStream(11), size=reps)
        for lag in range(1, 6):
            per_path = np.sum(paths[:, : n - lag] * paths[:, lag:], axis=1) / (n - lag)
            se = per_path.std(ddof=1) / np.sqrt(reps)
            assert abs(per_path.mean() - fgn.autocovariance(0.8, lag)) < 3 * se

    def test_small_n_ensemble_covariance(self):
        # Full 8x8 covariance of many replications against the Toeplitz target.
        n, reps = 8, 100_000
        paths = fgn.sample(fgn.FgnParams(0.7, n), RngStream(12), size=reps)
        emp = np.cov(paths, rowvar=False)
        idx = np.arange(n)
        target = fgn.autocovariance(0.7, np.abs(idx[:, None] - idx[None, :]))
        assert np.max(np.abs(emp - target)) < 0.02

    def test_marginal_is_standard_normal(self):
        from scipy import stats as spstats

        pooled = fgn.sample(fgn.FgnParams(0.9, 1000), RngStream(13), size=100).ravel()
        assert abs(spstats.skew(pooled)) < 0.05
        assert abs(spstats.kurtosis(pooled, fisher=False) - 3.0) < 0.1

    def test_partial_sum_variance_growth(self):
        # Var(sum of first n values) must grow like n^(2H).
        hurst, reps = 0.8, 400
        paths = fgn.sample(fgn.FgnParams(hurst, 4096), RngStream(14), size=reps)
        sizes = np.array([256, 1024, 4096])
        variances = [np.var(paths[:, :m].sum(axis=1), ddof=1) for m in sizes]
        slope = np.polyfit(np.log(sizes), np.log(variances), 1)[0]
        assert abs(slope - 2 * hurst) < 0.1

    def test_batch_shape(self):
        paths = fgn.sample(fgn.FgnParams(0.6, 100), RngStream(15), size=7)
        assert paths.shape == (7, 100)

    def test_sample_is_paths_from_normals_of_its_stream(self):
        params = fgn.FgnParams(0.75, 300)
        normals = RngStream(16).generator().standard_normal((5, fgn.embedding_size(300)))
        assert np.array_equal(fgn.sample(params, RngStream(16), size=5),
                              fgn.paths_from_normals(params, normals))
        assert np.array_equal(fgn.sample(params, RngStream(16)),
                              fgn.paths_from_normals(params, normals[:1])[0])

    def test_paths_do_not_depend_on_batch_neighbours(self):
        params = fgn.FgnParams(0.85, 1000)
        normals = RngStream(17).generator().standard_normal((9, fgn.embedding_size(1000)))
        together = fgn.paths_from_normals(params, normals)
        for row in range(9):
            alone = fgn.paths_from_normals(params, normals[row:row + 1])
            assert np.array_equal(together[row], alone[0])

    @pytest.mark.parametrize("hurst", [0.5, 0.8])
    @pytest.mark.parametrize("n", [2, 3, 500, 2048])
    def test_real_fft_matches_complex_hermitian_construction(self, n, hurst):
        # n = 2 embeds in 2m = 2, where the interior 1..m-1 is empty.
        params = fgn.FgnParams(hurst, n)
        normals = RngStream(19).generator().standard_normal((16, fgn.embedding_size(n)))
        fast = fgn.paths_from_normals(params, normals)
        assert fast.shape == (16, n)
        assert np.max(np.abs(fast - complex_hermitian_paths(params, normals))) < 1e-12

    def test_eigenvalues_cached_and_read_only(self):
        eig = fgn.embedding_eigenvalues(300, 0.65)
        assert fgn.embedding_eigenvalues(300, 0.65) is eig
        assert eig.size == fgn.embedding_size(300) == 1024
        with pytest.raises(ValueError):
            eig[0] = 0.0

    def test_single_observation(self):
        assert fgn.sample(fgn.FgnParams(0.7, 1), RngStream(18)).shape == (1,)
        assert fgn.sample(fgn.FgnParams(0.7, 1), RngStream(18), size=3).shape == (3, 1)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            fgn.FgnParams(1.0, 10)
        with pytest.raises(ValueError):
            fgn.FgnParams(0.7, 0)

    def test_memory_parameter(self):
        assert fgn.FgnParams(0.8, 2).memory_parameter == pytest.approx(0.4)

    def test_embedding_error_on_invalid_covariance(self, monkeypatch):
        # A covariance sequence that is not embeddable must fail loudly
        # instead of silently truncating eigenvalues.
        def fake_autocov(hurst, lags):
            k = np.asarray(lags, dtype=float)
            return np.where(k == 0, 1.0, -0.9)

        monkeypatch.setattr(fgn, "autocovariance", fake_autocov)
        with pytest.raises(fgn.EmbeddingError):
            fgn._embedding_eigenvalues(64, 0.7)
