"""Tests for fractional Gaussian noise generation."""

import math
import tracemalloc

import numpy as np
import pytest

from lmsvtest import fgn, stats
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


def one_shot_paths(params, normals):
    """The half spectrum of every row assembled at once and inverted by one
    np.fft.irfft call: the layout before the rows were sliced."""
    re, im = fgn._half_spectrum_scales(params.n, params.hurst)
    m = re.size - 1
    half = np.zeros((len(normals), m + 1), dtype=complex)
    half.real = normals[:, :m + 1] * re
    half.imag[:, 1:m] = normals[:, m + 1:] * im
    return np.fft.irfft(half, n=2 * m, axis=1)[:, :params.n] * np.sqrt(2 * m)


class TestAutocovariance:
    def test_white_noise_case(self):
        assert fgn.autocovariance(0.5, 3) == pytest.approx(0.0, abs=1e-15)

    def test_unit_variance_at_lag_zero(self):
        for hurst in (0.55, 0.6, 0.7, 0.8, 0.9):
            assert fgn.autocovariance(hurst, 0) == pytest.approx(1.0)

    def test_lag_one_closed_form(self):
        # (2^(2H) - 2) / 2 at k = 1; 0.74110 for H = 0.9.
        assert fgn.autocovariance(0.9, 1) == pytest.approx(0.7411011, abs=5e-7)

    @pytest.mark.parametrize("hurst", [0.0, 1.0, math.nan])
    def test_refuses_a_hurst_index_outside_the_unit_interval(self, hurst):
        with pytest.raises(ValueError, match=r"Hurst index must lie in \(0, 1\)"):
            fgn.autocovariance(hurst, 3)

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
        assert fgn.sample(fgn.FgnParams(0.6, 100), RngStream(15), size=0).shape == (0, 100)

    def test_sample_is_paths_from_normals_of_its_stream(self):
        params = fgn.FgnParams(0.75, 300)
        normals = RngStream(16).generator().standard_normal((5, fgn.embedding_size(300)))
        assert np.array_equal(fgn.sample(params, RngStream(16), size=5),
                              fgn.paths_from_normals(params, normals.copy()))
        assert np.array_equal(fgn.sample(params, RngStream(16)),
                              fgn.paths_from_normals(params, normals[:1])[0])

    def test_paths_do_not_depend_on_batch_neighbours(self):
        params = fgn.FgnParams(0.85, 1000)
        normals = RngStream(17).generator().standard_normal((9, fgn.embedding_size(1000)))
        together = fgn.paths_from_normals(params, normals.copy())
        for row in range(9):
            alone = fgn.paths_from_normals(params, normals[row:row + 1])
            assert np.array_equal(together[row], alone[0])

    @pytest.mark.parametrize("n", [500, 2048])
    def test_sliced_spectrum_is_the_one_shot_transform_bitwise(self, n):
        # A slice holds 31 rows at n = 500 and 7 at n = 2048: a row block of
        # the kernels, with each complex coefficient as two doubles.
        params = fgn.FgnParams(0.7, n)
        m = fgn.embedding_size(n) // 2
        step = next(stats.row_blocks((64, 2 * (m + 1)))).stop
        assert step == {500: 31, 2048: 7}[n]
        for rows in (1, step - 1, step, step + 1, 64):
            normals = RngStream(21, rows).generator().standard_normal((rows, 2 * m))
            expected = one_shot_paths(params, normals)
            assert np.array_equal(fgn.paths_from_normals(params, normals), expected), rows

    @pytest.mark.parametrize("n", [2, 3, 500, 1000, 2000, 2048])
    def test_irfft_reads_only_the_real_parts_of_the_dc_and_nyquist_terms(self, n):
        # paths_from_normals leaves the imaginary parts of columns 0 and m as
        # np.empty gives them, so irfft must ignore whatever they hold, on
        # the slices it is called on: one row, a short last slice and a full
        # one, into rows of the normals.
        m = fgn.embedding_size(n) // 2
        step = next(stats.row_blocks((64, 2 * (m + 1)))).stop
        rng = RngStream(22, n).generator()
        for rows in (1, step - 1, step):
            half = rng.standard_normal((rows, m + 1)) + 1j * rng.standard_normal((rows, m + 1))
            half.imag[:, [0, m]] = 0.0
            expected = np.fft.irfft(half, n=2 * m, axis=1)
            for junk in (np.nan, np.inf, -1e300, 1.0):
                half.imag[:, [0, m]] = junk
                out = np.empty((rows, 2 * m))
                np.fft.irfft(half, n=2 * m, axis=1, out=out)
                assert np.array_equal(out, expected), (rows, junk)

    def test_spectrum_workspace_does_not_grow_with_the_batch(self):
        # Beyond its input, a call holds one slice of at most 7 rows of 2049
        # coefficients, with numpy's temporaries for that slice: a batch of
        # 64 or 512 rows peaks where one slice does, and one row below it.
        params, row_bytes = fgn.FgnParams(0.7, 2048), 2049 * np.dtype(complex).itemsize
        fgn.paths_from_normals(params, np.ones((7, 4096)))  # caches the spectrum scales
        peaks = {}
        for rows in (1, 7, 64, 512):
            normals = np.ones((rows, 4096))
            tracemalloc.start()
            try:
                fgn.paths_from_normals(params, normals)
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1] < 7 * row_bytes <= peaks[7], peaks
        assert max(peaks[64], peaks[512]) <= peaks[7] + 4096, peaks

    @pytest.mark.parametrize("hurst", [0.5, 0.8])
    @pytest.mark.parametrize("n", [2, 3, 500, 2048])
    def test_real_fft_matches_complex_hermitian_construction(self, n, hurst):
        # n = 2 embeds in 2m = 2, where the interior 1..m-1 is empty.
        params = fgn.FgnParams(hurst, n)
        normals = RngStream(19).generator().standard_normal((16, fgn.embedding_size(n)))
        fast = fgn.paths_from_normals(params, normals.copy())
        assert fast.shape == (16, n)
        assert np.max(np.abs(fast - complex_hermitian_paths(params, normals))) < 1e-12

    def test_reused_half_spectrum_holds_no_stale_values(self):
        # Each call fills a fresh spectrum array, whose imaginary parts at
        # the real columns 0 and m start undefined, over widths and heights
        # that differ from the call before.
        for n, rows in ((300, 9), (2048, 2), (2, 16), (300, 1)):
            params = fgn.FgnParams(0.7, n)
            m = fgn.embedding_size(n) // 2
            normals = RngStream(20, n).generator().standard_normal((rows, 2 * m))
            expected = complex_hermitian_paths(params, normals)
            assert np.max(np.abs(fgn.paths_from_normals(params, normals) - expected)) < 1e-12

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

    @pytest.mark.parametrize("hurst, n, error, match", [
        (0.7, 2.5, TypeError, "n must be an integer, got 2.5"),
        (0.7, True, TypeError, "n must be an integer, got True"),
        (math.nan, 10, ValueError, r"Hurst index must lie in \(0, 1\), got nan"),
    ], ids=["n-float", "n-bool", "hurst-nan"])
    def test_params_are_checked_by_the_shared_domains(self, hurst, n, error, match):
        # A float n failed later in numpy, and n = True ran as n = 1.
        with pytest.raises(error, match=match):
            fgn.FgnParams(hurst, n)

    def test_embedding_error_on_invalid_covariance(self, monkeypatch):
        # A covariance sequence that is not embeddable must fail loudly
        # instead of silently truncating eigenvalues.
        def fake_autocov(hurst, lags):
            k = np.asarray(lags, dtype=float)
            return np.where(k == 0, 1.0, -0.9)

        monkeypatch.setattr(fgn, "autocovariance", fake_autocov)
        with pytest.raises(fgn.EmbeddingError):
            fgn._embedding_eigenvalues(64, 0.7)
