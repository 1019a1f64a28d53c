"""Tests for LMSV path synthesis and change injection."""

import math

import numpy as np
import pytest

from lmsvtest.dist import CenteredPareto, Pareto, RngStream, StandardNormal
from lmsvtest.fgn import FgnParams
from lmsvtest.lmsv import (
    MeanShift,
    NoChange,
    SeriesSpec,
    TailShift,
    VarianceScale,
    change_point_index,
    simulate_batch,
    simulate_components,
    simulate_series,
    verify_breiman_tail,
)


def _spec(n=500, hurst=0.6, noise=StandardNormal(), change=NoChange()):
    return SeriesSpec(fgn=FgnParams(hurst, n), noise=noise, change=change)


class TestNullGeneration:
    def test_mean_zero_under_null(self):
        reps, n = 5000, 500
        means = np.array(
            [simulate_series(_spec(n=n), RngStream(20).substream(r)).mean() for r in range(0, reps, 25)]
        )
        se = means.std(ddof=1) / np.sqrt(means.size)
        assert abs(means.mean()) < 3 * se + 1e-12

    def test_reproducible(self):
        a = simulate_series(_spec(), RngStream(21, 5))
        b = simulate_series(_spec(), RngStream(21, 5))
        assert np.array_equal(a, b)

    def test_log_decomposition_is_pathwise_exact(self):
        y, eps, x = simulate_components(_spec(noise=Pareto(1.0)), RngStream(22))
        assert np.max(np.abs(np.log(np.abs(x)) - (y + np.log(np.abs(eps))))) < 1e-12

    def test_innovations_independent_of_latent_gaussian(self):
        # The leverage structure only allows dependence on the past.
        ys, epss = [], []
        for r in range(200):
            y, eps, _ = simulate_components(_spec(n=100), RngStream(23).substream(r))
            ys.append(y)
            epss.append(eps)
        y = np.concatenate(ys)
        eps = np.concatenate(epss)
        assert abs(np.corrcoef(y, eps)[0, 1]) < 3 / np.sqrt(y.size)


class TestChangeInjection:
    def test_mean_shift_exact(self):
        n, tau, h = 1000, 0.25, 1.0
        stream = RngStream(24)
        base = simulate_series(_spec(n=n), stream)
        shifted = simulate_series(_spec(n=n, change=MeanShift(h=h, tau=tau)), stream)
        cut = change_point_index(n, tau)
        assert cut == 250
        assert np.array_equal(base[:cut], shifted[:cut])
        assert np.array_equal(shifted[cut:], base[cut:] + h)

    def test_variance_scale_ratio(self):
        n, h = 2000, 2.0
        ratios = []
        for r in range(300):
            x = simulate_series(
                _spec(n=n, noise=CenteredPareto(6.0), change=VarianceScale(h=h, tau=0.5)),
                RngStream(25).substream(r),
            )
            ratios.append(np.var(x[n // 2:]) / np.var(x[: n // 2]))
        # Ensemble mean of the half-sample variance ratio concentrates at h^2.
        assert abs(np.median(ratios) - h**2) < 0.5

    def test_tail_shift_couples_pre_change_segment(self):
        n, tau = 800, 0.5
        stream = RngStream(26)
        spec0 = _spec(n=n, noise=Pareto(1.0), change=TailShift(h=0.0, tau=tau))
        spec1 = _spec(n=n, noise=Pareto(1.0), change=TailShift(h=0.5, tau=tau))
        x0 = simulate_series(spec0, stream)
        x1 = simulate_series(spec1, stream)
        cut = change_point_index(n, tau)
        assert np.array_equal(x0[:cut], x1[:cut])
        # Lighter tail after the change: coupled draws shrink toward 1.
        assert np.all(np.abs(x1[cut:]) <= np.abs(x0[cut:]) + 1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_tail_shift_leaves_the_pre_change_columns_of_the_null_batch(self, alpha):
        # Only the post-change columns map their uniforms at alpha + h. At
        # alpha = 1 a per-draw index array once took u^-1 as a power, and the
        # pre-change values lay up to 3.4e-16 relative off the null path.
        params, noise, cut = FgnParams(0.7, 500), Pareto(alpha), change_point_index(500, 0.5)
        streams = RngStream(3).substreams(range(8))
        null = simulate_batch(params, noise, NoChange(), streams)
        shifted = simulate_batch(params, noise, TailShift(h=0.5, tau=0.5), streams)
        assert np.array_equal(shifted[0], null[0])
        for a, b in zip(shifted[1:], null[1:]):
            assert np.array_equal(a[:, :cut], b[:, :cut])
            assert not np.array_equal(a[:, cut:], b[:, cut:])

    def test_tail_shift_requires_pareto(self):
        with pytest.raises(ValueError):
            _spec(noise=StandardNormal(), change=TailShift(h=0.5, tau=0.5))
        with pytest.raises(ValueError):
            _spec(noise=CenteredPareto(3.0), change=TailShift(h=0.5, tau=0.5))

    @pytest.mark.parametrize("alpha, h", [
        (2.0, -3.0), (2.0, -2.0), (1.0, -1.5), (2.0, -1.999),
    ])
    def test_tail_shift_keeps_a_positive_index(self, alpha, h):
        # The post-change index alpha + h is a Pareto tail index too: positive,
        # with a finite largest draw (2^(53 / 0.001) is beyond the doubles).
        with pytest.raises(ValueError, match="post-change Pareto tail index"):
            _spec(noise=Pareto(alpha), change=TailShift(h=h, tau=0.5))

    @pytest.mark.parametrize("change", [MeanShift, VarianceScale, TailShift])
    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_refuses_a_non_finite_height(self, change, h):
        with pytest.raises(ValueError, match="change height h must be finite"):
            change(h=h, tau=0.5)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            MeanShift(h=1.0, tau=0.0)
        with pytest.raises(ValueError):
            VarianceScale(h=0.0, tau=0.5)


def _product_hill_limit(alpha: float, frac: float) -> float:
    # Exact large-sample Hill value for X = exp(Y) * Pareto(alpha) at the
    # threshold with survival `frac`. The survival function is
    # P(X > x) = E[min(1, (x exp(-Y))^(-alpha))] with Y standard normal.
    from scipy import integrate, optimize

    def survival(x):
        def f(y):
            z = x * np.exp(-y)
            tail = 1.0 if z <= 1.0 else z**-alpha
            return tail * np.exp(-0.5 * y * y) / np.sqrt(2.0 * np.pi)

        return integrate.quad(f, -12.0, 12.0, limit=200)[0]

    t = optimize.brentq(lambda x: survival(x) - frac, 1e-6, 1e9)
    numer = integrate.quad(lambda x: survival(x) / x, t, np.inf, limit=400)[0]
    return frac / numer


class TestBreimanTail:
    def test_recovers_innovation_tail_at_moderate_alpha(self):
        # Top 0.5% of a million-point path: the product inherits the
        # innovation tail up to a slowly varying correction small enough
        # here for the Hill estimate to land within 15% of alpha itself.
        spec = _spec(hurst=0.7, noise=Pareto(2.5))
        check = verify_breiman_tail(spec, n_large=1_000_000, stream=RngStream(27))
        assert check.target_alpha == 2.5
        assert abs(check.alpha_hat / 2.5 - 1.0) < 0.15

    @pytest.mark.parametrize("alpha,hurst", [(2.5, 0.7), (4.0, 0.6)])
    def test_matches_exact_finite_threshold_value(self, alpha, hurst):
        # At any fixed threshold the lognormal volatility factor biases the
        # Hill estimate; the sharp check is against the exact value for the
        # product law at the same tail fraction.
        spec = _spec(hurst=hurst, noise=Pareto(alpha))
        check = verify_breiman_tail(spec, n_large=1_000_000, stream=RngStream(27))
        expected = _product_hill_limit(alpha, 0.005)
        assert abs(check.alpha_hat / expected - 1.0) < 0.10

    def test_refuses_normal_noise(self):
        with pytest.raises(ValueError):
            verify_breiman_tail(_spec(), n_large=1000, stream=RngStream(28))
