"""Tests for innovation distributions and random streams."""

import math
import re

import numpy as np
import pytest

from lmsvtest.dist import (
    COUNT,
    FINITE,
    CenteredPareto,
    Pareto,
    RngStream,
    StandardNormal,
    hill_estimator,
    innovations,
    keyed_generators,
    make_noise,
    noise_moments,
    sample_noise,
    stream_keys,
)

_TOP = 2**64 - 1


class TestDomain:
    @pytest.mark.parametrize("domain, value, kind", [
        (FINITE, "1.0", "a number"), (FINITE, None, "a number"), (FINITE, True, "a number"),
        (COUNT, "1", "an integer"), (COUNT, None, "an integer"), (COUNT, True, "an integer"),
        (COUNT, 2.5, "an integer"),
    ], ids=["real-string", "real-none", "real-bool", "integer-string", "integer-none",
            "integer-bool", "integer-float"])
    def test_a_value_that_is_not_a_number_is_refused_by_name(self, domain, value, kind):
        # A string met a comparison's TypeError, which named no input, and a
        # bool passed a real domain as 0 or 1.
        with pytest.raises(TypeError, match=re.escape(f"x must be {kind}, got {value!r}")):
            domain.require("x", value)


class TestRngStream:
    def test_identical_descriptors_reproduce_draws(self):
        a = sample_noise(StandardNormal(), 1000, RngStream(seed=42, stream_id=7))
        b = sample_noise(StandardNormal(), 1000, RngStream(seed=42, stream_id=7))
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = sample_noise(StandardNormal(), 1000, RngStream(seed=42, stream_id=0))
        b = sample_noise(StandardNormal(), 1000, RngStream(seed=42, stream_id=1))
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_substream_depends_on_order(self):
        base = RngStream(seed=1)
        assert base.substream(2).substream(5) != base.substream(5).substream(2)
        assert base.substream(2, 5) == base.substream(2).substream(5)

    def test_substreams_are_stable_across_processes(self):
        # The mixing chain is pure arithmetic, so ids are fixed constants.
        assert RngStream(seed=0).substream(1).stream_id == RngStream(0).substream(1).stream_id

    def test_substream_ids_are_pinned(self):
        # Values of the SplitMix64 chain; shipped tables, golden counts and
        # --latent digests all depend on them.
        assert RngStream(0).substream(1).stream_id == 6791897765849424158
        assert RngStream(3, 5).substream(2, 5, -1, _TOP).stream_id == 13028306382665324259
        assert RngStream(3, 5).substream() == RngStream(3, 5)


class TestBatchedStreams:
    @pytest.mark.parametrize("stream_id", [0, 5, _TOP])
    def test_substreams_equal_scalar_substream(self, stream_id):
        base = RngStream(seed=3, stream_id=stream_id)
        indices = [0, 1, 63, 2**40, _TOP, -1, -7, -(2**63)]
        assert base.substreams(indices) == [base.substream(i) for i in indices]

    @pytest.mark.parametrize("index", [0, 1, -1])
    def test_stream_keys_equal_scalar_substream_keys(self, index):
        streams = [RngStream(0), RngStream(-2, _TOP), RngStream(_TOP, 17), RngStream(9, 2**63)]
        keys = stream_keys(streams, index)
        assert keys.dtype == np.uint64
        expected = [(s.seed & _TOP, s.substream(index).stream_id) for s in streams]
        assert [(int(seed), int(sid)) for seed, sid in keys] == expected

    def test_keyed_generators_equal_fresh_generators(self):
        streams = [RngStream(11, 0), RngStream(11, _TOP), RngStream(-4, 3), RngStream(11, 0)]
        keys = stream_keys(streams, 0)
        fresh = [s.substream(0).generator() for s in streams]
        for row, rng in enumerate(keyed_generators(keys)):
            expected = fresh[row]
            # The previous row's odd count of 32-bit draws left half a 64-bit
            # word buffered; a re-keyed stream must not see it.
            assert np.array_equal(rng.integers(0, 2**32, size=3, dtype=np.uint32),
                                  expected.integers(0, 2**32, size=3, dtype=np.uint32))
            assert np.array_equal(rng.standard_normal(7), expected.standard_normal(7))
            assert np.array_equal(rng.random(5), expected.random(5))
            assert rng.bit_generator.state["has_uint32"] == 1


class TestSampling:
    def test_standard_normal_moments(self):
        n = 100_000
        x = sample_noise(StandardNormal(), n, RngStream(3))
        assert abs(x.mean()) < 4 / math.sqrt(n)
        assert abs(x.var() - 1.0) < 0.05

    def test_centered_pareto_moments(self):
        # Var = alpha / ((alpha - 2)(alpha - 1)^2) = 0.2222... at alpha = 4.
        n = 100_000
        x = sample_noise(CenteredPareto(4.0), n, RngStream(4))
        target_var = 4.0 / (2.0 * 9.0)
        assert abs(x.mean()) < 0.02
        assert abs(x.var() / target_var - 1.0) < 0.05

    @pytest.mark.parametrize("n, error", [(2.5, TypeError), (True, TypeError), (0, ValueError)])
    def test_sample_noise_refuses_a_count_that_is_not_a_positive_integer(self, n, error):
        # A float n raised numpy's TypeError, which named no argument.
        with pytest.raises(error, match="n must be an integer"):
            sample_noise(StandardNormal(), n, RngStream(5))

    def test_pareto_support(self):
        x = sample_noise(Pareto(0.5, scale=2.0), 10_000, RngStream(5))
        assert np.all(x >= 2.0)

    def test_centered_pareto_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            CenteredPareto(1.0)
        with pytest.raises(ValueError):
            CenteredPareto(0.9)

    def test_pareto_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            Pareto(0.0)

    @pytest.mark.parametrize("law", [Pareto, CenteredPareto])
    def test_refuses_an_infinite_tail_index(self, law):
        # alpha = inf is a point mass, whose moments read NaN.
        with pytest.raises(ValueError, match="finite"):
            law(math.inf)

    @pytest.mark.parametrize("law", [Pareto, CenteredPareto])
    def test_refuses_an_infinite_scale(self, law):
        # Every draw c * u^(-1/alpha) would be infinite.
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            law(3.0, math.inf)

    def test_refuses_a_tail_index_whose_reciprocal_overflows(self):
        # At alpha = 1e-320, -1/alpha is -inf and every draw below u = 1 is inf.
        with pytest.raises(ValueError, match="reciprocal"):
            Pareto(1e-320)

    # 1 - U >= 2^-53, so the largest draw is c * 2^(53/alpha): 1.008e308 at
    # alpha = 0.0518 and inf at 0.0517, 9.5e307 at c = 1e300 and alpha = 2.
    @pytest.mark.parametrize("law, alpha, scale", [
        (Pareto, 0.0518, 1.0), (Pareto, 2.0, 1e300), (CenteredPareto, 2.0, 1e300),
    ])
    def test_largest_draw_of_a_law_is_finite(self, law, alpha, scale):
        top = innovations(law(alpha, scale), np.array([1.0 - 2.0**-53]))
        assert np.all(np.isfinite(top))

    @pytest.mark.parametrize("law, alpha, scale", [
        (Pareto, 0.0517, 1.0), (Pareto, 0.001, 1.0), (Pareto, 2.0, 1e308),
        (CenteredPareto, 2.0, 1e308),
    ])
    def test_refuses_a_law_whose_largest_draw_overflows(self, law, alpha, scale):
        with pytest.raises(ValueError, match="largest draw"):
            law(alpha, scale)

    @pytest.mark.parametrize("alpha, scale, match", [
        (3.0, 1.0, "no tail index"),
        (None, 2.0, "normal noise is standard"),
        (None, math.nan, "normal noise is standard"),
    ])
    def test_normal_noise_takes_no_tail_index_and_no_scale(self, alpha, scale, match):
        with pytest.raises(ValueError, match=match):
            make_noise("normal", alpha, scale)

    def test_an_unknown_noise_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown noise kind 'cauchy'"):
            make_noise("cauchy", 2.0)

    def test_kolmogorov_smirnov_against_pareto_cdf(self):
        from scipy import stats as spstats

        n = 100_000
        for seed, alpha in ((6, 1.5), (7, 4.0)):
            x = sample_noise(Pareto(alpha), n, RngStream(seed))
            d, _ = spstats.kstest(x, lambda v: 1.0 - v ** (-alpha))
            assert d < 0.01


class TestMoments:
    def test_standard_normal(self):
        m = noise_moments(StandardNormal())
        assert m.mean == 0.0 and m.variance == 1.0

    def test_centered_pareto_closed_form(self):
        m = noise_moments(CenteredPareto(4.5))
        assert m.mean == 0.0
        assert m.variance == pytest.approx((4.5 / 2.5) / 3.5**2, rel=1e-12)
        assert m.variance == pytest.approx(0.1469388, abs=5e-8)

    def test_variance_infinite_at_boundary(self):
        assert math.isinf(noise_moments(CenteredPareto(2.0)).variance)
        assert math.isinf(noise_moments(Pareto(1.0)).variance)
        assert math.isinf(noise_moments(Pareto(0.5)).mean)

    @pytest.mark.parametrize("alpha", [1e160, 1e308])
    def test_variance_at_a_huge_tail_index_is_finite(self, alpha):
        # (alpha - 1)^2 overflows the doubles, which raised OverflowError;
        # the variance is about 1 / alpha^2.
        assert noise_moments(CenteredPareto(alpha)).variance == pytest.approx(
            alpha**-2, rel=1e-12, abs=1e-320)
        assert noise_moments(Pareto(alpha)).variance == pytest.approx(alpha**-2, abs=1e-320)

    def test_pareto_mean(self):
        assert noise_moments(Pareto(4.0)).mean == pytest.approx(4.0 / 3.0)


def _shifted_hill_limit(alpha: float, mu: float, frac: float) -> float:
    # Exact large-sample Hill value for a Pareto law shifted left by mu, at
    # the threshold with survival probability `frac`:
    # 1 / E[log(X / t) | X > t] with P(X > x) = (x + mu)^(-alpha).
    from scipy import integrate

    t = frac ** (-1.0 / alpha) - mu
    numer = integrate.quad(lambda x: (x + mu) ** (-alpha) / x, t, np.inf)[0]
    return frac / numer


class TestHillEstimator:
    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_recovers_tail_index_of_pure_pareto(self, alpha):
        n = 100_000
        x = sample_noise(Pareto(alpha), n, RngStream(9))
        est = hill_estimator(x, tail_fraction=0.01)
        assert abs(est / alpha - 1.0) < 0.15

    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_centered_pareto_matches_shifted_power_law_limit(self, alpha):
        # Centering turns the power law into a shifted one, which biases the
        # Hill estimate at any fixed threshold; the estimate must agree with
        # the exact finite-threshold value, not with alpha itself.
        n = 100_000
        spec = CenteredPareto(alpha)
        x = sample_noise(spec, n, RngStream(8))
        est = hill_estimator(np.abs(x), tail_fraction=0.01)
        expected = _shifted_hill_limit(alpha, spec.mean_shift, 0.01)
        assert abs(est / expected - 1.0) < 0.10

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            hill_estimator(np.array([-1.0, -2.0, 0.0]))
