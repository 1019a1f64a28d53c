"""Tests for normalizing constants, limit factors, and critical-value tables."""

import json
import math

import numpy as np
import pytest

from lmsvtest import asymp
from lmsvtest.asymp import (
    CriticalValueTable,
    MeanChange,
    MeanChangeWilcoxon,
    TableBudget,
    TableFamily,
    TailChange,
    VarianceChange,
    VarianceChangeWilcoxon,
    critical_values,
    dnm_asymptotic,
    dnm_double_sum,
    dnm_exact,
    hermite,
    hermite_rank_and_coeff,
    kolmogorov_cdf,
    kolmogorov_quantile,
    simulate_hermite_paths,
    wilcoxon_limit_factor,
)
from lmsvtest.dist import CenteredPareto, RngStream, StandardNormal
from lmsvtest.stats import TrimSpec


def sn_ratio_by_definition(paths, trim):
    """Trimmed SN ratio with the trapezoid rule applied cut by cut.

    For each cut t = j/N: |Z(t) - t Z(1)| over the root of the trapezoid
    integrals of the squared residual bridges on [0, t] and [t, 1].
    """
    count, n = paths.shape
    z = np.concatenate([np.zeros((count, 1)), paths], axis=1)
    r = np.arange(n + 1) / n
    lo, hi = trim.window(n)
    lo, hi = max(lo, 1), min(hi, n - 1)

    def trapezoid(v):
        return 0.5 * float(np.sum(v[1:] + v[:-1])) / n

    out = np.empty(count)
    for i in range(count):
        zi = z[i]
        ratios = []
        for j in range(lo, hi + 1):
            t = r[j]
            left = zi[:j + 1] - r[:j + 1] / t * zi[j]
            right = (zi[j:] - zi[j]) - (r[j:] - t) / (1.0 - t) * (zi[-1] - zi[j])
            denom = math.sqrt(trapezoid(left**2) + trapezoid(right**2))
            ratios.append(abs(zi[j] - t * zi[-1]) / denom)
        out[i] = max(ratios)
    return out


def refined_sup_reference(paths, grid, u_hi, u_lo):
    """Segment-refined bridge supremum from given uniforms, all rows at once."""
    n = paths.shape[1]
    bridge = paths - np.arange(1, n + 1) / n * paths[:, -1:]
    padded = np.concatenate([np.zeros((len(paths), 1)), bridge], axis=1)
    a, b = padded[:, :-1], padded[:, 1:]
    dt = 1.0 / n
    seg_max = 0.5 * (a + b + np.sqrt((a - b) ** 2 - 2.0 * dt * np.log(u_hi)))
    seg_min = 0.5 * (a + b - np.sqrt((a - b) ** 2 - 2.0 * dt * np.log(u_lo)))
    return np.maximum(np.maximum(seg_max.max(axis=1), -seg_min.min(axis=1)), grid)


class TestHermitePolynomials:
    def test_first_polynomials(self):
        x = np.linspace(-3, 3, 31)
        assert np.allclose(hermite(1, x), x)
        assert np.allclose(hermite(2, x), x * x - 1.0)

    def test_recurrence(self):
        # H_{q+1}(x) = x H_q(x) - q H_{q-1}(x) on a grid, to 1e-12.
        x = np.linspace(-4, 4, 101)
        for q in range(1, 6):
            lhs = hermite(q + 1, x)
            rhs = x * hermite(q, x) - q * hermite(q - 1, x)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("rho", [0.2, 0.5, 0.9])
    def test_orthogonality_cross_moment(self, m, rho):
        # E[H_m(Y) H_m(Y')] = m! rho^m for jointly standard normal (Y, Y'),
        # checked by 2D Gauss-Hermite quadrature.
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        w = weights / np.sqrt(2.0 * np.pi)
        yy = nodes[:, None]
        zz = nodes[None, :]
        second = rho * yy + math.sqrt(1.0 - rho * rho) * zz
        values = hermite(m, yy) * hermite(m, second)
        moment = float(np.sum(values * (w[:, None] * w[None, :])))
        assert moment == pytest.approx(math.factorial(m) * rho**m, abs=1e-6)


class TestDnm:
    def test_white_noise_cases(self):
        assert dnm_exact(0.5, 1, 400) == pytest.approx(20.0, rel=1e-14)
        assert dnm_exact(0.5, 2, 400) == pytest.approx(math.sqrt(800), rel=1e-14)

    @pytest.mark.parametrize("hurst", [0.6, 0.7, 0.8, 0.9])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [100, 512])
    def test_matches_double_sum(self, hurst, m, n):
        assert dnm_exact(hurst, m, n) == pytest.approx(dnm_double_sum(hurst, m, n), rel=1e-8)

    def test_m1_is_exact_power_of_n(self):
        # Partial sums of fractional Gaussian noise have variance n^{2H}.
        for hurst in (0.6, 0.75, 0.9):
            assert dnm_exact(hurst, 1, 2048) == pytest.approx(2048.0**hurst, rel=1e-12)

    def test_asymptotic_agreement_in_long_memory_regime(self):
        combos = [(h, 1) for h in (0.6, 0.7, 0.8, 0.9)] + [(0.8, 2), (0.9, 2)]
        for hurst, m in combos:
            ratio = dnm_exact(hurst, m, 4096) / dnm_asymptotic(hurst, m, 4096)
            assert abs(ratio - 1.0) < 0.05

    def test_asymptotic_rejects_short_memory_regime(self):
        with pytest.raises(ValueError):
            dnm_asymptotic(0.6, 2, 1024)  # mD = 1.6 > 1


class TestHermiteRankAndCoeff:
    def test_mean_change_is_short_memory(self):
        setup = hermite_rank_and_coeff(MeanChange(StandardNormal()))
        assert setup.short_memory
        assert setup.sigma == pytest.approx(math.exp(1.0))  # sqrt(1 * e^2)

    def test_mean_change_pareto_scale(self):
        setup = hermite_rank_and_coeff(MeanChange(CenteredPareto(4.0)))
        assert setup.sigma == pytest.approx(math.sqrt(4.0 / 18.0 * math.exp(2.0)))

    def test_variance_change_coefficient(self):
        # 2 e^2 alpha / ((alpha - 2)(alpha - 1)^2) at alpha = 4.5.
        setup = hermite_rank_and_coeff(VarianceChange(4.5))
        assert setup.m == 1
        assert setup.coeff == pytest.approx(2.171478, abs=1e-5)

    def test_variance_change_rejects_heavy_tail(self):
        with pytest.raises(ValueError):
            hermite_rank_and_coeff(VarianceChange(2.0))

    def test_tail_change(self):
        setup = hermite_rank_and_coeff(TailChange())
        assert (setup.m, setup.coeff) == (1, 1.0)


class TestWilcoxonLimitFactor:
    def test_variance_factor_against_monte_carlo(self):
        # factor = E[phi(log|U - mu| - log|V - mu| - Z)] with U, V Pareto.
        alpha = 4.5
        quad = wilcoxon_limit_factor(VarianceChangeWilcoxon(alpha))
        rng = RngStream(99).generator()
        n = 10_000_000
        mu = alpha / (alpha - 1.0)
        u = (1.0 - rng.random(n)) ** (-1.0 / alpha)
        v = (1.0 - rng.random(n)) ** (-1.0 / alpha)
        z = rng.standard_normal(n)
        vals = np.exp(-0.5 * (np.log(np.abs(u - mu)) - np.log(np.abs(v - mu)) - z) ** 2)
        vals /= math.sqrt(2.0 * math.pi)
        se = vals.std() / math.sqrt(n)
        assert abs(quad.value - vals.mean()) < 3 * se

    def test_mean_factor_against_monte_carlo(self):
        # Same kernel, signed by which side of the innovation mean the two
        # Pareto draws fall on.
        alpha = 2.5
        quad = wilcoxon_limit_factor(MeanChangeWilcoxon(alpha))
        rng = RngStream(98).generator()
        n = 10_000_000
        mu = alpha / (alpha - 1.0)
        u = (1.0 - rng.random(n)) ** (-1.0 / alpha)
        v = (1.0 - rng.random(n)) ** (-1.0 / alpha)
        z = rng.standard_normal(n)
        phi = np.exp(-0.5 * (np.log(np.abs(u - mu)) - np.log(np.abs(v - mu)) - z) ** 2)
        phi /= math.sqrt(2.0 * math.pi)
        sign = np.where((u > mu) & (v > mu), -1.0, np.where((u < mu) & (v < mu), 1.0, 0.0))
        est = phi * sign
        se = est.std() / math.sqrt(n)
        assert abs(quad.value - abs(est.mean())) < 3 * se

    def test_mean_factor_continuity_at_large_alpha(self):
        # The factor converges as alpha grows; adjacent large alphas agree.
        f100 = wilcoxon_limit_factor(MeanChangeWilcoxon(100.0)).value
        f200 = wilcoxon_limit_factor(MeanChangeWilcoxon(200.0)).value
        assert abs(f100 / f200 - 1.0) < 0.10

    def test_variance_factor_positive(self):
        assert wilcoxon_limit_factor(VarianceChangeWilcoxon(6.0)).value > 0.0

    def test_error_target_reported(self):
        quad = wilcoxon_limit_factor(VarianceChangeWilcoxon(4.5))
        assert quad.abs_error < 1e-4 * quad.value


class TestKolmogorov:
    def test_quantile_values(self):
        assert kolmogorov_quantile(0.95) == pytest.approx(1.3581, abs=1e-4)
        assert kolmogorov_quantile(0.99) == pytest.approx(1.6276, abs=1e-4)

    def test_cdf_roundtrip(self):
        for p in (0.05, 0.5, 0.9, 0.975):
            assert kolmogorov_cdf(kolmogorov_quantile(p)) == pytest.approx(p, abs=1e-9)


class TestHermitePaths:
    def test_endpoint_is_standard_normal_in_brownian_case(self):
        from scipy import stats as spstats

        paths = simulate_hermite_paths(0.5, 1, 512, 10_000, RngStream(60))
        d, _ = spstats.kstest(paths[:, -1], "norm")
        assert d < 0.02

    def test_self_similar_endpoint_variance(self):
        paths = simulate_hermite_paths(0.8, 1, 1024, 10_000, RngStream(61))
        var_full = paths[:, -1].var()
        var_half = paths[:, 511].var()
        assert var_full == pytest.approx(1.0, abs=0.05)
        assert var_half / var_full == pytest.approx(0.5**1.6, abs=0.05)

    def test_second_order_law_is_skewed(self):
        from scipy import stats as spstats

        paths = simulate_hermite_paths(0.9, 2, 1024, 10_000, RngStream(62))
        assert abs(spstats.skew(paths[:, -1])) > 0.5

    def test_deterministic_in_stream(self):
        a = simulate_hermite_paths(0.7, 1, 256, 600, RngStream(63))
        b = simulate_hermite_paths(0.7, 1, 256, 600, RngStream(63))
        assert np.array_equal(a, b)


class TestTableFunctionals:
    @pytest.mark.parametrize("trim", [TrimSpec(), TrimSpec(0.05, 0.9)])
    @pytest.mark.parametrize("hurst", [0.5, 0.8])
    def test_sn_ratio_matches_definition(self, hurst, trim):
        paths = simulate_hermite_paths(hurst, 1, 128, 24, RngStream(72))
        fast = asymp._sn_ratio_sup(paths, trim)
        assert np.allclose(fast, sn_ratio_by_definition(paths, trim), rtol=1e-10, atol=0.0)

    def test_sn_ratio_blocks_are_bitwise_row_by_row(self):
        paths = simulate_hermite_paths(0.7, 1, 256, 2048, RngStream(73))
        whole = asymp._sn_ratio_sup(paths, TrimSpec())
        rows = [asymp._sn_ratio_sup(paths[i:i + 1], TrimSpec()) for i in range(len(paths))]
        assert np.array_equal(whole, np.concatenate(rows))

    def test_bridge_refinement_blocks_are_bitwise_row_by_row(self):
        paths = simulate_hermite_paths(0.5, 1, 256, 2048, RngStream(74))
        grid = asymp._bridge_sup(paths)
        whole = asymp._refine_brownian_bridge_sup(paths, grid, RngStream(75).generator())
        # Both uniform arrays cover the whole chunk, upper extremes first.
        rng = RngStream(75).generator()
        u_hi, u_lo = rng.random(paths.shape), rng.random(paths.shape)
        rows = [
            refined_sup_reference(paths[i:i + 1], grid[i:i + 1], u_hi[i:i + 1], u_lo[i:i + 1])
            for i in range(len(paths))
        ]
        assert np.array_equal(whole, np.concatenate(rows))

    def test_quantile_interval_coverage(self):
        # Over 2000 uniform samples of 200 values, the 99 % interval of the
        # 0.9-quantile holds 0.9 in at least 98 % of samples (4.5 standard
        # errors below the nominal 99 %).
        samples = RngStream(76).generator().random((2000, 200))
        hits = 0
        for values in samples:
            lo, hi = asymp._quantile_intervals(values, (0.9,))["0.900000"]
            hits += lo <= 0.9 <= hi
        assert hits / len(samples) >= 0.98


class TestCriticalValues:
    def test_brownian_bridge_matches_kolmogorov(self):
        tab = critical_values(
            TableFamily.CUSUM_BRIDGE_SUP, 1, 0.5, RngStream(64),
            budget=TableBudget(20_000, 2048),
        )
        assert tab.quantiles[0.95] == pytest.approx(kolmogorov_quantile(0.95), abs=0.015)

    def test_levels_monotone(self):
        tab = critical_values(
            TableFamily.CUSUM_BRIDGE_SUP, 1, 0.8, RngStream(65),
            budget=TableBudget(3_000, 512),
        )
        assert tab.quantiles[0.90] < tab.quantiles[0.95] < tab.quantiles[0.99]

    def test_sn_ratio_stable_across_seeds(self):
        trims = TrimSpec()
        budget = TableBudget(10_000, 2048)
        a = critical_values(TableFamily.SN_RATIO, 1, 0.5, RngStream(66), trim=trims, budget=budget)
        b = critical_values(TableFamily.SN_RATIO, 1, 0.5, RngStream(67), trim=trims, budget=budget)
        assert abs(a.quantiles[0.95] / b.quantiles[0.95] - 1.0) < 0.02

    def test_sn_ratio_requires_trim(self):
        with pytest.raises(ValueError):
            critical_values(TableFamily.SN_RATIO, 1, 0.5, RngStream(68))

    def test_fresh_table_keeps_the_shipped_meta_keys(self):
        from importlib import resources

        shipped = json.loads(
            (resources.files("lmsvtest.data") / "tables" / "bridge_h0.5.json").read_text()
        )["meta"]
        fresh = critical_values(TableFamily.CUSUM_BRIDGE_SUP, 1, 0.5, RngStream(70),
                                budget=TableBudget(200, 64)).meta
        assert fresh.keys() == shipped.keys()
        assert fresh["brownian_segment_refinement"] is True
        assert shipped["brownian_segment_refinement"] is True

    def test_deterministic_given_seed_and_budget(self):
        budget = TableBudget(2_000, 512)
        a = critical_values(TableFamily.CUSUM_BRIDGE_SUP, 1, 0.7, RngStream(69), budget=budget)
        b = critical_values(TableFamily.CUSUM_BRIDGE_SUP, 1, 0.7, RngStream(69), budget=budget)
        assert a.quantiles == b.quantiles

    def test_json_roundtrip(self, tmp_path):
        tab = critical_values(
            TableFamily.SN_RATIO, 1, 0.6, RngStream(70), trim=TrimSpec(),
            budget=TableBudget(1_000, 256),
        )
        path = tmp_path / "table.json"
        tab.save(path)
        loaded = CriticalValueTable.load(path)
        assert loaded.family == tab.family
        assert loaded.quantiles == tab.quantiles
        assert loaded.trim == tab.trim
        assert loaded.meta == tab.meta

    def test_quantile_intervals_bracket_and_narrow(self):
        widths = []
        for count in (500, 4_000):
            tab = critical_values(
                TableFamily.CUSUM_BRIDGE_SUP, 1, 0.7, RngStream(77),
                budget=TableBudget(count, 256),
            )
            intervals = tab.meta["quantile_intervals"]
            assert tab.meta["quantile_interval_coverage"] == 0.99
            assert sorted(intervals) == ["0.900000", "0.950000", "0.990000"]
            for level, value in tab.quantiles.items():
                lo, hi = intervals[f"{level:.6f}"]
                assert lo < value and (hi is None or value < hi)
            widths.append([math.inf if hi is None else hi - lo for lo, hi in intervals.values()])
            assert CriticalValueTable.from_json(tab.to_json()).meta == tab.meta
        # 500 draws hold no 99 % upper bound for the 0.99-quantile.
        assert [math.isinf(w) for w in widths[0]] == [False, False, True]
        assert all(narrow < wide for wide, narrow in zip(*widths))

    def test_version_mismatch_rejected(self, tmp_path):
        tab = critical_values(
            TableFamily.CUSUM_BRIDGE_SUP, 1, 0.6, RngStream(71),
            budget=TableBudget(500, 256),
        )
        payload = tab.to_json().replace('"version": 1', '"version": 99')
        with pytest.raises(ValueError, match="version"):
            CriticalValueTable.from_json(payload)
