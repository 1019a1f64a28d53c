"""Tests for normalizing constants, limit factors, and critical-value tables."""

import hashlib
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from lmsvtest import asymp, fgn
from lmsvtest.asymp import (
    CriticalValueTable,
    TableBudget,
    TableFamily,
    critical_values,
    dnm_asymptotic,
    dnm_double_sum,
    dnm_exact,
    hermite,
    kolmogorov_cdf,
    kolmogorov_quantile,
    simulate_hermite_paths,
    wilcoxon_limit_factor,
)
from lmsvtest.dist import RngStream
from lmsvtest.stats import TrimSpec, _bridge


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

    def test_a_negative_order_is_refused(self):
        with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
            hermite(-1, 0.5)

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
        assert dnm_exact(0.7, 1, 1) == 1.0  # one term: the standard deviation of H_1(Y)
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


def wilcoxon_limit_factor_by_quadrature(problem, alpha):
    """The factor as the nested adaptive quadrature of its outer form.

    int (below(w) +- above(w))^2 dw over the log scale w, where below and
    above integrate the Pareto density times phi(log|u - mu| - w) on either
    side of the pinch u = mu. Its own error holds for alpha <= 20.
    """
    from scipy import integrate

    mu = alpha / (alpha - 1.0)

    def inner(w, lower, upper):
        def f(u):
            z = math.log(abs(u - mu)) - w
            return alpha * u ** (-alpha - 1.0) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

        return integrate.quad(f, lower, upper, epsabs=1e-13, epsrel=1e-9, limit=200,
                              full_output=1)[0]

    def outer(w):
        below, above = inner(w, 1.0, mu), inner(w, mu, math.inf)
        return below * below - above * above if problem == "mean" else (below + above) ** 2

    return abs(integrate.quad(outer, -60.0, 60.0, epsabs=0.0, epsrel=1e-7, limit=400)[0])


class TestWilcoxonLimitFactor:
    def test_variance_factor_against_monte_carlo(self):
        # factor = E[phi(log|U - mu| - log|V - mu| - Z)] with U, V Pareto.
        alpha = 4.5
        quad = wilcoxon_limit_factor("variance", alpha)
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
        quad = wilcoxon_limit_factor("mean", alpha)
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
        f100 = wilcoxon_limit_factor("mean", 100.0).value
        f200 = wilcoxon_limit_factor("mean", 200.0).value
        assert abs(f100 / f200 - 1.0) < 0.10

    # 25-digit references from the outer form in q = P^(-alpha), computed with
    # mpmath 1.3.0 (not a test dependency; alpha given as a string):
    #   import mpmath as mp; mp.mp.dps = 25; a = mp.mpf(alpha); mu = a / (a - 1); qs = mu**-a
    #   phi = lambda z: mp.exp(-z * z / 2) / mp.sqrt(2 * mp.pi)
    #   side = lambda w, lo, hi: mp.quad(lambda q: phi(mp.log(abs(q**(-1 / a) - mu)) - w), [lo, hi])
    #   f = lambda w: side(w, qs, 1)**2 - side(w, 0, qs)**2        # mean
    #   f = lambda w: (side(w, qs, 1) + side(w, 0, qs))**2         # variance
    #   print(abs(mp.quad(f, [-mp.inf, -10, -3, 0, 3, 10, mp.inf])))
    @pytest.mark.parametrize("problem, alpha, reference", [
        ("mean", 1.001, 0.281250426428207103),
        ("mean", 2.5, 0.111227960265086479),
        ("mean", 4.0, 0.0922871599187971705),
        ("mean", 100.0, 0.0675854098950856536),
        ("mean", 1000.0, 0.0667593074796081056),
        ("variance", 4.5, 0.209604832894944211),
        ("variance", 20.0, 0.208343712618396614),
        ("variance", 100.0, 0.208252426896409487),
        ("variance", 1000.0, 0.208240266268006359),
    ])
    def test_matches_high_precision_references(self, problem, alpha, reference):
        value = wilcoxon_limit_factor(problem, alpha).value
        assert value == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_refuses_a_tail_index_its_rounding_moves(self):
        # mpmath 1.3.0, as for the references above: 0.06666798918701119572 at
        # alpha = 1e6. At 1e7 the rule is off by 1.2e-9, at 1e17 by 2.7 times.
        assert wilcoxon_limit_factor("mean", 1e6).value == pytest.approx(
            0.06666798918701119572, rel=1e-9, abs=0.0)
        for problem in ("mean", "variance"):
            for alpha in (1e7, 1e308):
                with pytest.raises(ValueError, match="alpha <= 4.5e"):
                    wilcoxon_limit_factor(problem, alpha)

    @pytest.mark.parametrize("problem, alpha", [("mean", 1.5), ("mean", 4.0), ("variance", 2.5),
                                                ("variance", 4.5), ("variance", 20.0)])
    def test_matches_nested_quadrature(self, problem, alpha):
        assert wilcoxon_limit_factor(problem, alpha).value == pytest.approx(
            wilcoxon_limit_factor_by_quadrature(problem, alpha), rel=1e-8)

    def test_refuses_a_value_above_its_error_bound(self, monkeypatch):
        # At step 1/2 the half-step difference is far above the 1e-9 bound.
        monkeypatch.setattr(asymp, "_TS_STEP", 0.5)
        with pytest.raises(asymp.QuadratureError, match="relative bound") as err:
            asymp._factor.__wrapped__("variance", 4.5)
        assert err.value.partial == pytest.approx(0.2096, rel=0.05)

    def test_variance_factor_positive(self):
        assert wilcoxon_limit_factor("variance", 6.0).value > 0.0

    def test_error_target_reported(self):
        quad = wilcoxon_limit_factor("variance", 4.5)
        assert quad.abs_error < 1e-4 * quad.value

    @pytest.mark.parametrize("problem, alpha", [("tail", 4.5), ("variance", 2.0), ("mean", 1.0)])
    def test_refuses_outside_its_problems_and_alpha_domain(self, problem, alpha):
        with pytest.raises(ValueError):
            wilcoxon_limit_factor(problem, alpha)


class TestKolmogorov:
    def test_quantile_values(self):
        assert kolmogorov_quantile(0.95) == pytest.approx(1.3581, abs=1e-4)
        assert kolmogorov_quantile(0.99) == pytest.approx(1.6276, abs=1e-4)

    def test_cdf_is_zero_at_and_below_zero(self):
        assert kolmogorov_cdf(0.0) == 0.0
        assert kolmogorov_cdf(-1.0) == 0.0

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

    @pytest.mark.parametrize("m", [0, 2, 3])
    def test_refuses_ranks_other_than_one(self, m):
        with pytest.raises(ValueError, match="only Hermite rank 1"):
            simulate_hermite_paths(0.9, m, 64, 4, RngStream(62))

    def test_deterministic_in_stream(self):
        a = simulate_hermite_paths(0.7, 1, 256, 600, RngStream(63))
        b = simulate_hermite_paths(0.7, 1, 256, 600, RngStream(63))
        assert np.array_equal(a, b)


class TestTableFunctionals:
    @pytest.mark.parametrize("trim", [TrimSpec(), TrimSpec(0.05, 0.9)])
    @pytest.mark.parametrize("hurst", [0.5, 0.8])
    def test_sn_ratio_matches_definition(self, hurst, trim):
        paths = simulate_hermite_paths(hurst, 1, 128, 24, RngStream(72))
        fast = asymp._table_sup(paths, trim)
        assert np.allclose(fast, sn_ratio_by_definition(paths, trim), rtol=1e-10, atol=0.0)

    def test_sn_ratio_blocks_are_bitwise_row_by_row(self):
        paths = simulate_hermite_paths(0.7, 1, 256, 2048, RngStream(73))
        whole = asymp._table_sup(paths, TrimSpec())
        rows = [asymp._table_sup(paths[i:i + 1], TrimSpec()) for i in range(len(paths))]
        assert np.array_equal(whole, np.concatenate(rows))

    @pytest.mark.parametrize("power", [-600, -520, 520, 600])
    def test_sn_ratio_is_bitwise_scale_free(self, power):
        # The ratio does not depend on the scale of a path. A = sum_t P_t^2
        # of the scaled paths overflows or underflows, where the ratio read
        # NaN or inf, or lost bits, without the statistics' scale rule. Every
        # other path is scaled, so a block mixes both kinds.
        paths = simulate_hermite_paths(0.7, 1, 256, 64, RngStream(76))
        scaled = paths.copy()
        scaled[::2] = np.ldexp(paths[::2], power)
        assert np.array_equal(asymp._table_sup(scaled, TrimSpec()),
                              asymp._table_sup(paths, TrimSpec()))

    def test_bridge_refinement_blocks_are_bitwise_row_by_row(self):
        paths = simulate_hermite_paths(0.5, 1, 256, 2048, RngStream(74))
        grid = asymp._table_sup(paths)
        whole, rows = [], []
        for g, start in enumerate(range(0, len(paths), 512)):  # four batches
            batch = paths[start:start + 512]
            # The batch's upper and lower uniforms, each from its own generator,
            # as critical_values keys them.
            sides = [RngStream(75).substream(1, g, side) for side in (0, 1)]
            whole.append(asymp._table_sup(batch, refine=[s.generator() for s in sides]))
            u_hi, u_lo = (s.generator().random(batch.shape) for s in sides)
            rows += [
                refined_sup_reference(batch[i:i + 1], grid[start + i:start + i + 1],
                                      u_hi[i:i + 1], u_lo[i:i + 1])
                for i in range(len(batch))
            ]
        assert np.array_equal(np.concatenate(whole), np.concatenate(rows))

    @staticmethod
    def _refined(paths, seed, zero_at=None):
        """The refined supremum of _table_sup and of refined_sup_reference,
        which evaluates every segment, on the same uniforms, and the grid
        maximum; with `zero_at`, the upper uniform at that (row, column) is
        an exact 0."""
        class Drawn:
            """Hands out the rows of uniforms drawn beforehand, block by block."""

            def __init__(self, u):
                self.u, self.row = u, 0

            def random(self, shape):
                self.row += shape[0]
                return self.u[self.row - shape[0]:self.row]

        u_hi, u_lo = (RngStream(seed).substream(1, 0, side).generator().random(paths.shape)
                      for side in (0, 1))
        if zero_at is not None:
            u_hi[zero_at] = 0.0
        grid = asymp._table_sup(paths)
        with np.errstate(divide="ignore"):  # log 0
            return (asymp._table_sup(paths, refine=[Drawn(u_hi), Drawn(u_lo)]),
                    refined_sup_reference(paths, grid, u_hi, u_lo), grid)

    @pytest.mark.parametrize("n, count", [(256, 2_000), (2048, 600)])
    def test_bridge_refinement_is_the_dense_formula_bitwise(self, n, count):
        paths = simulate_hermite_paths(0.5, 1, n, count, RngStream(90, n))
        sup, dense, grid = self._refined(paths, 91)
        assert np.array_equal(sup, dense)
        assert np.mean(sup > grid) > 0.5  # the refinement moved most suprema

    def test_an_exact_zero_uniform_refines_every_segment(self):
        # U = 0 gives an infinite segment maximum. The segment `col` of row
        # 3, the one with the smallest ends, lies below the margin, so the
        # mask alone would skip it.
        paths = simulate_hermite_paths(0.5, 1, 2048, 40, RngStream(92))
        size = np.abs(_bridge(paths[3:4]))[0]
        col = 1 + np.argmin(np.maximum(size[:-1], size[1:]))
        assert max(size[col - 1:col + 1]) < size.max() - math.sqrt(36.8 / 4096)
        sup, dense, _ = self._refined(paths, 93, zero_at=(3, col))
        assert np.array_equal(sup, dense)
        assert np.isinf(sup[3]) and np.isfinite(np.delete(sup, 3)).all()

    def test_a_row_below_the_margin_refines_every_segment(self):
        # sqrt(36.8 / (2N)) = 0.095 at N = 2048: rows scaled by 1e-3 and a
        # zero row lie below it, so every segment, the first from P = 0, can
        # hold the supremum.
        paths = simulate_hermite_paths(0.5, 1, 2048, 40, RngStream(94))
        paths[:20] *= 1e-3
        paths[20] = 0.0
        assert np.max(np.abs(_bridge(paths[:21]))) < math.sqrt(36.8 / 4096)
        sup, dense, _ = self._refined(paths, 95)
        assert np.array_equal(sup, dense)
        assert sup[20] > 0.0

    def test_binomial_cdf_selects_the_ranks_of_scipy(self):
        # The interval ranks searchsorted finds at 0.005 and 0.995 agree with
        # scipy.special.bdtr for every count and level below.
        from scipy import special

        counts = list(range(1, 600)) + [1000, 2000, 4096, 10_000, 20_000, 60_000]
        mismatches = []
        for count in counts:
            for p in (0.01, 0.05, 0.1, 0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995):
                ranks = np.searchsorted(asymp._binomial_cdf(count, p), [0.005, 0.995])
                expected = np.searchsorted(special.bdtr(np.arange(count + 1), count, p),
                                           [0.005, 0.995])
                if not np.array_equal(ranks, expected):
                    mismatches.append((count, p, ranks, expected))
        assert mismatches == []

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


class TestDeal:
    def test_results_come_back_in_item_order(self):
        for workers in (1, 2, 3, 7):
            assert asymp._deal(lambda i: i * i, 5, workers) == [0, 1, 4, 9, 16]

    @pytest.mark.parametrize("raiser, error", [(0, KeyboardInterrupt), (1, ValueError)],
                             ids=["calling-thread", "pool-thread"])
    def test_a_raise_stops_every_share(self, raiser, error):
        # At two workers item 0 is the calling thread's and item 1 the pool
        # thread's. One raises while the other's item is under way, and neither
        # share takes another of the ten items; the 0.2 s is the raising
        # share's time to set the stop before the other asks for its next item.
        taken = []
        started, raised = threading.Event(), threading.Event()

        def task(i):
            taken.append(i)
            if i == raiser:
                started.wait(10)
                raised.set()
                raise error(f"item {i}")
            started.set()
            raised.wait(10)
            time.sleep(0.2)

        with pytest.raises(error, match=f"item {raiser}"):
            asymp._deal(task, 10, 2)
        assert sorted(taken) == [0, 1]


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

    @pytest.mark.parametrize("family, hurst, trim, digest", [
        (TableFamily.CUSUM_BRIDGE_SUP, 0.5, None,
         "7db2a9fad14dff9e20316ff5ccd669236e933a7217351ebb794765f0b89f5c6a"),
        (TableFamily.CUSUM_BRIDGE_SUP, 0.8, None,
         "1bca2bdf50db0286edb659576bf77f53f8ce8313ab6924ef5127cbf11b49e8d1"),
        (TableFamily.SN_RATIO, 0.7, TrimSpec(),
         "d737d24ef0b14c8f29f578bc10b091e0fb200a89bc609d0ed289569c86738dee"),
    ], ids=["bridge_h0.5_refined", "bridge_h0.8", "sn_h0.7"])
    def test_small_tables_are_pinned(self, family, hurst, trim, digest):
        # sha256 of the table JSON: 2100 paths are five batches, the last one
        # partial, on a 256-point grid.
        budget = TableBudget(path_count=2_100, path_length=256)
        table = critical_values(family, 1, hurst, RngStream(81), trim=trim, budget=budget)
        assert hashlib.sha256(table.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize("family, hurst, trim", [
        (TableFamily.CUSUM_BRIDGE_SUP, 0.5, None),
        (TableFamily.CUSUM_BRIDGE_SUP, 0.8, None),
        (TableFamily.SN_RATIO, 0.7, TrimSpec()),
    ], ids=["bridge_h0.5_refined", "bridge_h0.8", "sn_h0.7"])
    def test_tables_do_not_depend_on_the_worker_count(self, monkeypatch, family, hurst, trim):
        # 2100 paths: four full batches, then a partial one.
        # Short switch intervals interleave the threads as often as they can.
        # The calling thread builds batches beside at most workers - 1 pool threads.
        budget = TableBudget(path_count=2_100, path_length=256)
        threads = set()
        table_sup = asymp._table_sup

        def recording(*args):
            threads.add(threading.get_ident())
            return table_sup(*args)

        monkeypatch.setattr(asymp, "_table_sup", recording)
        tables = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                threads.clear()
                tables[workers] = critical_values(family, 1, hurst, RngStream(82), trim=trim,
                                                  budget=budget, workers=workers).to_json()
                others = threads - {threading.get_ident()}
                assert len(others) <= workers - 1, (workers, len(others))
        finally:
            sys.setswitchinterval(interval)
        assert tables[2] == tables[1] and tables[3] == tables[1]

    @pytest.mark.parametrize("family, hurst, trim", [
        (TableFamily.CUSUM_BRIDGE_SUP, 0.8, None),
        (TableFamily.SN_RATIO, 0.7, TrimSpec()),
        (TableFamily.CUSUM_BRIDGE_SUP, 0.5, None),
    ], ids=["bridge_h0.8", "sn_h0.7", "bridge_h0.5_refined"])
    def test_table_reduces_the_ensemble_of_simulate_hermite_paths(self, family, hurst, trim):
        # 2100 paths: four full batches, then a partial one.
        stream, levels = RngStream(84), (0.90, 0.95, 0.99)
        paths = simulate_hermite_paths(hurst, 1, 256, 2_100, stream)
        if hurst == 0.5:  # each batch refined by the uniforms of its own substreams
            sup = np.concatenate([
                asymp._table_sup(paths[start:start + 512], refine=[
                    stream.substream(1, g, side).generator() for side in (0, 1)])
                for g, start in enumerate(range(0, len(paths), 512))
            ])
        else:
            sup = asymp._table_sup(paths, trim)
        table = critical_values(family, 1, hurst, stream, trim=trim, levels=levels,
                                budget=TableBudget(2_100, 256))
        assert table.quantiles == {lv: float(np.quantile(sup, lv)) for lv in levels}

    @pytest.mark.parametrize("family, hurst, trim", [
        (TableFamily.CUSUM_BRIDGE_SUP, 0.5, None),
        (TableFamily.SN_RATIO, 0.7, TrimSpec()),
    ], ids=["bridge_h0.5_refined", "sn_h0.7"])
    def test_tables_do_not_depend_on_the_sub_block_size(self, monkeypatch, family, hurst,
                                                         trim):
        # At N = 256 the default sub-block is half a batch; 1, 7 and 64 rows
        # split it further, and 7 rows leave a partial sub-block in each.
        def table():
            return critical_values(family, 1, hurst, RngStream(85), trim=trim,
                                   budget=TableBudget(2_100, 256), workers=1).to_json()

        whole = table()
        for rows in (1, 7, 64):
            monkeypatch.setattr(fgn, "BLOCK_NORMALS", rows * fgn.embedding_size(256))
            assert table() == whole, rows

    def test_sub_blocks_follow_the_block_rule(self):
        # 1 MiB of normals: 32 paths at N = 2048.
        params, norm = asymp._ensemble(0.7, 1, 2048)
        blocks = asymp._batch_paths(params, norm, RngStream(87), 0, 100)
        assert [(offset, len(paths)) for offset, paths in blocks] == [
            (0, 32), (32, 32), (64, 32), (96, 4)]

    @pytest.mark.parametrize("family, hurst, trim", [
        (TableFamily.CUSUM_BRIDGE_SUP, 0.5, None),
        (TableFamily.SN_RATIO, 0.8, TrimSpec()),
    ], ids=["bridge_h0.5_refined", "sn_h0.8"])
    def test_table_holds_one_sub_block_not_a_batch(self, family, hurst, trim):
        # A 512-path batch at N = 2048 is 16 MiB of normals; its 32-path
        # sub-blocks are 1 MiB, and the half spectrum 256 kB. 2 MiB
        # sub-blocks with a dense refinement peaked at 4.3 MiB, this layout
        # at 2.7 MiB.
        def table():
            critical_values(family, 1, hurst, RngStream(86), trim=trim,
                            budget=TableBudget(1_024, 2_048), workers=1)

        table()  # warm: the eigenvalues and the spectrum scales, cached per process
        tracemalloc.start()
        try:
            table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak / 2**20

    @pytest.mark.parametrize("level", [0.0, 1.0, math.nan, 1e-9, 0.9999999])
    def test_refuses_a_level_outside_the_unit_interval_at_six_decimals(self, level):
        with pytest.raises(ValueError, match=r"levels must lie in \(0, 1\) at six decimals"):
            critical_values(TableFamily.CUSUM_BRIDGE_SUP, 1, 0.8, RngStream(83),
                            levels=(0.9, level), budget=TableBudget(100, 64))

    @pytest.mark.parametrize("workers", [0, -2, 1.5, True])
    def test_refuses_a_worker_count_that_is_not_a_positive_integer(self, workers):
        with pytest.raises((TypeError, ValueError), match="workers must be"):
            critical_values(TableFamily.CUSUM_BRIDGE_SUP, 1, 0.8, RngStream(83),
                            budget=TableBudget(100, 64), workers=workers)

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

    def test_a_payload_that_is_not_an_object_is_refused(self):
        with pytest.raises(ValueError, match="the JSON is not an object"):
            CriticalValueTable.from_json("[]")

    def test_version_mismatch_rejected(self, tmp_path):
        tab = critical_values(
            TableFamily.CUSUM_BRIDGE_SUP, 1, 0.6, RngStream(71),
            budget=TableBudget(500, 256),
        )
        payload = tab.to_json().replace('"version": 1', '"version": 99')
        with pytest.raises(ValueError, match="version"):
            CriticalValueTable.from_json(payload)
