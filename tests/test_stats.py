"""Tests for the CUSUM, Wilcoxon, and self-normalized statistic kernels."""

import tracemalloc

import numpy as np
import pytest

from lmsvtest import stats
from lmsvtest.dist import RngStream
from lmsvtest.mc import Plan
from lmsvtest.stats import (
    Transform,
    TrimSpec,
    cusum,
    cusum_by_definition,
    evaluate,
    ranks,
    row_blocks,
    sn_cusum,
    sn_cusum_by_definition,
    sn_wilcoxon,
    sn_wilcoxon_by_definition,
    wilcoxon,
    wilcoxon_by_definition,
)


def _rel_close(a, b, tol=1e-10):
    scale = max(abs(a), abs(b), 1e-30)
    return abs(a - b) / scale <= tol


class TestTransforms:
    def test_log_transforms_reject_zero(self):
        with pytest.raises(ValueError):
            Transform.LOG_ABS.apply(np.array([1.0, 0.0]))


class TestCusum:
    def test_constant_series_vanishes(self):
        stat = cusum(np.full(50, 3.7))
        assert stat.sup_value == pytest.approx(0.0, abs=1e-12)

    def test_hand_profile(self):
        # xs = (0, 0, 1, 1): |S_k - k/2| = (0.5, 1, 0.5, 0), sup at k = 2.
        stat = cusum(np.array([0.0, 0.0, 1.0, 1.0]))
        assert np.allclose(stat.profile, [0.5, 1.0, 0.5, 0.0])
        assert stat.sup_value == pytest.approx(1.0)
        assert stat.argmax_k == 2

    def test_profile_vanishes_at_n(self):
        x = RngStream(30).generator().standard_normal(64)
        assert cusum(x).profile[-1] == pytest.approx(0.0, abs=1e-10)

    def test_matches_definition(self):
        rng = RngStream(31).generator()
        for _ in range(20):
            x = rng.standard_normal(97)
            fast, slow = cusum(x), cusum_by_definition(x)
            assert _rel_close(fast.sup_value, slow.sup_value)
            assert fast.argmax_k == slow.argmax_k

    def test_scale_equivariance(self):
        x = RngStream(32).generator().standard_normal(128)
        c = -3.25
        assert _rel_close(cusum(c * x).sup_value, abs(c) * cusum(x).sup_value, 1e-12)

    def test_reversal_maps_argmax(self):
        x = RngStream(33).generator().standard_normal(101)
        fwd, rev = cusum(x), cusum(x[::-1])
        assert _rel_close(fwd.sup_value, rev.sup_value, 1e-12)
        assert rev.argmax_k == x.size - fwd.argmax_k


class TestWilcoxon:
    def test_monotone_series_hand_value(self):
        # Strictly increasing data: every cross pair contributes 1/2, so
        # W(k) = k (n - k) / 2; at k = n/2 that is k^2 / 2.
        n = 10
        stat = wilcoxon(np.arange(1.0, n + 1.0))
        k = n // 2
        assert stat.profile[k - 1] == pytest.approx(k**2 / 2.0)
        slow = wilcoxon_by_definition(np.arange(1.0, n + 1.0))
        assert np.allclose(stat.profile, slow.profile)

    def test_vanishes_at_full_cut(self):
        x = RngStream(34).generator().standard_normal(40)
        assert wilcoxon(x).profile[-1] == pytest.approx(0.0)

    def test_rank_formula_matches_double_sum(self):
        rng = RngStream(35).generator()
        for _ in range(200):
            x = rng.standard_normal(64)
            fast, slow = wilcoxon(x), wilcoxon_by_definition(x)
            assert np.array_equal(fast.profile, slow.profile)

    def test_rank_identity_exhaustive_small_n(self):
        rng = RngStream(36).generator()
        for n in range(2, 65):
            x = rng.standard_normal(n)
            fast, slow = wilcoxon(x), wilcoxon_by_definition(x)
            assert np.array_equal(fast.profile, slow.profile)

    @pytest.mark.parametrize("n", [2, 61, 500, 2000])
    def test_bridge_profile_is_bitwise_the_rank_sum_identity(self, n):
        # The ranks of a tie-free row average (n+1)/2 exactly, so the bridge of
        # the centered ranks is |sum_{i<=k} R_i - k(n+1)/2| without rounding.
        x = RngStream(38).generator().standard_normal((8, n))
        r = np.array([ranks(row) for row in x])
        k = np.arange(1, n + 1)
        expected = np.abs(np.cumsum(r, axis=-1) - k * (n + 1) / 2.0)
        assert np.array_equal(wilcoxon(x).profile, expected)

    def test_tied_data_falls_back_to_double_sum(self):
        x = np.array([1.0, 2.0, 2.0, 0.5, 2.0, 3.0, 1.0, 4.0])
        fast, slow = wilcoxon(x), wilcoxon_by_definition(x)
        assert np.allclose(fast.profile, slow.profile)

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64, 200])
    def test_tied_rows_equal_the_double_sum_bit_for_bit(self, n):
        # A tied row is counted by its pairs in O(n log n), in sums of counts
        # and half counts, which are exact.
        rng = RngStream(39).generator()
        for levels in (1, 2, 3, n // 2 + 1):
            x = rng.integers(0, levels, n).astype(float)
            assert np.array_equal(wilcoxon(x).profile, wilcoxon_by_definition(x).profile)

    def test_monotone_transform_invariance(self):
        x = RngStream(37).generator().standard_normal(80)
        direct = wilcoxon(x)
        transformed = wilcoxon(np.exp(x))
        assert np.array_equal(direct.profile, transformed.profile)


class TestRanks:
    def test_ranks_count_leq(self):
        x = np.array([0.3, -1.0, 2.0, 0.1])
        assert np.array_equal(ranks(x), [3, 1, 4, 2])

    def test_ranks_with_ties_use_max_convention(self):
        x = np.array([1.0, 2.0, 2.0, 0.0])
        assert np.array_equal(ranks(x), [2, 4, 4, 1])


def _ranking_rows(n):
    """Rows of length n that each hold one hard case of the key-sort ranking."""
    rng = RngStream(50, n).generator()
    rows = {name: rng.standard_normal(n) for name in (
        "tie-free", "exact ties", "adjacent doubles", "signed zeros", "infinities")}
    rows["exact ties"][-2:] = rows["exact ties"][0]
    # 1.5 and the next double share every bit but the last, so their keys
    # share their high bits: the exact ranking, with no tie.
    rows["adjacent doubles"][:2] = 1.5, np.nextafter(1.5, 2.0)
    rows["signed zeros"][:2] = -0.0, 0.0  # equal under '<='
    rows["infinities"][:2] = np.inf, -np.inf
    rows["extremes"] = np.concatenate([[5e-324, -5e-324, -1e308, 1e308], rng.standard_normal(n)])[:n]
    rows["constant"] = np.full(n, 2.5)
    return rows


def _counting_ranks(x):
    """R_i = #{j : x_j <= x_i}, pair by pair, and whether two values are equal."""
    leq = x[None, :] <= x[:, None]
    return leq.sum(axis=1).astype(float), bool((x[None, :] == x[:, None]).sum() > x.size)


class TestKeySortRanking:
    @pytest.mark.parametrize("n", [2, 500, 2048])
    def test_ranks_and_ties_equal_the_counting_definition(self, n, monkeypatch):
        rows = _ranking_rows(n)
        exact = []
        monkeypatch.setattr(stats, "ranks", lambda x: exact.append(x[0]) or ranks(x))
        r, tied = stats._ranked(np.vstack(list(rows.values())))
        for i, (name, x) in enumerate(rows.items()):
            counted, has_tie = _counting_ranks(x)
            assert np.array_equal(r[i], ranks(x)), name
            assert np.array_equal(r[i], counted), name
            assert tied[i] == has_tie, name
        assert list(tied) == [name in ("exact ties", "signed zeros", "constant") for name in rows]
        assert 1.5 in exact  # the adjacent doubles took the exact ranking

    @pytest.mark.parametrize("n", [2, 500, 2048])
    def test_rank_statistics_equal_their_definitions(self, n):
        rows = _ranking_rows(n)
        if n == 2048:
            # The double-sum oracle takes seconds a row at n = 2048: one row
            # there holds every case at once.
            x = rows["tie-free"].copy()
            x[:8] = 1.5, np.nextafter(1.5, 2.0), -0.0, 0.0, np.inf, -np.inf, 1.5, 5e-324
            rows = {"every case": x, "constant": rows["constant"]}
        trim = TrimSpec() if n > 2 else TrimSpec(0.5, 0.6)  # the one cut k = 1 at n = 2
        batch = np.vstack(list(rows.values()))
        together = evaluate(("wilcoxon", "sn_wilcoxon"), batch, trim=trim)
        for i, (name, x) in enumerate(rows.items()):
            if n != 2048 or name != "constant":
                assert np.array_equal(wilcoxon(x).profile, wilcoxon_by_definition(x).profile), name
            fast, slow = sn_wilcoxon(x, trim=trim), sn_wilcoxon_by_definition(x, trim=trim)
            assert np.allclose(fast.profile, slow.profile, rtol=1e-10, atol=0.0), name
            assert fast.degenerate == slow.degenerate, name
            for family, single in (("wilcoxon", wilcoxon(x)), ("sn_wilcoxon", fast)):
                assert np.array_equal(together[family].profile[i], single.profile), name
                assert together[family].sup_value[i] == single.sup_value, name


class TestSnCusum:
    def test_hand_value(self):
        # xs = 1..6 at k = 3: numerator 4.5, denominator sqrt(2/3).
        stat = sn_cusum(np.arange(1.0, 7.0), trim=TrimSpec(tau1=0.5, tau2=0.51))
        assert stat.k_grid[0] == 3
        assert stat.profile[0] == pytest.approx(4.5 / np.sqrt(2.0 / 3.0), rel=1e-12)
        assert stat.profile[0] == pytest.approx(5.51135, abs=5e-6)

    @pytest.mark.parametrize("value", [2.5, 0.1, 1e12])
    def test_constant_series_degenerate(self, value):
        stat = sn_cusum(np.full(100, value))
        assert stat.degenerate
        assert np.isinf(stat.sup_value)

    def test_piecewise_constant_series_degenerate(self):
        x = np.concatenate([np.zeros(50), np.ones(50)])
        stat = sn_cusum(x, trim=TrimSpec(tau1=0.5, tau2=0.51))
        assert stat.degenerate
        assert np.isinf(stat.sup_value)

    @pytest.mark.parametrize("n", [60, 500, 2000])
    def test_two_level_rows_degenerate_at_their_step(self, n):
        # Levels over 14 decades, steps anywhere in the window: relative to
        # A, the rounding left in the denominator grows like sqrt(n).
        rng = RngStream(47).generator()
        lo, hi = TrimSpec().window(n)
        steps = rng.integers(lo, hi + 1, size=200)
        levels = rng.standard_normal((200, 2)) * 10.0 ** rng.uniform(-6, 8, size=(200, 1))
        x = np.where(np.arange(n) < steps[:, None], levels[:, :1], levels[:, 1:])
        stat = sn_cusum(x)
        assert stat.degenerate.all()
        assert np.isinf(stat.profile[np.arange(200), steps - lo]).all()

    def test_matches_definition(self):
        rng = RngStream(38).generator()
        trim = TrimSpec()
        for n in (16, 64, 128):
            for _ in range(30):
                x = rng.standard_normal(n)
                fast = sn_cusum(x, trim=trim)
                slow = sn_cusum_by_definition(x, trim=trim)
                assert np.max(np.abs(fast.profile - slow.profile) / np.maximum(slow.profile, 1e-30)) < 1e-10
                assert fast.argmax_k == slow.argmax_k

    def test_affine_invariance(self):
        x = RngStream(39).generator().standard_normal(200)
        base = sn_cusum(x)
        moved = sn_cusum(-2.5 * x + 3.75)
        assert np.max(np.abs(base.profile - moved.profile)) < 1e-9 * max(1.0, base.sup_value)

    @pytest.mark.parametrize("scale", [2.0**520, 2.0**-520], ids=["2^520", "2^-520"])
    def test_ratio_is_bitwise_scale_free(self, scale):
        # A = sum_t P_t^2 of these rows overflows (2^520) or underflows
        # (2^-520): the ratio read NaN, refused, or inf, a degenerate zero.
        # Rows at every other index are scaled, so a block mixes both kinds.
        x = np.concatenate([_random_walks(50, 16, 500, h=1.0),
                            np.random.default_rng(0).standard_normal((16, 500))])
        scaled = x.copy()
        scaled[::2] *= scale
        base, both = (evaluate(("cusum", "sn_cusum"), v) for v in (x, scaled))
        assert np.array_equal(both["sn_cusum"].sup_value, base["sn_cusum"].sup_value)
        assert np.array_equal(both["sn_cusum"].argmax_k, base["sn_cusum"].argmax_k)
        assert not both["sn_cusum"].degenerate.any()
        assert np.array_equal(sn_cusum(scaled).sup_value, base["sn_cusum"].sup_value)
        # The scaled rows' cusum reads their own |P|, which is exactly scaled.
        assert np.array_equal(both["cusum"].sup_value[::2], base["cusum"].sup_value[::2] * scale)

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e155])
    def test_extreme_scales_give_the_unscaled_value(self, scale):
        # 1e-170 read inf (degenerate), 1e-160 was off by 4e-7 relative,
        # and 1e155 was refused as NaN.
        x = np.random.default_rng(0).standard_normal(300)
        base, far = sn_cusum(x), sn_cusum(x * scale)
        assert not far.degenerate and far.argmax_k == base.argmax_k
        assert _rel_close(far.sup_value, base.sup_value, tol=1e-13)

    def test_triple_loop_literal_small_case(self):
        # Pure-Python evaluation of the displayed formula on a tiny series,
        # double-checking the vectorized oracle itself.
        x = RngStream(40).generator().standard_normal(12)
        trim = TrimSpec(tau1=0.25, tau2=0.75)
        n = x.size
        lo, hi = trim.window(n)
        expected = []
        for k in range(lo, hi + 1):
            numer = abs(sum(x[:k]) - k / n * sum(x))
            left = 0.0
            mean_left = sum(x[:k]) / k
            for t in range(1, k + 1):
                s = sum(x[h] - mean_left for h in range(t))
                left += s * s
            right = 0.0
            mean_right = sum(x[k:]) / (n - k)
            for t in range(k + 1, n + 1):
                s = sum(x[h - 1] - mean_right for h in range(k + 1, t + 1))
                right += s * s
            expected.append(numer / np.sqrt((left + right) / n))
        fast = sn_cusum(x, trim=trim)
        assert np.allclose(fast.profile, expected, rtol=1e-10)


class TestSnWilcoxon:
    def test_equals_sn_cusum_on_ranks_of_monotone_series(self):
        x = np.sort(RngStream(41).generator().standard_normal(60))
        stat = sn_wilcoxon(x)
        ref = sn_cusum(np.arange(1.0, 61.0))
        assert np.allclose(stat.profile, ref.profile, rtol=1e-12)

    def test_matches_definition(self):
        rng = RngStream(42).generator()
        for _ in range(30):
            x = rng.standard_normal(100)
            fast = sn_wilcoxon(x)
            slow = sn_wilcoxon_by_definition(x)
            assert np.max(np.abs(fast.profile - slow.profile) / np.maximum(slow.profile, 1e-30)) < 1e-10

    def test_invariant_under_strictly_increasing_transform(self):
        x = RngStream(43).generator().standard_normal(90)
        a = sn_wilcoxon(x)
        b = sn_wilcoxon(np.exp(x) + x**3)
        assert np.array_equal(a.profile, b.profile)
        assert a.argmax_k == b.argmax_k


def _mixed_batch(n=60):
    """Tie-free rows, rows with ties and piecewise-constant rows, none zero."""
    rng = RngStream(44).generator()
    tie_free = rng.standard_normal((4, n))
    tied = np.round(rng.standard_normal((3, n)), 1) + 0.05
    step = np.concatenate([np.full(n // 2, 1.0), np.full(n - n // 2, 2.0)])
    constant = np.full(n, 2.5)
    return np.vstack([tie_free, tied, step, constant, tie_free[0] * 1e6])


class TestBatch:
    @pytest.mark.parametrize("transform", [Transform.IDENTITY, Transform.SQUARE, Transform.LOG_ABS])
    @pytest.mark.parametrize("kernel", [cusum, wilcoxon, sn_cusum, sn_wilcoxon])
    def test_rows_equal_single_series_calls(self, kernel, transform):
        batch = _mixed_batch()
        stacked = kernel(batch, transform)
        assert stacked.profile.shape[0] == batch.shape[0]
        for row, x in enumerate(batch):
            single = kernel(x, transform)
            assert np.array_equal(stacked.profile[row], single.profile)
            assert stacked.sup_value[row] == single.sup_value
            assert stacked.argmax_k[row] == single.argmax_k
            assert stacked.degenerate[row] == single.degenerate

    def test_batch_covers_both_wilcoxon_paths_and_degeneracy(self):
        batch = _mixed_batch()
        slow = [wilcoxon_by_definition(x) for x in batch]
        fast = wilcoxon(batch)
        for row, ref in enumerate(slow):
            assert np.allclose(fast.profile[row], ref.profile)
        assert list(sn_cusum(batch).degenerate) == [False] * 7 + [True, True, False]
        assert list(sn_wilcoxon(batch).degenerate) == [False] * 7 + [True, True, False]
        # A row is degenerate where its profile reads +inf: row by row, that is
        # the oracle's own flag on constant and two-level rows at 1 and 2^+-520,
        # and on rows that are neither at 1 and 2^520. At 2^-520 the oracle's
        # 1 / denom^2 overflows and flags every row, so such rows are left out
        # (test_ratio_is_bitwise_scale_free reads them).
        n = 200
        levels = np.vstack([np.full(n, 2.5), np.full(n, -4.0),
                            np.where(np.arange(n) < n // 2, 1.0, 3.0),
                            np.where(np.arange(n) < 70, -2.0, 0.5)])
        noise = RngStream(52).generator().standard_normal((2, n))
        rows = np.vstack([levels, levels * 2.0**520, levels * 2.0**-520, noise, noise * 2.0**520])
        with np.errstate(over="ignore"):  # the oracle's sums of squares at 2^+-520
            flags = [sn_cusum_by_definition(x).degenerate for x in rows]
        assert flags == [True] * 12 + [False] * 4
        assert list(evaluate(("sn_cusum",), rows)["sn_cusum"].degenerate) == flags

    def test_one_series_reads_python_scalars(self):
        # One finishing rule serves a batch and one series: a series reads
        # float, int and bool (which json.dumps takes), a batch reads arrays,
        # from evaluate, each kernel and each oracle alike, on a degenerate
        # row too.
        families = ("cusum", "wilcoxon", "sn_cusum", "sn_wilcoxon")
        kernels = (cusum, wilcoxon, sn_cusum, sn_wilcoxon)
        oracles = (cusum_by_definition, wilcoxon_by_definition, sn_cusum_by_definition,
                   sn_wilcoxon_by_definition)
        for x in _mixed_batch()[[0, 4, 7, 8]]:
            results = [*evaluate(families, x).values(), *(f(x) for f in kernels + oracles)]
            for stat in results:
                types = type(stat.sup_value), type(stat.argmax_k), type(stat.degenerate)
                assert types == (float, int, bool)
                assert stat.profile.ndim == 1
        for stat in (*evaluate(families, _mixed_batch()).values(), cusum(_mixed_batch())):
            assert isinstance(stat.sup_value, np.ndarray) and stat.argmax_k.dtype.kind == "i"
            assert stat.degenerate.dtype == bool and stat.profile.ndim == 2

    def test_evaluate_shares_one_transform(self):
        x = _mixed_batch()
        results = evaluate(("cusum", "wilcoxon", "sn_cusum", "sn_wilcoxon"), x, Transform.SQUARE)
        assert np.array_equal(results["sn_wilcoxon"].profile, sn_wilcoxon(x, Transform.SQUARE).profile)
        assert np.array_equal(results["cusum"].sup_value, cusum(x, Transform.SQUARE).sup_value)
        with pytest.raises(ValueError, match="unknown"):
            evaluate(("bogus",), x)

    @pytest.mark.parametrize("xs, match", [
        (np.zeros((2, 3, 4)), "one series or a 2-D batch"),
        (np.array([1.0]), "at least 2 observations"),
    ], ids=["3-d", "one-value"])
    def test_evaluate_refuses_a_shape_it_cannot_read(self, xs, match):
        with pytest.raises(ValueError, match=match):
            evaluate(("cusum",), xs, Transform.IDENTITY, TrimSpec())

    @pytest.mark.parametrize("transform", [Transform.IDENTITY, Transform.SQUARE, Transform.LOG_ABS])
    def test_row_sups_are_the_sup_values_of_evaluate(self, transform):
        # The row suprema that each block reduces to (_row_sup, the reduction
        # of shift_sups) are those of the whole profiles that evaluate keeps:
        # an empty batch, and tied, constant and piecewise-constant rows
        # (_mixed_batch).
        families = ("cusum", "wilcoxon", "sn_cusum", "sn_wilcoxon")
        for x in (np.empty((0, 60)), _mixed_batch(), _random_walks(48, 40, 2000, h=1.0)):
            sups = _block_sups(families, x, transform)
            results = evaluate(families, x, transform)
            assert set(sups) == {(family, None) for family in families}
            for family in families:
                assert np.array_equal(sups[family, None], results[family].sup_value)
        assert set(_block_sups(("sn_wilcoxon",), x)) == {("sn_wilcoxon", None)}

    @pytest.mark.parametrize("shape", [(128, 500), (32, 2000)])
    def test_row_sups_hold_a_few_row_blocks_not_the_chunk(self, shape):
        # Each row block runs from the transform to its suprema before the
        # next starts, so the temporaries are a few 256 kiB blocks, whatever
        # the chunk: measured at 1.44-1.47 MiB on numpy 2.4, against
        # 2.53-2.55 MiB when each input was transformed, checked and ranked
        # whole. numpy 2.4 runs the in-place cumsums of _sn_terms without a
        # copy (under 1 kB traced); the bound leaves room for one more block,
        # as a numpy that copied their input would need.
        families = ("cusum", "wilcoxon", "sn_cusum", "sn_wilcoxon")
        x = RngStream(51).generator().standard_normal(shape)
        _block_sups(families, x, Transform.SQUARE)  # fills the weight caches
        tracemalloc.start()
        try:
            _block_sups(families, x, Transform.SQUARE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**18, f"{peak / 2**20:.2f} MiB"

    def test_a_nan_supremum_is_refused(self):
        # The sum of a row near 1e307 overflows: inf - inf leaves a NaN
        # bridge, and a NaN supremum, which would exceed no critical value.
        x = RngStream(49).generator().standard_normal((3, 200))
        x[1, 100:] += 1e307
        for reduce in (_block_sups, evaluate):
            for family in ("cusum", "sn_cusum"):
                with pytest.raises(ValueError, match=f"the {family} supremum is NaN"):
                    reduce((family,), x)


def _block_sups(families, x, transform=Transform.IDENTITY):
    """The suprema that each row block reduces to (_row_sup), keyed (family,
    None): the block loop that shift_sups runs, at no shift."""
    return stats._evaluate(families, x, transform, TrimSpec(), stats._row_sup)


def _random_walks(seed, count, n, h, offset=50.0):
    """Random walks with a mean shift of h at n // 2, around `offset`."""
    x = offset + np.cumsum(RngStream(seed).generator().standard_normal((count, n)), axis=-1)
    x[..., n // 2:] += h
    return x


class TestRowBlocks:
    def test_block_rule(self):
        assert [(b.start, b.stop) for b in row_blocks((64, 1000))] == [(0, 32), (32, 64)]
        assert len(list(row_blocks((64, 2000)))) == 4
        assert len(list(row_blocks((64, 500)))) == 1
        assert [(b.start, b.stop) for b in row_blocks((2, 40_000))] == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("kernel", [sn_cusum, sn_wilcoxon])
    @pytest.mark.parametrize("n", [500, 1000, 2000])
    def test_row_is_bitwise_the_same_alone_and_in_any_block(self, kernel, n):
        batch = _random_walks(45, 64, n, h=1.0)
        stacked = kernel(batch)
        # Rows on both sides of every block boundary, and the ends.
        rows = sorted({0, 63} | {r for b in row_blocks(batch.shape) for r in (b.start, b.stop - 1)})
        for row in rows:
            alone = kernel(batch[row])
            assert np.array_equal(stacked.profile[row], alone.profile)
            assert stacked.sup_value[row] == alone.sup_value
            assert stacked.argmax_k[row] == alone.argmax_k
            assert stacked.degenerate[row] == alone.degenerate
        shifted = kernel(batch[5:])  # other block boundaries
        assert np.array_equal(shifted.profile, stacked.profile[5:])

    @pytest.mark.parametrize("h", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("n", [500, 2000])
    def test_sup_and_argmax_match_the_oracle_with_an_offset(self, n, h):
        for x in _random_walks(46, 2, n, h):
            for fast, slow in ((sn_cusum, sn_cusum_by_definition),
                               (sn_wilcoxon, sn_wilcoxon_by_definition)):
                stat, ref = fast(x), slow(x)
                assert stat.sup_value == pytest.approx(ref.sup_value, rel=1e-10)
                assert stat.argmax_k == ref.argmax_k


class TestNonFiniteInput:
    @pytest.mark.parametrize("kernel", [cusum, wilcoxon, sn_cusum, sn_wilcoxon])
    def test_nan_is_refused(self, kernel):
        x = RngStream(45).generator().standard_normal(40)
        x[7] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            kernel(x)

    @pytest.mark.parametrize("kernel", [cusum, sn_cusum])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_sum_families_refuse_inf(self, kernel, value):
        x = RngStream(46).generator().standard_normal(40)
        x[3] = value
        with pytest.raises(ValueError, match="inf"):
            kernel(x)

    @pytest.mark.parametrize("kernel", [wilcoxon, sn_wilcoxon])
    def test_rank_families_rank_inf_as_extreme(self, kernel):
        x = RngStream(47).generator().standard_normal(40)
        big = x.copy()
        x[3], big[3] = np.inf, 1e300
        x[9], big[9] = -np.inf, -1e300
        assert np.array_equal(kernel(x).profile, kernel(big).profile)


class TestDecide:
    """Plan.verdict, the one comparison of a statistic with a critical value."""

    def test_reject_flag(self):
        stat = cusum(np.array([0.0, 0.0, 5.0, 5.0]))
        statistic, reject = Plan("cusum", Transform.IDENTITY, None, 2.0, 1.0).verdict(
            stat.sup_value)
        assert statistic == pytest.approx(stat.sup_value / 2.0)
        assert reject == (statistic > 1.0)

    def test_no_critical_value_means_no_decision(self):
        stat = cusum(np.array([1.0, 2.0, 1.5, 0.5]))
        plan = Plan("cusum", Transform.IDENTITY, None, 1.0)
        statistic, reject = plan.verdict(stat.sup_value)
        assert reject is None
        assert plan.critical_value is None

    def test_a_batch_reads_as_each_of_its_rows(self):
        x = RngStream(3).generator().standard_normal((6, 40))
        plan = Plan("cusum", Transform.IDENTITY, None, 3.0, 1.5)
        statistic, reject = plan.verdict(cusum(x).sup_value)
        assert 0 < np.count_nonzero(reject) < 6
        for row, value, flag in zip(x, statistic, reject):
            assert (value, flag) == plan.verdict(cusum(row).sup_value)
