"""Change-point test statistics: CUSUM, Wilcoxon, and self-normalized variants.

Each optimized kernel has a definitional counterpart (suffix `_by_definition`)
that evaluates the formulas by direct summation. The tests hold the kernels to
1e-10 relative error against them on i.i.d. normal series (n <= 128) and, for
the SN sup and argmax, on random walks with an offset of 50 and shifts up to
10 (n = 500, 2000). Elsewhere the SN algebra, which cancels terms of size
sum_t P_t^2, can miss: rows of 50 + N(0, 1) with a 10 sigma shift at n/2,
n = 2000, read up to 7.8e-10 off a long-double reference (seeds 0-3, 8 rows
each; ROADMAP item 4).

All four statistics are functionals of one bridge, the partial sums
P_t = S_t - (t/n) S_n of the values (cusum, sn_cusum) or of their ranks
(wilcoxon, sn_wilcoxon). cusum and wilcoxon are |P_k| over k = 1..n. The
self-normalized ratio at cut k is |P_k| / denom(k), with
n denom^2(k) = A + gamma_k P_k^2 + (2/u) P_k ((n/k) CC_{k-1} - CC_{n-1}),
u = n - k, A = sum_t P_t^2 and CC the prefix sums of the prefix sums of P
(see _sn_terms). evaluate builds the bridge of each input once, from the
centered row (P does not depend on the row's offset): three prefix passes
and one row dot product serve both families of the input. The ranks of a
tie-free row average (n+1)/2 exactly, so the Wilcoxon profile is bitwise
|sum_{i<=k} R_i - k(n+1)/2|. The ranks come from one sort of packed
integer keys per block (_ranked); a row where two keys agree in their high
bits, a tie or values a few ulps apart, is ranked by the counting
definition.

evaluate and shift_sups, which reads every shift z0 + g D of a series z0
(lmsv.shift_rule) by the linearity of the bridge, take a batch one row
block of row_blocks at a time, from end to end: the transform, the NaN and
+-inf checks, the ranking and the bridge of each input. Those blocks are
the rule of asymp's table functionals and fgn's spectrum too: as many
whole rows as fit in _BLOCK, so no temporary grows with the batch. Rows
are independent, so a row's result is bitwise the same alone, in any batch
and in any block. _profiles is the one place that builds a profile block,
|P| or the SN ratio under one scale rule, and each block's profiles go to
the caller's reduction: evaluate keeps them, and a row is degenerate where
its profile reads +inf; shift_sups keeps its rows' suprema, so a batch of
replications keeps no profile. A NaN supremum, which terms past the
doubles leave, is refused by both. asymp's table functionals reduce
_profiles too, of _bridge entered at the partial sums that the simulated
paths already are, with no differencing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


#: Doubles per row block: the statistics (from the transform to the
#: suprema), the table functionals and fgn's half spectrum evaluate as many
#: whole rows as fit in 256 kB (at least one) at a time, so that each
#: temporary stays in cache. Rows are independent, so the block size does
#: not change a bit of any result.
_BLOCK = 1 << 15


def row_blocks(shape: tuple[int, int]):
    """Slices of consecutive rows of a (count, n) array, _BLOCK // n rows each."""
    count, n = shape
    rows = max(1, _BLOCK // n)
    return (slice(start, min(start + rows, count)) for start in range(0, count, rows))


class Transform(enum.Enum):
    """Pointwise transform selecting the change-point problem."""

    IDENTITY = "identity"
    SQUARE = "square"
    LOG_ABS = "log_abs"

    def apply(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if self is Transform.IDENTITY:
            return xs
        if self is Transform.SQUARE:
            return xs * xs
        if np.any(xs == 0.0):
            raise ValueError(f"{self.value} transform is undefined at zero values")
        return np.log(np.abs(xs))


@dataclass(frozen=True)
class TrimSpec:
    """Trimming proportions for the self-normalized supremum window."""

    tau1: float = 0.15
    tau2: float = 0.85

    def __post_init__(self) -> None:
        if not 0.0 < self.tau1 < self.tau2 < 1.0:
            raise ValueError(
                f"need 0 < tau1 < tau2 < 1, got ({self.tau1}, {self.tau2})"
            )

    def window(self, n: int) -> tuple[int, int]:
        """Inclusive 1-based cut-point range [floor(n*tau1), floor(n*tau2)]."""
        lo = int(math.floor(n * self.tau1))
        hi = int(math.floor(n * self.tau2))
        if lo < 1:
            raise ValueError(f"trimmed window starts below k=1 for n={n}")
        return lo, min(hi, n - 1)


@dataclass
class ProfileStat:
    """Supremum statistic together with its full cut-point profile.

    For a batch of series, sup_value, argmax_k and degenerate are arrays
    with one entry per series and profile has one row per series; k_grid
    is shared.
    """

    sup_value: float | np.ndarray
    argmax_k: int | np.ndarray
    k_grid: np.ndarray
    profile: np.ndarray
    degenerate: bool | np.ndarray = False


def ranks(xs: np.ndarray) -> np.ndarray:
    """Rank by '<=' counting: R_i = #{j : x_j <= x_i}."""
    xs = np.asarray(xs, dtype=float)
    order = np.sort(xs)
    return np.searchsorted(order, xs, side="right").astype(float)


def _rows(xs: np.ndarray) -> np.ndarray:
    """xs as a (count, n) float batch, one series being a batch of one."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim not in (1, 2):
        raise ValueError(f"need one series or a 2-D batch of series, got shape {xs.shape}")
    if xs.shape[-1] < 2:
        raise ValueError(f"need at least 2 observations, got {xs.shape[-1]}")
    return xs.reshape(-1, xs.shape[-1])


def _checked(y: np.ndarray, sums: bool) -> np.ndarray:
    """The block y, refusing NaN for every family and, where `sums`, +-inf:
    sums of infinite values mean nothing, and neither does y + g D."""
    if not np.isfinite(y).all():
        if np.isnan(y).any():
            raise ValueError("the series contains NaN")
        if sums:
            raise ValueError("the series contains +-inf, which sums and shifts refuse")
    return y


def _ranked(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """'<='-count ranks of each row of the (rows, n) block y, and which rows
    hold ties.

    One in-place sort of packed keys gives both. A double maps to a uint64
    in the same order (-0.0 folded into +0.0 first), whose low ceil(log2 n)
    bits are then replaced by the column index. A row whose sorted keys all
    differ in their high bits is in exact value order, tie-free, and its
    sorted position is the rank. A row where two keys share their high bits
    (a tie, or values a few ulps apart) is ranked by the counting definition
    (ranks); a tie raises the rank of all but the last of its values, so
    that row is tied exactly when its ranks sum past n(n+1)/2.
    """
    rows, n = y.shape
    bits = (n - 1).bit_length()
    keys = (y + 0.0).view(np.int64)
    flip = keys >> 63  # all ones for a negative double, else zero
    flip |= np.int64(-1 << 63)
    keys ^= flip  # negatives flip every bit, the rest only the sign bit
    del flip
    keys = keys.view(np.uint64)
    keys &= np.uint64(2**64 - (1 << bits))
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=-1)
    close = np.min(keys[:, 1:] ^ keys[:, :-1], axis=-1) < (1 << bits)
    index = keys.view(np.int64)
    index &= (1 << bits) - 1
    index += np.arange(0, rows * n, n)[:, None]
    r = np.empty((rows, n))
    r.reshape(-1)[index.reshape(-1)] = np.tile(np.arange(1.0, n + 1.0), rows)
    tied = np.zeros(rows, dtype=bool)
    for row in np.flatnonzero(close):
        r[row] = ranks(y[row])
        tied[row] = r[row].sum() > n * (n + 1) / 2
    return r, tied


def _row_sup(values: np.ndarray, family: str, h: float | None = None) -> np.ndarray:
    """The supremum of each row of values, refusing a NaN one: terms that
    overflow double precision leave inf - inf = NaN, and NaN exceeds no
    critical value."""
    sup = np.max(values, axis=-1)
    if np.isnan(sup).any():
        at = "" if h is None else f" at h = {h:g}"
        raise ValueError(f"the {family} supremum{at} is NaN: "
                         "the statistic overflows double precision")
    return sup


def _finish(profile: np.ndarray, k_grid: np.ndarray, family: str = "statistic",
            degenerate: bool | None = None) -> ProfileStat:
    """The statistic of a profile, or of each row of a 2-D batch of them: the
    supremum (a NaN one refused), the cut of its first maximum, and whether
    the profile is degenerate, where it reads +inf (a zero SN denominator,
    _sn_ratio) unless `degenerate` says. One profile gets Python scalars."""
    sup, argmax_k = _row_sup(profile, family), k_grid[np.argmax(profile, axis=-1)]
    if degenerate is None:
        degenerate = np.isinf(profile).any(axis=-1)
    if profile.ndim == 1:
        sup, argmax_k, degenerate = float(sup), int(argmax_k), bool(degenerate)
    return ProfileStat(sup, argmax_k, k_grid, profile, degenerate)


# ---------------------------------------------------------------------------
# CUSUM


def cusum(xs: np.ndarray, transform: Transform = Transform.IDENTITY) -> ProfileStat:
    """Supremum of |S_k - (k/n) S_n|, the bridge |P_k|, over cut points k = 1..n.

    `xs` is one series or a batch of series along the last axis.
    """
    return evaluate(("cusum",), xs, transform)["cusum"]


def cusum_by_definition(xs: np.ndarray, transform: Transform = Transform.IDENTITY) -> ProfileStat:
    """Direct per-k evaluation of the centered partial sums (test oracle)."""
    y = transform.apply(xs)
    n = y.size
    total = float(np.sum(y))
    profile = np.array(
        [abs(float(np.sum(y[:k])) - (k / n) * total) for k in range(1, n + 1)]
    )
    return _finish(profile, np.arange(1, n + 1))


# ---------------------------------------------------------------------------
# Wilcoxon


def wilcoxon(xs: np.ndarray, transform: Transform = Transform.IDENTITY) -> ProfileStat:
    """Two-sample rank-sum profile |sum_{i<=k} R_i - k(n+1)/2| over cut points.

    `xs` is one series or a batch of series along the last axis. The rank
    identity holds only for tie-free data; a row with ties is read from
    its pair counts, in O(n log n) too.
    """
    return evaluate(("wilcoxon",), xs, transform)["wilcoxon"]


def _wilcoxon_pair_counts(y: np.ndarray) -> np.ndarray:
    # W(k) = sum_{i<=k} sum_{j>k} (1{y_i <= y_j} - 1/2), k = 1..n, is
    # sum_{i<=k} (G_i - occ_i) - k - k(k-1)/2 - k(n-k)/2, with
    # G_i = #{j : y_j >= y_i} and occ_i the count of values equal to y_i
    # before it: O(n log n), and exact, every term a count or half of one.
    n = y.size
    order = np.argsort(y, kind="stable")
    ys = y[order]
    first = np.searchsorted(ys, ys, side="left")  # of each sorted value's run of equals
    terms = np.empty(n)
    terms[order] = (n - first) - (np.arange(n) - first)
    k = np.arange(1.0, n + 1.0)
    return np.cumsum(terms) - k - k * (k - 1.0) / 2.0 - k * (n - k) / 2.0


def wilcoxon_by_definition(
    xs: np.ndarray, transform: Transform = Transform.IDENTITY
) -> ProfileStat:
    """Literal double-sum over (i, j) pairs for every cut point (test oracle)."""
    y = transform.apply(xs)
    n = y.size
    profile = np.empty(n)
    for k in range(1, n + 1):
        left, right = y[:k], y[k:]
        count = float(np.sum(left[:, None] <= right[None, :]))
        profile[k - 1] = abs(count - k * (n - k) / 2.0)
    return _finish(profile, np.arange(1, n + 1))


# ---------------------------------------------------------------------------
# Self-normalized statistics


def _sn_terms(p: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """The terms of the self-normalized ratio at the cuts k = lo..hi of each
    row of bridge partial sums p: P_k, the part L_k of the denominator that
    is linear in the bridge, and A / n, so that denom^2(k) = P_k L_k + A / n.

    The ratio is evaluated on the bridge partial sums P_t = S_t - (t/n) S_n,
    with P_n = 0. The numerator at cut k is |P_k|. Within-segment demeaning
    makes the left residuals P_t - (t/k) P_k and the right residuals
    P_t - ((n-t)/u) P_k with u = n - k, so the sum of P_t^2 over t <= k
    cancels between the two sides and only its total A = sum_t P_t^2 is
    left:

        n denom^2(k) = A + gamma_k P_k^2 + (2/u) P_k ((n/k) CC_{k-1} - CC_{n-1})

    with C_j = sum_{t<=j} P_t, CC_j = sum_{i<=j} C_i (so that
    sum_{t<=k} (k-t) P_t = CC_{k-1}) and
    gamma_k = S2(k)/k^2 - 1 + S2(u)/u^2, S2(j) = j(j+1)(2j+1)/6. That is
    two prefix passes and one row dot product per row; the per-cut
    weights are cached per (n, window).
    """
    n = p.shape[-1]
    gamma, w_left, w_right = _sn_weights(n, lo, hi)
    a = np.einsum("ij,ij->i", p, p)[:, None] / n
    cc = np.empty_like(p)
    cc[:, 0] = 0.0
    np.cumsum(p[:, :-1], axis=-1, out=cc[:, 1:])
    np.cumsum(cc[:, 1:], axis=-1, out=cc[:, 1:])
    pk = p[:, lo - 1:hi]
    linear = gamma * pk
    window = cc[:, lo - 1:hi]  # hi < n: CC_{n-1} lies past it
    window *= w_left
    linear += window
    linear -= np.multiply(w_right, cc[:, -1:], out=window)
    return pk, linear, a


def _sn_ratio(pk: np.ndarray, linear: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """Self-normalized ratio |P_k| / sqrt(P_k L_k + A / n) from the terms of
    _sn_terms. A denominator within rounding of the cancelled magnitude A
    (piecewise-constant input) is a degenerate zero and yields +inf, its
    only infinite value: elsewhere denom^2 > 4 eps A >= 4 eps P_k^2, so the
    ratio stays below about 1 / sqrt(4 eps)."""
    denom_sq = linear * pk
    denom_sq += a
    # The cancellation against A leaves rounding of up to about
    # 2 sqrt(n) eps A / n (measured on two-level rows, n = 20..10 000) in
    # the denominator of a piecewise-constant row, within the
    # recursive-summation bound n eps A / n; up to 4 n eps A / n it
    # counts as an exact zero. A constant row has P = 0 exactly.
    zero = denom_sq <= 4.0 * n * np.finfo(float).eps * a
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.divide(np.abs(pk), np.sqrt(denom_sq, out=denom_sq), out=denom_sq)
    ratio[zero] = np.inf
    return ratio


@lru_cache(maxsize=32)
def _sn_weights(n: int, lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """The per-cut weights of the bridge algebra in _sn_terms at the cuts
    k = lo..hi, divided by n: gamma_k / n, 2 / (k u) and 2 / (n u)."""
    k = np.arange(lo, hi + 1, dtype=float)
    u = n - k
    gamma = (_sum_sq(k) / (k * k) - 1.0 + _sum_sq(u) / (u * u)) / n
    weights = (gamma, 2.0 / (k * u), 2.0 / (n * u))
    for w in weights:
        w.flags.writeable = False
    return weights


def _sum_sq(k: np.ndarray) -> np.ndarray:
    return k * (k + 1.0) * (2.0 * k + 1.0) / 6.0


def sn_cusum(
    xs: np.ndarray,
    transform: Transform = Transform.IDENTITY,
    trim: TrimSpec = TrimSpec(),
) -> ProfileStat:
    """Self-normalized CUSUM statistic over the trimmed cut-point window.

    `xs` is one series or a batch of series along the last axis.
    """
    return evaluate(("sn_cusum",), xs, transform, trim)["sn_cusum"]


def sn_wilcoxon(
    xs: np.ndarray,
    transform: Transform = Transform.IDENTITY,
    trim: TrimSpec = TrimSpec(),
) -> ProfileStat:
    """Self-normalized Wilcoxon statistic: the CUSUM ratio applied to ranks.

    `xs` is one series or a batch of series along the last axis.
    """
    return evaluate(("sn_wilcoxon",), xs, transform, trim)["sn_wilcoxon"]


# ---------------------------------------------------------------------------
# The bridge: one pass per input serves the sup family and the SN family


def _bridge(s: np.ndarray) -> np.ndarray:
    """The bridge P_t = S_t - (t/n) S_n of each row of partial sums s."""
    n = s.shape[-1]
    line = np.arange(1.0, n + 1.0) * (s[:, -1:] / n)
    return np.subtract(s, line, out=line)


def _centered_bridge(z: np.ndarray) -> np.ndarray:
    """The bridge of the partial sums of each row of z less its mean. P does
    not depend on the row's offset, and centering keeps S_n near zero."""
    s = z - z.mean(axis=-1, keepdims=True)
    np.cumsum(s, axis=-1, out=s)
    return _bridge(s)


def _profiles(
    p: np.ndarray, sup: str | None, sn: str | None, window: tuple[int, int] | None,
    terms: tuple[np.ndarray, ...] | None = None,
):
    """The profiles of one row block of bridges p, as (family, block) pairs:
    `sn`, the self-normalized ratio over the cuts of `window`, then `sup`,
    |P_k| over k = 1..n (None leaves a family out). p and `terms`, those of
    _sn_terms of p when the caller has them, are left as they are."""
    if sn:
        pk, linear, a = _sn_terms(p, *window) if terms is None else terms
        # The ratio does not depend on the scale of P, but A = sum_t P_t^2
        # overflows (inf - inf = NaN) or underflows (a zero denominator)
        # far from 1. Such rows are evaluated at P 2^-e, e the exponent of
        # their largest |P|: a power of two scales every term exactly, so a
        # row reads the same bits at any scale.
        far = ~((a[:, 0] >= 2.0**-500) & (a[:, 0] <= 2.0**500))
        if far.any():  # pk may be a view of p, and the caller's terms serve other shifts
            pk, linear, a = pk.copy(), linear.copy(), a.copy()
            e = np.frexp(np.max(np.abs(p[far]), axis=-1, keepdims=True))[1]
            for term, scaled in zip((pk, linear, a), _sn_terms(np.ldexp(p[far], -e), *window)):
                term[far] = scaled
        yield sn, _sn_ratio(pk, linear, a, p.shape[-1])
    if sup:
        yield sup, np.abs(p)


#: The families of each input of the bridge, the values and their ranks:
#: the supremum of |P| and the self-normalized ratio.
_INPUTS = (("cusum", "sn_cusum"), ("wilcoxon", "sn_wilcoxon"))


# Terms past the doubles leave inf or inf - inf = NaN, not a warning: the
# reductions refuse a NaN supremum (_row_sup) and keep an infinite one.
@np.errstate(over="ignore", invalid="ignore")
def _evaluate(
    families: tuple[str, ...], xs: np.ndarray, transform: Transform, trim: TrimSpec,
    reduce, direction=None, gains: dict[float, float] | None = None,
) -> dict[tuple[str, float | None], np.ndarray]:
    """reduce(profile, family, h) of each row block's profiles (_profiles) of
    the batch xs, in one array per (family, h), one row block at a time from
    end to end: the transform, the NaN and +-inf checks, the ranking and the
    bridge of each input. h None reads the block itself; with a direction,
    each h of `gains` reads the transformed block y plus g D, g = gains[h]
    and D = direction(rows, y) (shift_sups)."""
    unknown = set(families) - {family for pair in _INPUTS for family in pair}
    if unknown:
        raise ValueError(f"unknown families {sorted(unknown)}")
    xs = _rows(xs)
    count, n = xs.shape
    on_values, on_ranks = ([f if f in families else None for f in pair] for pair in _INPUTS)
    window = trim.window(n) if on_values[1] or on_ranks[1] else None
    shifts = {None: None} if direction is None else gains
    out = dict.fromkeys((f, h) for f in families for h in shifts)

    def keep(rows, family, h, profile):
        value = reduce(profile, family, h)
        if out[family, h] is None:
            out[family, h] = np.empty((count, *value.shape[1:]))
        out[family, h][rows] = value

    # An empty batch runs one empty block, which gives its results their shapes.
    for rows in row_blocks((max(count, 1), n)):
        y = _checked(transform.apply(xs[rows]), sums=any(on_values) or direction is not None)
        d = None if direction is None else direction(rows, y)
        if any(on_values):
            p = _centered_bridge(y)
            terms = _sn_terms(p, *window) if on_values[1] else None
            if d is not None:  # a shift costs no prefix pass: the bridge is linear in the series
                pd = _centered_bridge(d)
                if on_values[1]:
                    d_terms = _sn_terms(pd, *window)
                    cross = np.vecdot(p, pd)[:, None] * (2.0 / n)
            for h, g in shifts.items():
                ph, g_terms = p, terms  # g None or 0 reads the block itself
                if g:
                    ph = p + g * pd
                    if terms is not None:
                        g_terms = (terms[0] + g * d_terms[0], terms[1] + g * d_terms[1],
                                   terms[2] + g * (cross + g * d_terms[2]))
                for family, profile in _profiles(ph, *on_values, window, g_terms):
                    keep(rows, family, h, profile)
                profile = None  # no profile outlives its reduction
            p = pd = ph = terms = d_terms = cross = g_terms = None  # freed before ranking
        for h, g in shifts.items() if any(on_ranks) else ():
            yh = y + g * d if g else y
            r, tied = _ranked(yh)
            for family, profile in _profiles(_centered_bridge(r), *on_ranks, window):
                # The rank identity holds only for tie-free rows: a tied row counts its pairs.
                for row in np.flatnonzero(tied) if family == "wilcoxon" else ():
                    profile[row] = np.abs(_wilcoxon_pair_counts(yh[row]))
                keep(rows, family, h, profile)
            yh = r = profile = None  # freed before the next ranking
        d = None  # nor held while the next block is evaluated
    return out


def evaluate(
    families: tuple[str, ...],
    xs: np.ndarray,
    transform: Transform = Transform.IDENTITY,
    trim: TrimSpec = TrimSpec(),
) -> dict[str, ProfileStat]:
    """Several statistics of the same series, keyed by family name.

    `xs` is one series or a batch of series along the last axis; for a
    batch every result holds one entry per series. The transform is applied
    once, the rank families share one ranking, and the two families of
    each input share its bridge. A NaN supremum, left by terms that
    overflow, is refused.
    """
    profiles = _evaluate(families, xs, transform, trim, lambda profile, family, h: profile)
    n = np.shape(xs)[-1]
    results = {}
    for family in families:
        lo, hi = trim.window(n) if family.startswith("sn_") else (1, n)
        profile = profiles[family, None]
        results[family] = _finish(profile[0] if np.ndim(xs) == 1 else profile,
                                  np.arange(lo, hi + 1), family)
    return results


def shift_sups(
    families: tuple[str, ...],
    x0: np.ndarray,
    transform: Transform,
    direction,
    gains: dict[float, float],
    trim: TrimSpec = TrimSpec(),
) -> dict[tuple[str, float], np.ndarray]:
    """Supremum of each family of every row of z0 + g D, z0 the transform
    of x0, for each h of `gains` at g = gains[h], keyed (family, h), from
    one pass over the row blocks of x0 (_evaluate); direction(rows, z0) is
    D on the row block `rows`, a block of z0's shape or one (1, n) row for
    all (lmsv.shift_rule). The rank families rank each block z0 + g D. The
    bridge P and the linear part L of _sn_terms are linear in the series,
    and A(g) = A + 2g <P, P_D> + g^2 A_D, so the sum families take every g
    from the terms of z0 and D, with no prefix pass, and agree with the
    sup_value of evaluate on z0 + g D to rounding; g = 0 reads the block
    itself, bit for bit. The scale rule is that of _profiles, and the
    refusals those of evaluate: a NaN supremum is refused by its h, and so
    is a gain outside the doubles, as g D would read NaN where D is 0.
    """
    for h, g in gains.items():
        if not math.isfinite(g):
            raise ValueError(f"the gain at h = {h:g} is {g}, outside the doubles")
    return _evaluate(families, x0, transform, trim, _row_sup, direction, gains)


def _sn_profile_by_definition(values: np.ndarray, trim: TrimSpec) -> ProfileStat:
    """Definitional evaluation: demean each segment, accumulate S_t^2 directly."""
    x = np.asarray(values, dtype=float)
    n = x.size
    lo, hi = trim.window(n)
    total = float(np.sum(x))
    ks = np.arange(lo, hi + 1)
    profile = np.empty(ks.size)
    degenerate = False
    for i, k in enumerate(ks):
        numer = abs(float(np.sum(x[:k])) - (k / n) * total)
        s_left = np.cumsum(x[:k] - np.mean(x[:k]))
        s_right = np.cumsum(x[k:] - np.mean(x[k:]))
        denom_sq = (np.sum(s_left**2) + np.sum(s_right**2)) / n
        if denom_sq <= 0.0 or not np.isfinite(1.0 / denom_sq):
            profile[i] = np.inf
            degenerate = True
        else:
            profile[i] = numer / math.sqrt(denom_sq)
    return _finish(profile, ks, degenerate=degenerate)


def sn_cusum_by_definition(
    xs: np.ndarray,
    transform: Transform = Transform.IDENTITY,
    trim: TrimSpec = TrimSpec(),
) -> ProfileStat:
    return _sn_profile_by_definition(transform.apply(xs), trim)


def sn_wilcoxon_by_definition(
    xs: np.ndarray,
    transform: Transform = Transform.IDENTITY,
    trim: TrimSpec = TrimSpec(),
) -> ProfileStat:
    return _sn_profile_by_definition(ranks(transform.apply(xs)), trim)
