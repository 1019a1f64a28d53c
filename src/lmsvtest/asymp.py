"""Normalizing sequences, the primitives of the limit constants that
mc.resolve_plan combines, and simulated critical-value tables, each read off
one functional of a path's bridge."""

from __future__ import annotations

import enum
import json
import math
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import fgn
from .dist import COUNT, LENGTH, LEVEL, UNIT_INTERVAL, CenteredPareto, RngStream
from .stats import TrimSpec, _bridge, _profiles, row_blocks

TABLE_FORMAT_VERSION = 1

#: Paths per batch, the unit of table work: batch g draws from its own keyed
#: substreams (_batch_paths, critical_values) and fills a fixed slice of the
#: values, so a table is the same, bit for bit, whatever the memory and
#: however many workers build it.
_BATCH = 512

#: Bound on E = -log U of a refinement uniform U >= 2^-53: 53 log 2 = 36.74.
_REFINE_E = 36.8

#: Coverage of the order-statistic interval recorded for each table quantile.
_INTERVAL_COVERAGE = 0.99

# ---------------------------------------------------------------------------
# Hermite polynomials and the subordinated-sum normalization d_{n,m}


def hermite(m: int, x: np.ndarray | float) -> np.ndarray | float:
    """Probabilists' Hermite polynomial H_m (H_1(x) = x, H_2(x) = x^2 - 1)."""
    if m < 0:
        raise ValueError(f"order must be nonnegative, got {m}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if m == 0:
        return prev
    cur = x.copy()
    for q in range(1, m):
        prev, cur = cur, x * cur - q * prev
    return cur


def dnm_exact(hurst: float, m: int, n: int) -> float:
    """Standard deviation of sum_{j<=n} H_m(Y_j) for fractional Gaussian noise.

    Uses the Toeplitz collapse of the covariance double sum,
    d^2 = m! (n + 2 sum_{k=1}^{n-1} (n-k) gamma(k)^m), which is O(n).
    """
    COUNT.require("Hermite rank m", m)
    COUNT.require("n", n)
    if n == 1:
        return math.sqrt(math.factorial(m))
    k = np.arange(1, n)
    gamma_m = fgn.autocovariance(hurst, k) ** m
    total = n + 2.0 * float(np.sum((n - k) * gamma_m))
    return math.sqrt(math.factorial(m) * total)


def dnm_double_sum(hurst: float, m: int, n: int) -> float:
    """O(n^2) double-sum evaluation of the same variance (test oracle)."""
    idx = np.arange(n)
    gamma = fgn.autocovariance(hurst, np.abs(idx[:, None] - idx[None, :]))
    return math.sqrt(math.factorial(m) * float(np.sum(gamma**m)))


def dnm_asymptotic(hurst: float, m: int, n: int) -> float:
    """Leading-order approximation sqrt(c_m n^(2-mD) L^m) with D = 2(1 - H),
    c_m = 2 m! / ((1 - mD)(2 - mD)) and L = H(2H - 1), the limit of
    gamma(k) k^D."""
    memory = 2.0 * (1.0 - hurst)
    if not m * memory < 1:
        raise ValueError(f"long-memory scaling needs m*D < 1, got {m * memory}")
    c_m = 2.0 * math.factorial(m) / ((1.0 - memory * m) * (2.0 - memory * m))
    tail = hurst * (2.0 * hurst - 1.0)
    return math.sqrt(c_m * n ** (2.0 - m * memory) * tail**m)


# ---------------------------------------------------------------------------
# Primitives of the limit constants, which mc.resolve_plan combines

E_EXP_2Y = math.exp(2.0)  # E exp(2Y) for standard normal Y


# ---------------------------------------------------------------------------
# Wilcoxon limit factor |int J_1 dF| by a tanh-sinh tensor rule

#: Step h of the tanh-sinh rule and the range |t| <= _TS_RANGE of its nodes
#: t = k h; past it a node's weight is below 1e-15 of the largest.
_TS_STEP = 1.0 / 16.0
_TS_RANGE = 3.25

#: A factor whose error estimate |I_h - I_2h| exceeds this share of its value
#: is refused.
_FACTOR_RTOL = 1e-9

#: Largest tail index of a factor, 4.5e6. The rounding of mu = alpha /
#: (alpha - 1) moves q* = mu^-alpha, and with it the factor, by up to about
#: alpha * eps / 2 relative, which no error estimate sees: against 25-digit
#: references the mean factor is off by 1.4e-11 at alpha = 1e6, by 1.2e-9 at
#: 1e7, and by a factor of 2.7 at 1e17.
_FACTOR_ALPHA_MAX = _FACTOR_RTOL / float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    """A quadrature's error estimate exceeds its bound; carries the value."""

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error: float


@lru_cache(maxsize=None)
def _factor(problem: str, alpha: float) -> QuadratureResult:
    least = 1 if problem == "mean" else 2  # a finite mean, a finite variance
    if not least < alpha <= _FACTOR_ALPHA_MAX:
        raise ValueError(f"{problem} Wilcoxon factor needs {least} < alpha <= "
                         f"{_FACTOR_ALPHA_MAX:.3g}, got {alpha}")
    mu = CenteredPareto(alpha).mean_shift
    q_star = mu ** -alpha  # q = P^(-alpha) is uniform on (0, 1]; P < mu iff q > q_star

    # Tanh-sinh nodes s in (0, 1) with log s and 1 - s kept to full relative
    # precision at both ends, and the weights of the rule on [0, 1].
    k = np.arange(-round(_TS_RANGE / _TS_STEP), round(_TS_RANGE / _TS_STEP) + 1)
    u = math.pi * np.sinh(k * _TS_STEP)
    log_s = -np.logaddexp(0.0, -u)
    s = np.exp(log_s)
    weight = _TS_STEP * math.pi * np.cosh(k * _TS_STEP) * s * s[::-1]

    # Side P < mu maps s to q = q_star + (1 - q_star) s, side P > mu to q = q_star s.
    # log(q / q_star) comes from the node's distance to q_star, so that
    # P - mu = mu expm1(-log(q / q_star) / alpha) keeps its precision at the pinch.
    log_ratio = np.concatenate([np.log1p((1.0 / q_star - 1.0) * s), log_s])
    with np.errstate(divide="ignore", over="ignore"):
        log_gap = math.log(mu) + np.log(np.abs(np.expm1(-log_ratio / alpha)))
    # Rows: the rule at step h, and at 2h (the even nodes at twice the weight).
    weights = np.concatenate([(1.0 - q_star) * weight, q_star * weight])
    weights = np.stack([weights, np.where(np.tile(k % 2 == 0, 2), 2.0 * weights, 0.0)])
    side = np.repeat([1.0, -1.0], k.size)
    keep = np.isfinite(log_gap)
    log_gap, weights, side = log_gap[keep], weights[:, keep], side[keep]

    # int phi(a - w) phi(b - w) dw = exp(-(a - b)^2 / 4) / (2 sqrt(pi)), so the
    # variance factor is E kernel(L - L') with L = log|P - mu|, and the mean factor
    # weighs it by 1{P, P' < mu} - 1{P, P' > mu}, which the kernel's symmetry
    # turns into (side + side') / 2 and then into one signed weight.
    diff = log_gap[:, None] - log_gap[None, :]
    kernel = np.exp(-0.25 * diff * diff) / (2.0 * math.sqrt(math.pi))
    right = weights * side if problem == "mean" else weights
    fine, coarse = np.sum((weights @ kernel) * right, axis=1)
    value, abs_error = abs(float(fine)), abs(float(fine - coarse))
    if not abs_error <= _FACTOR_RTOL * value:
        raise QuadratureError(
            f"{problem} Wilcoxon factor at alpha = {alpha}: error estimate "
            f"{abs_error:.2e} above the {_FACTOR_RTOL:.0e} relative bound",
            value,
        )
    return QuadratureResult(value=value, abs_error=abs_error)


def wilcoxon_limit_factor(problem: str, alpha: float) -> QuadratureResult:
    """Multiplicative factor |int J_1 dF| in the Wilcoxon limit law of a
    "mean" or "variance" change under centered Pareto(alpha) innovations.

    The double integral of the Pareto-weighted lognormal kernel collapses to
    E[phi_sqrt2(L - L')] over two independent L = log|P - mu| (signed by the
    side of mu the draws fall on, for the mean problem), computed with a
    tanh-sinh tensor rule in q = P^(-alpha), split at the pinch P = mu.
    `abs_error` is the rule's estimate |I_h - I_2h|; a value whose estimate
    exceeds 1e-9 relative raises QuadratureError with the value attached.
    """
    if problem not in ("mean", "variance"):
        raise ValueError(f"no Wilcoxon factor for the {problem} problem")
    return _factor(problem, alpha)


# ---------------------------------------------------------------------------
# Kolmogorov distribution (Brownian-bridge supremum law)

#: Terms of either series below; both reach double precision within ten.
_KOLMOGOROV_TERMS = 100


def kolmogorov_cdf(x: float) -> float:
    """P(sup |bridge| <= x) = 1 - 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2).

    For x < 1 the alternating series converges too slowly, so the dual
    theta-function representation is used instead.
    """
    if x <= 0:
        return 0.0
    k = np.arange(1, _KOLMOGOROV_TERMS + 1)
    if x < 1.0:
        series = np.sum(np.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8.0 * x * x)))
        return float(math.sqrt(2.0 * math.pi) / x * series)
    series = np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * x**2))
    return float(1.0 - 2.0 * series)


def kolmogorov_quantile(p: float) -> float:
    """Inverse of the Kolmogorov distribution function."""
    UNIT_INTERVAL.require("p", p)
    lo, hi = 1e-8, 10.0  # bisection: the distribution function is increasing
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if kolmogorov_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Hermite-process path ensembles and simulated critical values


def _ensemble(hurst: float, m: int, path_length: int) -> tuple[fgn.FgnParams, float]:
    """fGn parameters and d_{N,1} of an ensemble; every problem has Hermite rank m = 1."""
    if m != 1:
        raise ValueError(f"only Hermite rank 1 is supported, got {m}")
    return fgn.FgnParams(hurst=hurst, n=path_length), dnm_exact(hurst, 1, path_length)


def _batch_paths(
    params: fgn.FgnParams, norm: float, stream: RngStream, g: int, count: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Batch g of an ensemble, `count` paths cumsum(Y) / d_{N,1}, yielded as
    consecutive sub-blocks (offset, paths) of fgn.block_rows(N) paths, 1 MiB
    of normals (32 paths at N = 2048).

    One generator, on stream.substream(0, g // 4, g % 4), draws the normals
    of every sub-block in turn, into a fresh array that paths_from_normals
    overwrites with the fGn rows Y. Its draws fill row after row, and each
    row is transformed on its own, so the sub-blocks hold the paths of one
    draw of the whole batch, bit for bit, whatever their size.
    """
    rng = stream.substream(0, g // 4, g % 4).generator()
    width = fgn.embedding_size(params.n)
    step = fgn.block_rows(params.n)
    for offset in range(0, count, step):
        y = fgn.paths_from_normals(params, rng.standard_normal((min(step, count - offset), width)))
        np.cumsum(y, axis=1, out=y)
        y /= norm
        yield offset, y


def simulate_hermite_paths(
    hurst: float,
    m: int,
    path_length: int,
    path_count: int,
    stream: RngStream,
) -> np.ndarray:
    """Normalized partial-sum paths on the grid j/N, j = 1..N.

    Each path is cumsum(Y) / d_{N,1}, an exact fractional Brownian motion
    skeleton with unit endpoint variance; only m = 1 is supported. Batch g
    of _BATCH paths is written sub-block by sub-block from
    _batch_paths(..., g, ...), so these are the paths critical_values
    reduces for the same stream and path budget.
    Returns an array of shape (path_count, path_length).
    """
    params, norm = _ensemble(hurst, m, path_length)
    out = np.empty((path_count, path_length))
    for g, start in enumerate(range(0, path_count, _BATCH)):
        for offset, paths in _batch_paths(params, norm, stream, g,
                                          min(_BATCH, path_count - start)):
            out[start + offset:start + offset + len(paths)] = paths
    return out


@dataclass(frozen=True)
class TableBudget:
    path_count: int = 10_000
    path_length: int = 2_048

    def __post_init__(self) -> None:
        COUNT.require("path_count", self.path_count)
        LENGTH.require("path_length", self.path_length)


def default_workers() -> int:
    """The worker count of a command given none: the CPUs this process may use."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _deal(task: Callable[[int], object], count: int, workers: int) -> list:
    """[task(i) for i in range(count)] on `workers` threads: the calling
    thread and workers - 1 helper threads take every workers-th item in
    turn, and the results come back in item order. Once a task raises, in
    any thread (KeyboardInterrupt too), every share stops before its next
    item, and the first error is raised. The calling thread takes share 0,
    so one worker starts no thread: a thread's malloc arena keeps its freed
    work resident."""
    import threading

    workers = min(workers, count)
    results, errors = [None] * count, []
    stop = threading.Event()

    def share(w: int) -> None:
        try:
            for i in range(w, count, workers):
                if stop.is_set():
                    return
                results[i] = task(i)
        except BaseException as err:
            errors.append(err)
            stop.set()

    helpers = [threading.Thread(target=share, args=(w,)) for w in range(1, workers)]
    for helper in helpers:
        helper.start()
    try:
        share(0)
        for helper in helpers:
            helper.join()
    finally:  # an interrupt while waiting stops the helpers too
        stop.set()
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return results


class TableFamily(enum.Enum):
    CUSUM_BRIDGE_SUP = "cusum_bridge_sup"
    SN_RATIO = "sn_ratio"


@dataclass(frozen=True)
class CriticalValueTable:
    """Simulated quantiles of one limiting functional, of Hermite rank 1."""

    family: TableFamily
    hurst: float
    trim: TrimSpec | None
    quantiles: dict[float, float]
    meta: dict

    def quantile(self, level: float) -> float:
        key = round(float(level), 6)
        if key not in self.quantiles:
            raise KeyError(
                f"level {level} not tabulated for {self.family.value} "
                f"(have {sorted(self.quantiles)})"
            )
        return self.quantiles[key]

    def to_json(self) -> str:
        payload = {
            "version": TABLE_FORMAT_VERSION,
            "family": self.family.value,
            "m": 1,
            "hurst": self.hurst,
            "trim": None if self.trim is None else [self.trim.tau1, self.trim.tau2],
            "quantiles": {f"{k:.6f}": v for k, v in sorted(self.quantiles.items())},
            "meta": self.meta,
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "CriticalValueTable":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("not a critical-value table: the JSON is not an object")
        version = payload.get("version")
        if version != TABLE_FORMAT_VERSION:
            raise ValueError(
                f"critical-value table version {version} does not match "
                f"supported version {TABLE_FORMAT_VERSION}"
            )
        if payload["m"] != 1:  # tables are keyed without it: another rank would stand in
            raise ValueError(f"only Hermite rank m = 1 is supported, got m = {payload['m']!r}")
        trim = payload["trim"]
        return CriticalValueTable(
            family=TableFamily(payload["family"]),
            hurst=float(payload["hurst"]),
            trim=None if trim is None else TrimSpec(tau1=trim[0], tau2=trim[1]),
            quantiles={round(float(k), 6): float(v) for k, v in payload["quantiles"].items()},
            meta=payload["meta"],
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @staticmethod
    def load(path: str | Path) -> "CriticalValueTable":
        """Read a table file; a file that is not a valid table is named in the error."""
        try:
            return CriticalValueTable.from_json(Path(path).read_text())
        except (ValueError, KeyError, TypeError) as err:
            raise ValueError(f"{path}: {err}") from None


def _table_sup(
    paths: np.ndarray,
    trim: TrimSpec | None = None,
    refine: list[np.random.Generator] | None = None,
) -> np.ndarray:
    """Supremum of a functional of the bridge P = Z - (t/N) Z(1) of each
    partial-sum path Z on the grid j/N: the profile of one stats._bridge per
    row block, built by the statistics' own stats._profiles.

    With `trim`, the trimmed self-normalized ratio, under the statistics'
    scale rule, so a path reads the same bits at any power-of-two scale. On
    the grid its denominator sums equal the trapezoid integrals of the
    squared residual bridges, which vanish at both ends.

    Otherwise max |P|, and with `refine`, generators (upper, lower) of
    uniforms, that maximum sharpened by exact within-segment extremes,
    valid only for the Brownian member H = 1/2. Between grid points a
    Brownian path conditioned on its endpoints is a Brownian bridge whose
    running maximum has the closed reflection-principle law
    M = (a + b + sqrt((a-b)^2 + 2 E / N)) / 2, E = -log U. Sampling the
    upper and lower segment extremes (independently; their joint exceedance
    at the relevant levels is negligible) removes the O(1/sqrt(N))
    discretization bias of the supremum. Each row block draws one uniform
    per (path, segment) from each generator, so each generator's draws
    follow the rows. As M <= max(a, b) + sqrt(E / (2N)), and E <= 53 log 2
    < _REFINE_E for every uniform U >= 2^-53, only the segments next to a
    grid point with |P| > max |P| - sqrt(_REFINE_E / (2N)) can exceed the
    grid maximum, and only those are evaluated: the supremum is the one
    every segment gives, bit for bit. A block with an exact 0 uniform
    evaluates every segment.
    """
    count, n = paths.shape
    window = None if trim is None else trim.window(n)
    families = ("bridge", None) if trim is None else (None, "sn_ratio")
    margin = math.sqrt(_REFINE_E / (2 * n))
    sup = np.empty(count)
    for rows in row_blocks(paths.shape):
        p = _bridge(paths[rows])
        [(_, profile)] = _profiles(p, *families, window)
        peak = np.max(profile, axis=1)
        if refine is not None:
            u_hi, u_lo = (rng.random(p.shape) for rng in refine)
            # Segment j runs from grid point j - 1 to j; the first, from P = 0,
            # is near when its end is.
            near = profile > (peak - margin)[:, None]
            near[:, 1:] |= near[:, :-1].copy()
            if not (u_hi.all() and u_lo.all()):
                near[:] = True
            r, j = np.nonzero(near)
            a, b = np.where(j > 0, p[r, j - 1], 0.0), p[r, j]
            # Twice the segment maxima of P and of -P, a = P at the left end.
            up = a + b + np.sqrt((a - b) ** 2 - 2.0 / n * np.log(u_hi[r, j]))
            down = np.sqrt((a - b) ** 2 - 2.0 / n * np.log(u_lo[r, j])) - (a + b)
            np.maximum.at(peak, r, 0.5 * np.maximum(up, down))
        sup[rows] = peak
    return sup


@lru_cache(maxsize=16)
def _binomial_cdf(count: int, p: float) -> np.ndarray:
    """P(B <= k) for B ~ binomial(count, p), k = 0..count; read-only, as
    every table of a count and level shares it."""
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(count + 1)])
    k = np.arange(count + 1)
    log_pmf = (log_factorial[-1] - log_factorial - log_factorial[::-1]
               + k * math.log(p) + (count - k) * math.log1p(-p))
    cdf = np.cumsum(np.exp(log_pmf))
    cdf.flags.writeable = False
    return cdf


def _quantile_intervals(values: np.ndarray, levels: tuple[float, ...]) -> dict:
    """Distribution-free interval for each quantile of the simulated law.

    With N draws, the count of values below the true p-quantile is
    binomial(N, p), so the order statistics at its (1 - c)/2 and (1 + c)/2
    quantile ranks bracket the true quantile with probability >= c. A side
    whose rank falls outside the sample is unbounded and given as None
    (for the 0.99-quantile, the upper side when N < 528).
    """
    ordered = np.sort(values)
    count = ordered.size
    tail = (1.0 - _INTERVAL_COVERAGE) / 2.0
    intervals = {}
    for level in levels:
        # With k(q) the least k where P(B <= k) >= q, the interval is
        # [X_(l), X_(u)] for the 1-based ranks l = k(tail), u = k(1 - tail) + 1.
        cdf = _binomial_cdf(count, level)
        lo, hi = np.searchsorted(cdf, [tail, 1.0 - tail])
        lo -= 1
        intervals[f"{level:.6f}"] = [
            float(ordered[lo]) if lo >= 0 else None,
            float(ordered[hi]) if hi < count else None,
        ]
    return intervals


def critical_values(
    family: TableFamily,
    m: int,
    hurst: float,
    stream: RngStream,
    trim: TrimSpec | None = None,
    levels: tuple[float, ...] = (0.90, 0.95, 0.99),
    budget: TableBudget = TableBudget(),
    workers: int | None = None,
) -> CriticalValueTable:
    """Simulate quantiles of a limiting functional on Hermite-path ensembles.

    CUSUM_BRIDGE_SUP tabulates sup |Z(t) - t Z(1)| (refined between grid
    points at H = 1/2), SN_RATIO the trimmed self-normalized ratio: one
    functional reads either off one bridge per row block of the same paths.
    Each batch of _BATCH paths draws from its own substreams and is
    synthesized and reduced on its own, one sub-block of 1 MiB of normals
    at a time (_batch_paths). The batches are dealt to `workers`
    threads (default: default_workers()) by _deal, the rule that deals an
    experiment's rows, so an interrupt stops the table after the batches
    under way. Tables are deterministic given (stream, budget), whatever
    `workers`. The meta block records the provenance and, for each
    level, a distribution-free 99 % interval for the true quantile
    (`quantile_intervals`).
    """
    for lv in levels:
        LEVEL.require("levels", lv)
    levels = tuple(sorted(set(round(float(lv), 6) for lv in levels)))
    workers = default_workers() if workers is None else workers
    COUNT.require("workers", workers)
    if family is TableFamily.SN_RATIO:
        if trim is None:
            raise ValueError("SN_RATIO tables need a trimming specification")
        trim.window(budget.path_length)  # refuses an empty window before any path
    else:
        trim = None

    count, n = budget.path_count, budget.path_length
    params, norm = _ensemble(hurst, m, n)
    brownian = family is TableFamily.CUSUM_BRIDGE_SUP and hurst == 0.5
    values = np.empty(count)

    def batch(g: int) -> None:
        # numpy releases the GIL in the draws, the FFT and the reductions, so
        # batches run at once, and batch g fills only its own slice. It draws
        # its paths by _batch_paths and its refinement's upper and lower
        # uniforms from substream(1, g, 0) and substream(1, g, 1); its
        # sub-blocks share the two generators, which draw row after row.
        start, rows = g * _BATCH, min(_BATCH, count - g * _BATCH)
        refine = [stream.substream(1, g, u).generator() for u in (0, 1)] if brownian else None
        for offset, paths in _batch_paths(params, norm, stream, g, rows):
            values[start + offset:start + offset + len(paths)] = _table_sup(paths, trim, refine)

    _deal(batch, -(-count // _BATCH), workers)

    quantiles = {lv: float(np.quantile(values, lv)) for lv in levels}
    meta = {
        "path_count": count,
        "path_length": n,
        "seed": stream.seed,
        "stream_id": stream.stream_id,
        "brownian_segment_refinement": brownian,
        "quantile_interval_coverage": _INTERVAL_COVERAGE,
        "quantile_intervals": _quantile_intervals(values, levels),
    }
    return CriticalValueTable(
        family=family,
        hurst=hurst,
        trim=trim,
        quantiles=quantiles,
        meta=meta,
    )
