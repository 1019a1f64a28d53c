"""Normalizing sequences, the limit constant of each test, and simulated
critical-value tables for the four test families."""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy import integrate, optimize, special

from . import fgn
from .dist import CenteredPareto, NoiseSpec, RngStream, noise_moments
from .stats import TrimSpec, row_blocks

TABLE_FORMAT_VERSION = 1

#: Paths per batch when simulating ensembles; fixed so that results are
#: deterministic in (seed, budget) regardless of available memory.
_BATCH = 512

#: Coverage of the order-statistic interval recorded for each table quantile.
_INTERVAL_COVERAGE = 0.99

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(z: np.ndarray | float) -> np.ndarray | float:
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


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
    if m < 1:
        raise ValueError(f"Hermite rank must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
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


def fclt_constant(m: int, memory: float) -> float:
    """Constant c_m = 2 m! / ((1 - mD)(2 - mD)) in the d_{n,m}^2 asymptotics."""
    if not m * memory < 1:
        raise ValueError(f"long-memory scaling needs m*D < 1, got {m * memory}")
    return 2.0 * math.factorial(m) / ((1.0 - memory * m) * (2.0 - memory * m))


def dnm_asymptotic(hurst: float, m: int, n: int) -> float:
    """Leading-order approximation sqrt(c_m n^(2-mD) L^m), L = H(2H-1)."""
    memory = 2.0 * (1.0 - hurst)
    c_m = fclt_constant(m, memory)
    tail = fgn.autocov_tail_constant(hurst)
    return math.sqrt(c_m * n ** (2.0 - m * memory) * tail**m)


# ---------------------------------------------------------------------------
# Limit constants of the testing problems

E_EXP_2Y = math.exp(2.0)  # E exp(2Y) for standard normal Y


def limit_coefficient(problem: str, family: str, noise: NoiseSpec | None) -> float:
    """Constant c of the limit law of the `family` statistic in `problem`.

    Mean-change CUSUM: conditionally centered observations, so the limit is
    Brownian and long memory drops out; the partial sums scale as c sqrt(n)
    with c = sigma = sqrt(Var(eps) E exp(2Y)). Every other statistic has
    Hermite rank 1 and scales as d_{n,1} c: c = 2 e^2 Var(eps) for the
    variance CUSUM, 1 for the tail CUSUM with the log|x| convention, and the
    double-integral factor of wilcoxon_limit_factor for the Wilcoxon tests.
    Raises ValueError for a pair without a constant (the self-normalized
    families, the tail Wilcoxon test) and for innovations outside the theory.
    """
    if (problem, family) == ("tail", "cusum"):
        return 1.0
    if family not in ("cusum", "wilcoxon") or problem not in ("mean", "variance"):
        raise ValueError(f"no limit constant for the {problem} {family} test")
    if noise is None or family == "wilcoxon" and noise.kind != CenteredPareto.kind:
        raise ValueError(f"no {problem} {family} constant for the innovations {noise}")
    if family == "wilcoxon":
        return wilcoxon_limit_factor(problem, noise.alpha).value
    moments = noise_moments(noise)
    if moments.mean != 0.0 or not math.isfinite(moments.variance):
        # With a nonzero innovation mean the observations are no longer
        # conditionally centered (no Brownian regime) and E eps^2 != Var(eps).
        raise ValueError(f"{problem}-change scaling needs mean-zero innovations with a "
                         f"finite variance, got {noise}")
    if problem == "mean":
        return math.sqrt(moments.variance * E_EXP_2Y)
    return 2.0 * E_EXP_2Y * moments.variance


# ---------------------------------------------------------------------------
# Wilcoxon limit factor |int J_1 dF| by adaptive quadrature


class QuadratureError(RuntimeError):
    """Quadrature did not converge; carries the partial estimate."""

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error: float


def _inner_kernel(alpha: float, mu: float, w: float, lower: float, upper: float) -> float:
    # int_lower^upper alpha u^(-alpha-1) phi(log|u - mu| - w) du on one side of
    # u = mu, where the integrand pinches to zero non-smoothly.
    def f(u: float) -> float:
        return alpha * u ** (-alpha - 1.0) * _phi(math.log(abs(u - mu)) - w)

    # full_output swallows the roundoff warning quad raises when the
    # integrand is numerically zero on the whole piece; accuracy is
    # enforced at the outer integral.
    return integrate.quad(f, lower, upper, epsabs=1e-13, epsrel=1e-9, limit=200,
                          full_output=1)[0]


def _checked_quad(f, lo: float, hi: float) -> QuadratureResult:
    out = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-7, limit=400, full_output=1)
    value, abs_err = out[0], out[1]
    if len(out) > 3:  # warning message present
        raise QuadratureError(f"outer quadrature did not converge: {out[3]}", value)
    if value != 0.0 and abs_err > 1e-4 * abs(value):
        raise QuadratureError(
            f"outer quadrature achieved {abs_err:.2e} absolute, above the "
            f"1e-4 relative target",
            value,
        )
    return QuadratureResult(value=value, abs_error=abs_err)


@lru_cache(maxsize=None)
def _factor(problem: str, alpha: float) -> QuadratureResult:
    least = 1 if problem == "mean" else 2  # a finite mean, a finite variance
    if not alpha > least:
        raise ValueError(f"{problem} Wilcoxon factor needs alpha > {least}, got {alpha}")
    mu = CenteredPareto(alpha).mean_shift

    def integrand(w: float) -> float:
        # The mean kernel is signed by the side of mu the two Pareto draws fall on.
        below = _inner_kernel(alpha, mu, w, 1.0, mu)
        above = _inner_kernel(alpha, mu, w, mu, math.inf)
        if problem == "mean":
            return below * below - above * above
        return (below + above) * (below + above)

    result = _checked_quad(integrand, -60.0, 60.0)
    return QuadratureResult(value=abs(result.value), abs_error=result.abs_error)


def wilcoxon_limit_factor(problem: str, alpha: float) -> QuadratureResult:
    """Multiplicative factor |int J_1 dF| in the Wilcoxon limit law of a
    "mean" or "variance" change under centered Pareto(alpha) innovations.

    Both factors are double integrals of a Pareto-weighted lognormal kernel;
    the outer variable is integrated on the log scale with Gauss-Kronrod
    adaptivity, the inner Pareto integral is split at its pinch point.
    Relative error target 1e-4; failure raises QuadratureError with the
    partial estimate attached.
    """
    if problem not in ("mean", "variance"):
        raise ValueError(f"no Wilcoxon factor for the {problem} problem")
    return _factor(problem, alpha)


# ---------------------------------------------------------------------------
# Kolmogorov distribution (Brownian-bridge supremum law)


def kolmogorov_cdf(x: float, terms: int = 100) -> float:
    """P(sup |bridge| <= x) = 1 - 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2).

    For x < 1 the alternating series converges too slowly, so the dual
    theta-function representation is used instead.
    """
    if x <= 0:
        return 0.0
    k = np.arange(1, terms + 1)
    if x < 1.0:
        series = np.sum(np.exp(-((2 * k - 1) ** 2) * math.pi**2 / (8.0 * x * x)))
        return float(math.sqrt(2.0 * math.pi) / x * series)
    series = np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * x**2))
    return float(1.0 - 2.0 * series)


def kolmogorov_quantile(p: float) -> float:
    """Inverse of the Kolmogorov distribution function."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"need p in (0, 1), got {p}")
    return float(optimize.brentq(lambda x: kolmogorov_cdf(x) - p, 1e-8, 10.0, xtol=1e-12))


# ---------------------------------------------------------------------------
# Hermite-process path ensembles and simulated critical values


def simulate_hermite_paths(
    hurst: float,
    m: int,
    path_length: int,
    path_count: int,
    stream: RngStream,
) -> np.ndarray:
    """Normalized subordinated partial-sum paths on the grid j/N, j = 1..N.

    Each path is cumsum(H_m(Y)) / d_{N,m}; for m = 1 this is an exact
    fractional Brownian motion skeleton with unit endpoint variance, for
    m = 2 it is the pre-limit approximation of the second-order law.
    Returns an array of shape (path_count, path_length).
    """
    if m not in (1, 2):
        raise ValueError(f"only Hermite ranks 1 and 2 are supported, got {m}")
    params = fgn.FgnParams(hurst=hurst, n=path_length)
    norm = dnm_exact(hurst, m, path_length)
    out = np.empty((path_count, path_length))
    done = 0
    chunk_index = 0
    while done < path_count:
        take = min(_BATCH, path_count - done)
        y = fgn.sample(params, stream.substream(chunk_index), size=take)
        rows = out[done:done + take]
        np.cumsum(y if m == 1 else hermite(m, y), axis=1, out=rows)
        rows /= norm
        done += take
        chunk_index += 1
    return out


@dataclass(frozen=True)
class TableBudget:
    path_count: int = 10_000
    path_length: int = 2_048

    def __post_init__(self) -> None:
        if self.path_count < 1 or self.path_length < 2:
            raise ValueError("table budget must be positive")


class TableFamily(enum.Enum):
    CUSUM_BRIDGE_SUP = "cusum_bridge_sup"
    SN_RATIO = "sn_ratio"


@dataclass(frozen=True)
class CriticalValueTable:
    """Simulated quantiles of one limiting functional."""

    family: TableFamily
    m: int
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
            "m": self.m,
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
        trim = payload["trim"]
        return CriticalValueTable(
            family=TableFamily(payload["family"]),
            m=int(payload["m"]),
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


def _bridge_sup(paths: np.ndarray) -> np.ndarray:
    count, n = paths.shape
    t = np.arange(1, n + 1) / n
    sup = np.empty(count)
    for rows in row_blocks(paths.shape):
        block = paths[rows]
        sup[rows] = np.max(np.abs(block - t * block[:, -1:]), axis=1)
    return sup


def _refine_brownian_bridge_sup(
    paths: np.ndarray, sup_grid: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Sharpen the grid supremum using exact within-segment bridge maxima.

    Between grid points a Brownian path conditioned on its endpoints is a
    Brownian bridge whose running maximum has the closed reflection-principle
    law M = (a + b + sqrt((a-b)^2 - 2 dt log U)) / 2. Sampling the upper and
    lower segment extremes (independently; their joint exceedance at the
    relevant levels is negligible) removes the O(1/sqrt(N)) discretization
    bias of the supremum. Only valid for the Brownian member H = 1/2, m = 1.
    The uniforms of all upper extremes are drawn before those of all lower
    extremes, one per (path, segment).
    """
    count, n = paths.shape
    t = np.arange(1, n + 1) / n
    dt = 1.0 / n
    u_hi = rng.random((count, n))
    u_lo = rng.random((count, n))
    refined = np.empty(count)
    for rows in row_blocks(paths.shape):
        block = paths[rows]
        bridge = block - t * block[:, -1:]
        padded = np.concatenate([np.zeros((bridge.shape[0], 1)), bridge], axis=1)
        a, b = padded[:, :-1], padded[:, 1:]
        seg_max = 0.5 * (a + b + np.sqrt((a - b) ** 2 - 2.0 * dt * np.log(u_hi[rows])))
        seg_min = 0.5 * (a + b - np.sqrt((a - b) ** 2 - 2.0 * dt * np.log(u_lo[rows])))
        refined[rows] = np.maximum(seg_max.max(axis=1), -seg_min.min(axis=1))
    return np.maximum(refined, sup_grid)


def _cumtrapz(values: np.ndarray, dr: float) -> np.ndarray:
    # Cumulative trapezoid along the last axis, with a leading zero column.
    inner = 0.5 * (values[:, 1:] + values[:, :-1]) * dr
    out = np.zeros_like(values)
    np.cumsum(inner, axis=1, out=out[:, 1:])
    return out


def _sn_ratio_sup(paths: np.ndarray, trim: TrimSpec) -> np.ndarray:
    """Trimmed supremum of |bridge| / sqrt(trapezoid residual integrals).

    The two residual-bridge integrals expand into cumulative trapezoid sums
    of Z^2, rZ and polynomial weight arrays, so the whole profile is O(N)
    per path; the expansion is algebraically identical to applying the
    trapezoid rule to the squared residual bridge itself.
    """
    count, n = paths.shape
    r = np.arange(n + 1) / n
    dr = 1.0 / n

    # Deterministic weight integrals share the same trapezoid discretization.
    ones = np.ones((1, n + 1))
    cr = _cumtrapz(r * ones, dr)[0]
    cr2 = _cumtrapz(r * r * ones, dr)[0]
    c1 = _cumtrapz(ones, dr)[0]

    lo, hi = trim.window(n)
    js = np.arange(lo, hi + 1)
    t = r[js]
    span = 1.0 - t
    tail1 = c1[-1] - c1[js]
    tail_r = (cr[-1] - cr[js]) - t * tail1
    wgt = (cr2[-1] - cr2[js]) - 2.0 * t * (cr[-1] - cr[js]) + t**2 * tail1

    sup = np.empty(count)
    for rows in row_blocks(paths.shape):
        block = paths[rows]
        z = np.concatenate([np.zeros((block.shape[0], 1)), block], axis=1)
        cz = _cumtrapz(z, dr)
        cz2 = _cumtrapz(z * z, dr)
        crz = _cumtrapz(r * z, dr)
        zt = z[:, js]
        z1 = z[:, -1:]

        numer = np.abs(zt - t * z1)

        slope_left = zt / t
        left = cz2[:, js] - 2.0 * slope_left * crz[:, js] + slope_left**2 * cr2[js]

        tail_z = cz[:, -1:] - cz[:, js]
        w2 = (cz2[:, -1:] - cz2[:, js]) - 2.0 * zt * tail_z + zt**2 * tail1
        lin = (crz[:, -1:] - crz[:, js]) - t * tail_z - zt * tail_r
        slope_right = (z1 - zt) / span
        right = w2 - 2.0 * slope_right * lin + slope_right**2 * wgt

        denom = np.sqrt(np.maximum(left + right, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = numer / denom
        ratio[denom == 0.0] = np.inf
        sup[rows] = np.max(ratio, axis=1)
    return sup


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
        cdf = special.bdtr(np.arange(count + 1), count, level)
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
) -> CriticalValueTable:
    """Simulate quantiles of a limiting functional on Hermite-path ensembles.

    CUSUM_BRIDGE_SUP tabulates sup |Z(t) - t Z(1)|; SN_RATIO tabulates the
    trimmed self-normalized ratio built from the same paths with trapezoid
    integrals. Tables are deterministic given (stream, budget). The meta
    block records the provenance and, for each level, a distribution-free
    99 % interval for the true quantile (`quantile_intervals`).
    """
    levels = tuple(sorted(set(round(float(lv), 6) for lv in levels)))
    if any(not 0.0 < lv < 1.0 for lv in levels):
        raise ValueError(f"levels must lie in (0, 1), got {levels}")
    if family is TableFamily.SN_RATIO:
        if trim is None:
            raise ValueError("SN_RATIO tables need a trimming specification")
        trim.window(budget.path_length)  # refuses an empty window before any path

    values = np.empty(budget.path_count)
    done = 0
    chunk_index = 0
    brownian = family is TableFamily.CUSUM_BRIDGE_SUP and m == 1 and hurst == 0.5
    while done < budget.path_count:
        take = min(4 * _BATCH, budget.path_count - done)
        paths = simulate_hermite_paths(
            hurst, m, budget.path_length, take, stream.substream(0, chunk_index)
        )
        if family is TableFamily.CUSUM_BRIDGE_SUP:
            sup = _bridge_sup(paths)
            if brownian:
                rng = stream.substream(1, chunk_index).generator()
                sup = _refine_brownian_bridge_sup(paths, sup, rng)
            values[done:done + take] = sup
        else:
            values[done:done + take] = _sn_ratio_sup(paths, trim)
        done += take
        chunk_index += 1

    quantiles = {lv: float(np.quantile(values, lv)) for lv in levels}
    meta = {
        "path_count": budget.path_count,
        "path_length": budget.path_length,
        "seed": stream.seed,
        "stream_id": stream.stream_id,
        "brownian_segment_refinement": brownian,
        "quantile_interval_coverage": _INTERVAL_COVERAGE,
        "quantile_intervals": _quantile_intervals(values, levels),
    }
    return CriticalValueTable(
        family=family,
        m=m,
        hurst=hurst,
        trim=trim if family is TableFamily.SN_RATIO else None,
        quantiles=quantiles,
        meta=meta,
    )
