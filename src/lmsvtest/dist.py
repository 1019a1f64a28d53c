"""Innovation distributions, their moments, and reproducible random streams."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(z: int) -> int:
    # SplitMix64 finalizer; full-avalanche 64-bit mixing, stable across runs.
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream descriptor.

    Equal (seed, stream_id) pairs reproduce draws bit for bit; distinct
    stream ids give statistically independent streams (Philox keyed by the
    pair), so replications can be evaluated concurrently in any order.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64
        )
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, *indices: int) -> "RngStream":
        """Derive a child stream from integer coordinates.

        The chain is collision-resistant hashing, not arithmetic offsets, so
        substream(i).substream(j) never aliases substream(j).substream(i)
        for i != j.
        """
        sid = self.stream_id & _MASK64
        for ix in indices:
            sid = _mix64(sid ^ _mix64(ix & _MASK64))
        return RngStream(self.seed, sid)


@dataclass(frozen=True)
class StandardNormal:
    """Standard normal innovations."""

    kind = "normal"


@dataclass(frozen=True)
class Pareto:
    """One-sided Pareto innovations with tail index alpha and scale c.

    Survival function (x/c)^(-alpha) for x >= c; support [c, infinity).
    """

    alpha: float
    scale: float = 1.0
    kind = "pareto"

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(f"Pareto tail index must be positive, got {self.alpha}")
        if not self.scale > 0:
            raise ValueError(f"Pareto scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class CenteredPareto:
    """Pareto innovations shifted to mean zero.

    Requires alpha > 1 so the mean c*alpha/(alpha-1) exists.
    """

    alpha: float
    scale: float = 1.0
    kind = "centered_pareto"

    def __post_init__(self) -> None:
        if not self.alpha > 1:
            raise ValueError(
                f"CenteredPareto needs alpha > 1 for a finite mean, got {self.alpha}"
            )
        if not self.scale > 0:
            raise ValueError(f"CenteredPareto scale must be positive, got {self.scale}")

    @property
    def mean_shift(self) -> float:
        """Mean of the underlying Pareto draw that is subtracted."""
        return self.scale * self.alpha / (self.alpha - 1.0)


NoiseSpec = StandardNormal | Pareto | CenteredPareto


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float


def pareto_from_uniform(
    u: np.ndarray, alpha: float | np.ndarray, scale: float = 1.0
) -> np.ndarray:
    """Map uniforms on (0, 1] to Pareto draws by the inverse CDF c * u^(-1/alpha)."""
    return scale * np.power(u, -1.0 / np.asarray(alpha, dtype=float))


def make_noise(kind: str, alpha: float | None = None, scale: float = 1.0) -> NoiseSpec:
    """The innovation law named `kind`: "normal", "pareto" or "centered_pareto"."""
    if kind == StandardNormal.kind:
        return StandardNormal()
    law = {Pareto.kind: Pareto, CenteredPareto.kind: CenteredPareto}.get(kind)
    if law is None:
        raise ValueError(f"unknown noise kind {kind!r}")
    if alpha is None:
        raise ValueError("Pareto-type noise needs alpha")
    return law(alpha, scale)


def draw_raw(spec: NoiseSpec, rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill `out` with the draws innovations() maps to the law: standard
    normals, or uniforms on [0, 1) for the Pareto-type laws."""
    if isinstance(spec, StandardNormal):
        rng.standard_normal(out=out)
    else:
        rng.random(out=out)


def innovations(
    spec: NoiseSpec, raw: np.ndarray, alpha: float | np.ndarray | None = None
) -> np.ndarray:
    """Innovations from the draws of draw_raw; for the Pareto-type laws
    `alpha` (a scalar or one value per draw) replaces spec.alpha."""
    if isinstance(spec, StandardNormal):
        return raw
    # 1 - U lies in (0, 1]; avoids u = 0 blowing up the inverse CDF.
    draws = pareto_from_uniform(1.0 - raw, spec.alpha if alpha is None else alpha, spec.scale)
    if isinstance(spec, CenteredPareto):
        draws -= spec.mean_shift
    return draws


def sample_noise(spec: NoiseSpec, n: int, stream: RngStream) -> np.ndarray:
    """Draw n i.i.d. innovations from the given law."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    raw = np.empty(n)
    draw_raw(spec, stream.generator(), raw)
    return innovations(spec, raw)


def noise_moments(spec: NoiseSpec) -> Moments:
    """Closed-form mean and variance; variance is inf when alpha <= 2."""
    if isinstance(spec, StandardNormal):
        return Moments(mean=0.0, variance=1.0)
    a, c = spec.alpha, spec.scale
    variance = c * c * a / ((a - 2.0) * (a - 1.0) ** 2) if a > 2 else math.inf
    if isinstance(spec, CenteredPareto):
        return Moments(mean=0.0, variance=variance)
    mean = c * a / (a - 1.0) if a > 1 else math.inf
    return Moments(mean=mean, variance=variance)


def hill_estimator(xs: np.ndarray, tail_fraction: float = 0.01) -> float:
    """Hill estimate of the tail index from the largest order statistics.

    Uses the top ceil(tail_fraction * n) positive values; the estimate is the
    reciprocal of the mean log-excess over the threshold order statistic.
    """
    if not 0 < tail_fraction < 1:
        raise ValueError(f"tail_fraction must lie in (0, 1), got {tail_fraction}")
    xs = np.asarray(xs, dtype=float)
    positive = xs[xs > 0]
    k = int(math.ceil(tail_fraction * positive.size))
    if k < 2 or positive.size <= k:
        raise ValueError("too few positive observations for a Hill estimate")
    tail = np.sort(positive)[-(k + 1):]
    log_excess = np.log(tail[1:]) - np.log(tail[0])
    return 1.0 / float(np.mean(log_excess))
