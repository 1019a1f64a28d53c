"""The domains of numeric inputs, innovation distributions, their moments,
and reproducible random streams."""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np


def require_integer(name: str, value) -> None:
    """Refuse (TypeError) a value that is not an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Domain:
    """The values of a numeric input, declared once for a flag, a config key
    and an argument alike: those `holds` accepts, never NaN. `text` says
    them after "must" in a refusal."""

    text: str
    holds: Callable[[float], bool]
    integer: bool = False

    def require(self, name: str, value) -> None:
        """Refuse by `name` a value outside: TypeError for a non-integer
        where one is needed, else ValueError."""
        if self.integer:
            require_integer(name, value)
        if not self.holds(value):
            raise ValueError(f"{name} must {self.text}, got {value}")


UNIT_INTERVAL = Domain("lie in (0, 1)", lambda x: 0.0 < x < 1.0)  # H, change locations
#: Tables key a level, and a test at level a its table's 1 - a, at six decimals.
LEVEL = Domain("lie in (0, 1) at six decimals",
               lambda x: 0.0 < round(x, 6) < 1.0 and 0.0 < round(1.0 - x, 6) < 1.0)
FINITE = Domain("be finite", math.isfinite)  # change heights, critical values
NONNEGATIVE = Domain("be finite and >= 0", lambda x: 0.0 <= x < math.inf)  # comparison bounds
POSITIVE = Domain("be positive and finite", lambda x: 0.0 < x < math.inf)  # tail indices, scales
#: RngStream reads a seed modulo 2^64, so one outside [0, 2^64) would alias another.
SEED = Domain("be an integer in [0, 2^64)", lambda x: 0 <= x < 2**64, integer=True)
COUNT = Domain("be an integer >= 1", lambda x: x >= 1, integer=True)  # paths, workers
LENGTH = Domain("be an integer >= 2", lambda x: x >= 2, integer=True)  # the shortest series


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer (full-avalanche 64-bit mixing, stable across
    runs) of every element of a uint64 array. Array arithmetic wraps modulo
    2^64; uint64 scalar arithmetic would warn on overflow."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uint64s(values: Iterable[int]) -> np.ndarray:
    return np.array([v & _MASK64 for v in values], dtype=np.uint64)


def _substream_ids(stream_ids: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """One step of RngStream.substream's chain on uint64 arrays (broadcast)."""
    return _mix64_array(stream_ids ^ _mix64_array(indices))


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
        sid = _uint64s([self.stream_id])
        for ix in indices:
            sid = _substream_ids(sid, _uint64s([ix]))
        return RngStream(self.seed, int(sid[0]))

    def substreams(self, indices: Iterable[int]) -> list["RngStream"]:
        """[self.substream(i) for i in indices], mixed as one array."""
        sids = _substream_ids(np.uint64(self.stream_id & _MASK64), _uint64s(indices))
        return [RngStream(self.seed, int(sid)) for sid in sids]


def stream_keys(streams: Sequence[RngStream], index: int) -> np.ndarray:
    """Philox keys (seed, stream_id) of stream.substream(index) for every
    stream, one row each, mixed as one array."""
    keys = _uint64s(v for s in streams for v in (s.seed, s.stream_id)).reshape(-1, 2)
    keys[:, 1] = _substream_ids(keys[:, 1], _uint64s([index]))
    return keys


def keyed_generators(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """For each (seed, stream_id) row of `keys`, a generator in the state
    RngStream(seed, stream_id).generator() starts in.

    Every row re-keys the same Philox (counter 0, empty buffer), which costs
    a fraction of creating a generator; so a yielded generator is valid only
    until the next one is yielded.
    """
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in keys:
        state["state"]["key"] = key
        bit_generator.state = state
        yield rng


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
        POSITIVE.require("Pareto tail index", self.alpha)
        _check_draws("Pareto", self.alpha, self.scale)


@dataclass(frozen=True)
class CenteredPareto:
    """Pareto innovations shifted to mean zero.

    Requires alpha > 1 so the mean c*alpha/(alpha-1) exists.
    """

    alpha: float
    scale: float = 1.0
    kind = "centered_pareto"
    tail_indices = Domain("have a finite alpha > 1 for a finite mean", lambda x: 1.0 < x < math.inf)

    def __post_init__(self) -> None:
        self.tail_indices.require("CenteredPareto", self.alpha)
        _check_draws("CenteredPareto", self.alpha, self.scale)

    @property
    def mean_shift(self) -> float:
        """Mean of the underlying Pareto draw that is subtracted."""
        return self.scale * self.alpha / (self.alpha - 1.0)


def _check_draws(law: str, alpha: float, scale: float) -> None:
    """Refuse a scale, or a positive finite alpha, that draws a value past the doubles."""
    POSITIVE.require(f"{law} scale", scale)  # an infinite scale makes every draw infinite
    # The largest draw c * u^(-1/alpha) is at u = 1 - U = 2^-53, as innovations
    # computes it; a denormal alpha has no finite reciprocal.
    with np.errstate(over="ignore"):
        largest = scale * np.power(2.0**-53, -1.0 / alpha)
    if not np.isfinite(largest):
        raise ValueError(f"{law} tail index {alpha} at scale {scale}: its reciprocal, or its "
                         f"largest draw c * 2^(53/alpha), is beyond the doubles")


NoiseSpec = StandardNormal | Pareto | CenteredPareto


@dataclass(frozen=True)
class Moments:
    mean: float
    variance: float


def make_noise(kind: str, alpha: float | None = None, scale: float = 1.0) -> NoiseSpec:
    """The innovation law named `kind`: "normal", "pareto" or "centered_pareto".
    Normal noise takes neither a tail index nor a scale other than 1."""
    if kind == StandardNormal.kind:
        if alpha is not None:
            raise ValueError(f"normal noise has no tail index, got alpha {alpha}")
        if scale != 1.0:
            raise ValueError(f"normal noise is standard, got scale {scale}")
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


def innovations(spec: NoiseSpec, raw: np.ndarray, alpha: float | None = None) -> np.ndarray:
    """Innovations from the draws of draw_raw; for the Pareto-type laws
    the one tail index `alpha` of every draw replaces spec.alpha."""
    if isinstance(spec, StandardNormal):
        return raw
    # The inverse CDF c * u^(-1/alpha) at u = 1 - U, which lies in (0, 1]; u = 0 would blow up.
    alpha = float(spec.alpha if alpha is None else alpha)
    draws = spec.scale * np.power(1.0 - raw, -1.0 / alpha)
    if isinstance(spec, CenteredPareto):
        draws -= spec.mean_shift
    return draws


def sample_noise(spec: NoiseSpec, n: int, stream: RngStream) -> np.ndarray:
    """Draw n i.i.d. innovations from the given law."""
    COUNT.require("n", n)
    raw = np.empty(n)
    draw_raw(spec, stream.generator(), raw)
    return innovations(spec, raw)


def noise_moments(spec: NoiseSpec) -> Moments:
    """Closed-form mean and variance; variance is inf when alpha <= 2."""
    if isinstance(spec, StandardNormal):
        return Moments(mean=0.0, variance=1.0)
    a, c = spec.alpha, spec.scale
    variance = math.inf
    if a > 2:
        try:
            variance = c * c * a / ((a - 2.0) * (a - 1.0) ** 2)
        except OverflowError:  # (a - 1)^2 is beyond the doubles, about c^2 / a^2 is not
            variance = (c / (a - 1.0)) ** 2 * (a / (a - 2.0))
    if isinstance(spec, CenteredPareto):
        return Moments(mean=0.0, variance=variance)
    mean = c * a / (a - 1.0) if a > 1 else math.inf
    return Moments(mean=mean, variance=variance)


def hill_estimator(xs: np.ndarray, tail_fraction: float = 0.01) -> float:
    """Hill estimate of the tail index from the largest order statistics.

    Uses the top ceil(tail_fraction * n) positive values; the estimate is the
    reciprocal of the mean log-excess over the threshold order statistic.
    """
    UNIT_INTERVAL.require("tail_fraction", tail_fraction)
    xs = np.asarray(xs, dtype=float)
    positive = xs[xs > 0]
    k = int(math.ceil(tail_fraction * positive.size))
    if k < 2 or positive.size <= k:
        raise ValueError("too few positive observations for a Hill estimate")
    tail = np.sort(positive)[-(k + 1):]
    log_excess = np.log(tail[1:]) - np.log(tail[0])
    return 1.0 / float(np.mean(log_excess))
