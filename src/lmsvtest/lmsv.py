"""Long-memory stochastic volatility sample paths with change injection.

The generative model is X_j = exp(Y_j) * eps_j with Y fractional Gaussian
noise and eps i.i.d. innovations. Change alternatives (mean shift, variance
rescaling, tail-index shift) touch only the post-change segment, so paths
generated from the same stream are coupled across shift heights.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import fgn
from .dist import (
    FINITE,
    POSITIVE,
    UNIT_INTERVAL,
    NoiseSpec,
    Pareto,
    RngStream,
    StandardNormal,
    draw_raw,
    hill_estimator,
    innovations,
    keyed_generators,
    stream_keys,
)

_Y_SUBSTREAM = 0
_EPS_SUBSTREAM = 1


@dataclass(frozen=True)
class NoChange:
    kind = "none"


@dataclass(frozen=True)
class _Change:
    """A change of height h at proportion tau of the series."""

    h: float
    tau: float

    def __post_init__(self) -> None:
        # A NaN or infinite height fills the segment with NaN or inf.
        FINITE.require("change height h", self.h)
        UNIT_INTERVAL.require("change location tau", self.tau)


@dataclass(frozen=True)
class MeanShift(_Change):
    """Add h to every observation after the break at proportion tau."""

    kind = "mean"


@dataclass(frozen=True)
class VarianceScale(_Change):
    """Multiply observations after the break by h (variance scales by h^2)."""

    kind = "variance"

    def __post_init__(self) -> None:
        super().__post_init__()
        POSITIVE.require("variance scale", self.h)


@dataclass(frozen=True)
class TailShift(_Change):
    """Replace the innovation tail index alpha by alpha + h after the break.

    Only valid for (non-centered) Pareto innovations; post-change draws reuse
    the same uniforms through the inverse CDF so paths couple across h.
    """

    kind = "tail"


ChangeSpec = NoChange | MeanShift | VarianceScale | TailShift

#: The change classes by kind, which is also the problem each one alternates.
CHANGES = {change.kind: change for change in (MeanShift, VarianceScale, TailShift)}


def shift_rule(kind: str, noise: NoiseSpec | None, cut: int, eps: np.ndarray | None):
    """(direction, gain) of the changes of `kind` at the index cut: under
    its problem's transform a change of height h turns a null chunk z0 into
    z0 + gain(h) D, to rounding, with D = direction(rows, z0) on the row
    block `rows` (stats.shift_sups). Only the tail reads `noise` and the
    null innovations eps (its draw c u^(-1/(alpha+h)) reuses the u of
    eps = c u^(-1/alpha)), and only its direction keeps eps.

        mean      D = 1{t > cut}, one row for all     g = h
        variance  D = z0 1{t > cut}                   g = h^2 - 1
        tail      D = log(eps / c) 1{t > cut}         g = -h / (alpha + h)
    """
    post, gain = {  # D after the cut, and g
        "mean": (lambda rows, z0: 1.0, lambda h: h),
        "variance": (lambda rows, z0: z0[:, cut:], lambda h: h * h - 1.0),
        "tail": (lambda rows, z0: np.log(eps[rows, cut:] / noise.scale),
                 lambda h: -h / (noise.alpha + h)),
    }[kind]

    def direction(rows: slice, z0: np.ndarray) -> np.ndarray:
        d = np.zeros_like(z0[:1] if kind == "mean" else z0)
        d[:, cut:] = post(rows, z0)
        return d

    return direction, gain


@dataclass(frozen=True)
class SeriesSpec:
    """Complete description of one simulated series including its change."""

    fgn: fgn.FgnParams
    noise: NoiseSpec
    change: ChangeSpec = NoChange()

    def __post_init__(self) -> None:
        _check_change(self.noise, self.change)


def _check_change(noise: NoiseSpec, change: ChangeSpec) -> None:
    if not isinstance(change, TailShift):
        return
    if not isinstance(noise, Pareto):
        raise ValueError("tail-index changes require Pareto innovations")
    try:  # the post-change law
        Pareto(noise.alpha + change.h, noise.scale)
    except ValueError as err:
        raise ValueError(f"tail shift h = {change.h} from alpha = {noise.alpha}: "
                         f"post-change {err}") from None


def change_point_index(n: int, tau: float) -> int:
    """First 0-based index affected by a change at proportion tau."""
    return int(math.floor(n * tau))


def simulate_batch(
    params: fgn.FgnParams,
    noise: NoiseSpec,
    change: ChangeSpec,
    streams: Sequence[RngStream],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y, eps, x) under `change`, each of shape (len(streams), n).

    Row r belongs to streams[r]: its latent Gaussian comes from the normals of
    streams[r].substream(0) and its innovations from .substream(1), written in
    place into the batch, and one real FFT a row turns them into paths. So a
    row does not depend on the rows drawn with it. The substream keys of all
    rows are mixed at once (stream_keys), and one Philox is re-keyed for each
    (keyed_generators): the draws of RngStream.generator(), bit for bit,
    without creating a generator per stream. A change touches only the
    columns from its cut on; a tail shift maps the same uniforms at the index
    alpha + h there. So every change drawn on the same streams shares the
    null draw, and its pre-change columns are those of the null path bit for
    bit: common random numbers across changes.
    """
    _check_change(noise, change)
    n = params.n
    normals = np.empty((len(streams), fgn.embedding_size(n)))
    raw = np.empty((len(streams), n))
    for row, rng in enumerate(keyed_generators(stream_keys(streams, _Y_SUBSTREAM))):
        rng.standard_normal(out=normals[row])
    for row, rng in enumerate(keyed_generators(stream_keys(streams, _EPS_SUBSTREAM))):
        draw_raw(noise, rng, raw[row])

    y = fgn.paths_from_normals(params, normals)
    eps = innovations(noise, raw)
    cut = n if isinstance(change, NoChange) else change_point_index(n, change.tau)
    if isinstance(change, TailShift):
        eps[:, cut:] = innovations(noise, raw[:, cut:], noise.alpha + change.h)
    x = np.exp(y)
    x *= eps
    if isinstance(change, MeanShift):
        x[:, cut:] += change.h
    elif isinstance(change, VarianceScale):
        x[:, cut:] *= change.h
    return y, eps, x


def simulate_components(
    spec: SeriesSpec, stream: RngStream
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (y, eps, x) for one path: simulate_batch for one stream."""
    y, eps, x = simulate_batch(spec.fgn, spec.noise, spec.change, (stream,))
    return y[0], eps[0], x[0]


def simulate_series(spec: SeriesSpec, stream: RngStream) -> np.ndarray:
    """Simulate one LMSV path; see simulate_components for the stream layout."""
    return simulate_components(spec, stream)[2]


@dataclass(frozen=True)
class TailCheck:
    alpha_hat: float
    target_alpha: float


def verify_breiman_tail(
    spec: SeriesSpec,
    n_large: int,
    stream: RngStream,
    tail_fraction: float = 0.005,
) -> TailCheck:
    """Estimate the tail index of X on a long null path.

    The product exp(Y) * eps inherits the power tail of the innovations, so
    the Hill estimate over the top order statistics should recover the
    innovation alpha. Refuses normal innovations (no power tail to estimate).
    """
    if isinstance(spec.noise, StandardNormal):
        raise ValueError("tail check needs Pareto-type innovations")
    null_spec = SeriesSpec(
        fgn=fgn.FgnParams(hurst=spec.fgn.hurst, n=n_large),
        noise=spec.noise,
        change=NoChange(),
    )
    x = simulate_series(null_spec, stream)
    alpha_hat = hill_estimator(x, tail_fraction)
    return TailCheck(alpha_hat=alpha_hat, target_alpha=spec.noise.alpha)
