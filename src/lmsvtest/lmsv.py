"""Long-memory stochastic volatility sample paths with change injection.

The generative model is X_j = exp(Y_j) * eps_j with Y fractional Gaussian
noise and eps i.i.d. innovations. Change alternatives (mean shift, variance
rescaling, tail-index shift) touch only the post-change segment, so paths
generated from the same stream are coupled across shift heights.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import fgn
from .dist import (
    NoiseSpec,
    Pareto,
    RngStream,
    StandardNormal,
    draw_raw,
    hill_estimator,
    innovations,
)

_Y_SUBSTREAM = 0
_EPS_SUBSTREAM = 1


@dataclass(frozen=True)
class NoChange:
    kind = "none"


@dataclass(frozen=True)
class MeanShift:
    """Add h to every observation after the break at proportion tau."""

    h: float
    tau: float
    kind = "mean"

    def __post_init__(self) -> None:
        _check_tau(self.tau)


@dataclass(frozen=True)
class VarianceScale:
    """Multiply observations after the break by h (variance scales by h^2)."""

    h: float
    tau: float
    kind = "variance"

    def __post_init__(self) -> None:
        _check_tau(self.tau)
        if not self.h > 0:
            raise ValueError(f"variance scale must be positive, got {self.h}")


@dataclass(frozen=True)
class TailShift:
    """Replace the innovation tail index alpha by alpha + h after the break.

    Only valid for (non-centered) Pareto innovations; post-change draws reuse
    the same uniforms through the inverse CDF so paths couple across h.
    """

    h: float
    tau: float
    kind = "tail"

    def __post_init__(self) -> None:
        _check_tau(self.tau)


ChangeSpec = NoChange | MeanShift | VarianceScale | TailShift

#: The change classes by kind, which is also the problem each one alternates.
CHANGES = {change.kind: change for change in (MeanShift, VarianceScale, TailShift)}


def _check_tau(tau: float) -> None:
    if not 0.0 < tau < 1.0:
        raise ValueError(f"change location tau must lie in (0, 1), got {tau}")


@dataclass(frozen=True)
class SeriesSpec:
    """Complete description of one simulated series including its change."""

    fgn: fgn.FgnParams
    noise: NoiseSpec
    change: ChangeSpec = NoChange()

    def __post_init__(self) -> None:
        _check_change(self.noise, self.change)


def _check_change(noise: NoiseSpec, change: ChangeSpec) -> None:
    if isinstance(change, TailShift) and not isinstance(noise, Pareto):
        raise ValueError("tail-index changes require Pareto innovations")


def change_point_index(n: int, tau: float) -> int:
    """First 0-based index affected by a change at proportion tau."""
    return int(math.floor(n * tau))


def simulate_batch(
    params: fgn.FgnParams,
    noise: NoiseSpec,
    changes: Sequence[ChangeSpec],
    streams: Sequence[RngStream],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (y, eps, x), each of shape (len(streams), n), for each change.

    Row r belongs to streams[r]: its latent Gaussian comes from the normals of
    streams[r].substream(0) and its innovations from .substream(1), written
    in place into the batch, and one FFT turns all rows into paths. So a row
    does not depend on the rows drawn with it, and the pre-change segment is
    bit-identical to the null path of the same stream. The draws are made
    once and every change is applied to them: common random numbers across
    changes.
    """
    for change in changes:
        _check_change(noise, change)
    n = params.n
    normals = np.empty((len(streams), fgn.embedding_size(n)))
    raw = np.empty((len(streams), n))
    for row, stream in enumerate(streams):
        stream.substream(_Y_SUBSTREAM).generator().standard_normal(out=normals[row])
        draw_raw(noise, stream.substream(_EPS_SUBSTREAM).generator(), raw[row])

    y = fgn.paths_from_normals(params, normals)
    vol = np.exp(y)
    null_eps = None
    for change in changes:
        if isinstance(change, TailShift):
            # Post-change draws reuse the same uniforms at the shifted index.
            alpha = np.full(n, noise.alpha)
            alpha[change_point_index(n, change.tau):] += change.h
            eps = innovations(noise, raw, alpha)
        else:
            null_eps = eps = innovations(noise, raw) if null_eps is None else null_eps
        x = vol * eps
        if isinstance(change, MeanShift):
            x[:, change_point_index(n, change.tau):] += change.h
        elif isinstance(change, VarianceScale):
            x[:, change_point_index(n, change.tau):] *= change.h
        yield y, eps, x


def simulate_components(
    spec: SeriesSpec, stream: RngStream
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (y, eps, x) for one path: simulate_batch for one stream."""
    [(y, eps, x)] = simulate_batch(spec.fgn, spec.noise, (spec.change,), (stream,))
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
