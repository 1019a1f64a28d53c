"""Stationary fractional Gaussian noise generated by circulant embedding."""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dist import COUNT, UNIT_INTERVAL, RngStream

#: Largest tolerated negative circulant eigenvalue; the fractional Gaussian
#: noise embedding is nonnegative definite in exact arithmetic, so anything
#: materially below zero signals a bug rather than a borderline input.
EIGENVALUE_TOLERANCE = 1e-8


class EmbeddingError(RuntimeError):
    """Raised when the circulant embedding is not nonnegative definite."""


@dataclass(frozen=True)
class FgnParams:
    """Length and Hurst index of a fractional Gaussian noise sample."""

    hurst: float
    n: int

    def __post_init__(self) -> None:
        UNIT_INTERVAL.require("Hurst index", self.hurst)
        COUNT.require("n", self.n)


def autocovariance(hurst: float, lags: int | np.ndarray) -> np.ndarray | float:
    """Exact autocovariance gamma(k) of unit-variance fractional Gaussian noise.

    gamma(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2, so gamma(0) = 1 and the
    H = 1/2 case degenerates to white noise.
    """
    UNIT_INTERVAL.require("Hurst index", hurst)
    k = np.abs(np.asarray(lags, dtype=float))
    two_h = 2.0 * hurst
    out = 0.5 * (
        np.abs(k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h
    )
    if np.isscalar(lags):
        return float(out)
    return out


def embedding_size(n: int) -> int:
    """Standard normals one path of length n consumes: the circulant size 2m.

    m is the next power of two >= n - 1, so the FFT runs at a fast size; a
    single observation needs no embedding and consumes one normal.
    """
    if n == 1:
        return 1
    m = 1
    while 2 * m < 2 * (n - 1):
        m *= 2
    return 2 * m


def _embedding_eigenvalues(n: int, hurst: float) -> np.ndarray:
    # Circulant first row: gamma(0..m), then mirrored gamma(m-1..1).
    m = embedding_size(n) // 2
    gamma = autocovariance(hurst, np.arange(m + 1))
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eig = np.fft.fft(row).real
    if eig.min() < -EIGENVALUE_TOLERANCE:
        raise EmbeddingError(
            f"circulant embedding has eigenvalue {eig.min():.3e} < "
            f"-{EIGENVALUE_TOLERANCE:g} for n={n}, H={hurst}"
        )
    np.clip(eig, 0.0, None, out=eig)
    return eig


@lru_cache(maxsize=None)
def embedding_eigenvalues(n: int, hurst: float) -> np.ndarray:
    """Circulant eigenvalues for (n, H), computed once per process.

    The array is shared by every caller, so it is returned read-only.
    """
    eig = _embedding_eigenvalues(n, hurst)
    eig.flags.writeable = False
    return eig


@lru_cache(maxsize=None)
def _half_spectrum_scales(n: int, hurst: float) -> tuple[np.ndarray, np.ndarray]:
    # Weights of the real and imaginary parts of the m + 1 half-spectrum
    # coefficients: sqrt(eig_k), times 1/sqrt(2) on the interior 1..m-1,
    # where the real and imaginary normals share one unit of variance.
    eig = embedding_eigenvalues(n, hurst)
    m = eig.size // 2
    re = np.sqrt(eig[:m + 1])
    re[1:m] /= np.sqrt(2.0)
    im = -re[1:m]
    re.flags.writeable = False
    im.flags.writeable = False
    return re, im


#: Each thread's half-spectrum array, reused by paths_from_normals.
_workspace = threading.local()


def paths_from_normals(params: FgnParams, normals: np.ndarray) -> np.ndarray:
    """Turn standard normals of shape (B, embedding_size(n)) into B paths,
    overwriting `normals`.

    Davies-Harte construction on the half spectrum: row b of `normals` gives
    the m + 1 coefficients of a Hermitian-symmetric complex normal vector
    (real parts from columns 0..m, imaginary parts from columns m+1..2m-1),
    scaled by sqrt(eigenvalues), and one real inverse FFT over the whole
    batch yields the paths as the first n coordinates. Each row is
    transformed on its own, so a path does not depend on the rows stacked
    with it. The spectrum is assembled in a complex array that each thread
    keeps, and the inverse FFT is written over `normals`, which must be a
    float64 array; the (B, n) paths returned are a view of it.
    """
    n = params.n
    if n == 1:
        return normals
    re, im = _half_spectrum_scales(n, params.hurst)
    m = re.size - 1
    rows = normals.shape[0]
    buffer = getattr(_workspace, "half", None)
    if buffer is None or buffer.size < rows * (m + 1):
        buffer = _workspace.half = np.empty(rows * (m + 1), dtype=complex)
    # The buffer is reshaped to each width, so a call of another width may
    # have left values where this one has its real columns 0 and m.
    half = buffer[:rows * (m + 1)].reshape(rows, m + 1)
    half.imag[:, [0, m]] = 0.0
    np.multiply(normals[:, :m + 1], re, out=half.real)
    np.multiply(normals[:, m + 1:], im, out=half.imag[:, 1:m])
    paths = np.fft.irfft(half, n=2 * m, axis=1, out=normals)[:, :n]
    paths *= np.sqrt(2 * m)
    return paths


def sample(params: FgnParams, stream: RngStream, size: int | None = None) -> np.ndarray:
    """Sample fractional Gaussian noise paths with the exact target covariance.

    One generator of `stream` draws all normals, row by row, and
    paths_from_normals turns them into paths in place, with one real FFT.
    Returns shape (n,) when size is None, else (size, n), a view of the
    normals array; no other array of the batch's size is allocated.
    """
    normals = stream.generator().standard_normal(
        (1 if size is None else size, embedding_size(params.n))
    )
    paths = paths_from_normals(params, normals)
    return paths[0] if size is None else paths
