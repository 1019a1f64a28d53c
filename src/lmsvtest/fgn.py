"""Stationary fractional Gaussian noise generated by circulant embedding."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dist import RngStream

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
        if not 0.0 < self.hurst < 1.0:
            raise ValueError(f"Hurst index must lie in (0, 1), got {self.hurst}")
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")

    @property
    def memory_parameter(self) -> float:
        """Covariance decay exponent D = 2(1 - H); in (0, 1) for H > 1/2."""
        return 2.0 * (1.0 - self.hurst)


def autocovariance(hurst: float, lags: int | np.ndarray) -> np.ndarray | float:
    """Exact autocovariance gamma(k) of unit-variance fractional Gaussian noise.

    gamma(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2, so gamma(0) = 1 and the
    H = 1/2 case degenerates to white noise.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"Hurst index must lie in (0, 1), got {hurst}")
    k = np.abs(np.asarray(lags, dtype=float))
    two_h = 2.0 * hurst
    out = 0.5 * (
        np.abs(k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h
    )
    if np.isscalar(lags):
        return float(out)
    return out


def autocov_tail_constant(hurst: float) -> float:
    """Limit of gamma(k) * k^(2-2H): the constant H(2H - 1) for H > 1/2."""
    return hurst * (2.0 * hurst - 1.0)


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


def paths_from_normals(params: FgnParams, normals: np.ndarray) -> np.ndarray:
    """Turn standard normals of shape (B, embedding_size(n)) into B paths.

    Davies-Harte construction on the half spectrum: row b of `normals` gives
    the m + 1 coefficients of a Hermitian-symmetric complex normal vector
    (real parts from columns 0..m, imaginary parts from columns m+1..2m-1),
    scaled by sqrt(eigenvalues), and one real inverse FFT over the whole
    batch yields the paths as the first n coordinates. Each row is
    transformed on its own, so a path does not depend on the rows stacked
    with it. Returns shape (B, n).
    """
    n = params.n
    if n == 1:
        return normals
    re, im = _half_spectrum_scales(n, params.hurst)
    m = re.size - 1
    half = np.zeros((normals.shape[0], m + 1), dtype=complex)
    np.multiply(normals[:, :m + 1], re, out=half.real)
    np.multiply(normals[:, m + 1:], im, out=half.imag[:, 1:m])
    return np.fft.irfft(half, n=2 * m, axis=1)[:, :n] * np.sqrt(2 * m)


def sample(params: FgnParams, stream: RngStream, size: int | None = None) -> np.ndarray:
    """Sample fractional Gaussian noise paths with the exact target covariance.

    One generator of `stream` draws all normals, row by row, and
    paths_from_normals turns them into paths with one real FFT.
    Returns shape (n,) when size is None, else (size, n).
    """
    normals = stream.generator().standard_normal(
        (1 if size is None else size, embedding_size(params.n))
    )
    paths = paths_from_normals(params, normals)
    return paths[0] if size is None else paths
