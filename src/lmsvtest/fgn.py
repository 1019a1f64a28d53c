"""Stationary fractional Gaussian noise generated by circulant embedding."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dist import COUNT, UNIT_INTERVAL, RngStream
from .stats import row_blocks

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


#: Normals per block, 1 MiB: a table batch is drawn, synthesized and reduced,
#: and an experiment row evaluated, block_rows(n) paths at a time, so a worker
#: holds one block whatever n; no result depends on it. Smaller blocks cost
#: page faults under glibc's dynamic mmap threshold unless their temporaries
#: are small: four 10000 x 2048 tables at two workers took 56 k minor faults
#: at 2 MiB, 209 k at 1 MiB, and 31 k at 1 MiB once the Brownian refinement
#: skipped the segments that cannot win (asymp._table_sup). The benchmark's
#: 96 variance cells, in process, took 26 k at 2 MiB, 92 k at 1 MiB with
#: the statistics of a chunk evaluated whole, and 5-11 k once the block loop
#: of the statistics (stats._evaluate) ran them one row block at a time.
BLOCK_NORMALS = 1 << 17


def block_rows(n: int) -> int:
    """Paths of length n per block: max(1, BLOCK_NORMALS // embedding_size(n)),
    32 at n = 2048 and 128, 64 and 32 at n = 500, 1000 and 2000."""
    return max(1, BLOCK_NORMALS // embedding_size(n))


def embedding_eigenvalues(n: int, hurst: float) -> np.ndarray:
    """Circulant eigenvalues for (n, H), computed on each call;
    _half_spectrum_scales caches their scales per (n, H)."""
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
    """Turn standard normals of shape (B, embedding_size(n)) into B paths,
    overwriting `normals`.

    Davies-Harte construction on the half spectrum: row b of `normals` gives
    the m + 1 coefficients of a Hermitian-symmetric complex normal vector
    (real parts from columns 0..m, imaginary parts from columns m+1..2m-1),
    scaled by sqrt(eigenvalues), and one real inverse FFT of each row yields
    its path as the first n coordinates. The rows are taken in the row
    blocks of the kernels (stats.row_blocks, a complex coefficient being two
    doubles: 7 rows at n = 2048), in one complex array of a block that each
    call allocates, so it does not grow with B. Each row is transformed on
    its own, so a path does not depend on the rows stacked or sliced with
    it. The DC and Nyquist coefficients (columns 0 and m) are real: irfft
    reads only their real parts, so their imaginary parts are left as
    np.empty gives them (tests/test_fgn.py holds numpy to this). The inverse
    FFT is written over `normals`, which must be a float64 array; the (B, n)
    paths returned are a view of it.
    """
    n = params.n
    if n == 1 or not len(normals):
        return normals[:, :n]
    re, im = _half_spectrum_scales(n, params.hurst)
    m = re.size - 1
    shape = (len(normals), 2 * (m + 1))  # a complex coefficient is two doubles
    spectrum = np.empty((next(row_blocks(shape)).stop, m + 1), dtype=complex)  # a block's rows
    for block in row_blocks(shape):
        part = normals[block]
        half = spectrum[:len(part)]
        np.multiply(part[:, :m + 1], re, out=half.real)
        np.multiply(part[:, m + 1:], im, out=half.imag[:, 1:m])
        np.fft.irfft(half, n=2 * m, axis=1, out=part)
        part[:, :n] *= np.sqrt(2 * m)
    return normals[:, :n]


def sample(params: FgnParams, stream: RngStream, size: int | None = None) -> np.ndarray:
    """Sample fractional Gaussian noise paths with the exact target covariance.

    One generator of `stream` draws all normals, row by row, and
    paths_from_normals turns them into paths in place, one real FFT a row.
    Returns shape (n,) when size is None, else (size, n), a view of the
    normals array; no other array of the batch's size is allocated.
    """
    normals = stream.generator().standard_normal(
        (1 if size is None else size, embedding_size(params.n))
    )
    paths = paths_from_normals(params, normals)
    return paths[0] if size is None else paths
