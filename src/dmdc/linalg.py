"""Dense linear-algebra kernels: truncated SVD, eigendecomposition, rank.

All results are deterministic for a fixed input: the SVD sign ambiguity is
removed by forcing the largest-magnitude entry of each left singular vector
to be non-negative, and eigenpairs are sorted by a total order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMatrixError,
    InvalidInputError,
    NumericalFailureError,
    ShapeError,
)

DEFAULT_SVD_THRESHOLD = 1e-10

TruncationPolicy = int | float | None
"""Truncation policy for singular value factorizations.

An ``int`` keeps exactly that many singular values, a ``float`` in (0, 1)
keeps every sigma_i with sigma_i / sigma_1 > threshold, and ``None`` applies
the default relative threshold of 1e-10.
"""


def as_matrix(
    a,
    name: str = "matrix",
    allow_zero_rows: bool = False,
    allow_zero_cols: bool = False,
) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D float64 array, validating shape.

    1-D input is read as a single row (a scalar-state snapshot sequence).
    """
    m = np.asarray(a, dtype=np.float64)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    elif m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got {m.ndim}-D")
    if m.shape[0] < (0 if allow_zero_rows else 1):
        raise ShapeError(f"{name} has invalid shape {m.shape}")
    if m.shape[1] < (0 if allow_zero_cols else 1):
        raise ShapeError(f"{name} has invalid shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class TruncatedSvd:
    """Rank-k factors u, sigma, v with m ~= u @ diag(sigma) @ v.T.

    u and v carry orthonormal columns; sigma is strictly positive and
    non-increasing. The sign of each column pair (u_i, v_i) is fixed so the
    largest-magnitude entry of u_i is non-negative. ``spectrum`` holds all
    min(m.shape) singular values of m, the truncated ones included.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int
    spectrum: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T

    def numerical_rank(self, tau: float = DEFAULT_SVD_THRESHOLD) -> int:
        """``numerical_rank`` of the factored matrix, read off ``spectrum``."""
        return _rank_above(self.spectrum, tau)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and unit-norm eigenvectors, sorted by the package order.

    Values are sorted by descending magnitude, ties broken by descending
    real part, then descending imaginary part; vector columns follow.
    """

    values: np.ndarray
    vectors: np.ndarray


def _resolve_rank(sigma: np.ndarray, trunc: TruncationPolicy, max_rank: int) -> int:
    if sigma[0] <= 0.0:
        raise DegenerateMatrixError("matrix has no positive singular value")
    if trunc is None:
        trunc = DEFAULT_SVD_THRESHOLD
    if isinstance(trunc, (bool, np.bool_)):
        raise InvalidInputError(f"invalid truncation policy {trunc!r}")
    if isinstance(trunc, (int, np.integer)):
        k = int(trunc)
        if not 1 <= k <= max_rank:
            raise InvalidInputError(
                f"explicit rank {k} outside [1, {max_rank}]"
            )
        # singular values at rounding-noise level are zeros of the exact input
        if sigma[k - 1] <= 1e-14 * sigma[0]:
            raise DegenerateMatrixError(
                f"requested rank {k} exceeds the positive spectrum"
            )
        return k
    if isinstance(trunc, (float, np.floating)):
        return _rank_above(sigma, float(trunc))
    raise InvalidInputError(f"invalid truncation policy {trunc!r}")


def _rank_above(sigma: np.ndarray, tau: float) -> int:
    """Count of singular values above ``tau`` relative to the largest."""
    if not 0.0 < tau < 1.0:
        raise InvalidInputError(f"relative threshold {tau} outside (0, 1)")
    if sigma[0] <= 0.0:
        return 0
    return int(np.count_nonzero(sigma / sigma[0] > tau))


def truncated_svd(m, trunc: TruncationPolicy = None) -> TruncatedSvd:
    """Truncated singular value decomposition with a fixed sign convention.

    Parameters
    ----------
    m : array_like
        Finite real matrix.
    trunc : int, float or None
        Explicit rank, relative threshold in (0, 1), or None for the
        default threshold of 1e-10.
    """
    a = as_matrix(m, "svd input")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    k = _resolve_rank(s, trunc, min(a.shape))
    u, v = u[:, :k].copy(), vh[:k].T.copy()
    # Flip coupled column pairs so each u column's dominant entry is >= 0.
    for j in range(k):
        if u[np.argmax(np.abs(u[:, j])), j] < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return TruncatedSvd(u=u, sigma=s[:k].copy(), v=v, rank=k, spectrum=s)


def eig(a, max_dim: int = 2048) -> EigenDecomposition:
    """Eigendecomposition of a square real or complex matrix.

    Eigenvalues are returned in descending magnitude, ties broken by
    descending real then imaginary part; eigenvector columns are unit norm
    and reordered to match. Raises NumericalFailureError if the QR
    iteration does not converge.
    """
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"eig requires a square matrix, got shape {m.shape}")
    if m.shape[0] > max_dim:
        raise InvalidInputError(
            f"matrix dimension {m.shape[0]} exceeds the eig cap {max_dim}"
        )
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("eig input contains non-finite entries")
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"eigendecomposition failed to converge for a "
            f"{m.shape[0]}x{m.shape[1]} matrix"
        ) from exc
    order = np.lexsort((-values.imag, -values.real, -np.abs(values)))
    return EigenDecomposition(values=values[order], vectors=vectors[:, order])


def numerical_rank(m, tau: float = DEFAULT_SVD_THRESHOLD) -> int:
    """Number of singular values above ``tau`` relative to the largest."""
    a = as_matrix(m, "rank input")
    return _rank_above(np.linalg.svd(a, compute_uv=False), tau)
