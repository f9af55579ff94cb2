"""Dense linear-algebra kernels: truncated SVD, eigendecomposition, rank.

All results are deterministic for a fixed input: the SVD sign ambiguity is
removed by forcing the largest-magnitude entry of each left singular vector
to be non-negative, and eigenpairs are sorted by a total order.

Tall or wide SVD inputs first go through the method of snapshots, whose
result is kept only when a directly computed residual certifies it; every
other input, and every attempt the certificate rejects, goes to LAPACK.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMatrixError,
    InvalidInputError,
    NumericalFailureError,
    ShapeError,
)

DEFAULT_SVD_THRESHOLD = 1e-10
EIG_MAX_DIM = 2048
_EPS = float(np.finfo(np.float64).eps)
# Gram eigenvalues at or below this fraction of the largest are not lifted
# (singular values below 1e-6 of the largest). Rounding moves the Gram
# eigenvalues by (n + m) eps of its trace at worst and far less in practice
# (the 49 null ones of the 128^2 example-3 X come out within 4e-16 of the
# largest), so a lifted direction stands well clear of rounding. The cut
# only chooses which directions to try: a real direction below it leaves a
# residual the certificate rejects, so a bad cut costs time, never accuracy.
_GRAM_CUT = 1e-12

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
    largest-magnitude entry of u_i is non-negative.

    ``spectrum`` lists the leading singular values of m, the truncated ones
    included: all min(m.shape) of them from LAPACK, or those the method of
    snapshots resolved. ``tail_bound`` is the Frobenius residual of m off
    the listed directions, 0.0 when the list is complete. By Weyl's
    inequality, up to rounding, every singular value not listed is at most
    ``tail_bound`` and each listed one is within ``tail_bound`` of the
    exact value; a certified factorization keeps it below 1e-10 of the
    largest.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int
    spectrum: np.ndarray
    tail_bound: float

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.T

    def numerical_rank(self, tau: float = DEFAULT_SVD_THRESHOLD) -> int:
        """``numerical_rank`` of the factored matrix, read off ``spectrum``.

        The singular values not listed are at most ``tail_bound``, so the
        count holds for every ``tau`` >= DEFAULT_SVD_THRESHOLD. A smaller
        ``tau`` that the unlisted values could reach raises
        InvalidInputError.
        """
        rank = _rank_above(self.spectrum, tau)
        if self.tail_bound >= tau * self.spectrum[0]:
            raise InvalidInputError(
                f"threshold {tau} is below the resolved spectrum: unlisted "
                f"singular values reach {self.tail_bound / self.spectrum[0]:.1e}"
                f" of the largest"
            )
        return rank


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and unit-norm eigenvectors, sorted by the package order.

    Values are sorted by descending magnitude, ties broken by descending
    real part, then descending imaginary part; vector columns follow.
    """

    values: np.ndarray
    vectors: np.ndarray


def _decode_policy(trunc: TruncationPolicy, max_rank: int) -> tuple[int | None, float]:
    """``trunc`` as (explicit rank or None, relative threshold); an explicit
    rank keeps the default threshold. InvalidInputError if ``trunc`` is invalid."""
    if trunc is None:
        return None, DEFAULT_SVD_THRESHOLD
    if isinstance(trunc, (bool, np.bool_)):
        raise InvalidInputError(f"invalid truncation policy {trunc!r}")
    if isinstance(trunc, (int, np.integer)):
        k = int(trunc)
        if not 1 <= k <= max_rank:
            raise InvalidInputError(
                f"explicit rank {k} outside [1, {max_rank}]"
            )
        return k, DEFAULT_SVD_THRESHOLD
    if isinstance(trunc, (float, np.floating)):
        tau = float(trunc)
        if not 0.0 < tau < 1.0:
            raise InvalidInputError(f"relative threshold {tau} outside (0, 1)")
        return None, tau
    raise InvalidInputError(f"invalid truncation policy {trunc!r}")


def _resolve_rank(sigma: np.ndarray, rank: int | None, tau: float) -> int:
    if sigma[0] <= 0.0:
        raise DegenerateMatrixError("matrix has no positive singular value")
    if rank is None:
        return _rank_above(sigma, tau)
    # singular values at rounding-noise level are zeros of the exact input
    if sigma[rank - 1] <= 1e-14 * sigma[0]:
        raise DegenerateMatrixError(
            f"requested rank {rank} exceeds the positive spectrum"
        )
    return rank


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
        default threshold of 1e-10. An invalid policy raises
        InvalidInputError before any factorization.

    A tall or wide ``m`` is first factored by the certified method of
    snapshots (``_snapshot_svd``); without a certificate the factors come
    from LAPACK. Ranks, errors and the sign rule are the same either way.
    """
    a = as_matrix(m, "svd input")
    rank, tau = _decode_policy(trunc, min(a.shape))
    factors = _snapshot_svd(a, rank, tau)
    if factors is None:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        factors = u, s, vh.T, 0.0
    u, s, v, tail = factors
    k = _resolve_rank(s, rank, tau)
    u, v = u[:, :k].copy(), v[:, :k].copy()
    # Flip coupled column pairs so each u column's dominant entry is >= 0.
    for j in range(k):
        if u[np.argmax(np.abs(u[:, j])), j] < 0.0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return TruncatedSvd(
        u=u, sigma=s[:k].copy(), v=v, rank=k, spectrum=s, tail_bound=tail
    )


def _snapshots_pay(shape: tuple[int, int]) -> bool:
    """Whether the method of snapshots can beat LAPACK's SVD on ``shape``.

    Timed at one BLAS thread (OpenBLAS 0.3.31, 2-core x86-64 VM) on inputs
    of rank 6, against LAPACK: 0.17x at 8192 x 59, 0.23x at 2048 x 199 and
    0.52x at 400 x 59, but 1.07x at 100 x 100 and 2.2x at 400 x 10, where
    the eigensolve or the per-call overhead dominates. It is tried when
    the long side is at least four times the short one and LAPACK's work,
    long * short**2, is at least 2**19.
    """
    short, long = sorted(shape)
    return long >= 4 * short and long * short * short >= 2**19


def _decided(s: np.ndarray, slack: float, tau: float) -> bool:
    """Whether each value in ``s``, known to within ``slack``, is certainly
    above or certainly not above ``tau`` times the largest."""
    return s[0] > 0.0 and bool(
        np.all(np.abs(s - tau * s[0]) > slack * (1.0 + tau))
    )


def _cholesky_qr2(y: np.ndarray) -> np.ndarray:
    """Orthonormal basis of range(y) by two CholeskyQR passes (Yamamoto et
    al. 2015); LinAlgError when y is too ill-conditioned for them."""
    for _ in range(2):
        chol = np.linalg.cholesky(y.T @ y)
        y = y @ np.linalg.inv(chol).T
    return y


def _snapshot_svd(a: np.ndarray, rank: int | None, tau: float):
    """Certified method-of-snapshots SVD of ``a``: (u, s, v, residual) or None.

    The eigenvectors of the Gram matrix on the short side (Sirovich 1987)
    with eigenvalues above ``_GRAM_CUT`` of the largest are lifted through
    ``a`` and orthonormalized by CholeskyQR2 into Q; the SVD of the small
    Q^T a gives the factors. Forming the Gram matrix squares the condition
    number, so nothing is trusted until the residual E = a - Q Q^T a,
    computed directly (a trace difference cancels near 1e-8), passes the
    a-posteriori check of Halko, Martinsson & Tropp (2011). By Weyl's
    inequality every singular value of ``a`` beyond those of Q^T a is at
    most ||E||_F and each of those is within ||E||_F of the exact one, so
    when no value lies within ||E||_F plus rounding of the policy's
    threshold ``tau``, or of DEFAULT_SVD_THRESHOLD, the rank decision and
    ``numerical_rank()`` are those of the exact spectrum.

    None sends the caller to LAPACK: a shape where the method does not pay,
    a zero matrix or one too large or small to square safely, an explicit
    rank beyond the lifted directions, more lifted directions than pay,
    dropped eigenvalues that already rule the certificate out, a failed
    Cholesky, or a failed check.
    """
    if not _snapshots_pay(a.shape):
        return None
    taus, need = {DEFAULT_SVD_THRESHOLD, tau}, rank or 1
    wide = a.shape[0] < a.shape[1]
    t = a.T if wide else a
    n, m = t.shape
    gram = t.T @ t
    trace = float(np.trace(gram))
    # sigma_1^2 <= trace <= m sigma_1^2: in this range the Gram matrix cannot
    # overflow and the squares of the residual's entries cannot underflow
    if not 1e-100 < trace < 1e100:
        return None
    try:
        # eigenvalues alone decide the exits below at about half eigh's cost
        w = np.linalg.eigvalsh(gram)  # ascending
        k = int(np.count_nonzero(w > _GRAM_CUT * w[-1]))
        # The lift, CholeskyQR2, Q^T a and the residual cost about 6 n m k
        # flops: near LAPACK's whole SVD once k passes m / 2 (0.77x at k = m
        # on 8192 x 59, 1.45x on 2048 x 199).
        if need > k or 2 * k > m:
            return None
        # Eckart-Young: the residual of any rank-k basis is at least the sum
        # of the m - k smallest exact eigenvalues, each within eta of its
        # computed value; when that sum already exceeds (low sigma_1)^2, with
        # low the smaller of the two thresholds, the check fails.
        eta = (n + m) * _EPS * trace
        low = min(taus)
        if np.sum(w[: m - k]) - (m - k) * eta > low * low * (w[-1] + eta):
            return None
        w, vecs = np.linalg.eigh(gram)
        top = slice(m - 1, m - k - 1, -1)  # the k largest, descending; k < m
        q = _cholesky_qr2(t @ (vecs[:, top] / np.sqrt(w[top])))
    except np.linalg.LinAlgError:
        return None
    rounding = (n + m) * _EPS
    if np.linalg.norm(q.T @ q - np.eye(k)) > rounding:
        return None
    b = q.T @ t
    e = q @ b
    np.subtract(t, e, out=e)
    residual = float(np.linalg.norm(e))
    ub, s, vbt = np.linalg.svd(b, full_matrices=False)
    # the one 0.0 stands for the m - k singular values that are not listed
    listed = np.append(s, 0.0)
    slack = residual + rounding * s[0]
    if not all(_decided(listed, slack, t) for t in taus):
        return None
    u, v = q @ ub, vbt.T
    return (v, s, u, residual) if wide else (u, s, v, residual)


def _leading_rows_rank(svd: TruncatedSvd, x: np.ndarray) -> int:
    """``numerical_rank(x)`` for ``x``, the leading rows of the matrix
    that ``svd`` factors.

    With U1 the matching rows of ``svd.u``, x = U1 diag(sigma) V^T + E,
    where ||E||_F is at most the residual of the truncation: ``tail_bound``
    and the truncated part of ``spectrum``. By Weyl's inequality each
    singular value of x lies within that residual, plus rounding, of one of
    U1 diag(sigma), an n x rank matrix. When those values decide the count
    it is the exact one; otherwise x itself is factored.
    """
    n = x.shape[0]
    s = np.linalg.svd(svd.u[:n] * svd.sigma, compute_uv=False)
    if s.size < min(x.shape):
        s = np.append(s, 0.0)
    residual = math.hypot(
        svd.tail_bound, float(np.linalg.norm(svd.spectrum[svd.rank:]))
    )
    # rounding of the factorization, and of LAPACK's own count on x
    slack = residual + 2 * (svd.u.shape[0] + svd.v.shape[0]) * _EPS * svd.sigma[0]
    if _decided(s, slack, DEFAULT_SVD_THRESHOLD):
        return _rank_above(s, DEFAULT_SVD_THRESHOLD)
    return numerical_rank(x)


def eig(a) -> EigenDecomposition:
    """Eigendecomposition of a square real or complex matrix.

    Eigenvalues are returned in descending magnitude, ties broken by
    descending real then imaginary part; eigenvector columns are unit norm
    and reordered to match. Raises InvalidInputError above ``EIG_MAX_DIM``
    and NumericalFailureError if the QR iteration does not converge.
    """
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"eig requires a square matrix, got shape {m.shape}")
    if m.shape[0] > EIG_MAX_DIM:
        raise InvalidInputError(
            f"matrix dimension {m.shape[0]} exceeds the eig cap {EIG_MAX_DIM}"
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
