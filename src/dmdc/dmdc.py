"""DMD with control: disambiguate internal dynamics from actuation.

Two estimators share one model type. When the input map B is known, the
control contribution is subtracted and the regression reduces to plain
DMD on corrected targets. When B is unknown, state and control snapshots
are stacked and a pair of SVDs (input space at rank p, output space at
rank r) jointly recovers reduced operators for both A and B.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dmd import FULL_OPERATOR_MAX_DIM, _checked_dt, _fit_reduced, exact_modes
from .errors import InvalidInputError, ShapeError, TruncationOrderError
from .linalg import (
    DEFAULT_SVD_THRESHOLD,
    EigenDecomposition,
    TruncatedSvd,
    TruncationPolicy,
    as_matrix,
    eig,
    numerical_rank,
    truncated_svd,
)


@dataclass(frozen=True)
class DmdcModel:
    """Reduced operator pair (a_tilde, b_tilde) on the projection basis.

    ``basis`` is the state projection: the left singular vectors of X for
    the known-B path, of X' for the unknown-B path. ``input_rank`` is the
    stacked-data truncation p (equal to output_rank when B was known).
    """

    a_tilde: np.ndarray
    b_tilde: np.ndarray
    basis: np.ndarray
    eigen: EigenDecomposition
    modes: np.ndarray
    input_rank: int
    output_rank: int
    dt: float
    lift: np.ndarray = field(repr=False)
    op_left: np.ndarray = field(repr=False)
    op_right: np.ndarray = field(repr=False)
    b_full: np.ndarray | None = field(repr=False, default=None)
    b_right: np.ndarray | None = field(repr=False, default=None)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigen.values

    def full_operator(self, max_dim: int = FULL_OPERATOR_MAX_DIM) -> np.ndarray:
        """Materialize the n x n dynamics estimate; refuses above ``max_dim``."""
        n = self.op_left.shape[0]
        if n > max_dim:
            raise InvalidInputError(
                f"refusing to materialize a {n}x{n} operator (cap {max_dim})"
            )
        return self.op_left @ self.op_right

    def full_input_map(self, max_dim: int = FULL_OPERATOR_MAX_DIM) -> np.ndarray:
        """Materialize the n x l input map estimate."""
        if self.b_full is not None:
            return self.b_full
        n = self.op_left.shape[0]
        if n > max_dim:
            raise InvalidInputError(
                f"refusing to materialize a {n}-row input map (cap {max_dim})"
            )
        return self.op_left @ self.b_right


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Rank diagnostic for the stacked data matrix [X; U].

    ``collinearity_flag`` is set when the stack is rank-deficient relative
    to state rank + input count, meaning A and B are not separable (e.g.
    pure state feedback u = Kx).
    """

    omega_rank: int
    required_rank: int
    collinearity_flag: bool


def stack_omega(x, upsilon) -> np.ndarray:
    """Vertically stack state and control snapshots into one data matrix."""
    x = as_matrix(x, "x")
    u = as_matrix(upsilon, "upsilon", allow_zero_rows=True)
    if x.shape[1] != u.shape[1]:
        raise ShapeError(
            f"column mismatch: x has {x.shape[1]}, upsilon has {u.shape[1]}"
        )
    return np.vstack([x, u])


def dmdc_fit_known_b(
    x, xp, upsilon, b, trunc: TruncationPolicy = None, dt: float = 1.0
) -> DmdcModel:
    """Fit the dynamics when the input map ``b`` is known.

    The control contribution is removed from the shifted snapshots before
    the regression; with all-zero inputs the result equals ``dmd_fit``
    exactly.
    """
    dt = _checked_dt(dt)
    x = as_matrix(x, "x")
    xp = as_matrix(xp, "xp")
    ups = as_matrix(upsilon, "upsilon", allow_zero_rows=True)
    if np.ndim(b) == 1:
        b = np.asarray(b, dtype=np.float64).reshape(-1, 1)
    b = as_matrix(b, "b", allow_zero_rows=True)
    if x.shape != xp.shape:
        raise ShapeError(f"x {x.shape} and xp {xp.shape} differ in shape")
    if ups.shape[1] != x.shape[1]:
        raise ShapeError(
            f"column mismatch: x has {x.shape[1]}, upsilon has {ups.shape[1]}"
        )
    if b.shape != (x.shape[0], ups.shape[0]):
        raise ShapeError(
            f"b is {b.shape}, expected ({x.shape[0]}, {ups.shape[0]})"
        )
    target = xp - b @ ups
    svd, a_tilde, eigen, lift = _fit_reduced(x, target, trunc)
    modes = exact_modes(eigen, lift, svd.u)
    return DmdcModel(
        a_tilde=a_tilde,
        b_tilde=svd.u.T @ b,
        basis=svd.u,
        eigen=eigen,
        modes=modes,
        input_rank=svd.rank,
        output_rank=svd.rank,
        dt=dt,
        lift=lift,
        op_left=lift,
        op_right=svd.u.T,
        b_full=b,
    )


def _slice_svd(svd: TruncatedSvd, k: int) -> TruncatedSvd:
    if k >= svd.rank:
        return svd
    return TruncatedSvd(
        u=svd.u[:, :k].copy(), sigma=svd.sigma[:k].copy(),
        v=svd.v[:, :k].copy(), rank=k,
    )


def dmdc_fit_unknown_b(
    x,
    xp,
    upsilon,
    trunc_p: TruncationPolicy = None,
    trunc_r: TruncationPolicy = None,
    dt: float = 1.0,
) -> tuple[DmdcModel, IdentifiabilityReport]:
    """Jointly estimate dynamics and input map from snapshots alone.

    ``trunc_p`` truncates the stacked [X; U] factorization (input space),
    ``trunc_r`` the X' factorization (output space); defaults keep the
    numerical rank of each, with r capped at p. Requires p >= r.

    Returns the model together with an identifiability report; collinear
    data (u linearly dependent on x rows) still yields the least-squares
    model but raises the report's flag.
    """
    dt = _checked_dt(dt)
    x = as_matrix(x, "x")
    xp = as_matrix(xp, "xp")
    ups = as_matrix(upsilon, "upsilon", allow_zero_rows=True)
    if x.shape != xp.shape:
        raise ShapeError(f"x {x.shape} and xp {xp.shape} differ in shape")
    n, l = x.shape[0], ups.shape[0]
    omega = stack_omega(x, ups)

    svd_p = truncated_svd(omega, trunc_p)
    svd_r = truncated_svd(xp, trunc_r)
    if trunc_r is None:
        svd_r = _slice_svd(svd_r, svd_p.rank)
    p, r = svd_p.rank, svd_r.rank
    if p < r:
        raise TruncationOrderError(
            f"input-space rank p={p} must be >= output-space rank r={r}"
        )

    u1 = svd_p.u[:n, :]
    u2 = svd_p.u[n:, :]
    xvs = xp @ (svd_p.v / svd_p.sigma)
    proj = svd_r.u.T @ xvs
    a_tilde = proj @ (u1.T @ svd_r.u)
    b_tilde = proj @ u2.T
    eigen = eig(a_tilde)
    mode_lift = xvs @ (u1.T @ svd_r.u)
    modes = exact_modes(eigen, mode_lift, svd_r.u)

    omega_rank = (
        svd_p.rank
        if trunc_p is None
        else numerical_rank(omega, DEFAULT_SVD_THRESHOLD)
    )
    required = numerical_rank(x, DEFAULT_SVD_THRESHOLD) + l
    report = IdentifiabilityReport(
        omega_rank=omega_rank,
        required_rank=required,
        collinearity_flag=omega_rank < required,
    )
    model = DmdcModel(
        a_tilde=a_tilde,
        b_tilde=b_tilde,
        basis=svd_r.u,
        eigen=eigen,
        modes=modes,
        input_rank=p,
        output_rank=r,
        dt=dt,
        lift=mode_lift,
        op_left=xvs,
        op_right=u1.T,
        b_right=u2.T,
    )
    return model, report
