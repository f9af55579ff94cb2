"""DMD with control: disambiguate internal dynamics from actuation.

Both estimators return the model type of ``dmd_fit``. When the input map
B is known, the control contribution is subtracted and the regression
reduces to plain DMD on corrected targets. When B is unknown, state and
control snapshots are stacked and a pair of SVDs (input space at rank p,
output space at rank r) jointly recovers reduced operators for both A
and B.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dmd import DmdcModel, _checked_pair, _fit_projected, exact_modes
from .errors import ShapeError, TruncationOrderError
from .linalg import (
    TruncatedSvd,
    TruncationPolicy,
    _leading_rows_rank,
    _truncated_svd,
    as_matrix,
    eig,
)


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


def _checked_upsilon(x: np.ndarray, upsilon) -> np.ndarray:
    """``upsilon`` as a matrix with one column per column of ``x``."""
    ups = as_matrix(upsilon, "upsilon", allow_zero_rows=True)
    if ups.shape[1] != x.shape[1]:
        raise ShapeError(
            f"column mismatch: x has {x.shape[1]}, upsilon has {ups.shape[1]}"
        )
    return ups


def stack_omega(x, upsilon) -> np.ndarray:
    """Vertically stack state and control snapshots into one data matrix."""
    x = as_matrix(x, "x")
    return np.vstack([x, _checked_upsilon(x, upsilon)])


def dmdc_fit_known_b(
    x, xp, upsilon, b, trunc: TruncationPolicy = None, dt: float = 1.0
) -> DmdcModel:
    """Fit the dynamics when the input map ``b`` is known.

    The control contribution is removed from the shifted snapshots before
    the regression; with all-zero inputs the result equals ``dmd_fit``
    exactly.
    """
    x, xp, dt = _checked_pair(x, xp, dt)
    ups = _checked_upsilon(x, upsilon)
    if np.ndim(b) == 1:
        b = np.asarray(b, dtype=np.float64).reshape(-1, 1)
    b = as_matrix(b, "b", allow_zero_rows=True)
    if b.shape != (x.shape[0], ups.shape[0]):
        raise ShapeError(
            f"b is {b.shape}, expected ({x.shape[0]}, {ups.shape[0]})"
        )
    return _fit_projected(x, xp - b @ ups, b, trunc, dt, "dmdc-known-b")


def _slice_svd(svd: TruncatedSvd, k: int) -> TruncatedSvd:
    if k >= svd.rank:
        return svd
    return replace(
        svd, u=svd.u[:, :k].copy(), sigma=svd.sigma[:k].copy(),
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
    x, xp, dt = _checked_pair(x, xp, dt)
    ups = _checked_upsilon(x, upsilon)
    n, l = x.shape[0], ups.shape[0]

    svd_p = _truncated_svd(np.vstack([x, ups]), trunc_p)
    svd_r = _truncated_svd(xp, trunc_r)
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
    modes = exact_modes(eigen, xvs @ (u1.T @ svd_r.u), svd_r.u)

    omega_rank = svd_p.numerical_rank()
    required = _leading_rows_rank(svd_p, x) + l
    report = IdentifiabilityReport(
        omega_rank=omega_rank,
        required_rank=required,
        collinearity_flag=omega_rank < required,
    )
    model = DmdcModel(
        kind="dmdc-unknown-b",
        a_tilde=a_tilde,
        b_tilde=b_tilde,
        basis=svd_r.u,
        eigen=eigen,
        modes=modes,
        input_rank=p,
        output_rank=r,
        dt=dt,
        op_left=xvs,
        op_right=u1.T,
        input_map=xvs @ u2.T,
    )
    return model, report
