"""DMD with control: disambiguate internal dynamics from actuation.

Both estimators run the regression of ``dmd_fit`` and return its model
type. When the input map B is known, the regression is plain DMD on the
corrected targets X' - B U; it is linear in its target, so the control
contribution is removed from the gain, not from X'. When B is
unknown, state and control snapshots are stacked into Omega = [X; U] and
the same regression on Omega's SVD (input space, rank p), reduced onto the
leading left singular vectors of X' (output space, rank r), recovers
reduced operators for both A and B.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dmd import DmdcModel, _checked_pair, _gain, _regress
from .errors import ShapeError, TruncationOrderError
from .linalg import TruncationPolicy, _leading_rows_rank, _truncated_svd, as_matrix


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


def dmdc_fit_known_b(
    x, xp, upsilon, b, trunc: TruncationPolicy = None, dt: float = 1.0
) -> DmdcModel:
    """Fit the dynamics when the input map ``b`` is known.

    The regression on X' - B U is linear in its target, so its gain is
    G = X' V inv(Sigma) - B (U V inv(Sigma)) and no corrected n x m matrix
    is formed. With all-zero inputs, or none (l = 0), the result equals
    ``dmd_fit`` exactly.
    """
    x, xp, dt = _checked_pair(x, xp, dt)
    ups = _checked_upsilon(x, upsilon)
    b = as_matrix(b, "b", allow_zero_cols=True)
    if b.shape != (x.shape[0], ups.shape[0]):
        raise ShapeError(
            f"b is {b.shape}, expected ({x.shape[0]}, {ups.shape[0]})"
        )
    svd = _truncated_svd(x, trunc)
    g = _gain(svd, xp) - b @ _gain(svd, ups)
    return _regress(svd, g, svd.u, b, "dmdc-known-b", dt)


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
    svd_p = _truncated_svd(np.vstack([x, ups]), trunc_p)
    svd_r = _truncated_svd(xp, trunc_r)
    p = svd_p.rank
    r = svd_r.rank if trunc_r is not None else min(svd_r.rank, p)
    if p < r:
        raise TruncationOrderError(
            f"input-space rank p={p} must be >= output-space rank r={r}"
        )
    model = _regress(svd_p, _gain(svd_p, xp), svd_r.u[:, :r], None,
                     "dmdc-unknown-b", dt)

    omega_rank = svd_p.numerical_rank()
    required = _leading_rows_rank(svd_p, x) + ups.shape[0]
    report = IdentifiabilityReport(
        omega_rank=omega_rank,
        required_rank=required,
        collinearity_flag=omega_rank < required,
    )
    return model, report
