"""Exact DMD: estimate linear dynamics from state snapshots alone.

The fit regresses the one-step map through a truncated SVD of the snapshot
matrix and exposes the reduced operator, its spectrum, and the dynamic
modes lifted back to full state dimension. DMD is DMDc with zero inputs:
one regression, ``_regress``, builds the model of every fit, this one and
the two in ``dmdc``, and one type, ``DmdcModel``, holds it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidConfigError,
    InvalidInputError,
    ShapeError,
)
from .linalg import (
    EigenDecomposition,
    TruncatedSvd,
    TruncationPolicy,
    _truncated_svd,
    as_matrix,
    eig,
)

ZERO_EIGENVALUE_TOL = 1e-12
FULL_OPERATOR_MAX_DIM = 500


@dataclass(frozen=True)
class DmdcModel:
    """Reduced one-step model x' ~ A x + B u on a projection basis.

    One type serves all three fits; ``kind`` is "dmd", "dmdc-known-b" or
    "dmdc-unknown-b". Plain DMD is the case of no inputs, l = 0.
    ``a_tilde`` (r x r) and ``b_tilde`` (r x l) act on ``basis``, the left
    singular vectors of X (X' for the unknown-B fit); modes are the
    full-dimension eigenvectors of the implied n x n operator, one column
    per eigenvalue. ``input_rank`` is the stacked-data truncation p, equal
    to ``output_rank`` r unless B was unknown. The dense operator is kept
    factored, A = op_left @ op_right, and the n x l input map whole, as
    ``input_map`` (n x 0 for plain DMD).
    """

    kind: str
    a_tilde: np.ndarray
    b_tilde: np.ndarray
    basis: np.ndarray
    eigen: EigenDecomposition
    modes: np.ndarray
    input_rank: int
    output_rank: int
    dt: float
    op_left: np.ndarray = field(repr=False)
    op_right: np.ndarray = field(repr=False)
    input_map: np.ndarray = field(repr=False)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigen.values

    def full_operator(self) -> np.ndarray:
        """Materialize the n x n operator; refuses above ``FULL_OPERATOR_MAX_DIM``."""
        n = self.op_left.shape[0]
        if n > FULL_OPERATOR_MAX_DIM:
            raise InvalidInputError(
                f"refusing to materialize a {n}x{n} operator "
                f"(cap {FULL_OPERATOR_MAX_DIM})"
            )
        return self.op_left @ self.op_right


def split_trajectory(traj) -> tuple[np.ndarray, np.ndarray]:
    """Split an n x m trajectory into the paired n x (m-1) snapshot matrices.

    X and X' are read-only views of one float64 trajectory, ``traj`` itself
    when it already is one, so the pair costs no second copy of the data.
    """
    t = as_matrix(traj, "trajectory")
    if t.shape[1] < 2:
        raise InsufficientDataError(
            f"need at least 2 snapshots to split, got {t.shape[1]}"
        )
    return _snapshot_views(t)


def _snapshot_views(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X = t[:, :-1] and X' = t[:, 1:] as read-only views of ``t``."""
    x, xp = t[:, :-1], t[:, 1:]
    x.flags.writeable = xp.flags.writeable = False
    return x, xp


def _exact_modes(
    eigen: EigenDecomposition,
    lift: np.ndarray,
    zero_basis: np.ndarray,
) -> np.ndarray:
    """Lift reduced eigenvectors to dynamic modes.

    Eigenvectors with |lambda| above ``ZERO_EIGENVALUE_TOL`` go through
    ``lift``; zero-eigenvalue vectors fall back to the projection basis.
    """
    modes = lift.astype(np.complex128) @ eigen.vectors
    zero = np.abs(eigen.values) <= ZERO_EIGENVALUE_TOL
    if np.any(zero):
        modes[:, zero] = zero_basis.astype(np.complex128) @ eigen.vectors[:, zero]
    return modes


def _valid_dt(dt: float) -> bool:
    """The rule for every dt, fitted, generated, written or read."""
    return math.isfinite(dt) and dt > 0.0


def _checked_dt(dt) -> float:
    """``dt`` as a float, as every fit and generator takes it."""
    value = float(dt)
    if not _valid_dt(value):
        raise InvalidConfigError(f"dt must be finite and positive, got {dt!r}")
    return value


def _checked_pair(x, xp, dt) -> tuple[np.ndarray, np.ndarray, float]:
    """Validate a snapshot pair and its sampling interval, as every fit does."""
    dt = _checked_dt(dt)
    x = as_matrix(x, "x")
    xp = as_matrix(xp, "xp")
    if x.shape != xp.shape:
        raise ShapeError(f"x {x.shape} and xp {xp.shape} differ in shape")
    return x, xp, dt


def _gain(svd: TruncatedSvd, target) -> np.ndarray:
    """G = ``target`` V inv(Sigma), the n x rank factor of every fit."""
    return target @ (svd.v / svd.sigma)


def _regress(svd: TruncatedSvd, g, basis, b, kind: str, dt: float) -> DmdcModel:
    """The one regression of every fit, from G = ``_gain(svd, target)``.

    ``svd`` factors the regressor: X, or [X; U] when the n x l input map
    ``b`` is unknown (None). With U1, U2 the state and input rows of U,
    A = G U1^T and B = G U2^T (n x 0 for DMD) or ``b``. On ``basis``,
    A~ = P M with P = basis^T G and M = U1^T basis; modes lift through G M.
    Taking G rather than the n x m target lets a caller free the target
    before the mode lift.
    """
    n = g.shape[0]
    u1, u2 = svd.u[:n], svd.u[n:]
    m = u1.T @ basis
    proj = basis.T @ g
    a_tilde = proj @ m
    eigen = eig(a_tilde)
    if b is None:
        b_tilde, b = proj @ u2.T, g @ u2.T
    else:
        b_tilde = basis.T @ b
    return DmdcModel(
        kind=kind,
        a_tilde=a_tilde,
        b_tilde=b_tilde,
        basis=basis,
        eigen=eigen,
        modes=_exact_modes(eigen, g @ m, basis),
        input_rank=svd.rank,
        output_rank=basis.shape[1],
        dt=dt,
        op_left=g,
        op_right=u1.T,
        input_map=b,
    )


def dmd_fit(x, xp, trunc: TruncationPolicy = None, dt: float = 1.0) -> DmdcModel:
    """Fit the unforced one-step operator mapping x columns to xp columns.

    On noiseless data x_{k+1} = A x_k with the truncation capturing the
    full state rank, the eigenvalues of ``a_tilde`` equal those of A.
    """
    x, xp, dt = _checked_pair(x, xp, dt)
    svd = _truncated_svd(x, trunc)
    return _regress(svd, _gain(svd, xp), svd.u, None, "dmd", dt)
