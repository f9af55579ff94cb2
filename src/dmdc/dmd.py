"""Exact DMD: estimate linear dynamics from state snapshots alone.

The fit regresses the one-step map through a truncated SVD of the snapshot
matrix and exposes the reduced operator, its spectrum, and the dynamic
modes lifted back to full state dimension. Its model type is the one the
DMDc fits return: DMD is DMDc with zero inputs.
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
    TruncationPolicy,
    as_matrix,
    eig,
    truncated_svd,
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
    factored, A = op_left @ op_right, and the n x l input map whole.
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

    def full_operator(self, max_dim: int = FULL_OPERATOR_MAX_DIM) -> np.ndarray:
        """Materialize the n x n operator; refuses above ``max_dim``."""
        n = self.op_left.shape[0]
        if n > max_dim:
            raise InvalidInputError(
                f"refusing to materialize a {n}x{n} operator (cap {max_dim})"
            )
        return self.op_left @ self.op_right

    def full_input_map(self) -> np.ndarray:
        """The n x l input map estimate (n x 0 for plain DMD)."""
        return self.input_map


def split_trajectory(traj) -> tuple[np.ndarray, np.ndarray]:
    """Split an n x m trajectory into the paired n x (m-1) snapshot matrices."""
    t = as_matrix(traj, "trajectory")
    if t.shape[1] < 2:
        raise InsufficientDataError(
            f"need at least 2 snapshots to split, got {t.shape[1]}"
        )
    return t[:, :-1].copy(), t[:, 1:].copy()


def exact_modes(
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


def _checked_dt(dt) -> float:
    """``dt`` as a float, the rule of every fit and generator: finite, positive."""
    value = float(dt)
    if not (math.isfinite(value) and value > 0.0):
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


def _fit_projected(x, target, b, trunc: TruncationPolicy, dt: float, kind: str):
    """Shared regression core of DMD and known-B DMDc.

    Regresses ``target`` (X', less B Upsilon when B is known) on the
    truncated SVD of ``x``; ``b`` is the known n x l input map, n x 0 for
    plain DMD. lift = target V inv(Sigma) is the left operator factor and
    maps reduced eigenvectors to full-dimension modes.
    """
    svd = truncated_svd(x, trunc)
    lift = target @ (svd.v / svd.sigma)
    a_tilde = svd.u.T @ lift
    eigen = eig(a_tilde)
    return DmdcModel(
        kind=kind,
        a_tilde=a_tilde,
        b_tilde=svd.u.T @ b,
        basis=svd.u,
        eigen=eigen,
        modes=exact_modes(eigen, lift, svd.u),
        input_rank=svd.rank,
        output_rank=svd.rank,
        dt=dt,
        op_left=lift,
        op_right=svd.u.T,
        input_map=b,
    )


def dmd_fit(x, xp, trunc: TruncationPolicy = None, dt: float = 1.0) -> DmdcModel:
    """Fit the unforced one-step operator mapping x columns to xp columns.

    On noiseless data x_{k+1} = A x_k with the truncation capturing the
    full state rank, the eigenvalues of ``a_tilde`` equal those of A.
    """
    x, xp, dt = _checked_pair(x, xp, dt)
    return _fit_projected(x, xp, np.zeros((x.shape[0], 0)), trunc, dt, "dmd")
