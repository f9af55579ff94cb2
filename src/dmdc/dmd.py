"""Exact DMD: estimate linear dynamics from state snapshots alone.

The fit regresses the one-step map through a truncated SVD of the snapshot
matrix and exposes the reduced operator, its spectrum, and the dynamic
modes lifted back to full state dimension.
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
class DmdModel:
    """Reduced one-step operator fitted from snapshot pairs.

    a_tilde is the r x r operator on the projection basis (the left
    singular vectors of X); modes are the full-dimension eigenvectors of
    the implied n x n operator, one column per eigenvalue.
    """

    a_tilde: np.ndarray
    basis: np.ndarray
    eigen: EigenDecomposition
    modes: np.ndarray
    rank: int
    dt: float
    lift: np.ndarray = field(repr=False)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigen.values

    def full_operator(self, max_dim: int = FULL_OPERATOR_MAX_DIM) -> np.ndarray:
        """Materialize the n x n operator; refuses above ``max_dim``."""
        n = self.basis.shape[0]
        if n > max_dim:
            raise InvalidInputError(
                f"refusing to materialize a {n}x{n} operator (cap {max_dim})"
            )
        return self.lift @ self.basis.T


def _checked_dt(dt) -> float:
    """Return the sampling interval as a float; it must be finite and positive."""
    value = float(dt)
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidConfigError(f"dt must be finite and positive, got {dt!r}")
    return value


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
    zero_tol: float = ZERO_EIGENVALUE_TOL,
) -> np.ndarray:
    """Lift reduced eigenvectors to dynamic modes.

    Eigenvectors with |lambda| above ``zero_tol`` go through ``lift``;
    zero-eigenvalue vectors fall back to the projection basis.
    """
    modes = lift.astype(np.complex128) @ eigen.vectors
    zero = np.abs(eigen.values) <= zero_tol
    if np.any(zero):
        modes[:, zero] = zero_basis.astype(np.complex128) @ eigen.vectors[:, zero]
    return modes


def normalized_modes(model, zero_tol: float = ZERO_EIGENVALUE_TOL) -> np.ndarray:
    """Display-scaled copy of the modes: each column divided by its
    eigenvalue-scaled norm (plain unit norm for zero eigenvalues)."""
    modes = model.modes.copy()
    for i, lam in enumerate(model.eigen.values):
        norm = np.linalg.norm(modes[:, i])
        if norm == 0.0:
            continue
        scale = lam * norm if abs(lam) > zero_tol else norm
        modes[:, i] = modes[:, i] / scale
    return modes


def _fit_reduced(x: np.ndarray, target: np.ndarray, trunc: TruncationPolicy):
    """Shared regression core: SVD of x, reduced operator from ``target``.

    Returns (svd, a_tilde, eigen, lift) where lift = target V inv(Sigma)
    maps reduced eigenvectors to full-dimension modes.
    """
    svd = truncated_svd(x, trunc)
    lift = target @ (svd.v / svd.sigma)
    a_tilde = svd.u.T @ lift
    return svd, a_tilde, eig(a_tilde), lift


def dmd_fit(x, xp, trunc: TruncationPolicy = None, dt: float = 1.0) -> DmdModel:
    """Fit the unforced one-step operator mapping x columns to xp columns.

    On noiseless data x_{k+1} = A x_k with the truncation capturing the
    full state rank, the eigenvalues of ``a_tilde`` equal those of A.
    """
    dt = _checked_dt(dt)
    x = as_matrix(x, "x")
    xp = as_matrix(xp, "xp")
    if x.shape != xp.shape:
        raise ShapeError(f"x {x.shape} and xp {xp.shape} differ in shape")
    svd, a_tilde, eigen, lift = _fit_reduced(x, xp, trunc)
    modes = exact_modes(eigen, lift, svd.u)
    return DmdModel(
        a_tilde=a_tilde,
        basis=svd.u,
        eigen=eigen,
        modes=modes,
        rank=svd.rank,
        dt=dt,
        lift=lift,
    )
