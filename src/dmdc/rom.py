"""Reduced-order realizations: simulation, frequency response, spectra.

A fitted model (projection basis as output map) or a ground truth becomes
an (A, B, C) triple, so identified and generating systems can be compared
through simulation or MIMO frequency-response singular values, in
rad/sample: no sampling interval enters a realization.

scipy is imported inside the two functions that call it, so importing the
package (and every CLI command that neither compares nor evaluates a
frequency response) does not pay scipy's import time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergenceError,
    InvalidInputError,
    NumericalFailureError,
    SchemaError,
    ShapeError,
    SingularFrequencyError,
)
from .linalg import DEFAULT_SVD_THRESHOLD, as_matrix

DEFAULT_FREQ_COUNT = 200
DEFAULT_FREQ_MIN = 1e-3
SINGULAR_FREQ_TOL = 1e-12
SINGULAR_POLICIES = ("raise", "mark")

# An input map farther than this (relative) from the span of the modal
# truth is not realizable on it.
MODAL_SPAN_TOL = 1e-8


@dataclass(frozen=True)
class StateSpaceRealization:
    """Discrete-time (A, B, C) triple with no feedthrough term."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "a")
        b = as_matrix(self.b, "b", allow_zero_cols=True)
        c = as_matrix(self.c, "c")
        if a.shape[0] != a.shape[1]:
            raise ShapeError(f"a must be square, got {a.shape}")
        r = a.shape[0]
        if b.shape[0] != r:
            raise ShapeError(f"b has {b.shape[0]} rows, expected {r}")
        if c.shape[1] != r:
            raise ShapeError(f"c has {c.shape[1]} columns, expected {r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def order(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class FrequencyResponseCurve:
    """Per-frequency singular values of the transfer matrix.

    ``sigmas`` has one row per grid frequency, each sorted non-increasing,
    with min(n_outputs, n_inputs) columns. ``singular`` flags the grid
    points that hit an eigenvalue of A; their rows are NaN.
    """

    omegas: np.ndarray
    sigmas: np.ndarray
    singular: np.ndarray


def realize(model) -> StateSpaceRealization:
    """Build an (A, B, C) realization from a fitted model or model record.

    C is the projection basis, lifting reduced states back to measurement
    space. Plain DMD models have a zero-width B.
    """
    return StateSpaceRealization(a=model.a_tilde, b=model.b_tilde, c=model.basis)


def realize_truth(truth) -> StateSpaceRealization:
    """Build an (A, B, C) realization of a ground truth: its minimal
    (``a_true``, ``b_true``, ``c_true``) when it has an ``a_true`` (C = I
    without a ``c_true``), else its modal one."""
    if truth.b_true is None:
        raise SchemaError("truth document carries no input map")
    if truth.a_true is not None:
        c = truth.c_true
        if c is None:
            c = np.eye(truth.a_true.shape[0])
        return StateSpaceRealization(a=truth.a_true, b=truth.b_true, c=c)
    if truth.modes_true is None:
        raise SchemaError("truth document carries neither a_true nor modes")
    return _modal_realization(truth)


def _modal_realization(truth) -> StateSpaceRealization:
    """Real realization of A = Phi diag(lambda) pinv(Phi) on span[Re Phi, Im Phi].

    With Q an orthonormal basis of that span (the left singular vectors of
    [Re Phi, Im Phi] above DEFAULT_SVD_THRESHOLD of the largest, since its
    4k columns have rank 2k), A = Q A~ Q^T for
    A~ = Re(Q^T Phi diag(lambda) pinv(Q^T Phi)). So (A~, Q^T b, C Q) has the
    transfer function of (A, b, C) whenever b lies in the span.
    """
    phi = truth.modes_true
    u, s, _ = np.linalg.svd(np.hstack([phi.real, phi.imag]), full_matrices=False)
    q = u[:, s > DEFAULT_SVD_THRESHOLD * s[0]]
    m = q.T @ phi
    a = np.real((m * truth.eigs_true) @ np.linalg.pinv(m))
    b_true = truth.b_true
    b = q.T @ b_true
    if np.linalg.norm(b_true - q @ b) > MODAL_SPAN_TOL * np.linalg.norm(b_true):
        raise SchemaError("truth input map does not lie in the span of the modes")
    c = q if truth.c_true is None else truth.c_true @ q
    return StateSpaceRealization(a=a, b=b, c=c)


def simulate(ss: StateSpaceRealization, x0, u_seq=None, horizon=None) -> np.ndarray:
    """Iterate the realization and return the output trajectory.

    Starting from reduced state ``x0``, applies one input column per step
    and records the output of each post-step state; the result is
    n_outputs x horizon. For autonomous systems pass ``horizon`` instead
    of inputs (or a 0-row ``u_seq``).
    """
    x = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x.shape[0] != ss.order:
        raise ShapeError(f"x0 has length {x.shape[0]}, expected {ss.order}")
    if u_seq is None:
        if horizon is None:
            raise InvalidInputError("need u_seq or horizon")
        integral = isinstance(horizon, (int, np.integer))
        if isinstance(horizon, bool) or not (integral and horizon >= 1):
            raise InvalidInputError(
                f"horizon must be an integer >= 1, got {horizon!r}"
            )
        u = np.zeros((ss.n_inputs, int(horizon)))
    else:
        u = as_matrix(u_seq, "u_seq", allow_zero_rows=True)
        if u.shape[0] != ss.n_inputs and not (u.shape[0] == 0 == ss.n_inputs):
            raise ShapeError(
                f"u_seq has {u.shape[0]} rows, expected {ss.n_inputs}"
            )
    steps = u.shape[1]
    out = np.empty((ss.n_outputs, steps))
    for k in range(steps):
        x = ss.a @ x + ss.b @ u[:, k]
        if not np.all(np.isfinite(x)):
            raise DivergenceError(step=k + 1)
        out[:, k] = ss.c @ x
    return out


def default_frequency_grid(
    count: int = DEFAULT_FREQ_COUNT, lo: float = DEFAULT_FREQ_MIN, hi: float = np.pi
) -> np.ndarray:
    """Logarithmically spaced grid in (0, pi] rad/sample."""
    return np.logspace(np.log10(lo), np.log10(hi), count)


def frequency_response(
    ss: StateSpaceRealization, omegas=None, on_singular: str = "raise"
) -> FrequencyResponseCurve:
    """Singular-value frequency response over a grid in (0, pi] rad/sample.

    A grid point within 1e-12 of an eigenvalue of A on the unit circle is
    singular. With ``on_singular="raise"`` it raises SingularFrequencyError;
    with ``"mark"`` its row of ``sigmas`` is NaN, ``singular`` flags it and
    the other frequencies are still evaluated.

    A is factored once, A = Z T Z^H (complex Schur form, Laub 1981). Then
    C (zI - A)^{-1} B = (C Z) (zI - T)^{-1} (Z^H B). With C = Q R its thin
    QR, C Z = Q (R Z) and Q has orthonormal columns, so R Z may stand in
    for C Z: the singular values are the same for every z, and the QR is
    of the real C. Each frequency costs one triangular solve, run as a back
    substitution over the whole grid at once: O(n^3 + F n^2 l) in all,
    with O(F n l) memory.
    """
    if on_singular not in SINGULAR_POLICIES:
        raise InvalidInputError(
            f"on_singular must be one of {SINGULAR_POLICIES}, got {on_singular!r}"
        )
    if ss.n_inputs < 1:
        raise InvalidInputError("frequency response needs at least one input")
    if omegas is None:
        omegas = default_frequency_grid()
    w = np.asarray(omegas, dtype=np.float64).reshape(-1)
    if (
        w.size == 0
        or not np.all(np.isfinite(w))
        or np.any(w <= 0.0)
        or np.any(w > np.pi + 1e-12)
    ):
        raise InvalidInputError("frequencies must be finite and lie in (0, pi]")
    from scipy.linalg import rsf2csf, schur

    try:
        t, z = schur(ss.a, output="real", check_finite=False)
        t, z = rsf2csf(t, z, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(
            f"Schur factorization failed for a {ss.order}x{ss.order} matrix"
        ) from exc
    points = np.exp(1j * w)
    gaps = np.abs(points[:, None] - np.diag(t))
    singular = np.min(gaps, axis=1) <= SINGULAR_FREQ_TOL
    if on_singular == "raise" and np.any(singular):
        raise SingularFrequencyError(omega=float(w[np.argmax(singular)]))
    b_hat = z.conj().T @ ss.b
    c_hat = np.linalg.qr(ss.c, mode="r") @ z
    y = _triangular_resolvent(t, points[~singular], b_hat)
    n, f_ok, l = y.shape
    k = c_hat.shape[0]
    h = (c_hat @ y.reshape(n, f_ok * l)).reshape(k, f_ok, l).transpose(1, 0, 2)
    sigmas = np.full((w.size, min(ss.n_outputs, ss.n_inputs)), np.nan)
    # Past rank(C Z) = min(q, n) the transfer matrix has exact zero
    # singular values, which the reduced product does not carry.
    sigmas[~singular] = 0.0
    sigmas[~singular, : min(h.shape[1:])] = np.linalg.svd(h, compute_uv=False)
    return FrequencyResponseCurve(omegas=w, sigmas=sigmas, singular=singular)


def _triangular_resolvent(t, points, rhs) -> np.ndarray:
    """(p I - T)^{-1} rhs for every point p, as an n x F x l stack.

    Back substitution on upper triangular T, each row solved for all
    points at once; row i needs only the rows below it.
    """
    n, l = rhs.shape
    y = np.empty((n, points.size, l), dtype=np.complex128)
    flat = y.reshape(n, -1)
    for i in range(n - 1, -1, -1):
        acc = (t[i, i + 1:] @ flat[i + 1:]).reshape(points.size, l) + rhs[i]
        y[i] = acc / (points - t[i, i])[:, None]
    return y


def match_eigenvalues(eigs_a, eigs_b) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost pairing of two equally sized spectra.

    Returns (perm, dists): ``eigs_b[perm[i]]`` is matched to ``eigs_a[i]``
    and ``dists[i]`` is their absolute difference. The assignment
    minimizes the total matched distance. Raises InvalidInputError if an
    eigenvalue is not finite.
    """
    a = np.asarray(eigs_a, dtype=np.complex128).reshape(-1)
    b = np.asarray(eigs_b, dtype=np.complex128).reshape(-1)
    if a.size != b.size:
        raise ShapeError(f"spectra differ in size: {a.size} vs {b.size}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInputError("spectra must be finite")
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, None] - b[None, :])
    # cost is square, so rows is arange(n) and cols is the permutation
    rows, cols = linear_sum_assignment(cost)
    return cols, cost[rows, cols]


def spectral_distance(eigs_a, eigs_b) -> float:
    """Largest matched eigenvalue gap under the minimum-cost pairing."""
    _, dists = match_eigenvalues(eigs_a, eigs_b)
    return float(np.max(dists)) if dists.size else 0.0


def mode_cosine_similarities(modes_a, modes_b) -> np.ndarray:
    """Columnwise |<a_i, b_i>| / (|a_i| |b_i|) for two mode matrices."""
    a = np.asarray(modes_a, dtype=np.complex128)
    b = np.asarray(modes_b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ShapeError(f"mode matrices differ in shape: {a.shape} vs {b.shape}")
    num = np.abs(np.sum(np.conj(a) * b, axis=0))
    den = np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=0)
    return num / np.where(den == 0.0, 1.0, den)
