"""Shared fixtures: benchmark matrices, independent oracles, data builders."""
import gc
import math
import mmap
import tracemalloc
from pathlib import Path

import numpy as np

from dmdc.errors import FormatError, InvalidInputError, ParseError, SingularFrequencyError
from dmdc.io import _decode_text
from dmdc.rom import SINGULAR_FREQ_TOL, StateSpaceRealization
from dmdc.synth import gen_random_inputs, gen_random_stable_ss

# Example-1 benchmark: unstable diag(1.5, 0.1) system under u = -x1 feedback,
# five snapshots from [4, 7].
EX1_A = np.array([[1.5, 0.0], [0.0, 0.1]])
EX1_B = np.array([[1.0], [0.0]])
EX1_X = np.array([[4.0, 2.0, 1.0, 0.5], [7.0, 0.7, 0.07, 0.007]])
EX1_XP = np.array([[2.0, 1.0, 0.5, 0.25], [0.7, 0.07, 0.007, 0.0007]])
EX1_UPS = np.array([[-4.0, -2.0, -1.0, -0.5]])
EX1_TRAJ = np.hstack([EX1_X, EX1_XP[:, -1:]])

# Reference economy SVD of EX1_X, 4-decimal. Verified against a direct
# computation: columns are unit norm and u is orthogonal by construction.
EX1_SVD_SIGMA = np.array([8.2495, 1.6402])
EX1_SVD_U = np.array([[-0.5329, -0.8462], [-0.8462, 0.5329]])
EX1_SVD_V = np.array(
    [
        [-0.9764, 0.2105],
        [-0.2010, -0.8044],
        [-0.0718, -0.4932],
        [-0.0330, -0.2557],
    ]
)


def lstsq_operator(x, xp):
    """Brute-force least-squares estimate of the one-step operator."""
    return xp @ np.linalg.pinv(x)


def joint_lstsq_operator(x, xp, ups):
    """Brute-force joint estimate [A B] = X' pinv([X; U])."""
    return np.atleast_2d(xp) @ np.linalg.pinv(
        np.vstack([np.atleast_2d(x), np.atleast_2d(ups)])
    )


def modal_operator(truth) -> np.ndarray:
    """Dense real operator Re(Phi diag(lambda) pinv(Phi)) of a modal truth,
    built without the package's realization."""
    phi = truth.modes_true
    return np.real((phi * truth.eigs_true) @ np.linalg.pinv(phi))


def random_diagonalizable(rng, n, lo=0.2, hi=0.9):
    """Well-conditioned real matrix with distinct real eigenvalues."""
    eigs = np.linspace(lo, hi, n) * rng.choice([-1.0, 1.0], size=n)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    return q @ np.diag(eigs) @ q.T, np.sort_complex(eigs.astype(complex))


def consistent_data(rng, a, m):
    """Columnwise-consistent snapshot pair: xp = a x with random x."""
    x = rng.standard_normal((a.shape[0], m))
    return x, a @ x


def consistent_forced_data(rng, a, b, m):
    """Snapshot triple obeying xp = a x + b u with random x and u."""
    x = rng.standard_normal((a.shape[0], m))
    u = rng.standard_normal((b.shape[1], m))
    return x, a @ x + b @ u, u


def sensor_pair(n, m, order=6, l=2, seed=3):
    """(X, X', U, C B) of a latent order-``order`` system with ``l`` inputs,
    seen through ``n`` orthonormal channels over ``m`` snapshots."""
    real, _ = gen_random_stable_ss(order, l, n, seed=seed)
    ups = gen_random_inputs(l, m, seed=seed + 1)
    z = np.zeros((order, m))
    z[:, 0] = np.random.default_rng(seed).standard_normal(order)
    for k in range(m - 1):
        z[:, k + 1] = real.a @ z[:, k] + real.b @ ups[:, k]
    ys = real.c @ z
    return ys[:, :-1].copy(), ys[:, 1:].copy(), ups, real.c @ real.b


def peak_bytes(fn) -> int:
    """Peak traced bytes that ``fn()`` allocates above what is live before
    it, its result included. A first untraced call makes the lazy imports
    and caches of a first call, so they are not counted."""
    fn()
    gc.collect()
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = fn()  # noqa: F841 -- alive at the peak, as a caller's is
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not outer:
            tracemalloc.stop()


def is_mapped(a) -> bool:
    """Whether the ``.base`` chain of the array ``a`` reaches an mmap."""
    while isinstance(a, (np.ndarray, memoryview)):
        a = a.base if isinstance(a, np.ndarray) else a.obj
    return isinstance(a, mmap.mmap)


def column_sign_match(got, ref, atol):
    """Max column error allowing a per-column sign flip; returns flips."""
    flips = []
    err = 0.0
    for j in range(ref.shape[1]):
        plus = np.max(np.abs(got[:, j] - ref[:, j]))
        minus = np.max(np.abs(got[:, j] + ref[:, j]))
        flips.append(1.0 if plus <= minus else -1.0)
        err = max(err, min(plus, minus))
    assert err <= atol, f"column mismatch {err} > {atol}"
    return np.array(flips)


def transfer_singular_values(ss: StateSpaceRealization, omega: float) -> np.ndarray:
    """Singular values of C (e^{i omega} I - A)^{-1} B at one frequency.

    Dense oracle for ``dmdc.rom.frequency_response``: one eigvals and one
    dense solve per frequency, sharing no code with the Schur path.
    """
    if ss.n_inputs < 1:
        raise InvalidInputError("frequency response needs at least one input")
    if not np.isfinite(omega):
        raise InvalidInputError(f"frequency must be finite, got {omega!r}")
    z = np.exp(1j * float(omega))
    eigs = np.linalg.eigvals(ss.a)
    if np.min(np.abs(z - eigs)) <= SINGULAR_FREQ_TOL:
        raise SingularFrequencyError(omega=float(omega))
    resolvent = np.linalg.solve(
        z * np.eye(ss.order) - ss.a, ss.b.astype(np.complex128)
    )
    return np.linalg.svd(ss.c @ resolvent, compute_uv=False)


def read_matrix_csv_per_cell(path) -> np.ndarray:
    """Read a CSV matrix; rows are state entries, columns snapshots.

    Oracle for ``dmdc.io.read_matrix_csv``: the per-cell parser alone, with
    no vectorized path.
    """
    lines = _decode_text(Path(path).read_bytes(), path).splitlines()
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise FormatError(f"{path}: empty matrix file")
    width = None
    rows = []
    for i, line in enumerate(lines, start=1):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise FormatError(
                f"{path}: line {i}: expected {width} cells, got {len(cells)}"
            )
        row = []
        for j, cell in enumerate(cells, start=1):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: line {i}, column {j}: not a number: {cell.strip()!r}"
                ) from None
            if not math.isfinite(v):
                raise ParseError(f"{path}: line {i}, column {j}: non-finite value")
            row.append(v)
        rows.append(row)
    return np.array(rows, dtype=np.float64)
