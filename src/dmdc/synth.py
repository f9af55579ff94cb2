"""Seeded generators for the three benchmark systems used in validation.

Every generator is deterministic per seed and emits ground truth alongside
the data so fits can be scored: an unstable 2-state system under
proportional feedback, random stable state-space models observed through
many measurement channels, and a sparse oscillatory system on a periodic
2-D grid with localized spatial actuation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dmd import _checked_dt, _snapshot_views
from .errors import (
    DivergenceError,
    InvalidConfigError,
    InvalidInputError,
)
from .linalg import _eig_order, eig
from .rom import StateSpaceRealization


@dataclass(frozen=True)
class GroundTruth:
    """The generating system behind a synthetic dataset.

    A truth with an ``a_true`` is the minimal realization x = C z,
    z' = a_true z + b_true u: its order equals the number of ``eigs_true``,
    and ``c_true`` (orthonormal columns; None means I) maps it to the
    measurements. A truth without one is modal: ``modes_true`` carries the
    spatial mode shapes of ``eigs_true``, and ``b_true`` is the input map
    on the full measured state.
    """

    a_true: np.ndarray | None
    b_true: np.ndarray | None
    c_true: np.ndarray | None
    eigs_true: np.ndarray
    modes_true: np.ndarray | None
    seed: int


@dataclass(frozen=True)
class SynthDataset:
    """Snapshot triple (x, xp, upsilon) plus the truth that generated it.

    Noiseless datasets satisfy xp = C a_true C^T x + C b_true upsilon
    columnwise, with C = c_true (or I); a modal truth has no a_true and
    its data follow modes_true and eigs_true instead. The generators return
    x and xp as read-only views of one n x m trajectory, as
    ``split_trajectory`` does, so a dataset holds its snapshots once.
    """

    x: np.ndarray
    xp: np.ndarray
    upsilon: np.ndarray
    truth: GroundTruth
    dt: float


@dataclass(frozen=True)
class ActuationSpec:
    """Gaussian actuation bump for the spatial-grid generator.

    ``center`` is in grid coordinates (None centers the bump), ``width``
    is the standard deviation in cells, ``amplitude`` the peak value.
    """

    center: tuple[float, float] | None = None
    width: float = 5.0
    amplitude: float = -1.0


EXAMPLE1_A = np.array([[1.5, 0.0], [0.0, 0.1]])
EXAMPLE1_B = np.array([[1.0], [0.0]])


def gen_example1(
    x0=(4.0, 7.0), k_gain: float = -1.0, m: int = 5, dt: float = 1.0
) -> SynthDataset:
    """Unstable 2-state system stabilized by proportional feedback.

    Iterates x_{k+1} = A x_k + B u_k with u_k = k_gain * x1_k from the
    given initial state, recording m snapshots. The defaults reproduce
    the canonical 5-snapshot benchmark starting at [4, 7]; ``dt`` is only
    recorded. A state too large for a float raises DivergenceError.
    """
    dt = _checked_dt(dt)
    _check_snapshot_count(m)
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.shape != (2,):
        raise InvalidConfigError(f"x0 must have 2 entries, got {x0.shape}")
    if not np.all(np.isfinite([*x0, k_gain])):
        raise InvalidConfigError(f"x0 and k_gain must be finite, got {x0}, {k_gain!r}")
    # Exact rational recursion so snapshots equal the decimal reference
    # values after a single correctly-rounded float conversion (binary
    # float iteration would already be off by an ulp at 0.1 * 7).
    a11, a22 = Fraction("1.5"), Fraction("0.1")
    gain = Fraction(k_gain)
    s1, s2 = Fraction(float(x0[0])), Fraction(float(x0[1]))
    states = np.empty((2, m))
    ups = np.empty((1, m - 1))
    states[:, 0] = [float(s1), float(s2)]
    for k in range(m - 1):
        u = gain * s1
        s1, s2 = a11 * s1 + u, a22 * s2
        try:
            ups[0, k] = float(u)
            states[:, k + 1] = [float(s1), float(s2)]
        except OverflowError:
            raise DivergenceError(k + 1) from None
    truth = GroundTruth(
        a_true=EXAMPLE1_A.copy(),
        b_true=EXAMPLE1_B.copy(),
        c_true=None,
        eigs_true=eig(EXAMPLE1_A).values,
        modes_true=np.eye(2, dtype=np.complex128),
        seed=0,
    )
    x, xp = _snapshot_views(states)
    return SynthDataset(x=x, xp=xp, upsilon=ups, truth=truth, dt=dt)


def _check_snapshot_count(m: int) -> None:
    """The snapshot count rule of every generator: m >= 2, one pair at least."""
    if m < 2:
        raise InvalidConfigError(f"need m >= 2 snapshots, got {m}")


def _seeded_rng(seed: int) -> np.random.Generator:
    """The random generator of a seed, the rule of every generator: >= 0."""
    if seed < 0:
        raise InvalidConfigError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def gen_random_stable_ss(
    n: int, l: int, q: int, seed: int = 0
) -> tuple[StateSpaceRealization, GroundTruth]:
    """Random stable discrete system with an orthonormal measurement map.

    Eigenvalues are placed uniformly in the disk of radius 0.95 in
    conjugate pairs, mixed by a random orthogonal change of basis; B and
    C are standard normal with C orthonormalized (columns when q >= n,
    rows otherwise). Deterministic per seed.
    """
    if n < 1 or l < 1 or q < 1:
        raise InvalidConfigError(f"dimensions must be >= 1, got n={n} l={l} q={q}")
    rng = _seeded_rng(seed)
    radius = 0.95
    d = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        r = radius * np.sqrt(rng.uniform())
        th = rng.uniform(0.0, np.pi)
        re, im = r * np.cos(th), r * np.sin(th)
        d[i : i + 2, i : i + 2] = [[re, im], [-im, re]]
    if n % 2:
        d[-1, -1] = rng.uniform(-radius, radius)
    qmat = _orthonormalize(rng.standard_normal((n, n)))
    a = qmat @ d @ qmat.T
    b = rng.standard_normal((n, l))
    g = rng.standard_normal((q, n))
    if q >= n:
        c = _orthonormalize(g)
    else:
        c = _orthonormalize(g.T).T
    real = StateSpaceRealization(a=a, b=b, c=c)
    truth = GroundTruth(
        a_true=a, b_true=b, c_true=c,
        eigs_true=eig(a).values, modes_true=None, seed=int(seed),
    )
    return real, truth


def _orthonormalize(g: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * np.where(d == 0.0, 1.0, np.sign(d))


def gen_random_inputs(l: int, m: int, seed: int = 0) -> np.ndarray:
    """Seeded standard-normal input matrix with one column per step."""
    _check_snapshot_count(m)
    if l < 1:
        raise InvalidConfigError(f"need l >= 1 inputs, got {l}")
    rng = _seeded_rng(seed)
    return rng.standard_normal((l, m - 1))


def gen_example2(
    n: int = 5,
    l: int = 2,
    q: int = 100,
    m: int = 101,
    seed: int = 0,
    dt: float = 1.0,
) -> SynthDataset:
    """Measured snapshots of a random stable system driven by random inputs.

    The latent n-state system is observed through the orthonormal map C,
    and the ground truth records that latent (A, B, C); the measured data
    obeys x' = C A C^T x + C B u. Starts from the origin. That needs
    C^T C = I, so q < n raises InvalidConfigError.
    """
    dt = _checked_dt(dt)
    _check_snapshot_count(m)
    if q < n:
        raise InvalidConfigError(
            f"need q >= n channels for the data to obey C A C^T, got n={n} q={q}"
        )
    real, truth = gen_random_stable_ss(n, l, q, seed)
    ups = gen_random_inputs(l, m, seed + 1)
    states = np.zeros((n, m))
    for k in range(m - 1):
        states[:, k + 1] = real.a @ states[:, k] + real.b @ ups[:, k]
    x, xp = _snapshot_views(real.c @ states)
    return SynthDataset(x=x, xp=xp, upsilon=ups, truth=truth, dt=dt)


def _conjugate_classes(grid: int, kmax: int) -> list[tuple[int, int]]:
    """One wavevector mod ``grid`` of each conjugate pair in [-kmax, kmax]^2.

    With 2 kmax < grid no two vectors of the square share a residue and only
    k = 0 is its own conjugate, so the pairs are the half plane kx > 0, then
    kx = 0 with ky > 0. The order is fixed: ``rng.choice`` picks by index.
    """
    return ([(kx, ky % grid) for kx in range(kmax, 0, -1)
             for ky in range(kmax, -kmax - 1, -1)]
            + [(0, ky) for ky in range(kmax, 0, -1)])


def _plane_waves(grid: int, waves: list[tuple[int, int]]) -> np.ndarray:
    """Columns e^{2 pi i (kx ix + ky iy) / N}, flattened row-major.

    Each column is the outer product of two length-N exponentials, read
    off the table of N-th roots of unity at k i mod N.
    """
    ix = np.arange(grid)
    roots = np.exp(ix * (2j * np.pi / grid))
    return np.column_stack([
        np.outer(roots[kx * ix % grid], roots[ky * ix % grid]).reshape(-1)
        for kx, ky in waves
    ])


def gen_sparse_fourier(
    grid: int = 128,
    n_modes: int = 5,
    m: int = 60,
    seed: int = 0,
    actuation: ActuationSpec | None = None,
    dt: float = 1.0,
) -> SynthDataset:
    """Sparse oscillatory dynamics on a periodic grid with spatial forcing.

    ``n_modes`` conjugate-symmetric wavevector pairs evolve by discrete
    factors exp((-delta + i omega) dt) with damping delta in [0.005, 0.05]
    and frequency omega in [0.5, 2.0] rad per unit time. The actuation
    bump, projected onto the active plane waves, drives their coefficients
    with a random +-1 signal per step. Snapshots are the real fields
    flattened to length grid**2.

    Ground truth is modal at every grid: the 2 * n_modes discrete
    eigenvalues, their spatial mode shapes and the full-state input map,
    with no dense operator. ``rom.realize_truth`` builds its order
    2 * n_modes realization.
    """
    dt = _checked_dt(dt)
    if grid < 4 or grid & (grid - 1) != 0:
        raise InvalidConfigError(f"grid must be a power of two >= 4, got {grid}")
    if n_modes < 1:
        raise InvalidConfigError(f"need n_modes >= 1, got {n_modes}")
    _check_snapshot_count(m)
    act = actuation if actuation is not None else ActuationSpec()
    if act.center is not None and np.shape(act.center) != (2,):
        raise InvalidConfigError(f"actuation center must be (x, y), got {act.center!r}")
    if not np.all(np.isfinite([act.width, act.amplitude, *(act.center or ())])):
        raise InvalidConfigError(f"actuation spec must be finite, got {act}")
    if act.width <= 0.0:
        raise InvalidConfigError(f"actuation width must be positive, got {act.width}")

    rng = _seeded_rng(seed)
    kmax = min(6, grid // 4)
    classes = _conjugate_classes(grid, kmax)
    if len(classes) < n_modes:
        raise InvalidConfigError(
            f"grid {grid} supports only {len(classes)} distinct mode pairs"
        )
    picks = rng.choice(len(classes), size=n_modes, replace=False)
    waves = [classes[i] for i in picks]

    delta = rng.uniform(0.005, 0.05, n_modes)
    omega = rng.uniform(0.5, 2.0, n_modes)
    mu = np.exp((-delta + 1j * omega) * dt)
    mag = rng.uniform(1.0, 2.0, n_modes)
    phase = rng.uniform(0.0, 2.0 * np.pi, n_modes)
    signal = rng.integers(0, 2, size=m - 1) * 2.0 - 1.0

    cx, cy = act.center if act.center is not None else (grid / 2.0, grid / 2.0)
    ax = ((np.arange(grid) - cx + grid / 2.0) % grid) - grid / 2.0
    ay = ((np.arange(grid) - cy + grid / 2.0) % grid) - grid / 2.0
    bump = act.amplitude * np.exp(
        -(np.add.outer(ax**2, ay**2)) / (2.0 * act.width**2)
    )

    # Every field is 2 Re(W c) for the plane waves W and their
    # coefficients c; W^H W / n = I recovers c from a field.
    n = grid * grid
    w = _plane_waves(grid, waves)
    analysis = np.conj(w).T / n
    beta = analysis @ bump.reshape(-1)
    coeffs = np.empty((n_modes, m), dtype=np.complex128)
    coeffs[:, 0] = mag * np.exp(1j * phase)
    for k in range(m - 1):
        coeffs[:, k + 1] = mu * coeffs[:, k] + beta * signal[k]
    # 2 Re(W c) = [Re W, Im W] [2 Re c; -2 Im c], a real product, so no
    # complex n-by-m array is formed.
    w_ri = np.hstack([w.real, w.imag])

    def field(c: np.ndarray) -> np.ndarray:
        return w_ri @ np.concatenate([2.0 * c.real, -2.0 * c.imag])

    x, xp = _snapshot_views(field(coeffs))
    b_true = field(beta).reshape(-1, 1)

    eigs_raw = np.concatenate([mu, np.conj(mu)])
    modes_raw = np.hstack([w, np.conj(w)])
    order = _eig_order(eigs_raw)
    eigs_true = eigs_raw[order]
    modes_true = modes_raw[:, order]

    truth = GroundTruth(
        a_true=None, b_true=b_true, c_true=None,
        eigs_true=eigs_true, modes_true=modes_true, seed=int(seed),
    )
    return SynthDataset(
        x=x, xp=xp, upsilon=signal.reshape(1, -1), truth=truth, dt=dt,
    )


def add_noise(ds: SynthDataset, sigma: float, seed: int = 0) -> SynthDataset:
    """Add seeded i.i.d. Gaussian noise to the state snapshots.

    The control matrix and ground truth are left untouched; sigma = 0
    returns the dataset unchanged. A sigma that is negative or not finite
    raises InvalidInputError.
    """
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise InvalidInputError(f"noise level must be finite and >= 0, got {sigma}")
    if sigma == 0.0:
        return ds
    rng = _seeded_rng(seed)
    x = ds.x + sigma * rng.standard_normal(ds.x.shape)
    xp = ds.xp + sigma * rng.standard_normal(ds.xp.shape)
    return SynthDataset(x=x, xp=xp, upsilon=ds.upsilon, truth=ds.truth, dt=ds.dt)
