"""Seeded generators for the three benchmark systems used in validation.

Every generator is deterministic per seed and emits ground truth alongside
the data so fits can be scored: an unstable 2-state system under
proportional feedback, random stable state-space models observed through
many measurement channels, and a sparse oscillatory system on a periodic
2-D grid with localized spatial actuation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dmd import _checked_dt
from .errors import (
    DivergenceError,
    InsufficientDataError,
    InvalidConfigError,
    InvalidInputError,
    NumericalFailureError,
)
from .linalg import eig
from .rom import StateSpaceRealization

REALNESS_TOL = 1e-10
DENSE_TRUTH_MAX_DIM = 2048


@dataclass(frozen=True)
class GroundTruth:
    """The generating system behind a synthetic dataset.

    ``a_true`` and ``b_true`` are the operators the data actually obeys
    (None when the state dimension makes a dense operator impractical);
    ``eigs_true`` and ``modes_true`` always carry the spectrum and, when
    meaningful, the spatial mode shapes.
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

    Noiseless datasets satisfy xp = a_true x + b_true upsilon columnwise.
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
    if m < 2:
        raise InsufficientDataError(f"need m >= 2 snapshots, got {m}")
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
    return SynthDataset(
        x=states[:, :-1].copy(), xp=states[:, 1:].copy(),
        upsilon=ups, truth=truth, dt=dt,
    )


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
    rng = np.random.default_rng(seed)
    radius = 0.95
    blocks: list[np.ndarray] = []
    for _ in range(n // 2):
        r = radius * np.sqrt(rng.uniform())
        th = rng.uniform(0.0, np.pi)
        re, im = r * np.cos(th), r * np.sin(th)
        blocks.append(np.array([[re, im], [-im, re]]))
    if n % 2:
        blocks.append(np.array([[rng.uniform(-radius, radius)]]))
    d = np.zeros((n, n))
    i = 0
    for blk in blocks:
        s = blk.shape[0]
        d[i : i + s, i : i + s] = blk
        i += s
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
    if l < 1 or m < 2:
        raise InvalidConfigError(f"need l >= 1 and m >= 2, got l={l} m={m}")
    rng = np.random.default_rng(seed)
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
    so the measured data obeys the effective operators (C A C^T, C B);
    those are what the ground truth records. Starts from the origin.
    """
    dt = _checked_dt(dt)
    real, _ = gen_random_stable_ss(n, l, q, seed)
    ups = gen_random_inputs(l, m, seed + 1)
    states = np.zeros((n, m))
    for k in range(m - 1):
        states[:, k + 1] = real.a @ states[:, k] + real.b @ ups[:, k]
    ys = real.c @ states
    a_eff = real.c @ real.a @ real.c.T
    b_eff = real.c @ real.b
    # eigs_true is the latent spectrum: the nonzero eigenvalues of the
    # effective operator (its remaining q - n eigenvalues are embedding
    # zeros with no dynamical meaning)
    truth = GroundTruth(
        a_true=a_eff, b_true=b_eff, c_true=None,
        eigs_true=eig(real.a).values,
        modes_true=None, seed=int(seed),
    )
    return SynthDataset(
        x=ys[:, :-1].copy(), xp=ys[:, 1:].copy(),
        upsilon=ups, truth=truth, dt=dt,
    )


def _conjugate_classes(grid: int, kmax: int) -> list[tuple[int, int]]:
    """Canonical representatives of non-self-conjugate wavevector pairs."""
    reps = []
    seen = set()
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            key = (kx % grid, ky % grid)
            conj = ((-kx) % grid, (-ky) % grid)
            if key == conj:
                continue
            pair = (key, conj) if key <= conj else (conj, key)
            if pair in seen:
                continue
            seen.add(pair)
            reps.append(pair[0])
    return reps


def _plane_waves(grid: int, waves: list[tuple[int, int]]) -> np.ndarray:
    """Columns e^{2 pi i (kx ix + ky iy) / N}, flattened row-major."""
    ix = np.arange(grid)
    cols = []
    for kx, ky in waves:
        phase = np.add.outer(kx * ix, ky * ix) * (2j * np.pi / grid)
        cols.append(np.exp(phase).reshape(-1))
    return np.column_stack(cols)


def _field_from_coeffs(
    coeffs: np.ndarray, waves: list[tuple[int, int]], grid: int
) -> np.ndarray:
    spec = np.zeros((grid, grid), dtype=np.complex128)
    for c, (kx, ky) in zip(coeffs, waves):
        spec[kx, ky] += c
        spec[(-kx) % grid, (-ky) % grid] += np.conj(c)
    field = np.fft.ifft2(spec) * grid * grid
    residue = float(np.max(np.abs(field.imag))) if field.size else 0.0
    if residue > REALNESS_TOL:
        raise NumericalFailureError(
            f"synthesized field has imaginary residue {residue:.3e}"
        )
    return field.real.reshape(-1)


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
    bump, transformed to the Fourier domain, drives the active mode
    coefficients with a random +-1 signal per step. Snapshots are the real
    fields flattened to length grid**2.

    Ground truth records the 2 * n_modes discrete eigenvalues and spatial
    mode shapes; the dense operator is included only while grid**2 stays
    within DENSE_TRUTH_MAX_DIM.
    """
    dt = _checked_dt(dt)
    if grid < 4 or grid & (grid - 1) != 0:
        raise InvalidConfigError(f"grid must be a power of two >= 4, got {grid}")
    if n_modes < 1:
        raise InvalidConfigError(f"need n_modes >= 1, got {n_modes}")
    if m < 2:
        raise InsufficientDataError(f"need m >= 2 snapshots, got {m}")
    act = actuation if actuation is not None else ActuationSpec()
    if not np.all(np.isfinite([act.width, act.amplitude, *(act.center or ())])):
        raise InvalidConfigError(f"actuation spec must be finite, got {act}")
    if act.width <= 0.0:
        raise InvalidConfigError(f"actuation width must be positive, got {act.width}")

    rng = np.random.default_rng(seed)
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
    coeffs = mag * np.exp(1j * phase)
    signal = rng.integers(0, 2, size=m - 1) * 2.0 - 1.0

    cx, cy = act.center if act.center is not None else (grid / 2.0, grid / 2.0)
    ax = ((np.arange(grid) - cx + grid / 2.0) % grid) - grid / 2.0
    ay = ((np.arange(grid) - cy + grid / 2.0) % grid) - grid / 2.0
    bump = act.amplitude * np.exp(
        -(np.add.outer(ax**2, ay**2)) / (2.0 * act.width**2)
    )
    bump_spec = np.fft.fft2(bump) / (grid * grid)
    beta = np.array([bump_spec[kx % grid, ky % grid] for kx, ky in waves])

    n = grid * grid
    snaps = np.empty((n, m))
    c = coeffs.copy()
    for k in range(m):
        snaps[:, k] = _field_from_coeffs(c, waves, grid)
        if k < m - 1:
            c = mu * c + beta * signal[k]

    eigs_raw = np.concatenate([mu, np.conj(mu)])
    modes_fwd = _plane_waves(grid, waves)
    modes_raw = np.hstack([modes_fwd, np.conj(modes_fwd)])
    order = np.lexsort((-eigs_raw.imag, -eigs_raw.real, -np.abs(eigs_raw)))
    eigs_true = eigs_raw[order]
    modes_true = modes_raw[:, order]

    b_true = _field_from_coeffs(beta, waves, grid).reshape(-1, 1)
    a_true = None
    if n <= DENSE_TRUTH_MAX_DIM:
        analysis = np.conj(modes_fwd).T / (grid * grid)
        a_true = 2.0 * np.real(modes_fwd @ (mu[:, None] * analysis))
    truth = GroundTruth(
        a_true=a_true, b_true=b_true, c_true=None,
        eigs_true=eigs_true, modes_true=modes_true, seed=int(seed),
    )
    return SynthDataset(
        x=snaps[:, :-1].copy(), xp=snaps[:, 1:].copy(),
        upsilon=signal.reshape(1, -1), truth=truth, dt=dt,
    )


def add_noise(ds: SynthDataset, sigma: float, seed: int = 0) -> SynthDataset:
    """Add seeded i.i.d. Gaussian noise to the state snapshots.

    The control matrix and ground truth are left untouched; sigma = 0
    returns the dataset unchanged.
    """
    if sigma < 0.0:
        raise InvalidInputError(f"noise level must be >= 0, got {sigma}")
    if sigma == 0.0:
        return ds
    rng = np.random.default_rng(seed)
    x = ds.x + sigma * rng.standard_normal(ds.x.shape)
    xp = ds.xp + sigma * rng.standard_normal(ds.xp.shape)
    return SynthDataset(x=x, xp=xp, upsilon=ds.upsilon, truth=ds.truth, dt=ds.dt)
