import numpy as np
import pytest

from dmdc import (
    DegenerateMatrixError,
    EigenDecomposition,
    InsufficientDataError,
    InvalidInputError,
    ShapeError,
    dmd_fit,
    dmdc_fit_known_b,
    dmdc_fit_unknown_b,
    exact_modes,
    spectral_distance,
    split_trajectory,
)
from helpers import (
    EX1_TRAJ,
    EX1_UPS,
    EX1_X,
    EX1_XP,
    consistent_data,
    consistent_forced_data,
    lstsq_operator,
    random_diagonalizable,
)


def test_split_trajectory_definition():
    traj = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    x, xp = split_trajectory(traj)
    np.testing.assert_array_equal(x, traj[:, :2])
    np.testing.assert_array_equal(xp, traj[:, 1:])


def test_split_trajectory_single_column():
    with pytest.raises(InsufficientDataError):
        split_trajectory(np.array([[1.0], [2.0]]))


def test_split_example1_trajectory():
    x, xp = split_trajectory(EX1_TRAJ)
    np.testing.assert_array_equal(x, EX1_X)
    np.testing.assert_array_equal(xp, EX1_XP)


def test_constant_trajectory_single_unit_eigenvalue():
    traj = np.ones((2, 6))
    model = dmd_fit(*split_trajectory(traj))
    assert model.output_rank == 1
    np.testing.assert_allclose(model.eigenvalues, [1.0], rtol=1e-12)


def test_diag_system_recovery_and_oracle():
    a = np.diag([0.9, 0.2])
    traj = np.empty((2, 5))
    traj[:, 0] = [1.0, 1.0]
    for k in range(4):
        traj[:, k + 1] = a @ traj[:, k]
    model = dmd_fit(*split_trajectory(traj))
    np.testing.assert_allclose(model.eigenvalues, [0.9, 0.2], rtol=1e-8)
    x, xp = split_trajectory(traj)
    oracle = np.linalg.eigvals(lstsq_operator(x, xp))
    np.testing.assert_allclose(
        sorted(model.eigenvalues, key=abs), sorted(oracle, key=abs), rtol=1e-8
    )


def test_example1_spectrum_corrupted_by_feedback():
    model = dmd_fit(EX1_X, EX1_XP)
    # feedback closes the loop: the data obeys diag(1.5, 0.1) - B*[1 0],
    # i.e. diag(0.5, 0.1), so the open-loop spectrum is not recoverable
    assert spectral_distance(model.eigenvalues, [1.5, 0.1]) > 1e-3
    np.testing.assert_allclose(model.eigenvalues, [0.5, 0.1], rtol=1e-8)
    oracle = np.linalg.eigvals(lstsq_operator(EX1_X, EX1_XP))
    np.testing.assert_allclose(
        sorted(model.eigenvalues, key=abs), sorted(oracle, key=abs), rtol=1e-8
    )
    assert np.allclose(EX1_UPS, -EX1_X[:1])  # the closed loop in the data


def test_modes_of_diag_system_are_axes():
    a = np.diag([0.9, 0.2])
    rng = np.random.default_rng(2)
    x, xp = consistent_data(rng, a, 8)
    model = dmd_fit(x, xp)
    for i, axis in enumerate(np.eye(2)):
        phi = model.modes[:, i]
        cos = np.abs(axis @ phi) / np.linalg.norm(phi)
        np.testing.assert_allclose(cos, 1.0, atol=1e-10)


def test_zero_eigenvalue_mode_branch_nilpotent():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    xp = np.array([[1.0, 0.0], [0.0, 0.0]])
    model = dmd_fit(x, xp)
    assert np.all(np.abs(model.eigenvalues) <= 1e-12)
    np.testing.assert_array_equal(
        model.modes, model.basis.astype(complex) @ model.eigen.vectors
    )


def test_exact_modes_zero_branch_unit():
    eigen = EigenDecomposition(
        values=np.array([0.5 + 0j, 0.0 + 0j]),
        vectors=np.eye(2, dtype=complex),
    )
    lift = np.array([[1.0, 2.0], [3.0, 4.0]])
    zero_basis = np.array([[5.0, 6.0], [7.0, 8.0]])
    modes = exact_modes(eigen, lift, zero_basis)
    np.testing.assert_array_equal(modes[:, 0], lift[:, 0].astype(complex))
    np.testing.assert_array_equal(modes[:, 1], zero_basis[:, 1].astype(complex))


def test_mode_eigen_relation_against_explicit_operator():
    rng = np.random.default_rng(7)
    for n in (3, 6, 12):
        a, _ = random_diagonalizable(rng, n)
        x, xp = consistent_data(rng, a, n + 6)
        model = dmd_fit(x, xp)
        a_bar = lstsq_operator(x, xp)
        for lam, phi in zip(model.eigenvalues, model.modes.T):
            if abs(lam) > 1e-12:
                resid = np.linalg.norm(a_bar @ phi - lam * phi)
                assert resid <= 1e-8 * np.linalg.norm(a_bar, "fro")


def test_reduced_spectrum_equals_nonzero_full_spectrum():
    # dynamics confined to a 5-dimensional subspace of a 30-dim space
    rng = np.random.default_rng(13)
    p, _ = np.linalg.qr(rng.standard_normal((30, 5)))
    q, _ = random_diagonalizable(rng, 5)
    a = p @ q @ p.T
    x = p @ rng.standard_normal((5, 20))
    xp = a @ x
    model = dmd_fit(x, xp)
    assert model.output_rank == 5
    full = np.linalg.eigvals(lstsq_operator(x, xp))
    nonzero = full[np.abs(full) > 1e-10]
    assert spectral_distance(model.eigenvalues, nonzero) <= 1e-8


def test_exact_recovery_full_rank():
    rng = np.random.default_rng(17)
    a, eigs = random_diagonalizable(rng, 6)
    x, xp = consistent_data(rng, a, 15)
    model = dmd_fit(x, xp)
    np.testing.assert_allclose(
        np.sort_complex(model.eigenvalues), eigs, rtol=1e-8
    )


def test_one_step_consistency():
    rng = np.random.default_rng(19)
    a, _ = random_diagonalizable(rng, 8)
    x, xp = consistent_data(rng, a, 20)
    model = dmd_fit(x, xp)
    a_bar = model.full_operator()
    assert np.linalg.norm(a_bar @ x - xp, "fro") <= 1e-8 * np.linalg.norm(xp, "fro")


_FITS = {
    "dmd": lambda x, xp, ups, b: dmd_fit(x, xp),
    "dmdc-known-b": lambda x, xp, ups, b: dmdc_fit_known_b(x, xp, ups, b),
    "dmdc-unknown-b": lambda x, xp, ups, b: dmdc_fit_unknown_b(x, xp, ups)[0],
}


@pytest.mark.parametrize("kind", list(_FITS))
def test_full_operator_cap(kind):
    rng = np.random.default_rng(29)
    a, _ = random_diagonalizable(rng, 6)
    b = rng.standard_normal((6, 1))
    x, xp, ups = consistent_forced_data(rng, a, b, 12)
    model = _FITS[kind](x, xp, ups, b)
    assert model.kind == kind
    with pytest.raises(InvalidInputError):
        model.full_operator(max_dim=5)
    assert model.full_operator(max_dim=6).shape == (6, 6)


def test_fit_errors():
    with pytest.raises(ShapeError):
        dmd_fit(np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(DegenerateMatrixError):
        dmd_fit(np.zeros((2, 3)), np.ones((2, 3)))
