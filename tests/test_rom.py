import dataclasses

import numpy as np
import pytest

from dmdc import (
    DivergenceError,
    InvalidInputError,
    NumericalFailureError,
    SchemaError,
    ShapeError,
    SingularFrequencyError,
    StateSpaceRealization,
    default_frequency_grid,
    dmd_fit,
    dmdc_fit_known_b,
    dmdc_fit_unknown_b,
    frequency_response,
    gen_example1,
    gen_example2,
    match_eigenvalues,
    mode_cosine_similarities,
    realize,
    realize_truth,
    simulate,
    spectral_distance,
)
from dmdc import io as dio
from helpers import (
    EX1_B,
    EX1_UPS,
    EX1_X,
    EX1_XP,
    consistent_forced_data,
    random_diagonalizable,
    transfer_singular_values,
)


def test_realize_shape_contract_wide_basis():
    ds = gen_example2(n=5, l=2, q=100, m=40, seed=0)
    model, _ = dmdc_fit_unknown_b(ds.x, ds.xp, ds.upsilon)
    ss = realize(model)
    assert ss.c.shape == (100, model.output_rank)
    assert ss.b.shape == (model.output_rank, 2)


@pytest.mark.parametrize("a, b, c, match", [
    pytest.param(np.ones((2, 3)), np.ones((2, 1)), np.ones((1, 2)),
                 r"a must be square, got \(2, 3\)", id="a-not-square"),
    pytest.param(np.eye(2), np.ones((3, 1)), np.ones((1, 2)),
                 "b has 3 rows, expected 2", id="b-rows"),
    pytest.param(np.eye(2), np.ones((2, 1)), np.ones((1, 3)),
                 "c has 3 columns, expected 2", id="c-columns"),
])
def test_realization_shape_errors(a, b, c, match):
    with pytest.raises(ShapeError, match=match):
        StateSpaceRealization(a=a, b=b, c=c)


@pytest.mark.parametrize("edit, match", [
    pytest.param({"b_true": None}, "no input map", id="no-b"),
    pytest.param({"a_true": None, "modes_true": None}, "neither a_true nor modes",
                 id="no-system"),
])
def test_realize_truth_needs_an_input_map_and_a_system(edit, match):
    truth = gen_example1().truth
    with pytest.raises(SchemaError, match=match):
        realize_truth(dataclasses.replace(truth, **edit))


def test_realize_dmd_model_has_no_inputs():
    model = dmd_fit(np.ones((2, 5)), np.ones((2, 5)))
    ss = realize(model)
    assert ss.n_inputs == 0
    out = simulate(ss, np.ones(ss.order), horizon=4)
    assert np.allclose(out, out[:, :1])  # identity-on-reach: constant


def test_realize_model_record_matches_model():
    rng = np.random.default_rng(31)
    a, _ = random_diagonalizable(rng, 4)
    b = rng.standard_normal((4, 2))
    x, xp, ups = consistent_forced_data(rng, a, b, 12)
    for model in (dmd_fit(x, xp), dmdc_fit_unknown_b(x, xp, ups)[0]):
        want = realize(model)
        got = realize(dio.ModelRecord.from_model(model))
        assert got.n_inputs == want.n_inputs == model.b_tilde.shape[1]
        for part in ("a", "b", "c"):
            np.testing.assert_array_equal(getattr(got, part), getattr(want, part))


def test_simulate_scalar_hand_recursion():
    ss = StateSpaceRealization(a=[[0.5]], b=[[1.0]], c=[[1.0]])
    out = simulate(ss, [1.0], [[1.0, -1.0, 1.0]])
    np.testing.assert_allclose(out, [[1.5, -0.25, 0.875]], rtol=1e-14)


def test_simulate_divergence_reports_step():
    ss = StateSpaceRealization(a=[[1e308]], b=[[0.0]], c=[[1.0]])
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
        simulate(ss, [1.0], horizon=5)
    assert err.value.step == 2


def test_simulate_example1_replay_reproduces_trajectory():
    model = dmdc_fit_known_b(EX1_X, EX1_XP, EX1_UPS, EX1_B)
    ss = realize(model)
    x0 = model.basis.T @ EX1_X[:, 0]
    out = simulate(ss, x0, EX1_UPS)
    assert np.linalg.norm(out - EX1_XP) <= 1e-8 * np.linalg.norm(EX1_XP)


def test_simulate_autonomous_identity_constant():
    ss = StateSpaceRealization(a=np.eye(2), b=np.zeros((2, 0)), c=np.eye(2))
    out = simulate(ss, [1.0, -2.0], np.zeros((0, 4)))
    np.testing.assert_array_equal(out, np.tile([[1.0], [-2.0]], 4))


def test_simulate_validation():
    ss = StateSpaceRealization(a=[[0.5]], b=[[1.0]], c=[[1.0]])
    with pytest.raises(ShapeError):
        simulate(ss, [1.0, 2.0], horizon=3)
    with pytest.raises(ShapeError):
        simulate(ss, [1.0], np.ones((2, 3)))
    with pytest.raises(InvalidInputError):
        simulate(ss, [1.0])
    for bad in (-1, 0, 2.5, 3.0, True):
        with pytest.raises(InvalidInputError, match="horizon"):
            simulate(ss, [1.0], horizon=bad)
    assert simulate(ss, [1.0], horizon=np.int64(2)).shape == (1, 2)
    with pytest.raises(ShapeError):  # inputs need at least one column
        simulate(ss, [1.0], np.ones((1, 0)))


def test_frequency_response_pure_delay():
    ss = StateSpaceRealization(a=[[0.0]], b=[[1.0]], c=[[1.0]])
    curve = frequency_response(ss)
    assert curve.omegas.shape == (200,)
    np.testing.assert_allclose(curve.sigmas, 1.0, rtol=1e-12)


def test_frequency_response_scalar_dc_limit():
    ss = StateSpaceRealization(a=[[0.5]], b=[[1.0]], c=[[1.0]])
    sig = transfer_singular_values(ss, 1e-3)
    np.testing.assert_allclose(sig, [2.0], atol=1e-3)
    closed_form = 1.0 / abs(np.exp(1e-3j) - 0.5)
    np.testing.assert_allclose(sig, [closed_form], rtol=1e-12)


def test_frequency_response_conjugate_symmetry():
    rng = np.random.default_rng(73)
    a, _ = random_diagonalizable(rng, 4)
    b = rng.standard_normal((4, 2))
    c = rng.standard_normal((3, 4))
    ss = StateSpaceRealization(a=a, b=b, c=c)
    for omega in (0.1, 1.0, 3.0):
        sig = transfer_singular_values(ss, omega)
        h_conj = c @ np.linalg.solve(
            np.exp(-1j * omega) * np.eye(4) - a, b.astype(complex)
        )
        np.testing.assert_allclose(
            sig, np.linalg.svd(h_conj, compute_uv=False), rtol=1e-12
        )


def test_frequency_response_sorted_and_sized():
    rng = np.random.default_rng(79)
    a, _ = random_diagonalizable(rng, 5)
    ss = StateSpaceRealization(
        a=a, b=rng.standard_normal((5, 3)), c=rng.standard_normal((4, 5))
    )
    curve = frequency_response(ss, [0.01, 0.5, 2.0])
    assert curve.sigmas.shape == (3, 3)
    assert np.all(np.diff(curve.sigmas, axis=1) <= 0)
    assert np.all(curve.sigmas >= 0)


def _oracle_systems():
    rng = np.random.default_rng(101)
    jordan = 0.8 * np.eye(5) + np.diag(np.ones(4), 1)  # one defective block
    pairs = np.zeros((6, 6))  # real, with eigenvalues r e^(+-i theta)
    for k, (r, th) in enumerate([(0.9, 0.4), (0.7, 2.0), (0.5, 1.1)]):
        pairs[2 * k:2 * k + 2, 2 * k:2 * k + 2] = r * np.array(
            [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
        )
    basis, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    pairs = basis @ pairs @ basis.T
    wide, _ = random_diagonalizable(rng, 8)
    # name: (A, l inputs, q outputs)
    shapes = {
        "jordan": (jordan, 1, 2),
        "complex_pairs": (pairs, 2, 3),
        "q_below_n": (wide, 3, 4),
        "q_above_n": (jordan, 2, 40),
    }
    return {
        name: (a, rng.standard_normal((a.shape[0], l)),
               rng.standard_normal((q, a.shape[0])))
        for name, (a, l, q) in shapes.items()
    }


@pytest.mark.parametrize("name", sorted(_oracle_systems()))
def test_frequency_response_matches_per_frequency_solve(name):
    a, b, c = _oracle_systems()[name]
    ss = StateSpaceRealization(a=a, b=b, c=c)
    curve = frequency_response(ss)
    want = np.vstack([transfer_singular_values(ss, w) for w in curve.omegas])
    assert curve.sigmas.shape == want.shape
    assert not np.any(curve.singular)
    floor = np.maximum(want, 1e-9 * want[:, :1])
    assert np.max(np.abs(curve.sigmas - want) / floor) <= 1e-10


def test_frequency_response_rank_deficient_pads_zeros():
    # q > n and l > n: the last min(q, l) - n singular values are zero
    rng = np.random.default_rng(103)
    a, _ = random_diagonalizable(rng, 3)
    ss = StateSpaceRealization(
        a=a, b=rng.standard_normal((3, 5)), c=rng.standard_normal((6, 3))
    )
    curve = frequency_response(ss)
    want = np.vstack([transfer_singular_values(ss, w) for w in curve.omegas])
    assert curve.sigmas.shape == want.shape == (200, 5)
    assert np.all(curve.sigmas[:, 3:] == 0.0)
    np.testing.assert_allclose(curve.sigmas, want, rtol=1e-10, atol=1e-12 * want.max())


def _rotation(w0):
    rot = np.array(
        [[np.cos(w0), -np.sin(w0)], [np.sin(w0), np.cos(w0)]]
    )
    return StateSpaceRealization(a=rot, b=np.ones((2, 1)), c=np.ones((1, 2)))


def test_singular_frequency_detected():
    w0 = 0.7
    ss = _rotation(w0)
    with pytest.raises(SingularFrequencyError):
        transfer_singular_values(ss, w0)


def test_frequency_response_singular_policies():
    w0 = 0.7
    ss = _rotation(w0)
    grid = [0.3, w0, 1.5]
    with pytest.raises(SingularFrequencyError) as err:
        frequency_response(ss, grid)
    assert err.value.omega == w0
    curve = frequency_response(ss, grid, on_singular="mark")
    np.testing.assert_array_equal(curve.singular, [False, True, False])
    assert np.all(np.isnan(curve.sigmas[1]))
    for i in (0, 2):
        np.testing.assert_allclose(
            curve.sigmas[i], transfer_singular_values(ss, grid[i]), rtol=1e-12
        )
    only = frequency_response(ss, [w0], on_singular="mark")
    assert only.singular.tolist() == [True] and np.isnan(only.sigmas[0, 0])
    with pytest.raises(InvalidInputError):
        frequency_response(ss, grid, on_singular="skip")


def test_frequency_response_factorization_failure_is_typed(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("schur did not converge")

    monkeypatch.setattr("scipy.linalg.schur", no_convergence)
    ss = StateSpaceRealization(a=[[0.5]], b=[[1.0]], c=[[1.0]])
    with pytest.raises(NumericalFailureError):
        frequency_response(ss)


def test_frequency_grid_validation():
    ss = StateSpaceRealization(a=[[0.5]], b=[[1.0]], c=[[1.0]])
    with pytest.raises(InvalidInputError):
        frequency_response(ss, [0.0, 0.5])
    with pytest.raises(InvalidInputError):
        frequency_response(ss, [0.5, 4.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError):
            frequency_response(ss, [bad, 0.5])
        with pytest.raises(InvalidInputError):
            transfer_singular_values(ss, bad)
    grid = default_frequency_grid()
    assert grid.shape == (200,) and grid[0] == 1e-3
    np.testing.assert_allclose(grid[-1], np.pi, rtol=1e-12)


def test_no_input_system_rejected():
    ss = StateSpaceRealization(a=[[0.5]], b=np.zeros((1, 0)), c=[[1.0]])
    with pytest.raises(InvalidInputError):
        transfer_singular_values(ss, 0.5)
    with pytest.raises(InvalidInputError):
        frequency_response(ss)


def test_spectral_distance_basic():
    assert spectral_distance([1.5, 0.1], [1.5, 0.1]) == 0.0
    assert spectral_distance([1.5, 0.1], [0.1, 1.5]) == 0.0
    np.testing.assert_allclose(
        spectral_distance([1.0, 1j], [1.0, 1.1j]), 0.1, rtol=1e-12
    )
    with pytest.raises(ShapeError):
        spectral_distance([1.0], [1.0, 2.0])


def test_spectral_distance_is_symmetric_pseudometric():
    rng = np.random.default_rng(83)
    for _ in range(10):
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert spectral_distance(a, a) == 0.0
        np.testing.assert_allclose(
            spectral_distance(a, b), spectral_distance(b, a), rtol=1e-12
        )


def test_matching_agrees_with_brute_force():
    from itertools import permutations

    rng = np.random.default_rng(89)
    for _ in range(10):
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        perm, dists = match_eigenvalues(a, b)
        total = np.sum(dists)
        brute = min(
            sum(abs(a[i] - b[p[i]]) for i in range(5))
            for p in permutations(range(5))
        )
        np.testing.assert_allclose(total, brute, rtol=1e-12)
        np.testing.assert_allclose(
            dists, np.abs(a - b[perm]), rtol=1e-12
        )


@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.5, np.inf), complex(np.nan, 0.0)])
def test_matching_rejects_non_finite_spectrum(bad):
    good = np.array([0.5 + 0.1j, 0.5 - 0.1j])
    for a, b in ((np.array([bad, 0.3]), good), (good, np.array([0.3, bad]))):
        with pytest.raises(InvalidInputError, match="finite"):
            match_eigenvalues(a, b)
        with pytest.raises(InvalidInputError, match="finite"):
            spectral_distance(a, b)


def test_simulate_reproduces_training_outputs():
    rng = np.random.default_rng(97)
    a, _ = random_diagonalizable(rng, 4)
    b = rng.standard_normal((4, 2))
    ups = rng.standard_normal((2, 20))
    traj = np.empty((4, 21))
    traj[:, 0] = rng.standard_normal(4)
    for k in range(20):
        traj[:, k + 1] = a @ traj[:, k] + b @ ups[:, k]
    x, xp = traj[:, :-1], traj[:, 1:]
    model, _ = dmdc_fit_unknown_b(x, xp, ups)
    ss = realize(model)
    out = simulate(ss, model.basis.T @ x[:, 0], ups)
    assert np.linalg.norm(out - xp, "fro") <= 1e-8 * np.linalg.norm(xp, "fro")


def test_mode_cosine_similarities():
    a = np.array([[1.0], [1j]])
    np.testing.assert_allclose(mode_cosine_similarities(a, a), [1.0])
    np.testing.assert_allclose(
        mode_cosine_similarities(a, np.exp(0.3j) * a), [1.0], rtol=1e-12
    )
    b = np.array([[1.0], [-1j]])  # orthogonal under the hermitian product
    np.testing.assert_allclose(mode_cosine_similarities(a, b), [0.0], atol=1e-15)
    with pytest.raises(ShapeError):
        mode_cosine_similarities(np.ones((2, 1)), np.ones((3, 1)))
