import numpy as np
import pytest

from dmdc import (
    DmdcModel,
    InvalidConfigError,
    InvalidInputError,
    ShapeError,
    TruncationOrderError,
    dmd_fit,
    dmdc_fit_known_b,
    dmdc_fit_unknown_b,
    gen_example1,
    gen_example2,
    gen_random_stable_ss,
    gen_sparse_fourier,
    spectral_distance,
    split_trajectory,
)
from helpers import (
    EX1_A,
    EX1_B,
    EX1_UPS,
    EX1_X,
    EX1_XP,
    consistent_data,
    consistent_forced_data,
    joint_lstsq_operator,
    peak_bytes,
    random_diagonalizable,
    sensor_pair,
)

SCALAR_X = np.array([1.0, 1.5, -0.25])
SCALAR_XP = np.array([1.5, -0.25, 0.875])
SCALAR_U = np.array([1.0, -1.0, 1.0])
RICH_X = np.array([1.0, 1.5, -0.25, 0.875])
RICH_XP = np.array([1.5, -0.25, 0.875, 2.4375])
RICH_U = np.array([1.0, -1.0, 1.0, 2.0])


def test_known_b_recovers_example1():
    model = dmdc_fit_known_b(EX1_X, EX1_XP, EX1_UPS, EX1_B)
    np.testing.assert_allclose(model.full_operator(), EX1_A, atol=1e-10)
    np.testing.assert_allclose(model.eigenvalues, [1.5, 0.1], atol=1e-10)


def test_known_b_zero_control_equals_dmd_bitwise():
    rng = np.random.default_rng(31)
    a, _ = random_diagonalizable(rng, 5)
    x, xp = consistent_data(rng, a, 12)
    b = rng.standard_normal((5, 2))
    plain = dmd_fit(x, xp, dt=0.5)
    forced = dmdc_fit_known_b(x, xp, np.zeros((2, 12)), b, dt=0.5)
    np.testing.assert_array_equal(forced.a_tilde, plain.a_tilde)
    np.testing.assert_array_equal(forced.basis, plain.basis)
    np.testing.assert_array_equal(forced.eigen.values, plain.eigen.values)
    np.testing.assert_array_equal(forced.eigen.vectors, plain.eigen.vectors)
    np.testing.assert_array_equal(forced.modes, plain.modes)
    np.testing.assert_array_equal(forced.b_tilde, plain.basis.T @ b)


def test_known_b_without_inputs_is_dmd_bitwise():
    # l = 0: an empty U and an n x 0 input map, as the unknown-B fit takes
    rng = np.random.default_rng(32)
    a, _ = random_diagonalizable(rng, 5)
    x, xp = consistent_data(rng, a, 12)
    plain = dmd_fit(x, xp)
    known = dmdc_fit_known_b(x, xp, np.zeros((0, 12)), np.zeros((5, 0)))
    np.testing.assert_array_equal(known.a_tilde, plain.a_tilde)
    np.testing.assert_array_equal(known.basis, plain.basis)
    np.testing.assert_array_equal(known.eigen.values, plain.eigen.values)
    np.testing.assert_array_equal(known.eigen.vectors, plain.eigen.vectors)
    np.testing.assert_array_equal(known.modes, plain.modes)
    assert known.b_tilde.shape == (known.output_rank, 0)
    assert known.input_map.shape == (5, 0)
    with pytest.raises(ShapeError):
        dmdc_fit_known_b(x, xp, np.zeros((0, 12)), np.zeros((0, 0)))


def test_known_b_scalar_hand_recursion():
    # x_{k+1} = 0.5 x_k + u_k from x0 = 1 with u = (1, -1, 1):
    # the corrected targets are exactly 0.5 times the inputs
    model = dmdc_fit_known_b(SCALAR_X, SCALAR_XP, SCALAR_U, 1.0)
    np.testing.assert_allclose(model.full_operator(), [[0.5]], rtol=1e-13)
    np.testing.assert_allclose(model.b_tilde, [[1.0]], rtol=1e-13)


def test_known_b_scalar_state_two_inputs():
    # a 1-D b is read as a row, as every 1-D input is: the map of one state
    b = np.array([0.5, -1.0])
    u = np.vstack([RICH_U, [0.0, 1.0, 2.0, -1.0]])
    xp = 0.5 * RICH_X + b @ u
    model = dmdc_fit_known_b(RICH_X, xp, u, b)
    np.testing.assert_allclose(model.full_operator(), [[0.5]], atol=1e-12)
    np.testing.assert_array_equal(model.input_map, [b])


def test_unknown_b_scalar_rich_input():
    model, report = dmdc_fit_unknown_b(RICH_X, RICH_XP, RICH_U)
    np.testing.assert_allclose(model.full_operator(), [[0.5]], atol=1e-10)
    np.testing.assert_allclose(model.input_map, [[1.0]], atol=1e-10)
    assert not report.collinearity_flag
    oracle = joint_lstsq_operator(RICH_X, RICH_XP, RICH_U)
    np.testing.assert_allclose(oracle, [[0.5, 1.0]], atol=1e-10)


def test_unknown_b_forced_identity_map():
    rng = np.random.default_rng(37)
    x = rng.standard_normal((3, 12))
    ups = rng.standard_normal((3, 12))
    model, report = dmdc_fit_unknown_b(x, ups, ups)
    np.testing.assert_allclose(model.full_operator(), np.zeros((3, 3)), atol=1e-10)
    np.testing.assert_allclose(model.input_map, np.eye(3), atol=1e-10)
    assert not report.collinearity_flag


def test_unknown_b_example1_collinear():
    model, report = dmdc_fit_unknown_b(EX1_X, EX1_XP, EX1_UPS)
    assert report.collinearity_flag
    assert report.omega_rank == 2
    assert report.required_rank == 3
    assert model.a_tilde.shape == (2, 2)  # model still returned
    # an explicit p truncates the fit, not the rank count of [X; U]
    _, explicit = dmdc_fit_unknown_b(EX1_X, EX1_XP, EX1_UPS, trunc_p=1)
    assert explicit.omega_rank == 2
    assert explicit.collinearity_flag


def test_one_model_type_for_all_fits():
    rng = np.random.default_rng(43)
    a, _ = random_diagonalizable(rng, 4)
    b = rng.standard_normal((4, 2))
    x, xp, ups = consistent_forced_data(rng, a, b, 15)
    big = gen_sparse_fourier(grid=32, n_modes=3, m=30, seed=2)
    fits = [
        ("dmd", 0, dmd_fit(x, xp)),
        ("dmdc-known-b", 2, dmdc_fit_known_b(x, xp, ups, b)),
        ("dmdc-unknown-b", 2, dmdc_fit_unknown_b(x, xp, ups)[0]),
        ("dmdc-unknown-b", big.upsilon.shape[0],
         dmdc_fit_unknown_b(big.x, big.xp, big.upsilon)[0]),
    ]
    for kind, l, model in fits:
        n, r = model.basis.shape
        assert type(model) is DmdcModel
        assert model.kind == kind
        assert model.output_rank == r
        assert model.b_tilde.shape == (r, l)
        assert model.input_map.shape == (n, l)
    np.testing.assert_array_equal(fits[1][2].input_map, b)
    # above the n x n cap the input map is still returned, and it is right
    big_model = fits[-1][2]
    assert big.x.shape[0] > 500
    with pytest.raises(InvalidInputError):
        big_model.full_operator()
    b_true = big.truth.b_true
    gap = np.linalg.norm(big_model.input_map - b_true)
    assert gap <= 1e-8 * np.linalg.norm(b_true)


def test_truncation_order_error():
    rng = np.random.default_rng(71)
    a, _ = random_diagonalizable(rng, 2)
    b = rng.standard_normal((2, 1))
    x, xp, ups = consistent_forced_data(rng, a, b, 10)
    with pytest.raises(TruncationOrderError):
        dmdc_fit_unknown_b(x, xp, ups, trunc_p=1, trunc_r=2)


def test_exact_joint_recovery_property():
    rng = np.random.default_rng(41)
    for seed in range(8):
        n = int(rng.integers(2, 21))
        l = int(rng.integers(1, 5))
        real, _ = gen_random_stable_ss(n, l, q=n, seed=seed)
        x, xp, ups = consistent_forced_data(rng, real.a, real.b, n + l + 15)
        model, report = dmdc_fit_unknown_b(x, xp, ups)
        assert not report.collinearity_flag
        got = np.hstack([model.full_operator(), model.input_map])
        want = np.hstack([real.a, real.b])
        rel = np.linalg.norm(got - want, "fro") / np.linalg.norm(want, "fro")
        assert rel <= 1e-8


def test_known_and_unknown_b_spectra_agree():
    rng = np.random.default_rng(43)
    a, _ = random_diagonalizable(rng, 6)
    b = rng.standard_normal((6, 2))
    x, xp, ups = consistent_forced_data(rng, a, b, 25)
    known = dmdc_fit_known_b(x, xp, ups, b)
    unknown, _ = dmdc_fit_unknown_b(x, xp, ups)
    assert spectral_distance(known.eigenvalues, unknown.eigenvalues) <= 1e-8


def test_unknown_b_zero_control_reduction():
    rng = np.random.default_rng(47)
    a, _ = random_diagonalizable(rng, 5)
    x, xp = consistent_data(rng, a, 14)
    model, _ = dmdc_fit_unknown_b(x, xp, np.zeros((2, 14)))
    assert np.linalg.norm(model.b_tilde, "fro") <= 1e-10
    plain = dmd_fit(x, xp)
    assert spectral_distance(model.eigenvalues, plain.eigenvalues) <= 1e-8


@pytest.mark.parametrize(
    "make",
    [gen_example1, gen_example2, lambda: gen_sparse_fourier(grid=32, seed=5)],
    ids=["example1", "example2", "grid32"],
)
def test_unknown_b_without_inputs_is_dmd(make):
    # with no input rows Omega is X, so both fits regress X' on the same SVD
    ds = make()
    n, m = ds.x.shape
    model, report = dmdc_fit_unknown_b(ds.x, ds.xp, np.zeros((0, m)))
    plain = dmd_fit(ds.x, ds.xp)
    assert model.b_tilde.shape == (model.output_rank, 0)
    assert model.input_map.shape == (n, 0)
    assert not report.collinearity_flag
    if n <= 500:
        np.testing.assert_array_equal(model.full_operator(), plain.full_operator())
    assert model.eigenvalues.shape == plain.eigenvalues.shape
    assert spectral_distance(model.eigenvalues, plain.eigenvalues) <= 1e-12


def test_one_step_consistency_forced():
    rng = np.random.default_rng(53)
    a, _ = random_diagonalizable(rng, 7)
    b = rng.standard_normal((7, 3))
    x, xp, ups = consistent_forced_data(rng, a, b, 30)
    model, _ = dmdc_fit_unknown_b(x, xp, ups)
    resid = model.full_operator() @ x + model.input_map @ ups - xp
    assert np.linalg.norm(resid, "fro") <= 1e-8 * np.linalg.norm(xp, "fro")


def test_residual_optimality_spot_check():
    rng = np.random.default_rng(59)
    a, _ = random_diagonalizable(rng, 4)
    b = rng.standard_normal((4, 2))
    x = rng.standard_normal((4, 20))
    ups = rng.standard_normal((2, 20))
    xp = a @ x + b @ ups + 0.05 * rng.standard_normal((4, 20))  # inconsistent
    model, _ = dmdc_fit_unknown_b(x, xp, ups)
    a_hat, b_hat = model.full_operator(), model.input_map
    best = np.linalg.norm(a_hat @ x + b_hat @ ups - xp, "fro")
    scale = 1e-3 * np.linalg.norm(np.hstack([a_hat, b_hat]), "fro")
    for _ in range(100):
        da = scale * rng.standard_normal(a_hat.shape)
        db = scale * rng.standard_normal(b_hat.shape)
        perturbed = np.linalg.norm(
            (a_hat + da) @ x + (b_hat + db) @ ups - xp, "fro"
        )
        assert perturbed >= best - 1e-12


def test_modes_eigen_relation_unknown_b():
    rng = np.random.default_rng(61)
    a, _ = random_diagonalizable(rng, 6)
    b = rng.standard_normal((6, 2))
    x, xp, ups = consistent_forced_data(rng, a, b, 25)
    model, _ = dmdc_fit_unknown_b(x, xp, ups)
    a_bar = model.full_operator()
    for lam, phi in zip(model.eigenvalues, model.modes.T):
        if abs(lam) > 1e-12:
            resid = np.linalg.norm(a_bar @ phi - lam * phi)
            assert resid <= 1e-8 * np.linalg.norm(a_bar, "fro")


def test_unknown_b_matches_lstsq_oracle_full_rank():
    rng = np.random.default_rng(67)
    for _ in range(10):
        n = int(rng.integers(1, 8))
        l = int(rng.integers(1, 4))
        m = n + l + int(rng.integers(3, 10))
        x = rng.standard_normal((n, m))
        xp = rng.standard_normal((n, m))
        ups = rng.standard_normal((l, m))
        model, _ = dmdc_fit_unknown_b(x, xp, ups)
        got = np.hstack([model.full_operator(), model.input_map])
        want = joint_lstsq_operator(x, xp, ups)
        rel = np.linalg.norm(got - want, "fro") / np.linalg.norm(want, "fro")
        assert rel <= 1e-9


def test_shape_errors():
    with pytest.raises(ShapeError):
        dmdc_fit_known_b(EX1_X, EX1_XP, EX1_UPS, np.ones((3, 1)))
    # a 1-D b is one row, so two states need it as a 2 x 1 column
    with pytest.raises(ShapeError, match=r"b is \(1, 2\), expected \(2, 1\)"):
        dmdc_fit_known_b(EX1_X, EX1_XP, EX1_UPS, EX1_B.ravel())
    with pytest.raises(ShapeError):
        dmdc_fit_known_b(EX1_X, EX1_XP[:, :3], EX1_UPS, EX1_B)
    with pytest.raises(ShapeError):
        dmdc_fit_unknown_b(EX1_X, EX1_XP, EX1_UPS[:, :3])


@pytest.mark.parametrize("dt", [float("nan"), -1.0, 0.0, float("inf")])
def test_fits_reject_bad_dt(dt):
    with pytest.raises(InvalidConfigError, match="dt"):
        dmd_fit(EX1_X, EX1_XP, dt=dt)
    with pytest.raises(InvalidConfigError, match="dt"):
        dmdc_fit_known_b(EX1_X, EX1_XP, EX1_UPS, EX1_B, dt=dt)
    with pytest.raises(InvalidConfigError, match="dt"):
        dmdc_fit_unknown_b(EX1_X, EX1_XP, EX1_UPS, dt=dt)


def test_fits_hold_no_snapshot_sized_temporaries():
    # one n x m matrix is the unit; the model itself (basis, G, modes and
    # the input map at rank 6 to 8) is about 0.7 of it
    x, xp, ups, b = sensor_pair(n=8192, m=40)
    unit = x.nbytes
    assert peak_bytes(lambda: dmd_fit(x, xp)) <= 1.2 * unit
    # as a .bin read gives them: the certificate blocks E along the columns
    x_f, xp_f = np.asfortranarray(x), np.asfortranarray(xp)
    assert peak_bytes(lambda: dmd_fit(x_f, xp_f)) <= 1.2 * unit
    # a known-B fit takes B U off the gain, so it adds no n x m array
    assert peak_bytes(lambda: dmdc_fit_known_b(x, xp, ups, b)) <= 1.2 * unit
    # Omega = [X; U] is the one an unknown-B fit adds
    assert peak_bytes(lambda: dmdc_fit_unknown_b(x, xp, ups)) <= 2.0 * unit


def test_generated_pairs_are_views_of_one_trajectory():
    ds = gen_sparse_fourier(grid=64, m=40)
    # in total: the trajectory (40/39 of a unit), the truth's modes and the
    # plane waves it is built from
    assert peak_bytes(lambda: gen_sparse_fourier(grid=64, m=40)) <= 3.5 * ds.x.nbytes
    traj = np.arange(12.0).reshape(3, 4)
    ex1, ex2 = gen_example1(), gen_example2()
    pairs = [(ds.x, ds.xp), (ex1.x, ex1.xp), split_trajectory(traj), (ex2.x, ex2.xp)]
    for x, xp in pairs:
        assert x.base is not None and x.base is xp.base
        assert not (x.flags.writeable or xp.flags.writeable)
        np.testing.assert_array_equal(x[:, 1:], xp[:, :-1])
    assert np.shares_memory(pairs[2][0], traj) and traj.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ds.x[0, 0] = 1.0
