from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import dmdc.linalg as linalg
from dmdc import (
    DegenerateMatrixError,
    InvalidInputError,
    NumericalFailureError,
    ShapeError,
    add_noise,
    eig,
    gen_sparse_fourier,
    numerical_rank,
    truncated_svd,
)
from helpers import EX1_SVD_SIGMA, EX1_SVD_U, EX1_SVD_V, EX1_X, column_sign_match


def test_identity_full_rank():
    f = truncated_svd(np.eye(2), 2)
    np.testing.assert_allclose(f.u, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(f.sigma, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(f.v, np.eye(2), atol=1e-12)
    assert f.rank == 2


def test_example1_matrix_matches_reference_factors():
    f = truncated_svd(EX1_X, 2)
    np.testing.assert_allclose(f.sigma, EX1_SVD_SIGMA, atol=1e-3)
    flips_u = column_sign_match(f.u, EX1_SVD_U, atol=1e-3)
    flips_v = column_sign_match(f.v, EX1_SVD_V, atol=1e-3)
    # sign flips must be coordinated between u and v or the product changes
    np.testing.assert_array_equal(flips_u, flips_v)


def test_rank_one_outer_product_threshold():
    # singular values of [[1,2],[2,4]]: trace(M^T M) = 25, det = 0 -> [5, 0]
    f = truncated_svd(np.array([[1.0, 2.0], [2.0, 4.0]]), 1e-10)
    assert f.rank == 1
    np.testing.assert_allclose(f.sigma, [5.0], rtol=1e-12)
    np.testing.assert_allclose(
        f.reconstruct(), [[1.0, 2.0], [2.0, 4.0]], atol=1e-12
    )


def test_orthonormality_and_reconstruction_bound():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, m = rng.integers(2, 12, size=2)
        a = rng.standard_normal((n, m))
        full = np.linalg.svd(a, compute_uv=False)
        k = int(rng.integers(1, min(n, m) + 1))
        f = truncated_svd(a, k)
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(k), atol=1e-10)
        assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma > 0)
        bound = np.sqrt(np.sum(full[k:] ** 2)) + 1e-9 * full[0]
        assert np.linalg.norm(a - f.reconstruct(), "fro") <= bound


def test_sign_convention_and_determinism():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((7, 5))
    f1 = truncated_svd(a)
    f2 = truncated_svd(a.copy())
    np.testing.assert_array_equal(f1.u, f2.u)
    np.testing.assert_array_equal(f1.sigma, f2.sigma)
    np.testing.assert_array_equal(f1.v, f2.v)
    for j in range(f1.rank):
        assert f1.u[np.argmax(np.abs(f1.u[:, j])), j] >= 0.0


def test_svd_input_errors():
    with pytest.raises(DegenerateMatrixError):
        truncated_svd(np.zeros((2, 2)))
    with pytest.raises(InvalidInputError):
        truncated_svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        truncated_svd(np.eye(2), 3)
    with pytest.raises(InvalidInputError):
        truncated_svd(np.eye(2), 0)
    with pytest.raises(InvalidInputError):
        truncated_svd(np.eye(2), 1.5)
    with pytest.raises(DegenerateMatrixError):
        truncated_svd(np.array([[1.0, 2.0], [2.0, 4.0]]), 2)


def test_invalid_policy_fails_before_any_factorization():
    def factor(*args, **kwargs):
        raise AssertionError("factored a matrix under an invalid policy")

    tall = np.random.default_rng(5).standard_normal((2048, 16))
    assert linalg._snapshots_pay(tall.shape)
    with (
        mock.patch.object(np.linalg, "svd", factor),
        mock.patch.object(np.linalg, "eigvalsh", factor),
    ):
        for a in (tall, np.eye(3), np.zeros((2, 2))):
            for trunc in (True, 0, 1.5, "x", min(a.shape) + 1):
                with pytest.raises(InvalidInputError):
                    truncated_svd(a, trunc)


def test_eig_diagonal():
    d = eig(np.diag([1.5, 0.1]))
    np.testing.assert_allclose(d.values, [1.5, 0.1], rtol=1e-14)
    np.testing.assert_allclose(np.abs(d.vectors), np.eye(2), atol=1e-14)


def test_eig_rotation_generator_ordering():
    d = eig(np.array([[0.0, -1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(d.values, [1j, -1j], atol=1e-14)


def test_eig_companion_golden_ratio():
    # companion matrix of z^2 - z - 1; quadratic-formula oracle
    roots = sorted([(1 + np.sqrt(5)) / 2, (1 - np.sqrt(5)) / 2], key=abs, reverse=True)
    d = eig(np.array([[0.0, 1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(d.values.real, roots, rtol=1e-12)
    np.testing.assert_allclose(d.values.imag, 0.0, atol=1e-14)


def test_eig_residual_and_unit_norm_random():
    rng = np.random.default_rng(5)
    for n in (3, 10, 50):
        a = rng.standard_normal((n, n))
        d = eig(a)
        np.testing.assert_allclose(np.linalg.norm(d.vectors, axis=0), 1.0, rtol=1e-12)
        resid = np.linalg.norm(a @ d.vectors - d.vectors * d.values, axis=0)
        assert np.max(resid) <= 1e-8 * np.linalg.norm(a, "fro")


def test_eig_conjugate_pairs_exact():
    rng = np.random.default_rng(9)
    for n in (4, 7, 12):
        vals = eig(rng.standard_normal((n, n))).values
        np.testing.assert_array_equal(
            np.sort_complex(vals), np.sort_complex(np.conj(vals))
        )


def test_eig_sorted_by_magnitude_then_real_then_imag():
    rng = np.random.default_rng(21)
    vals = eig(rng.standard_normal((9, 9))).values
    keys = list(zip(-np.abs(vals), -vals.real, -vals.imag))
    assert keys == sorted(keys)


def test_eig_errors():
    with pytest.raises(ShapeError):
        eig(np.ones((2, 3)))
    with pytest.raises(InvalidInputError):
        # a read-only view of one zero: the cap is checked before any work
        eig(np.broadcast_to(0.0, (linalg.EIG_MAX_DIM + 1,) * 2))
    with pytest.raises(InvalidInputError):
        eig(np.array([[np.inf]]))
    # NumericalFailureError is reserved for LAPACK non-convergence, which
    # has no reliable small reproducer; just check it is an exception type
    assert issubclass(NumericalFailureError, RuntimeError)


def test_numerical_rank():
    assert numerical_rank(np.eye(3), 1e-10) == 3
    assert numerical_rank(np.array([[1.0, 2.0], [2.0, 4.0]]), 1e-10) == 1
    assert numerical_rank(np.zeros((2, 2)), 1e-10) == 0
    with pytest.raises(InvalidInputError):
        numerical_rank(np.array([[np.nan]]), 1e-10)
    with pytest.raises(InvalidInputError):
        numerical_rank(np.eye(2), 2.0)


def _record_svd_shapes(monkeypatch) -> list:
    """Make np.linalg.svd record the shape of each input it factors."""
    shapes = []
    lapack_svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return lapack_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


def _with_spectrum(sigma, n, m, seed):
    """An n x m matrix with singular values ``sigma`` and zeros beyond."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, len(sigma))))
    v, _ = np.linalg.qr(rng.standard_normal((m, len(sigma))))
    return (u * sigma) @ v.T


def test_example3_snapshots_certified_without_factoring_x(monkeypatch):
    x = gen_sparse_fourier(grid=64, n_modes=5, m=60, seed=4).x  # 4096 x 59
    ref = np.linalg.svd(x, compute_uv=False)
    shapes = _record_svd_shapes(monkeypatch)
    f = truncated_svd(x)
    # the only SVD is of the small Q^T X, 10 x 59; X itself is never factored
    assert shapes == [(10, 59)]
    assert f.rank == f.numerical_rank() == 10
    np.testing.assert_allclose(f.spectrum, ref[:10], rtol=0, atol=1e-12 * ref[0])
    assert 0.0 < f.tail_bound <= 1e-10 * ref[0]
    # a threshold the unlisted singular values could reach is refused
    with pytest.raises(InvalidInputError):
        f.numerical_rank(0.5 * f.tail_bound / f.spectrum[0])


def test_smooth_decay_through_the_threshold_takes_lapack(monkeypatch):
    n, m = 2000, 60
    sigma = np.concatenate([[1.0, 0.7, 0.4], np.logspace(-6, -12, m - 3)])
    a = _with_spectrum(sigma, n, m, seed=17)
    ref = np.linalg.svd(a, compute_uv=False)
    shapes = _record_svd_shapes(monkeypatch)
    for trunc in (None, 1e-8):
        f = truncated_svd(a, trunc)
        tau = 1e-10 if trunc is None else trunc
        assert f.rank == np.count_nonzero(ref / ref[0] > tau)
        assert f.spectrum.size == m and f.tail_bound == 0.0
    assert shapes.count((n, m)) == 2


def test_fallback_exits_before_the_lift(monkeypatch):
    def no_lift(y):
        raise AssertionError("lifted although the certificate cannot pass")

    monkeypatch.setattr(linalg, "_cholesky_qr2", no_lift)
    # noise 1e-3 of RMS puts every direction above the Gram cut, more than pay
    ds = gen_sparse_fourier(grid=64, n_modes=5, m=60, seed=4)
    noisy = add_noise(ds, sigma=1e-3 * np.sqrt(np.mean(ds.x**2)), seed=5).x
    # a tail at 5e-7, under the cut, whose Gram eigenvalues outweigh rounding
    tail = _with_spectrum(np.r_[1.0, 0.5, 0.3, np.full(57, 5e-7)], 400, 60, seed=8)
    for a, trunc in ((noisy, None), (noisy, 10), (tail, None)):
        assert linalg._snapshots_pay(a.shape)
        s = np.linalg.svd(a, compute_uv=False)
        f = truncated_svd(a, trunc)
        assert f.spectrum.size == min(a.shape)
        assert f.rank == (trunc or np.count_nonzero(s / s[0] > 1e-10))


@st.composite
def _spectra_and_policies(draw):
    short = draw(st.integers(1, 12))
    long = draw(st.integers(short, 48))
    n, m = draw(st.sampled_from([(long, short), (short, short), (short, long)]))
    rank = draw(st.integers(0, short))
    exponents = draw(st.lists(st.floats(-4.0, 0.0), min_size=rank, max_size=rank))
    scale = 10.0 ** draw(st.integers(-60, 60))
    sigma = scale * np.sort(10.0 ** np.array(exponents, dtype=float))[::-1]
    a = _with_spectrum(sigma, n, m, seed=draw(st.integers(0, 2**32 - 1)))
    trunc = draw(st.one_of(
        st.none(),
        st.integers(1, max(rank, 1)),
        st.floats(1e-12, 0.999),
        st.sampled_from([-1, 0, short + 1, 0.0, 1.0, 1.5, True]),
        # a threshold exactly at a singular value ratio: no margin at all
        st.integers(0, max(rank - 1, 0)).map(
            lambda j: float(sigma[j] / sigma[0]) if rank else None
        ),
    ))
    return a, trunc


def _svd_or_error(a, trunc, snapshots: bool):
    with mock.patch.object(linalg, "_snapshots_pay", lambda shape: snapshots):
        try:
            return truncated_svd(a, trunc)
        except (DegenerateMatrixError, InvalidInputError) as exc:
            return type(exc)


@settings(max_examples=500, deadline=None)
@given(case=_spectra_and_policies(), data=st.data())
def test_certified_svd_matches_lapack_property(case, data):
    a, trunc = case
    # every shape tries the method of snapshots, against LAPACK alone
    got = _svd_or_error(a, trunc, snapshots=True)
    ref = _svd_or_error(a, trunc, snapshots=False)
    if isinstance(ref, type):
        assert got is ref
        return
    assert not isinstance(got, type), got
    certified = got.spectrum.size < min(a.shape)
    n, m = a.shape
    orientation = "tall" if n > m else "wide" if n < m else "square"
    path = "certified" if certified else "LAPACK"
    event(f"{path} {orientation} {type(trunc).__name__}")
    s = np.linalg.svd(a, compute_uv=False)
    k = got.rank
    assert k == ref.rank
    np.testing.assert_allclose(got.sigma, ref.sigma, rtol=0, atol=1e-12 * s[0])
    assert np.linalg.norm(got.u.T @ got.u - np.eye(k)) <= 1e-13
    assert np.linalg.norm(got.v.T @ got.v - np.eye(k)) <= 1e-13
    bound = np.sqrt(np.sum(s[k:] ** 2)) + 1e-9 * s[0]
    assert np.linalg.norm(a - got.reconstruct(), "fro") <= bound
    for j in range(k):
        assert got.u[np.argmax(np.abs(got.u[:, j])), j] >= 0.0
    for tau in (1e-10, 1e-6):
        assert got.numerical_rank(tau) == numerical_rank(a, tau)
    # the rank of a leading row block, as the unknown-B fit counts rank(X)
    rows = data.draw(st.integers(1, a.shape[0]))
    assert linalg._leading_rows_rank(got, a[:rows]) == numerical_rank(a[:rows])
