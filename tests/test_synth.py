import numpy as np
import pytest

from dmdc import (
    ActuationSpec,
    DivergenceError,
    InsufficientDataError,
    InvalidConfigError,
    InvalidInputError,
    add_noise,
    dmd_fit,
    dmdc_fit_unknown_b,
    eig,
    gen_example1,
    gen_example2,
    gen_random_inputs,
    gen_random_stable_ss,
    gen_sparse_fourier,
    spectral_distance,
)
from dmdc import io as dio
from helpers import EX1_A, EX1_B, EX1_UPS, EX1_X, EX1_XP


def test_example1_defaults_reproduce_benchmark():
    ds = gen_example1()
    np.testing.assert_array_equal(ds.x, EX1_X)
    np.testing.assert_array_equal(ds.xp, EX1_XP)
    np.testing.assert_array_equal(ds.upsilon, EX1_UPS)
    np.testing.assert_array_equal(ds.truth.a_true, EX1_A)
    np.testing.assert_array_equal(ds.truth.b_true, EX1_B)
    np.testing.assert_allclose(ds.truth.eigs_true, [1.5, 0.1], rtol=1e-14)


def test_example1_origin_fixed_point():
    ds = gen_example1(x0=(0.0, 0.0))
    assert not np.any(ds.x) and not np.any(ds.xp) and not np.any(ds.upsilon)


def test_example1_closed_loop_pole():
    ds = gen_example1(x0=(1.0, 0.0), m=3)
    np.testing.assert_allclose(ds.x[:, 1], [0.5, 0.0], atol=1e-15)
    np.testing.assert_allclose(ds.xp[:, 1], [0.25, 0.0], atol=1e-15)


def test_example1_validation():
    with pytest.raises(InsufficientDataError):
        gen_example1(m=1)
    with pytest.raises(InvalidConfigError):
        gen_example1(x0=(1.0, 2.0, 3.0))
    for bad in ({"x0": (float("nan"), 1.0)}, {"k_gain": float("inf")},
                {"dt": float("nan")}, {"dt": 0.0}):
        with pytest.raises(InvalidConfigError):
            gen_example1(**bad)
    with pytest.raises(DivergenceError):  # the state outgrows a float
        gen_example1(k_gain=1e300, m=4)
    assert gen_example1(dt=0.5).dt == 0.5


def test_example1_consistency_invariant():
    ds = gen_example1(x0=(2.5, -1.0), k_gain=0.3, m=9)
    resid = ds.xp - (ds.truth.a_true @ ds.x + ds.truth.b_true @ ds.upsilon)
    assert np.max(np.abs(resid)) <= 1e-12


def test_random_stable_ss_benchmark_config():
    real, truth = gen_random_stable_ss(n=5, l=2, q=100, seed=4)
    assert real.a.shape == (5, 5)
    assert real.b.shape == (5, 2)
    assert real.c.shape == (100, 5)
    assert np.max(np.abs(np.linalg.eigvals(real.a))) <= 0.95 + 1e-12
    np.testing.assert_allclose(real.c.T @ real.c, np.eye(5), atol=1e-10)
    np.testing.assert_allclose(truth.eigs_true, eig(real.a).values, atol=1e-10)


def test_random_stable_ss_scalar_bound_and_determinism():
    real, _ = gen_random_stable_ss(n=1, l=1, q=1, seed=12)
    assert abs(real.a[0, 0]) <= 0.95
    again, _ = gen_random_stable_ss(n=1, l=1, q=1, seed=12)
    np.testing.assert_array_equal(real.a, again.a)
    np.testing.assert_array_equal(real.b, again.b)
    np.testing.assert_array_equal(real.c, again.c)


def test_random_stable_ss_conjugate_paired_spectrum():
    real, truth = gen_random_stable_ss(n=7, l=1, q=7, seed=8)
    vals = truth.eigs_true
    np.testing.assert_array_equal(
        np.sort_complex(vals), np.sort_complex(np.conj(vals))
    )
    with pytest.raises(InvalidConfigError):
        gen_random_stable_ss(n=0, l=1, q=1)


def test_random_inputs_shape_and_determinism():
    u = gen_random_inputs(l=2, m=101, seed=3)
    assert u.shape == (2, 100)
    np.testing.assert_array_equal(u, gen_random_inputs(l=2, m=101, seed=3))


def test_random_inputs_sample_mean_bound():
    l, m = 2, 2001
    u = gen_random_inputs(l, m, seed=15)
    assert abs(u.mean()) <= 4.0 / np.sqrt(l * (m - 1))


def test_example2_effective_consistency():
    ds = gen_example2(n=4, l=2, q=30, m=40, seed=5)
    resid = ds.xp - (ds.truth.a_true @ ds.x + ds.truth.b_true @ ds.upsilon)
    assert np.max(np.abs(resid)) <= 1e-12
    assert ds.x.shape == (30, 39)
    # latent spectrum embeds in the effective operator's nonzero spectrum
    assert ds.truth.eigs_true.shape == (4,)
    full = np.linalg.eigvals(ds.truth.a_true)
    for lam in ds.truth.eigs_true:
        assert np.min(np.abs(full - lam)) <= 1e-10


def test_sparse_fourier_shapes_and_spectrum():
    ds = gen_sparse_fourier(grid=32, n_modes=5, m=60, seed=7)
    assert ds.x.shape == (1024, 59)
    assert ds.upsilon.shape == (1, 59)
    assert ds.truth.eigs_true.shape == (10,)
    assert ds.truth.modes_true.shape == (1024, 10)
    mags = np.abs(ds.truth.eigs_true)
    assert np.all(mags >= np.exp(-0.05) - 1e-12)
    assert np.all(mags <= np.exp(-0.005) + 1e-12)
    np.testing.assert_array_equal(
        np.sort_complex(ds.truth.eigs_true),
        np.sort_complex(np.conj(ds.truth.eigs_true)),
    )


def test_sparse_fourier_determinism():
    a = gen_sparse_fourier(grid=16, n_modes=3, m=12, seed=42)
    b = gen_sparse_fourier(grid=16, n_modes=3, m=12, seed=42)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.xp, b.xp)
    np.testing.assert_array_equal(a.upsilon, b.upsilon)


def test_sparse_fourier_consistency_invariant():
    ds = gen_sparse_fourier(grid=32, n_modes=4, m=30, seed=3)
    assert ds.truth.a_true is not None  # dense truth at this scale
    resid = ds.xp - (ds.truth.a_true @ ds.x + ds.truth.b_true @ ds.upsilon)
    assert np.max(np.abs(resid)) <= 1e-12


def test_sparse_fourier_dense_truth_cap():
    ds = gen_sparse_fourier(grid=64, n_modes=3, m=6, seed=1)
    assert ds.truth.a_true is None  # 4096 states exceeds the dense cap
    assert ds.truth.b_true.shape == (4096, 1)
    assert ds.truth.modes_true.shape == (4096, 6)


def test_sparse_fourier_unforced_modal_decay():
    ds = gen_sparse_fourier(
        grid=16, n_modes=3, m=20, seed=11,
        actuation=ActuationSpec(amplitude=0.0),
    )
    assert np.max(np.abs(ds.truth.b_true)) == 0.0
    snaps = np.hstack([ds.x, ds.xp[:, -1:]])
    n = snaps.shape[0]
    for j, lam in enumerate(ds.truth.eigs_true):
        coeff = (np.conj(ds.truth.modes_true[:, j]) @ snaps) / n
        ratios = np.abs(coeff[1:] / coeff[:-1])
        np.testing.assert_allclose(ratios, abs(lam), rtol=1e-10)


def test_sparse_fourier_unforced_dmd_dmdc_agree():
    ds = gen_sparse_fourier(
        grid=16, n_modes=3, m=30, seed=19,
        actuation=ActuationSpec(amplitude=0.0),
    )
    plain = dmd_fit(ds.x, ds.xp)
    forced, _ = dmdc_fit_unknown_b(ds.x, ds.xp, ds.upsilon)
    assert spectral_distance(plain.eigenvalues, forced.eigenvalues) <= 1e-8
    assert spectral_distance(plain.eigenvalues, ds.truth.eigs_true) <= 1e-8


def test_sparse_fourier_validation():
    with pytest.raises(InvalidConfigError):
        gen_sparse_fourier(grid=24, n_modes=2, m=5)
    with pytest.raises(InvalidConfigError):
        gen_sparse_fourier(grid=2, n_modes=1, m=5)
    with pytest.raises(InvalidConfigError):
        gen_sparse_fourier(grid=4, n_modes=50, m=5)
    with pytest.raises(InsufficientDataError):
        gen_sparse_fourier(grid=16, n_modes=2, m=1)
    with pytest.raises(InvalidConfigError):
        gen_sparse_fourier(grid=16, n_modes=2, m=5,
                           actuation=ActuationSpec(width=0.0))


def test_actuation_spec_round_trip(tmp_path):
    p = tmp_path / "act.json"
    spec = ActuationSpec(center=(10.0, 20.0), width=3.0, amplitude=-2.0)
    p.write_text('{"center": [10, 20.0], "width": 3, "amplitude": -2.0}')
    assert dio.read_actuation_spec(p) == spec
    for text in ("{}", '{"center": null}'):
        p.write_text(text)
        assert dio.read_actuation_spec(p) == ActuationSpec()


def test_add_noise_zero_sigma_identity():
    ds = gen_sparse_fourier(grid=16, n_modes=2, m=10, seed=2)
    same = add_noise(ds, 0.0, seed=5)
    np.testing.assert_array_equal(same.x, ds.x)
    np.testing.assert_array_equal(same.xp, ds.xp)


def test_add_noise_deterministic_and_truth_unchanged():
    ds = gen_sparse_fourier(grid=16, n_modes=2, m=10, seed=2)
    n1 = add_noise(ds, 0.01, seed=9)
    n2 = add_noise(ds, 0.01, seed=9)
    np.testing.assert_array_equal(n1.x, n2.x)
    np.testing.assert_array_equal(n1.xp, n2.xp)
    assert n1.truth is ds.truth
    np.testing.assert_array_equal(n1.upsilon, ds.upsilon)
    with pytest.raises(InvalidInputError):
        add_noise(ds, -1.0)


def test_add_noise_empirical_std():
    ds = gen_sparse_fourier(grid=32, n_modes=3, m=60, seed=6)
    sigma = 0.37
    noisy = add_noise(ds, sigma, seed=21)
    diffs = np.concatenate(
        [(noisy.x - ds.x).ravel(), (noisy.xp - ds.xp).ravel()]
    )
    assert diffs.size >= 100_000
    assert abs(np.std(diffs) - sigma) <= 0.05 * sigma
