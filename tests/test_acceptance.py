"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""
import time

import numpy as np

from dmdc import (
    ActuationSpec,
    add_noise,
    dmd_fit,
    dmdc_fit_known_b,
    dmdc_fit_unknown_b,
    gen_random_inputs,
    gen_random_stable_ss,
    gen_sparse_fourier,
    match_eigenvalues,
    mode_cosine_similarities,
    realize,
    spectral_distance,
    truncated_svd,
)
from helpers import (
    EX1_A,
    EX1_B,
    EX1_SVD_SIGMA,
    EX1_SVD_U,
    EX1_SVD_V,
    EX1_UPS,
    EX1_X,
    EX1_XP,
    column_sign_match,
    consistent_data,
    joint_lstsq_operator,
    random_diagonalizable,
    transfer_singular_values,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_example1_known_b_recovery():
    start = time.perf_counter()
    model = dmdc_fit_known_b(EX1_X, EX1_XP, EX1_UPS, EX1_B)
    a_bar = model.full_operator()
    elapsed = time.perf_counter() - start
    err = np.max(np.abs(a_bar - EX1_A))
    ok = err <= 1e-10 and elapsed < 1.0
    _report(1, ok, f"known-B recovery max-abs error {err:.3e} "
                   f"(<= 1e-10), runtime {elapsed:.3f}s (< 1s)")


def test_criterion_2_example1_svd_regression():
    f = truncated_svd(EX1_X, 2)
    sig_err = np.max(np.abs(f.sigma - EX1_SVD_SIGMA))
    flips_u = column_sign_match(f.u, EX1_SVD_U, atol=1e-3)
    flips_v = column_sign_match(f.v, EX1_SVD_V, atol=1e-3)
    coordinated = np.array_equal(flips_u, flips_v)
    ok = sig_err <= 1e-3 and coordinated
    _report(2, ok, f"singular values within {sig_err:.2e} of the 4-decimal "
                   f"reference, U/V within 1e-3 up to coordinated column sign")


def test_criterion_3_zero_control_equivalence():
    rng = np.random.default_rng(1234)
    worst_b = 0.0
    worst_spec = 0.0
    bitwise = True
    for seed in range(50):
        n = int(rng.integers(2, 7))
        l = int(rng.integers(1, 4))
        a, _ = random_diagonalizable(np.random.default_rng(seed), n)
        x, xp = consistent_data(np.random.default_rng(seed + 1000), a, n + 10)
        b = np.random.default_rng(seed + 2000).standard_normal((n, l))
        zeros = np.zeros((l, n + 10))
        plain = dmd_fit(x, xp)
        known = dmdc_fit_known_b(x, xp, zeros, b)
        bitwise = bitwise and (
            np.array_equal(known.a_tilde, plain.a_tilde)
            and np.array_equal(known.basis, plain.basis)
            and np.array_equal(known.eigen.values, plain.eigen.values)
            and np.array_equal(known.eigen.vectors, plain.eigen.vectors)
            and np.array_equal(known.modes, plain.modes)
        )
        unknown, _ = dmdc_fit_unknown_b(x, xp, zeros)
        worst_b = max(worst_b, np.linalg.norm(unknown.b_tilde, "fro"))
        worst_spec = max(
            worst_spec, spectral_distance(unknown.eigenvalues, plain.eigenvalues)
        )
    ok = bitwise and worst_b <= 1e-10 and worst_spec <= 1e-8
    _report(3, ok, f"50 seeds: known-B bitwise-equal={bitwise}, "
                   f"unknown-B max |B~|_F {worst_b:.2e} (<= 1e-10), "
                   f"max spectral gap {worst_spec:.2e} (<= 1e-8)")


def test_criterion_4_joint_recovery_and_frequency_overlap():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    m = 200
    worst_joint = 0.0
    worst_sigma = 0.0
    for seed in range(100):
        n = int(rng.integers(1, 11))
        l = int(rng.integers(1, 4))
        q = int(rng.integers(n, 101))
        real, _ = gen_random_stable_ss(n, l, q, seed=seed)
        ups = gen_random_inputs(l, m, seed=seed + 10_000)
        states = np.zeros((n, m))
        for k in range(m - 1):
            states[:, k + 1] = real.a @ states[:, k] + real.b @ ups[:, k]
        ys = real.c @ states
        x, xp = ys[:, :-1], ys[:, 1:]
        model, report = dmdc_fit_unknown_b(x, xp, ups)
        assert not report.collinearity_flag
        got = np.hstack([model.full_operator(), model.input_map])
        want = np.hstack([real.c @ real.a @ real.c.T, real.c @ real.b])
        worst_joint = max(
            worst_joint,
            np.linalg.norm(got - want, "fro") / np.linalg.norm(want, "fro"),
        )
        fitted = realize(model)
        omegas = np.logspace(np.log10(1e-3), np.log10(np.pi), 200)
        for w in omegas:
            sig_f = transfer_singular_values(fitted, w)
            sig_g = transfer_singular_values(real, w)
            # sigmas at the numerical-zero floor (rank-deficient transfer,
            # e.g. n < l) carry only rounding noise; 1e-6 relative agreement
            # is resolvable in double precision only above ~1e-9 sigma_max
            denom = np.maximum(sig_g, 1e-9 * sig_g[0])
            worst_sigma = max(worst_sigma, np.max(np.abs(sig_f - sig_g) / denom))
    elapsed = time.perf_counter() - start
    ok = worst_joint <= 1e-8 and worst_sigma <= 1e-6 and elapsed < 60.0
    _report(4, ok, f"100 systems: max joint-recovery rel error "
                   f"{worst_joint:.2e} (<= 1e-8), max sigma rel gap "
                   f"{worst_sigma:.2e} (<= 1e-6), runtime {elapsed:.1f}s (< 60s)")


def _example3_errors(grid: int, seed: int):
    ds = gen_sparse_fourier(grid=grid, n_modes=5, m=60, seed=seed)
    model, report = dmdc_fit_unknown_b(ds.x, ds.xp, ds.upsilon)
    assert not report.collinearity_flag
    perm, dists = match_eigenvalues(model.eigenvalues, ds.truth.eigs_true)
    dmdc_err = float(np.max(dists))
    sims = mode_cosine_similarities(model.modes, ds.truth.modes_true[:, perm])
    plain = dmd_fit(ds.x, ds.xp)
    dmd_err = spectral_distance(plain.eigenvalues, ds.truth.eigs_true)
    return ds, dmdc_err, dmd_err, float(np.min(sims))


def test_criterion_5_example3_eigenvalue_superiority():
    start = time.perf_counter()
    _, dmdc_err, dmd_err, min_sim = _example3_errors(grid=128, seed=3)
    elapsed = time.perf_counter() - start
    ok_full = (
        dmdc_err <= 1e-6
        and dmd_err >= 10.0 * max(dmdc_err, 1e-6)
        and min_sim >= 0.99
        and elapsed < 120.0
    )
    _report(5, ok_full,
            f"128x128: DMDc max eig error {dmdc_err:.2e} (<= 1e-6), DMD "
            f"{dmd_err:.2e} (>= 10x), min mode similarity {min_sim:.4f} "
            f"(>= 0.99), runtime {elapsed:.1f}s (< 120s)")
    start = time.perf_counter()
    _, dmdc32, dmd32, sim32 = _example3_errors(grid=32, seed=3)
    elapsed32 = time.perf_counter() - start
    ok_small = (
        dmdc32 <= 1e-6
        and dmd32 >= 10.0 * max(dmdc32, 1e-6)
        and sim32 >= 0.99
        and elapsed32 < 10.0
    )
    _report(5, ok_small,
            f"32x32 fallback: DMDc {dmdc32:.2e}, DMD {dmd32:.2e}, min "
            f"similarity {sim32:.4f}, runtime {elapsed32:.2f}s (< 10s)")


def test_criterion_6_noise_robustness():
    ds = gen_sparse_fourier(grid=128, n_modes=5, m=60, seed=3)
    rms = np.sqrt(np.mean(ds.x**2))
    noisy = add_noise(ds, sigma=1e-3 * rms, seed=99)
    # rank thresholds cannot see through the noise floor; pin the true ranks
    model, _ = dmdc_fit_unknown_b(noisy.x, noisy.xp, noisy.upsilon,
                                  trunc_p=11, trunc_r=10)
    perm, dists = match_eigenvalues(model.eigenvalues, ds.truth.eigs_true)
    err = float(np.max(dists))
    sims = mode_cosine_similarities(model.modes, ds.truth.modes_true[:, perm])
    min_sim = float(np.min(sims))
    ok = err <= 1e-4 and min_sim >= 0.95
    _report(6, ok, f"noise 1e-3 of signal RMS: max eig error {err:.2e} "
                   f"(<= 1e-4 = 100x criterion-5 bound), min mode "
                   f"similarity {min_sim:.4f} (>= 0.95)")


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        l = int(rng.integers(1, 4))
        m = n + l + int(rng.integers(2, 12))
        x = rng.standard_normal((n, m))
        xp = rng.standard_normal((n, m))
        ups = rng.standard_normal((l, m))
        model, _ = dmdc_fit_unknown_b(x, xp, ups)
        got = np.hstack([model.full_operator(), model.input_map])
        want = joint_lstsq_operator(x, xp, ups)
        worst = max(
            worst,
            np.linalg.norm(got - want, "fro") / np.linalg.norm(want, "fro"),
        )
    ok = worst <= 1e-9
    _report(7, ok, f"100 instances: max relative gap to least-squares "
                   f"oracle {worst:.2e} (<= 1e-9)")


def test_criterion_8_mode_contract():
    rng = np.random.default_rng(55)
    fits = []

    model = dmdc_fit_known_b(EX1_X, EX1_XP, EX1_UPS, EX1_B)
    fits.append(("example-1 known-B", model, model.full_operator()))

    scal = dmdc_fit_known_b([1.0, 1.5, -0.25], [1.5, -0.25, 0.875],
                            [1.0, -1.0, 1.0], 1.0)
    fits.append(("scalar known-B", scal, scal.full_operator()))

    rich, _ = dmdc_fit_unknown_b([1.0, 1.5, -0.25, 0.875],
                                 [1.5, -0.25, 0.875, 2.4375],
                                 [1.0, -1.0, 1.0, 2.0])
    fits.append(("scalar unknown-B", rich, rich.full_operator()))

    for n in (3, 8, 15):
        a, _ = random_diagonalizable(rng, n)
        x, xp = consistent_data(rng, a, n + 12)
        dm = dmd_fit(x, xp)
        fits.append((f"dmd n={n}", dm, dm.full_operator()))
        b = rng.standard_normal((n, 2))
        u = rng.standard_normal((2, n + 12))
        un, _ = dmdc_fit_unknown_b(x, a @ x + b @ u, u)
        fits.append((f"dmdc n={n}", un, un.full_operator()))

    ds = gen_sparse_fourier(grid=32, n_modes=5, m=60, seed=3)
    big, _ = dmdc_fit_unknown_b(ds.x, ds.xp, ds.upsilon)
    fits.append(("fourier 32x32", big, big.op_left @ big.op_right))

    worst = 0.0
    for _, model, a_bar in fits:
        scale = np.linalg.norm(a_bar, "fro")
        for lam, phi in zip(model.eigenvalues, model.modes.T):
            if abs(lam) > 1e-12:
                resid = np.linalg.norm(a_bar @ phi - lam * phi)
                worst = max(worst, resid / scale)
    ok = worst <= 1e-8
    _report(8, ok, f"{len(fits)} noiseless fits: max normalized mode "
                   f"residual {worst:.2e} (<= 1e-8)")


def test_criterion_10_forcing_corrupts_dmd_not_dmdc():
    # the abstract's claim as a curve: DMD's eigenvalues are corrupted in
    # proportion to the forcing, while DMDc's stay at rounding at every level
    amplitudes = (0.0, -1e-4, -1e-3, -1e-2, -1e-1, -1.0, -10.0, -100.0)
    dmd_errs, dmdc_errs = [], []
    for amp in amplitudes:
        ds = gen_sparse_fourier(grid=32, n_modes=5, m=60, seed=3,
                                actuation=ActuationSpec(amplitude=amp))
        model, report = dmdc_fit_unknown_b(ds.x, ds.xp, ds.upsilon)
        assert not report.collinearity_flag
        _, dists = match_eigenvalues(model.eigenvalues, ds.truth.eigs_true)
        dmdc_errs.append(float(np.max(dists)))
        plain = dmd_fit(ds.x, ds.xp)
        dmd_errs.append(spectral_distance(plain.eigenvalues, ds.truth.eigs_true))
        if amp == 0.0:
            unforced_gap = spectral_distance(plain.eigenvalues, model.eigenvalues)
    # the log-log slope of DMD's error over the middle decades, 1e-3 to 10
    middle = slice(2, 7)
    slope = np.polyfit(np.log10(np.abs(amplitudes[middle])),
                       np.log10(dmd_errs[middle]), 1)[0]
    ok = (max(dmdc_errs) <= 1e-12 and abs(slope - 1.0) <= 0.05
          and unforced_gap <= 1e-12)
    table = ", ".join(f"{a:g}: DMD {e:.1e} / DMDc {c:.1e}"
                      for a, e, c in zip(amplitudes, dmd_errs, dmdc_errs))
    _report(10, ok, f"32x32, max eig error by forcing amplitude [{table}]; "
                    f"DMDc max {max(dmdc_errs):.1e} (<= 1e-12), DMD log-log "
                    f"slope {slope:.4f} over 1e-3..10 (1 +- 0.05), DMD-DMDc "
                    f"gap unforced {unforced_gap:.1e} (<= 1e-12)")
