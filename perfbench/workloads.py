"""The benchmark's workloads: input generation, one pass, correctness checks.

A pass is a fixed sequence of ``dmdc`` CLI commands. Every check reads
what the commands wrote (or printed) and compares it with a figure the
benchmark computes itself with numpy from the generator's truth, or with
a property the method must have on noiseless data.
"""
from __future__ import annotations

import contextlib
import csv
import io
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import linear_sum_assignment

from dmdc import cli, synth
from dmdc import io as dio

# Bounds of the acceptance suite: eigenvalues of the 128x128 grid within
# 1e-6 with mode similarity >= 0.99 and plain DMD at least 10x worse
# (criterion 5); joint recovery within 1e-8 and singular values within
# 1e-6 relative, floored at 1e-9 sigma_max (criterion 4).
GRID_EIG_TOL = 1e-6
GRID_MODE_SIM = 0.99
DMD_CORRUPTION = 10.0
EIG_TOL = 1e-8
SIGMA_REL_TOL = 1e-6
SIGMA_FLOOR = 1e-9
# Noiseless data and double precision: a residual or a recomputed curve
# must agree to well below any modelling tolerance.
RESIDUAL_TOL = 1e-10
RECOMPUTE_REL_TOL = 1e-8


class CheckFailed(Exception):
    """An output failed its correctness check."""


class SetupFailed(Exception):
    """A command that generates inputs did not succeed."""


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``dmdc.cli.main`` in-process; return its exit code and output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main(argv)
        except Exception:  # an escaped error is a failed command, not a crash
            traceback.print_exc()
            rc = -1
    return rc, buf.getvalue()


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Step:
    """One CLI command of a pass; its output directory is named ``label``."""

    label: str
    argv: list[str]

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Check:
    """A correctness check over the outputs of the steps it ``needs``."""

    name: str
    needs: tuple[str, ...]
    fn: Callable[["PassOutputs"], None]


@dataclass
class PassOutputs:
    """What the commands of one pass returned, printed and wrote."""

    out: Path
    commands: dict[str, str] = field(default_factory=dict)
    rc: dict[str, int] = field(default_factory=dict)
    stdout: dict[str, str] = field(default_factory=dict)
    _memo: dict = field(default_factory=dict)

    def dir(self, label: str) -> Path:
        return self.out / label

    def printed(self, label: str, key: str) -> float:
        m = re.search(rf"^{re.escape(key)}=(\S+)$", self.stdout[label], re.M)
        if m is None:
            raise CheckFailed(f"{label} printed no {key}")
        return float(m.group(1))

    def model(self, label: str):
        """The model record a fit step wrote, read once per pass."""
        key = ("model", label)
        if key not in self._memo:
            self._memo[key] = dio.read_model(self.dir(label) / "model.json")
        return self._memo[key]


def read_table(path: Path) -> dict[str, list[str]]:
    """Columns of a CSV table with a header row."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}


def eig_table(path: Path) -> np.ndarray:
    t = read_table(path)
    return np.array([float(a) for a in t["re"]]) + 1j * np.array(
        [float(b) for b in t["im"]]
    )


def matched_distance(a, b) -> tuple[float, np.ndarray]:
    """Largest gap of the minimum-cost pairing of two spectra, and the
    pairing: ``b[perm[i]]`` goes with ``a[i]``."""
    a, b = np.asarray(a), np.asarray(b)
    expect(a.size == b.size, f"spectra differ in size: {a.size} vs {b.size}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(a.size, dtype=int)
    perm[rows] = cols
    return float(cost[rows, cols].max()), perm


def sigma_curve(a, b, omegas) -> np.ndarray:
    """sigma((e^{iw} I - A)^{-1} B) per frequency; C is left out because
    sigma(C G) = sigma(G) for C with orthonormal columns."""
    eye = np.eye(a.shape[0])
    return np.vstack([
        np.linalg.svd(np.linalg.solve(np.exp(1j * w) * eye - a, b),
                      compute_uv=False)
        for w in omegas
    ])


def sigma_gap(got, want) -> float:
    """Largest relative gap, each curve floored at 1e-9 of its sigma_max."""
    got, want = np.asarray(got), np.asarray(want)
    expect(got.shape == want.shape, f"curve shapes {got.shape} vs {want.shape}")
    denom = np.maximum(want, SIGMA_FLOOR * want[:, :1])
    return float(np.max(np.abs(got - want) / denom))


def freqresp_table(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(omegas, sigmas) of a ``freqresp.csv``; every row must be ``ok``."""
    t = read_table(path)
    bad = [s for s in t["status"] if s != "ok"]
    expect(not bad, f"{len(bad)} frequencies not ok")
    cols = sorted((k for k in t if k.startswith("sigma")), key=lambda k: int(k[5:]))
    sig = np.array([[float(v) for v in t[k]] for k in cols]).T
    return np.array([float(w) for w in t["omega"]]), sig


def model_sigma_columns(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(omegas, first model's sigmas) of a ``freq_compare.csv``."""
    t = read_table(path)
    cols = sorted((k for k in t if k.endswith("_model")), key=lambda k: int(k[5:-6]))
    sig = np.array([[float(v) for v in t[k]] for k in cols]).T
    return np.array([float(w) for w in t["omega"]]), sig


class Workload:
    """A named input set, the pass run over it and the checks of a pass."""

    name: str
    full: dict
    tiny: dict

    def __init__(self, tiny: bool = False):
        self.size = dict(self.tiny if tiny else self.full)

    def synth(self, argv: list[str]) -> None:
        rc, text = run_cli(["synth", *argv])
        if rc != 0:
            raise SetupFailed(f"synth {' '.join(argv)} exited {rc}: {text}")

    def make_inputs(self, inp: Path, seed: int) -> dict:
        """Write the input files; return what the checks need to know."""
        raise NotImplementedError

    def steps(self, inp: Path, out: Path) -> list[Step]:
        raise NotImplementedError

    def checks(self, ctx: dict) -> list[Check]:
        raise NotImplementedError


def _fit_steps(inp: Path, out: Path, x: str, xp: str, u: str, b: str) -> list[Step]:
    """fitc (unknown B), fitc with the true B, and plain DMD on one input set."""
    data = ["--x", str(inp / x), "--xp", str(inp / xp)]
    return [
        Step("fitc", ["fitc", *data, "--u", str(inp / u), "--out", str(out / "fitc")]),
        Step("fitc_b", ["fitc", *data, "--u", str(inp / u), "--b-matrix", str(inp / b),
                        "--out", str(out / "fitc_b")]),
        Step("fit", ["fit", *data, "--out", str(out / "fit")]),
    ]


class Grid128(Workload):
    """Paper example 3: sparse Fourier dynamics on a 128x128 actuated grid."""

    name = "grid128"
    full = {"grid": 128, "modes": 5, "m": 60}
    tiny = {"grid": 16, "modes": 3, "m": 30}

    def make_inputs(self, inp, seed):
        s = self.size
        self.synth(["--example", "3", "--grid", str(s["grid"]),
                    "--modes", str(s["modes"]), "--m", str(s["m"]),
                    "--seed", str(seed), "--out", str(inp)])
        truth, _ = dio.read_truth(inp / "truth.json")
        dio.write_matrix_bin(truth.b_true, inp / "b_true.bin")
        return {"truth": truth}

    def steps(self, inp, out):
        model = str(out / "fitc" / "model.json")
        return _fit_steps(inp, out, "x.bin", "xp.bin", "upsilon.csv",
                          "b_true.bin") + [
            Step("compare_truth", ["compare", "--model", model,
                                   "--truth", str(inp / "truth.json"),
                                   "--out", str(out / "compare_truth")]),
            # Model against model: compare --truth --freqresp cannot run on
            # a grid whose truth carries no dense operator.
            Step("compare_model2", ["compare", "--model", model,
                                    "--model2", str(out / "fitc_b" / "model.json"),
                                    "--freqresp", "--out",
                                    str(out / "compare_model2")]),
            Step("freqresp", ["freqresp", "--model", model,
                              "--out", str(out / "freqresp")]),
        ]

    def checks(self, ctx):
        truth = ctx["truth"]

        def dmdc_err(o):
            return matched_distance(eig_table(o.dir("fitc") / "eigenvalues.csv"),
                                    truth.eigs_true)

        def eigenvalues(o):
            err, _ = dmdc_err(o)
            expect(err <= GRID_EIG_TOL, f"DMDc eigenvalue error {err:.3e}")

        def modes(o):
            rec = o.model("fitc")
            _, perm = matched_distance(rec.eigenvalues, truth.eigs_true)
            a, b = rec.modes, truth.modes_true[:, perm]
            sims = np.abs(np.sum(np.conj(a) * b, axis=0)) / (
                np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=0))
            expect(sims.min() >= GRID_MODE_SIM, f"mode similarity {sims.min():.6f}")

        def dmd_corrupted(o):
            err, _ = dmdc_err(o)
            plain, _ = matched_distance(eig_table(o.dir("fit") / "eigenvalues.csv"),
                                        truth.eigs_true)
            expect(plain >= DMD_CORRUPTION * max(err, GRID_EIG_TOL),
                   f"DMD error {plain:.3e} vs DMDc {err:.3e}")

        def known_b(o):
            known = eig_table(o.dir("fitc_b") / "eigenvalues.csv")
            gap, _ = matched_distance(known, eig_table(o.dir("fitc") / "eigenvalues.csv"))
            err, _ = matched_distance(known, truth.eigs_true)
            expect(max(gap, err) <= GRID_EIG_TOL,
                   f"known-B spectrum: {gap:.3e} from unknown-B, {err:.3e} from truth")

        def compare_truth(o):
            dist = o.printed("compare_truth", "spectral_distance")
            sim = o.printed("compare_truth", "min_mode_similarity")
            expect(dist <= GRID_EIG_TOL and sim >= GRID_MODE_SIM,
                   f"printed spectral_distance {dist:.3e}, "
                   f"min_mode_similarity {sim:.6f}")

        def compare_model2(o):
            gap = o.printed("compare_model2", "max_sigma_relative_gap")
            expect(gap <= SIGMA_REL_TOL, f"max_sigma_relative_gap {gap:.3e}")

        def freqresp(o):
            rec = o.model("fitc")
            w, got = freqresp_table(o.dir("freqresp") / "freqresp.csv")
            gap = sigma_gap(got, sigma_curve(rec.a_tilde, rec.b_tilde, w))
            expect(gap <= RECOMPUTE_REL_TOL, f"freqresp sigma gap {gap:.3e}")

        return [
            Check("dmdc_eigenvalues", ("fitc",), eigenvalues),
            Check("dmdc_modes", ("fitc",), modes),
            Check("dmd_corrupted", ("fitc", "fit"), dmd_corrupted),
            Check("known_b_spectrum", ("fitc", "fitc_b"), known_b),
            Check("compare_truth", ("compare_truth",), compare_truth),
            Check("compare_model2", ("compare_model2",), compare_model2),
            Check("freqresp_sigma", ("fitc", "freqresp"), freqresp),
        ]


class SensorCsv(Workload):
    """A random stable latent system seen through thousands of orthonormal
    channels, delivered as CSV."""

    name = "sensor-csv"
    full = {"n": 6, "l": 2, "q": 2048, "m": 200}
    tiny = {"n": 4, "l": 2, "q": 128, "m": 60}

    def make_inputs(self, inp, seed):
        s = self.size
        n = s["n"]
        real, _ = synth.gen_random_stable_ss(n, s["l"], s["q"], seed=seed)
        ups = synth.gen_random_inputs(s["l"], s["m"], seed=seed + 1)
        states = np.zeros((n, s["m"]))
        for k in range(s["m"] - 1):
            states[:, k + 1] = real.a @ states[:, k] + real.b @ ups[:, k]
        ys = real.c @ states
        x, xp = ys[:, :-1], ys[:, 1:]
        dio.write_matrix_csv(x, inp / "x.csv")
        dio.write_matrix_csv(xp, inp / "xp.csv")
        dio.write_matrix_csv(ups, inp / "u.csv")
        dio.write_matrix_csv(real.c @ real.b, inp / "b.csv")
        return {"a": real.a, "b": real.b, "x": x, "xp": xp, "u": ups}

    def steps(self, inp, out):
        return _fit_steps(inp, out, "x.csv", "xp.csv", "u.csv", "b.csv") + [
            Step("compare_model2", ["compare",
                                    "--model", str(out / "fitc" / "model.json"),
                                    "--model2", str(out / "fitc_b" / "model.json"),
                                    "--freqresp", "--out",
                                    str(out / "compare_model2")]),
        ]

    def checks(self, ctx):
        eigs = np.linalg.eigvals(ctx["a"])

        def spectrum(label):
            def fn(o):
                err, _ = matched_distance(eig_table(o.dir(label) / "eigenvalues.csv"), eigs)
                expect(err <= EIG_TOL, f"{label} eigenvalue error {err:.3e}")
            return fn

        def residual(o):
            rec = o.model("fitc")
            c, x, xp = rec.basis, ctx["x"], ctx["xp"]
            pred = c @ (rec.a_tilde @ (c.T @ x) + rec.b_tilde @ ctx["u"])
            res = np.linalg.norm(xp - pred) / np.linalg.norm(xp)
            expect(res <= RESIDUAL_TOL, f"one-step residual {res:.3e}")

        def dmd_rank(o):
            rank = eig_table(o.dir("fit") / "eigenvalues.csv").size
            expect(rank == eigs.size, f"DMD rank {rank}, latent order {eigs.size}")

        def compare_model2(o):
            w, got = model_sigma_columns(o.dir("compare_model2") / "freq_compare.csv")
            gap = sigma_gap(got, sigma_curve(ctx["a"], ctx["b"], w))
            printed = o.printed("compare_model2", "max_sigma_relative_gap")
            expect(max(gap, printed) <= SIGMA_REL_TOL,
                   f"sigma gap to latent system {gap:.3e}, printed {printed:.3e}")

        return [
            Check("dmdc_eigenvalues", ("fitc",), spectrum("fitc")),
            Check("one_step_residual", ("fitc",), residual),
            Check("known_b_eigenvalues", ("fitc_b",), spectrum("fitc_b")),
            Check("dmd_rank", ("fit",), dmd_rank),
            Check("compare_model2", ("compare_model2",), compare_model2),
        ]


class Sweep(Workload):
    """Many small example-2 systems, one seed each: a parameter study."""

    name = "sweep"
    full = {"systems": 6, "n": 5, "l": 2, "q": 100, "m": 101}
    tiny = {"systems": 2, "n": 3, "l": 2, "q": 30, "m": 40}

    def make_inputs(self, inp, seed):
        s = self.size
        for i in range(s["systems"]):
            self.synth(["--example", "2", "--n", str(s["n"]), "--l", str(s["l"]),
                        "--q", str(s["q"]), "--m", str(s["m"]),
                        "--seed", str(seed * s["systems"] + i),
                        "--out", str(inp / str(i))])
        return {"inp": inp}

    def steps(self, inp, out):
        steps = []
        for i in range(self.size["systems"]):
            d = inp / str(i)
            model = str(out / f"{i}.fitc" / "model.json")
            steps += [
                Step(f"{i}.fitc", ["fitc", "--x", str(d / "x.csv"),
                                   "--xp", str(d / "xp.csv"),
                                   "--u", str(d / "upsilon.csv"),
                                   "--out", str(out / f"{i}.fitc")]),
                Step(f"{i}.compare", ["compare", "--model", model,
                                      "--truth", str(d / "truth.json"),
                                      "--freqresp",
                                      "--out", str(out / f"{i}.compare")]),
                Step(f"{i}.freqresp", ["freqresp", "--model", model,
                                       "--out", str(out / f"{i}.freqresp")]),
            ]
        return steps

    def checks(self, ctx):
        checks = []
        for i in range(self.size["systems"]):
            truth, _ = dio.read_truth(ctx["inp"] / str(i) / "truth.json")
            a, b = truth.a_true, truth.b_true
            # the effective operator C A C^T: n latent eigenvalues, the
            # rest are embedding zeros
            lam = np.linalg.eigvals(a)
            latent = lam[np.argsort(-np.abs(lam))[: self.size["n"]]]

            def eigenvalues(o, i=i, latent=latent):
                err, _ = matched_distance(
                    eig_table(o.dir(f"{i}.fitc") / "eigenvalues.csv"), latent)
                expect(err <= EIG_TOL, f"eigenvalue error {err:.3e}")

            def compare(o, i=i):
                dist = o.printed(f"{i}.compare", "spectral_distance")
                gap = o.printed(f"{i}.compare", "max_sigma_relative_gap")
                expect(dist <= EIG_TOL and gap <= SIGMA_REL_TOL,
                       f"spectral_distance {dist:.3e}, "
                       f"max_sigma_relative_gap {gap:.3e}")

            def freqresp(o, i=i, a=a, b=b):
                w, got = freqresp_table(o.dir(f"{i}.freqresp") / "freqresp.csv")
                gap = sigma_gap(got, sigma_curve(a, b, w))
                expect(gap <= SIGMA_REL_TOL, f"sigma gap to truth {gap:.3e}")

            checks += [
                Check(f"{i}.eigenvalues", (f"{i}.fitc",), eigenvalues),
                Check(f"{i}.compare_truth", (f"{i}.compare",), compare),
                Check(f"{i}.freqresp_sigma", (f"{i}.freqresp",), freqresp),
            ]
        return checks


WORKLOADS = {w.name: w for w in (Grid128, SensorCsv, Sweep)}
