#!/usr/bin/env python3
"""Benchmark of the dmdc command-line pipeline.

    python3 perfbench/run.py --workload grid128 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark imports the package from
``src/`` and calls ``dmdc.cli.main(argv)`` in this one process: a closed
loop, one command at a time, with the BLAS thread count fixed before
numpy loads. It runs whole passes of the workload's command sequence
until ``--seconds`` have gone by and checks every pass's outputs; between
passes it generates the workload's inputs from ``--seed`` (five times in
all, to time set-up). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (untraced passes);
with ``--trace 1`` they are the per-layer figures of a traced run, see
README.md. Commands and checks both count as attempted operations.
"""
from __future__ import annotations

import os
import sys
import time

# One BLAS thread: on two cores it gives the steadiest figures.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
# Set-ups per untraced run; setup_s is their median.
SETUPS = 5

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    import dmdc
except ImportError as exc:
    sys.exit(f"perfbench: cannot import dmdc from {SRC}: {exc}")
if Path(dmdc.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: dmdc was imported from {dmdc.__file__}, not from {SRC}")

from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, CheckFailed, PassOutputs, Workload, run_cli)


def _no_span(name, layer):
    return contextlib.nullcontext()


def run_pass(wl: Workload, inp: Path, out: Path, tracer: Tracer | None = None):
    """One pass of the workload's commands; returns (seconds, outputs, root)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()  # start each pass from the same heap, whatever ran before
    outputs = PassOutputs(out)
    span = tracer.span if tracer is not None else _no_span
    t0 = time.perf_counter()
    with span("pass", "bench") as root:
        for step in wl.steps(inp, out):
            outputs.commands[step.label] = step.command
            with span(f"cli.{step.command}", "cli"):
                outputs.rc[step.label], outputs.stdout[step.label] = run_cli(step.argv)
    return time.perf_counter() - t0, outputs, root


@dataclass
class Tally:
    """Operations attempted and failed; ``wrong`` lists failed checks."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str, wrong: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)
            if wrong:
                self.wrong.append(what)


def check_pass(checks, outputs: PassOutputs, tally: Tally) -> None:
    for label, rc in outputs.rc.items():
        tally.add(rc == 0, f"command {label} exited {rc}: {outputs.stdout[label]}")
    for check in checks:
        if any(outputs.rc[n] != 0 for n in check.needs):
            tally.add(False, f"check {check.name}: a command it reads failed")
            continue
        try:
            check.fn(outputs)
        except CheckFailed as exc:
            tally.add(False, f"check {check.name}: {exc}", wrong=True)
        except Exception:  # unreadable output is a wrong output
            tally.add(False, f"check {check.name}: {traceback.format_exc()}",
                      wrong=True)
        else:
            tally.add(True, check.name)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, as a user pays it."""
    probe = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
             "t = time.perf_counter(); import dmdc.cli; "
             "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def set_up(wl: Workload, inp: Path, seed: int) -> tuple[float, dict]:
    shutil.rmtree(inp, ignore_errors=True)
    inp.mkdir(parents=True)
    t0 = time.perf_counter()
    ctx = wl.make_inputs(inp, seed)
    return time.perf_counter() - t0, ctx


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def model_bytes(outputs: PassOutputs) -> int:
    """Bytes the fit commands of a pass left in their output directories."""
    total = 0
    for label, command in outputs.commands.items():
        if command in ("fit", "fitc"):
            total += sum(f.stat().st_size for f in outputs.dir(label).rglob("*")
                         if f.is_file())
    return total


def _until(seconds: float):
    """Yield pass numbers until ``seconds`` have gone by; at least one."""
    start = time.perf_counter()
    i = 0
    while True:
        yield i
        i += 1
        if time.perf_counter() - start >= seconds:
            return


# Per-layer figures of one traced pass: name -> (unit, figure(summary)).
PER_LAYER = {
    "cli.fit_s": ("s", lambda S: S.by_name("cli.fit")),
    "cli.fitc_s": ("s", lambda S: S.by_name("cli.fitc")),
    "cli.compare_s": ("s", lambda S: S.by_name("cli.compare")),
    "cli.freqresp_s": ("s", lambda S: S.by_name("cli.freqresp")),
    "cli.self_s": ("s", lambda S: S.self_by_layer().get("cli", 0.0)),
    "io.write_model_s": ("s", lambda S: S.by_name("io.write_model")),
    "io.read_model_s": ("s", lambda S: S.by_name("io.read_model")),
    "io.read_matrix_csv_s": ("s", lambda S: S.by_name("io.read_matrix_csv")),
    "io.csv_cells_read": ("count", lambda S: S.counts()["io.csv_cells_read"]),
    "io.read_matrix_bin_s": ("s", lambda S: S.by_name("io.read_matrix_bin")),
    "io.write_matrix_csv_s": ("s", lambda S: S.by_name("io.write_matrix_csv")),
    "io.read_truth_s": ("s", lambda S: S.by_name("io.read_truth")),
    "io.self_s": ("s", lambda S: S.self_by_layer().get("io", 0.0)),
    "linalg.truncated_svd_s": ("s", lambda S: S.by_name("linalg.truncated_svd")),
    "linalg.numerical_rank_s": ("s", lambda S: S.by_name("linalg.numerical_rank")),
    "linalg.svd_calls": ("count", lambda S: S.counts()["linalg.svd_calls"]),
    "linalg.eig_s": ("s", lambda S: S.by_name("linalg.eig")),
    "linalg.self_s": ("s", lambda S: S.self_by_layer().get("linalg", 0.0)),
    "dmd.dmd_fit_s": ("s", lambda S: S.by_name("dmd.dmd_fit")),
    "dmd.self_s": ("s", lambda S: S.self_by_layer().get("dmd", 0.0)),
    "dmdc.fit_known_b_s": ("s", lambda S: S.by_name("dmdc.dmdc_fit_known_b")),
    "dmdc.fit_unknown_b_s": ("s", lambda S: S.by_name("dmdc.dmdc_fit_unknown_b")),
    "dmdc.fit_self_s": ("s", lambda S: S.self_by_layer().get("dmdc", 0.0)),
    "rom.transfer_singular_values_s": (
        "s", lambda S: S.by_name("rom.transfer_singular_values")),
    "rom.frequencies_evaluated": (
        "count", lambda S: S.counts()["rom.frequencies_evaluated"]),
    "rom.match_eigenvalues_s": ("s", lambda S: S.by_name("rom.match_eigenvalues")),
    "rom.mode_cosine_similarities_s": (
        "s", lambda S: S.by_name("rom.mode_cosine_similarities")),
    "rom.self_s": ("s", lambda S: S.self_by_layer().get("rom", 0.0)),
    "bench.self_s": ("s", lambda S: S.self_by_layer().get("bench", 0.0)),
    "trace.pass_s": ("s", lambda S: S.total_s),
}


def measure(wl: Workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Untraced run: end-to-end metrics.

    ``pipeline_s`` is the slowest pass of the run. The host alternates
    between a common slow speed and a rarer fast one in phases of seconds
    to minutes: the slowest pass follows the common speed, where the
    median pass flips between the two (README.md). The set-ups are spread
    over the run for the same reason: one before each of the first passes,
    the rest after the last.
    """
    inp, out = WORK / wl.name / "in", WORK / wl.name / "out"
    setups = []

    def timed_set_up() -> dict:
        secs, ctx = set_up(wl, inp, seed)
        setups.append(import_seconds() + secs)
        print(f"perfbench: set-up {len(setups)}: {setups[-1]:.3f} s",
              file=sys.stderr)
        return ctx

    checks = wl.checks(timed_set_up())
    passes = []
    for i in _until(seconds):
        if 0 < i < SETUPS:
            timed_set_up()
        secs, outputs, _ = run_pass(wl, inp, out)
        passes.append(secs)
        check_pass(checks, outputs, tally)
        print(f"perfbench: pass {i + 1}: {secs:.3f} s", file=sys.stderr)
    while len(setups) < SETUPS:
        timed_set_up()
    return {
        "pipeline_s": (max(passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def measure_traced(wl: Workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Traced run: per-layer figures from the traced pass of median length.

    Untraced and traced passes alternate, and the difference of their
    medians is the tracing overhead.
    """
    inp, out = WORK / wl.name / "in", WORK / wl.name / "out"
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup", "bench") as root:
            _, ctx = set_up(wl, inp, seed)
        synth_s = tracer.summary(root).by_layer("synth")
    finally:
        tracer.uninstall()
    checks = wl.checks(ctx)
    plain, traced = [], []
    for i in _until(seconds):
        secs, outputs, _ = run_pass(wl, inp, out)
        plain.append(secs)
        check_pass(checks, outputs, tally)
        tracer.install()
        try:
            secs, outputs, root = run_pass(wl, inp, out, tracer)
        finally:
            tracer.uninstall()
        traced.append((secs, tracer.summary(root), model_bytes(outputs)))
        check_pass(checks, outputs, tally)
        print(f"perfbench: pass pair {i + 1}: {plain[-1]:.3f} s untraced, "
              f"{secs:.3f} s traced", file=sys.stderr)
    traced.sort(key=lambda t: t[1].total_s)
    _, summary, nbytes = traced[(len(traced) - 1) // 2]
    metrics = {name: (fn(summary), unit) for name, (unit, fn) in PER_LAYER.items()}
    metrics["io.model_bytes"] = (nbytes, "bytes")
    metrics["synth.gen_s"] = (synth_s, "s")
    metrics["trace.overhead_s"] = (
        statistics.median(t[0] for t in traced) - statistics.median(plain), "s")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """Run one workload and return the result object."""
    wl = WORKLOADS[workload](tiny=tiny)
    tally = Tally()
    shutil.rmtree(WORK / wl.name, ignore_errors=True)
    try:
        metrics = (measure_traced if trace else measure)(wl, seed, seconds, tally)
    finally:
        shutil.rmtree(WORK / wl.name, ignore_errors=True)
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("need --seed >= 0 and --seconds > 0")
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"BLAS {_blas()} with {BLAS_THREADS} thread(s), "
          f"{os.cpu_count()} cpus, dmdc from {SRC}", file=sys.stderr)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
