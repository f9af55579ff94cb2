"""Command-line interface: fit, fitc, synth, compare, freqresp.

Every command is deterministic given its flags and seed, writes complete
files or nothing, and exits 0 on success. A failure exits with the code its
error class carries (the table is in dmdc.errors): 1 on usage errors, 2 on
file or format problems (an OSError included), 3 on numerical failures.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import io as dio
from .dmd import dmd_fit, split_trajectory
from .dmdc import dmdc_fit_known_b, dmdc_fit_unknown_b
from .errors import DmdcError, FormatError, ShapeError, UsageError
from .linalg import DEFAULT_SVD_THRESHOLD
from .rom import (
    DEFAULT_FREQ_COUNT,
    DEFAULT_FREQ_MIN,
    StateSpaceRealization,
    default_frequency_grid,
    frequency_response,
    match_eigenvalues,
    mode_cosine_similarities,
    realize,
    realize_truth,
)
from .synth import gen_example1, gen_example2, gen_sparse_fourier

EXIT_OK = 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_matrix(path, transpose: bool = False) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise FormatError(f"{path}: no such file")
    if path.suffix == ".bin":
        m = dio.read_matrix_bin(path)
    else:
        m = dio.read_matrix_csv(path)
    return m.T.copy() if transpose else m


def _read_input(inputs: dict, key: str, path, transpose: bool = False) -> np.ndarray:
    """Read the matrix file at ``path`` and record its sha256 as ``inputs[key]``."""
    m = _read_matrix(path, transpose)
    inputs[key] = "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return m


def _fmt_row(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write_table(path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(rows)
    dio.write_text_atomic(path, "\n".join(lines) + "\n")


def _trunc_policy(rank, threshold):
    if rank is not None and threshold is not None:
        raise UsageError("explicit ranks and --svd-threshold are mutually exclusive")
    if rank is not None:
        if rank < 1:
            raise UsageError(f"rank must be >= 1, got {rank}")
        return int(rank)
    if threshold is not None:
        if not 0.0 < threshold < 1.0:
            raise UsageError(f"--svd-threshold must lie in (0, 1), got {threshold}")
        return float(threshold)
    return None


def _trunc_provenance(policy) -> dict:
    if policy is None:
        return {"policy": "default-threshold", "value": DEFAULT_SVD_THRESHOLD}
    if isinstance(policy, int):
        return {"policy": "rank", "value": policy}
    return {"policy": "threshold", "value": policy}


def _omega_grid(args) -> np.ndarray:
    if args.omega_count < 1:
        raise UsageError(f"--omega-count must be >= 1, got {args.omega_count}")
    if not 0.0 < args.omega_min <= args.omega_max <= np.pi + 1e-12:
        raise UsageError("need 0 < --omega-min <= --omega-max <= pi")
    return default_frequency_grid(args.omega_count, args.omega_min, args.omega_max)


def _add_omega_grid(parser) -> None:
    parser.add_argument("--omega-count", type=int, default=DEFAULT_FREQ_COUNT)
    parser.add_argument("--omega-min", type=float, default=DEFAULT_FREQ_MIN)
    parser.add_argument("--omega-max", type=float, default=float(np.pi))


def _eig_table(path, eigenvalues) -> None:
    rows = [
        _fmt_row([z.real, z.imag, abs(z)]) for z in np.asarray(eigenvalues)
    ]
    _write_table(path, ["re", "im", "magnitude"], rows)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_common(parser, ranks: tuple[str, ...]) -> None:
    for r in ranks:
        parser.add_argument(
            f"--rank-{r}", type=int, default=None,
            help=f"explicit truncation rank {r}",
        )
    parser.add_argument(
        "--svd-threshold", type=float, default=None,
        help="relative singular-value threshold in (0, 1)",
    )
    parser.add_argument("--dt", type=float, default=1.0, help="sampling interval")
    parser.add_argument(
        "--transpose-input", action="store_true",
        help="transpose matrices on ingest (rows are snapshots)",
    )
    parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="dmdc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit unforced dynamics from snapshots")
    p_fit.add_argument("--traj", help="single trajectory matrix file")
    p_fit.add_argument("--x", help="snapshot matrix file")
    p_fit.add_argument("--xp", help="shifted snapshot matrix file")
    _add_common(p_fit, ranks=("r",))

    p_fitc = sub.add_parser("fitc", help="fit dynamics and input map")
    p_fitc.add_argument("--x", required=True, help="snapshot matrix file")
    p_fitc.add_argument("--xp", required=True, help="shifted snapshot matrix file")
    p_fitc.add_argument("--u", required=True, help="control snapshot matrix file")
    p_fitc.add_argument("--b-matrix", help="known input map file (enables known-B path)")
    _add_common(p_fitc, ranks=("p", "r"))

    p_synth = sub.add_parser("synth", help="generate a benchmark dataset")
    p_synth.add_argument("--example", type=int, choices=(1, 2, 3), required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--m", type=int, default=None, help="snapshot count")
    p_synth.add_argument("--dt", type=float, default=1.0)
    p_synth.add_argument("--n", type=int, default=5, help="example 2 state dim")
    p_synth.add_argument("--l", type=int, default=2, help="example 2 input dim")
    p_synth.add_argument("--q", type=int, default=100, help="example 2 output dim")
    p_synth.add_argument("--grid", type=int, default=128, help="example 3 grid size")
    p_synth.add_argument("--modes", type=int, default=5, help="example 3 mode count")
    p_synth.add_argument("--actuation", help="example 3 actuation spec JSON file")
    p_synth.add_argument("--out", required=True, help="output directory")

    p_cmp = sub.add_parser("compare", help="compare a model against truth or a model")
    p_cmp.add_argument("--model", required=True, help="model record file")
    p_cmp.add_argument("--truth", help="ground-truth file")
    p_cmp.add_argument("--model2", help="second model record file")
    p_cmp.add_argument("--freqresp", action="store_true",
                       help="also compare frequency-response curves")
    _add_omega_grid(p_cmp)
    p_cmp.add_argument("--out", required=True, help="output directory")

    p_fr = sub.add_parser("freqresp", help="emit frequency-response singular values")
    p_fr.add_argument("--model", help="model record file")
    p_fr.add_argument("--a", help="A matrix file (with --b, --c)")
    p_fr.add_argument("--b", help="B matrix file")
    p_fr.add_argument("--c", help="C matrix file")
    _add_omega_grid(p_fr)
    p_fr.add_argument("--out", required=True, help="output directory")
    return parser


def _write_fit(args, model, inputs: dict, truncation: dict) -> Path:
    """Create --out and write the model record and its eigenvalue table."""
    out = _out_dir(args)
    provenance = {
        "inputs": inputs,
        "truncation": {k: _trunc_provenance(v) for k, v in truncation.items()},
        "seed": None,
        "transpose_input": bool(args.transpose_input),
    }
    dio.write_model(dio.ModelRecord.from_model(model, provenance), out / "model.json")
    _eig_table(out / "eigenvalues.csv", model.eigenvalues)
    return out


def _cmd_fit(args) -> int:
    trunc = _trunc_policy(args.rank_r, args.svd_threshold)
    inputs = {}
    if args.traj is not None:
        if args.x is not None or args.xp is not None:
            raise UsageError("--traj excludes --x/--xp")
        traj = _read_input(inputs, "traj", args.traj, args.transpose_input)
        x, xp = split_trajectory(traj)
    else:
        if args.x is None or args.xp is None:
            raise UsageError("need --traj or both --x and --xp")
        x = _read_input(inputs, "x", args.x, args.transpose_input)
        xp = _read_input(inputs, "xp", args.xp, args.transpose_input)
    model = dmd_fit(x, xp, trunc, args.dt)
    out = _write_fit(args, model, inputs, {"r": trunc})
    print(f"fit: rank {model.output_rank}, wrote {out / 'model.json'}")
    return EXIT_OK


def _cmd_fitc(args) -> int:
    known_b = args.b_matrix is not None
    if known_b and args.rank_p is not None:
        raise UsageError("--rank-p does not apply to --b-matrix fits, where p = r")
    trunc_r = _trunc_policy(args.rank_r, args.svd_threshold)
    trunc_p = trunc_r if known_b else _trunc_policy(args.rank_p, args.svd_threshold)
    if (
        args.rank_p is not None
        and args.rank_r is not None
        and args.rank_p < args.rank_r
    ):
        raise UsageError(
            f"--rank-p ({args.rank_p}) must be >= --rank-r ({args.rank_r})"
        )
    inputs = {}
    x = _read_input(inputs, "x", args.x, args.transpose_input)
    xp = _read_input(inputs, "xp", args.xp, args.transpose_input)
    ups = _read_input(inputs, "u", args.u, args.transpose_input)
    report = None
    if known_b:
        b = _read_input(inputs, "b", args.b_matrix)
        model = dmdc_fit_known_b(x, xp, ups, b, trunc_r, args.dt)
    else:
        model, report = dmdc_fit_unknown_b(x, xp, ups, trunc_p, trunc_r, args.dt)
    out = _write_fit(args, model, inputs, {"p": trunc_p, "r": trunc_r})
    dio.write_matrix_csv(model.b_tilde, out / "b_tilde.csv")
    print(f"fitc: ranks p={model.input_rank} r={model.output_rank}, "
          f"wrote {out / 'model.json'}")
    if report is not None:
        print(
            f"identifiability: omega_rank={report.omega_rank} "
            f"required_rank={report.required_rank} "
            f"collinear={str(report.collinearity_flag).lower()}"
        )
        if report.collinearity_flag:
            print(
                "warning: collinear input-state data; dynamics and input map "
                "are not separately identifiable",
                file=sys.stderr,
            )
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.example == 1:
        m = args.m if args.m is not None else 5
        ds = gen_example1(m=m, dt=args.dt)
        binary = False
    elif args.example == 2:
        m = args.m if args.m is not None else 101
        ds = gen_example2(
            n=args.n, l=args.l, q=args.q, m=m, seed=args.seed, dt=args.dt
        )
        binary = False
    else:
        m = args.m if args.m is not None else 60
        act = None
        if args.actuation is not None:
            act = dio.read_actuation_spec(args.actuation)
        ds = gen_sparse_fourier(
            grid=args.grid, n_modes=args.modes, m=m, seed=args.seed,
            actuation=act, dt=args.dt,
        )
        binary = True
    out = _out_dir(args)
    if binary:
        dio.write_matrix_bin(ds.x, out / "x.bin")
        dio.write_matrix_bin(ds.xp, out / "xp.bin")
        names = ("x.bin", "xp.bin")
    else:
        dio.write_matrix_csv(ds.x, out / "x.csv")
        dio.write_matrix_csv(ds.xp, out / "xp.csv")
        names = ("x.csv", "xp.csv")
    dio.write_matrix_csv(ds.upsilon, out / "upsilon.csv")
    dio.write_truth(ds.truth, out / "truth.json", dt=ds.dt)
    print(
        f"synth: example {args.example}, {ds.x.shape[0]} states x "
        f"{ds.x.shape[1]} snapshot pairs, wrote {', '.join(names)}, "
        f"upsilon.csv, truth.json in {out}"
    )
    return EXIT_OK


def _record_realization(record: dio.ModelRecord) -> StateSpaceRealization:
    if record.b_tilde.shape[1] == 0:
        raise UsageError(f"model kind {record.kind!r} has no inputs")
    return realize(record)


def _cmd_compare(args) -> int:
    if (args.truth is None) == (args.model2 is None):
        raise UsageError("need exactly one of --truth or --model2")
    record = dio.read_model(args.model)
    ref_modes = None
    if args.truth is not None:
        truth, _ = dio.read_truth(args.truth)
        ref_eigs = truth.eigs_true
        ref_modes = truth.modes_true
        ref_label = "truth"
    else:
        record2 = dio.read_model(args.model2)
        ref_eigs = record2.eigenvalues
        ref_modes = record2.modes
        ref_label = "model2"
    if record.eigenvalues.shape[0] != np.asarray(ref_eigs).shape[0]:
        raise ShapeError(
            f"eigenvalue counts differ: model has {record.eigenvalues.shape[0]}, "
            f"{ref_label} has {np.asarray(ref_eigs).shape[0]}"
        )
    perm, dists = match_eigenvalues(record.eigenvalues, ref_eigs)
    sims = None
    if (
        ref_modes is not None
        and record.modes.shape[0] == np.asarray(ref_modes).shape[0]
        and record.modes.shape[1] == np.asarray(ref_modes).shape[1]
    ):
        sims = mode_cosine_similarities(
            record.modes, np.asarray(ref_modes)[:, perm]
        )
    if args.freqresp:
        omegas = _omega_grid(args)
        ss_a = _record_realization(record)
        if args.truth is not None:
            ss_b = realize_truth(truth)
        else:
            ss_b = _record_realization(record2)
        sig_a = frequency_response(ss_a, omegas).sigmas
        sig_b = frequency_response(ss_b, omegas).sigmas
        if sig_a.shape != sig_b.shape:
            raise ShapeError(
                f"frequency responses differ in shape: {sig_a.shape} vs {sig_b.shape}"
            )

    # every check has passed: only now create --out and write the tables
    out = _out_dir(args)
    rows = []
    for i, (j, d) in enumerate(zip(perm, dists)):
        z, w = record.eigenvalues[i], np.asarray(ref_eigs)[j]
        rows.append(_fmt_row([z.real, z.imag, w.real, w.imag, d]))
    _write_table(
        out / "eigen_compare.csv",
        ["model_re", "model_im", "ref_re", "ref_im", "abs_error"],
        rows,
    )
    print(f"spectral_distance={float(np.max(dists)) if dists.size else 0.0!r}")

    if sims is not None:
        _write_table(
            out / "mode_similarity.csv",
            ["mode", "cosine_similarity"],
            [f"{i},{repr(float(s))}" for i, s in enumerate(sims)],
        )
        print(f"min_mode_similarity={float(np.min(sims))!r}")

    if args.freqresp:
        rel = np.abs(sig_a - sig_b) / np.maximum(np.abs(sig_b), 1e-300)
        k = sig_a.shape[1]
        header = ["omega"]
        for i in range(1, k + 1):
            header += [f"sigma{i}_model", f"sigma{i}_ref", f"relgap{i}"]
        rows = []
        for i, w in enumerate(omegas):
            vals = [w]
            for j in range(k):
                vals += [sig_a[i, j], sig_b[i, j], rel[i, j]]
            rows.append(_fmt_row(vals))
        _write_table(out / "freq_compare.csv", header, rows)
        print(f"max_sigma_relative_gap={float(np.max(rel))!r}")
    return EXIT_OK


def _cmd_freqresp(args) -> int:
    if args.model is not None:
        if args.a or args.b or args.c:
            raise UsageError("--model excludes --a/--b/--c")
        ss = _record_realization(dio.read_model(args.model))
    else:
        if not (args.a and args.b and args.c):
            raise UsageError("need --model or all of --a, --b, --c")
        ss = StateSpaceRealization(
            a=_read_matrix(args.a), b=_read_matrix(args.b), c=_read_matrix(args.c)
        )
    curve = frequency_response(ss, _omega_grid(args), on_singular="mark")
    k = curve.sigmas.shape[1]
    header = ["omega", "status"] + [f"sigma{i}" for i in range(1, k + 1)]
    rows = [
        repr(float(w)) + (",singular" + "," * k if bad else ",ok," + _fmt_row(sig))
        for w, sig, bad in zip(curve.omegas, curve.sigmas, curve.singular)
    ]
    n_singular = int(np.sum(curve.singular))
    out = _out_dir(args)
    _write_table(out / "freqresp.csv", header, rows)
    print(
        f"freqresp: {curve.omegas.size} frequencies ({n_singular} singular), "
        f"wrote {out / 'freqresp.csv'}"
    )
    return EXIT_OK


_COMMANDS = {
    "fit": _cmd_fit,
    "fitc": _cmd_fitc,
    "synth": _cmd_synth,
    "compare": _cmd_compare,
    "freqresp": _cmd_freqresp,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except DmdcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FormatError.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
