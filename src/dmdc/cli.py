"""Command-line interface: fit, fitc, synth, compare, freqresp.

Every command is deterministic given its flags and seed, writes complete
files or nothing, and exits 0 on success. A failure exits with the code its
error class carries (the table is in dmdc.errors): 1 on usage errors, 2 on
file or format problems (an OSError included), 3 on numerical failures.
"""
from __future__ import annotations

import argparse
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


def _read_matrix(path, inputs: dict | None, key: str, transpose: bool = False,
                 shift_of: tuple[np.ndarray, bytes] | None = None,
                 ) -> tuple[np.ndarray, bytes | None]:
    """The matrix in the file at ``path`` and, for an untransposed CSV
    read, the bytes it was parsed from (else None).

    Unless ``inputs`` is None, the sha256 of the bytes is started as soon
    as they are read (``dio.sha256_digest``) and the pending digest stored
    as ``inputs[key]``; ``_write_fit`` waits for it. A command that writes no
    provenance passes None and computes no digest.

    ``shift_of`` is X and the CSV bytes it was parsed from, untransposed,
    when ``path`` names its X': a CSV X' is then read as X advanced one
    column when its bytes show it (``dio.read_shifted_csv``). A ``.bin``
    read is a read-only view of its bytes. A transposed read of either
    format is the transpose of the matrix read, a view with no copy.
    """
    path = Path(path)
    if not path.exists():
        raise FormatError(f"{path}: no such file")
    data = path.read_bytes()
    if inputs is not None:
        inputs[key] = dio.sha256_digest(data)
    if path.suffix == ".bin":
        m, data = dio.read_matrix_bin(path, data), None
    else:
        m = None if shift_of is None else dio.read_shifted_csv(*shift_of, data)
        if m is None:
            m = dio.read_matrix_csv(path, data)
    return (m.T, None) if transpose else (m, data)


def _read_pair(inputs: dict, x_path, xp_path,
               transpose: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read X and X'. An untransposed CSV X keeps its bytes to read X' as X
    advanced one column until X' is read; no other read returns them."""
    x, x_data = _read_matrix(x_path, inputs, "x", transpose)
    shift_of = None if x_data is None else (x, x_data)
    del x_data
    return x, _read_matrix(xp_path, inputs, "xp", transpose, shift_of)[0]


def _write_table(path, header: list[str], rows: list[str]) -> None:
    dio.write_text_atomic(path, "\n".join([",".join(header), *rows]) + "\n")


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

    # a generator flag that is not given is not set, so the generator's
    # own default applies
    p_synth = sub.add_parser("synth", help="generate a benchmark dataset",
                             argument_default=argparse.SUPPRESS)
    p_synth.add_argument("--example", type=int, choices=(1, 2, 3), required=True)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--m", type=int, help="snapshot count")
    p_synth.add_argument("--dt", type=float)
    p_synth.add_argument("--n", type=int, help="example 2 state dim")
    p_synth.add_argument("--l", type=int, help="example 2 input dim")
    p_synth.add_argument("--q", type=int, help="example 2 output dim")
    p_synth.add_argument("--grid", type=int, help="example 3 grid size")
    p_synth.add_argument("--modes", type=int, help="example 3 mode count")
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
    """Create --out and write the model record and its eigenvalue table.

    ``inputs`` maps each input's key to its pending digest, which is
    waited for here."""
    out = _out_dir(args)
    provenance = {
        "inputs": {key: "sha256:" + digest.result() for key, digest in inputs.items()},
        "truncation": {k: _trunc_provenance(v) for k, v in truncation.items()},
        "seed": None,
        "transpose_input": bool(args.transpose_input),
    }
    dio.write_model(dio.ModelRecord.from_model(model, provenance), out / "model.json")
    # abs(z) one eigenvalue at a time: np.abs on the array may differ in the last bit
    eigs = [[z.real, z.imag, abs(z)] for z in model.eigenvalues]
    _write_table(out / "eigenvalues.csv", ["re", "im", "magnitude"], dio.csv_lines(eigs))
    return out


def _cmd_fit(args) -> int:
    trunc = _trunc_policy(args.rank_r, args.svd_threshold)
    inputs = {}
    if args.traj is not None:
        if args.x is not None or args.xp is not None:
            raise UsageError("--traj excludes --x/--xp")
        traj = _read_matrix(args.traj, inputs, "traj", args.transpose_input)[0]
        x, xp = split_trajectory(traj)
    else:
        if args.x is None or args.xp is None:
            raise UsageError("need --traj or both --x and --xp")
        x, xp = _read_pair(inputs, args.x, args.xp, args.transpose_input)
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
    x, xp = _read_pair(inputs, args.x, args.xp, args.transpose_input)
    ups = _read_matrix(args.u, inputs, "u", args.transpose_input)[0]
    report = None
    if known_b:
        b = _read_matrix(args.b_matrix, inputs, "b")[0]
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
    # each example's generator and the flags it takes (--modes is n_modes)
    gen, takes = {
        1: (gen_example1, ("m", "dt")),
        2: (gen_example2, ("n", "l", "q", "m", "seed", "dt")),
        3: (gen_sparse_fourier, ("grid", "modes", "m", "seed", "actuation", "dt")),
    }[args.example]
    kwargs = {k: v for k, v in vars(args).items()
              if k not in ("command", "example", "out")}
    for flag in kwargs:
        if flag not in takes:
            raise UsageError(f"example {args.example} takes no --{flag}")
    if "actuation" in kwargs:
        kwargs["actuation"] = dio.read_actuation_spec(kwargs["actuation"])
    if "modes" in kwargs:
        kwargs["n_modes"] = kwargs.pop("modes")
    ds = gen(**kwargs)
    out = _out_dir(args)
    if args.example == 3:
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
    omegas = _omega_grid(args)
    record = dio.read_model(args.model)
    if args.truth is not None:
        truth, _ = dio.read_truth(args.truth)
        ref_eigs = truth.eigs_true
        ref_modes = truth.modes_true
        ref_label = "truth"
        # the measured dimension: C's rows, else the operator's, else the modes'
        measured = next((m for m in (truth.c_true, truth.a_true, truth.modes_true)
                         if m is not None), None)
        ref_dim = None if measured is None else measured.shape[0]
    else:
        record2 = dio.read_model(args.model2)
        ref_eigs = record2.eigenvalues
        ref_modes = record2.modes
        ref_label = "model2"
        ref_dim = record2.basis.shape[0]
    if ref_dim is not None and record.basis.shape[0] != ref_dim:
        raise ShapeError(
            f"state dimensions differ: model has {record.basis.shape[0]}, "
            f"{ref_label} has {ref_dim}"
        )
    if record.eigenvalues.shape[0] != np.asarray(ref_eigs).shape[0]:
        raise ShapeError(
            f"eigenvalue counts differ: model has {record.eigenvalues.shape[0]}, "
            f"{ref_label} has {np.asarray(ref_eigs).shape[0]}"
        )
    perm, dists = match_eigenvalues(record.eigenvalues, ref_eigs)
    sims = None
    if ref_modes is not None:
        sims = mode_cosine_similarities(record.modes, ref_modes[:, perm])
    if args.freqresp:
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
    z, w = record.eigenvalues, np.asarray(ref_eigs)[perm]
    _write_table(
        out / "eigen_compare.csv",
        ["model_re", "model_im", "ref_re", "ref_im", "abs_error"],
        dio.csv_lines(np.column_stack([z.real, z.imag, w.real, w.imag, dists])),
    )
    print(f"spectral_distance={float(np.max(dists)) if dists.size else 0.0!r}")

    if sims is not None:
        _write_table(
            out / "mode_similarity.csv",
            ["mode", "cosine_similarity"],
            [f"{i},{line}" for i, line in enumerate(dio.csv_lines(sims[:, None]))],
        )
        print(f"min_mode_similarity={float(np.min(sims))!r}")

    if args.freqresp:
        rel = np.abs(sig_a - sig_b) / np.maximum(np.abs(sig_b), 1e-300)
        k = sig_a.shape[1]
        header = ["omega"]
        for i in range(1, k + 1):
            header += [f"sigma{i}_model", f"sigma{i}_ref", f"relgap{i}"]
        # per frequency: omega, then (model, ref, relgap) for each sigma
        cells = np.stack([sig_a, sig_b, rel], axis=2).reshape(omegas.size, 3 * k)
        _write_table(out / "freq_compare.csv", header,
                     dio.csv_lines(np.column_stack([omegas, cells])))
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
            a=_read_matrix(args.a, None, "a")[0],
            b=_read_matrix(args.b, None, "b")[0],
            c=_read_matrix(args.c, None, "c")[0],
        )
    curve = frequency_response(ss, _omega_grid(args), on_singular="mark")
    k = curve.sigmas.shape[1]
    header = ["omega", "status"] + [f"sigma{i}" for i in range(1, k + 1)]
    rows = [
        w + (",singular" + "," * k if bad else ",ok," + sig)
        for w, sig, bad in zip(dio.csv_lines(curve.omegas[:, None]),
                               dio.csv_lines(curve.sigmas), curve.singular)
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
