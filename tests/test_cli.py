import dataclasses
import hashlib
import json
import os
import shutil
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

from dmdc import (
    SchemaError,
    StateSpaceRealization,
    default_frequency_grid,
    frequency_response,
    gen_example1,
    gen_example2,
    gen_sparse_fourier,
    match_eigenvalues,
    realize,
    realize_truth,
)
from dmdc import cli, errors
from dmdc import io as dio
from dmdc.cli import main
from helpers import (
    EX1_B,
    EX1_TRAJ,
    EX1_UPS,
    EX1_X,
    EX1_XP,
    is_mapped,
    modal_operator,
    peak_bytes,
    sensor_pair,
)


def _read_table(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    body = [line.split(",") for line in lines[1:]]
    return header, body


def _table_floats(path, col):
    header, body = _read_table(path)
    idx = header.index(col)
    return np.array([float(row[idx]) for row in body])


def _write_ex1(tmp_path):
    dio.write_matrix_csv(EX1_X, tmp_path / "x.csv")
    dio.write_matrix_csv(EX1_XP, tmp_path / "xp.csv")
    dio.write_matrix_csv(EX1_UPS, tmp_path / "u.csv")
    dio.write_matrix_csv(EX1_B, tmp_path / "b.csv")


def test_synth_example1_writes_benchmark(tmp_path):
    out = tmp_path / "ds"
    assert main(["synth", "--example", "1", "--out", str(out)]) == 0
    np.testing.assert_array_equal(dio.read_matrix_csv(out / "x.csv"), EX1_X)
    np.testing.assert_array_equal(dio.read_matrix_csv(out / "xp.csv"), EX1_XP)
    np.testing.assert_array_equal(
        dio.read_matrix_csv(out / "upsilon.csv"), EX1_UPS
    )
    truth, _ = dio.read_truth(out / "truth.json")
    np.testing.assert_allclose(truth.eigs_true, [1.5, 0.1], rtol=1e-14)


@pytest.mark.parametrize("flags, gen, kwargs", [
    (["--example", "1"], gen_example1, {}),
    (["--example", "2"], gen_example2, {}),
    (["--example", "2", "--m", "2"], gen_example2, {"m": 2}),  # a one-column pair
])
def test_synth_writes_the_pair_as_write_matrix_csv(tmp_path, flags, gen, kwargs):
    assert main(["synth", *flags, "--out", str(tmp_path / "ds")]) == 0
    ds = gen(**kwargs)
    for name, m in (("x", ds.x), ("xp", ds.xp)):
        dio.write_matrix_csv(m, tmp_path / f"{name}.csv")
        assert (tmp_path / "ds" / f"{name}.csv").read_bytes() == (
            tmp_path / f"{name}.csv").read_bytes()


def test_synth_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main([
            "synth", "--example", "3", "--grid", "16", "--modes", "3",
            "--m", "10", "--seed", "5", "--out", str(out),
        ]) == 0
    for name in ("x.bin", "xp.bin", "upsilon.csv", "truth.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_invalid_params_is_usage_error(tmp_path, capsys):
    code = main(["synth", "--example", "3", "--grid", "24",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "power of two" in capsys.readouterr().err
    out = tmp_path / "q"
    code = main(["synth", "--example", "2", "--n", "5", "--q", "3",
                 "--out", str(out)])
    assert code == 1
    assert "q >= n" in capsys.readouterr().err
    assert not out.exists()
    for example, seed in (("2", "-1"), ("3", "-5")):
        code = main(["synth", "--example", example, "--seed", seed, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"
        assert not out.exists()
    # a flag the example's generator does not take is refused, not dropped
    for example, flag, value in (("1", "--seed", "3"),
                                 ("1", "--actuation", str(tmp_path / "missing.json")),
                                 ("2", "--grid", "64"), ("3", "--q", "7")):
        code = main(["synth", "--example", example, flag, value, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: example {example} takes no {flag}\n"
        assert not out.exists()


@pytest.mark.parametrize("example", ["1", "2", "3"])
def test_synth_with_one_snapshot_is_a_usage_error(tmp_path, capsys, example):
    out = tmp_path / "o"
    assert main(["synth", "--example", example, "--m", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: need m >= 2 snapshots, got 1\n"
    assert not out.exists()


def test_synth_leaves_unset_flags_to_the_generator(tmp_path, monkeypatch):
    calls = {}
    small = {"gen_example1": {}, "gen_example2": {"q": 8, "m": 6},
             "gen_sparse_fourier": {"grid": 16, "m": 6}}
    for name, size in small.items():
        def spy(real=getattr(cli, name), name=name, size=size, **kwargs):
            calls[name] = kwargs
            return real(**size)
        monkeypatch.setattr(cli, name, spy)
    for example in ("1", "2", "3"):
        assert main(["synth", "--example", example,
                     "--out", str(tmp_path / example)]) == 0
    assert calls == {name: {} for name in small}


def test_fit_trajectory_eigen_table(tmp_path):
    a = np.diag([0.9, 0.2])
    traj = np.empty((2, 6))
    traj[:, 0] = [1.0, 1.0]
    for k in range(5):
        traj[:, k + 1] = a @ traj[:, k]
    dio.write_matrix_csv(traj, tmp_path / "traj.csv")
    out = tmp_path / "fit"
    assert main(["fit", "--traj", str(tmp_path / "traj.csv"),
                 "--out", str(out)]) == 0
    res = _table_floats(out / "eigenvalues.csv", "re")
    np.testing.assert_allclose(np.sort(res), [0.2, 0.9], atol=1e-8)
    record = dio.read_model(out / "model.json")
    assert record.kind == "dmd"
    assert record.provenance["inputs"]["traj"].startswith("sha256:")


def test_fit_missing_file_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main(["fit", "--traj", str(missing), "--out", str(tmp_path / "o")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_fit_example1_trajectory_shows_corruption(tmp_path):
    dio.write_matrix_csv(EX1_TRAJ, tmp_path / "traj.csv")
    out = tmp_path / "fit"
    assert main(["fit", "--traj", str(tmp_path / "traj.csv"),
                 "--out", str(out)]) == 0
    res = np.sort(_table_floats(out / "eigenvalues.csv", "re"))
    assert np.max(np.abs(res - np.array([0.1, 1.5]))) > 1e-3


def test_fit_usage_errors(tmp_path, capsys):
    assert main(["fit", "--out", str(tmp_path)]) == 1
    assert main(["fit", "--traj", "t.csv", "--x", "x.csv",
                 "--out", str(tmp_path)]) == 1
    assert main(["fit", "--traj", "t.csv", "--rank-r", "2",
                 "--svd-threshold", "0.1", "--out", str(tmp_path)]) == 1
    assert main(["fit", "--traj", "t.csv", "--rank-r", "0", "--out", str(tmp_path)]) == 1
    assert "rank must be >= 1, got 0" in capsys.readouterr().err
    assert main(["fit", "--traj", "t.csv", "--svd-threshold", "1.5",
                 "--out", str(tmp_path)]) == 1
    assert "--svd-threshold must lie in (0, 1), got 1.5" in capsys.readouterr().err


@pytest.mark.parametrize("flags, truncation", [
    pytest.param([], {"policy": "default-threshold", "value": 1e-10}, id="default"),
    pytest.param(["--svd-threshold", "0.01"], {"policy": "threshold", "value": 0.01},
                 id="threshold"),
])
def test_fit_records_its_truncation_policy(tmp_path, flags, truncation):
    dio.write_matrix_csv(EX1_TRAJ, tmp_path / "traj.csv")
    out = tmp_path / "fit"
    assert main(["fit", "--traj", str(tmp_path / "traj.csv"), *flags,
                 "--out", str(out)]) == 0
    record = dio.read_model(out / "model.json")
    assert record.provenance["truncation"] == {"r": truncation}


def test_fitc_known_b_recovers_example1(tmp_path):
    _write_ex1(tmp_path)
    out = tmp_path / "fitc"
    assert main([
        "fitc", "--x", str(tmp_path / "x.csv"), "--xp", str(tmp_path / "xp.csv"),
        "--u", str(tmp_path / "u.csv"), "--b-matrix", str(tmp_path / "b.csv"),
        "--out", str(out),
    ]) == 0
    res = np.sort(_table_floats(out / "eigenvalues.csv", "re"))
    np.testing.assert_allclose(res, [0.1, 1.5], atol=1e-10)
    assert dio.read_model(out / "model.json").kind == "dmdc-known-b"


def test_fitc_without_b_warns_collinear(tmp_path, capsys):
    _write_ex1(tmp_path)
    out = tmp_path / "fitc"
    assert main([
        "fitc", "--x", str(tmp_path / "x.csv"), "--xp", str(tmp_path / "xp.csv"),
        "--u", str(tmp_path / "u.csv"), "--out", str(out),
    ]) == 0
    captured = capsys.readouterr()
    assert "collinear input-state data" in captured.err
    assert "omega_rank=2" in captured.out
    assert "required_rank=3" in captured.out


def test_fitc_scalar_rich_tables(tmp_path):
    dio.write_matrix_csv(np.array([[1.0, 1.5, -0.25, 0.875]]), tmp_path / "x.csv")
    dio.write_matrix_csv(np.array([[1.5, -0.25, 0.875, 2.4375]]), tmp_path / "xp.csv")
    dio.write_matrix_csv(np.array([[1.0, -1.0, 1.0, 2.0]]), tmp_path / "u.csv")
    out = tmp_path / "fitc"
    assert main([
        "fitc", "--x", str(tmp_path / "x.csv"), "--xp", str(tmp_path / "xp.csv"),
        "--u", str(tmp_path / "u.csv"), "--out", str(out),
    ]) == 0
    np.testing.assert_allclose(
        _table_floats(out / "eigenvalues.csv", "re"), [0.5], atol=1e-10
    )
    np.testing.assert_allclose(
        dio.read_matrix_csv(out / "b_tilde.csv"), [[1.0]], atol=1e-10
    )


def test_fitc_known_b_has_one_rank(tmp_path, capsys):
    _write_ex1(tmp_path)
    argv = ["fitc", "--x", str(tmp_path / "x.csv"), "--xp", str(tmp_path / "xp.csv"),
            "--u", str(tmp_path / "u.csv"), "--b-matrix", str(tmp_path / "b.csv")]
    out = tmp_path / "fitc"
    assert main([*argv, "--rank-p", "2", "--out", str(out)]) == 1
    assert "--rank-p" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--rank-r", "1", "--out", str(out)]) == 0
    record = dio.read_model(out / "model.json")
    assert record.input_rank == record.output_rank == 1
    rank_1 = {"policy": "rank", "value": 1}
    assert record.provenance["truncation"] == {"p": rank_1, "r": rank_1}


def test_fitc_rank_order_usage_error_before_reading(tmp_path, capsys):
    code = main([
        "fitc", "--x", "missing.csv", "--xp", "missing.csv", "--u", "missing.csv",
        "--rank-p", "1", "--rank-r", "2", "--out", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "--rank-p" in capsys.readouterr().err


def test_compare_model_with_itself(tmp_path, capsys):
    _write_ex1(tmp_path)
    out = tmp_path / "fitc"
    main([
        "fitc", "--x", str(tmp_path / "x.csv"), "--xp", str(tmp_path / "xp.csv"),
        "--u", str(tmp_path / "u.csv"), "--b-matrix", str(tmp_path / "b.csv"),
        "--out", str(out),
    ])
    cmp_out = tmp_path / "cmp"
    assert main([
        "compare", "--model", str(out / "model.json"),
        "--model2", str(out / "model.json"), "--out", str(cmp_out),
    ]) == 0
    assert "spectral_distance=0.0" in capsys.readouterr().out
    errs = _table_floats(cmp_out / "eigen_compare.csv", "abs_error")
    np.testing.assert_array_equal(errs, 0.0)


def test_example3_pipeline_dmdc_beats_dmd(tmp_path):
    ds_dir = tmp_path / "ds"
    main(["synth", "--example", "3", "--grid", "16", "--modes", "3",
          "--m", "40", "--seed", "2", "--out", str(ds_dir)])
    fit_dir, fitc_dir = tmp_path / "fit", tmp_path / "fitc"
    assert main(["fit", "--x", str(ds_dir / "x.bin"),
                 "--xp", str(ds_dir / "xp.bin"), "--out", str(fit_dir)]) == 0
    assert main(["fitc", "--x", str(ds_dir / "x.bin"),
                 "--xp", str(ds_dir / "xp.bin"),
                 "--u", str(ds_dir / "upsilon.csv"), "--out", str(fitc_dir)]) == 0
    c1, c2 = tmp_path / "cmp_dmd", tmp_path / "cmp_dmdc"
    assert main(["compare", "--model", str(fit_dir / "model.json"),
                 "--truth", str(ds_dir / "truth.json"), "--out", str(c1)]) == 0
    assert main(["compare", "--model", str(fitc_dir / "model.json"),
                 "--truth", str(ds_dir / "truth.json"), "--out", str(c2)]) == 0
    dmd_err = _table_floats(c1 / "eigen_compare.csv", "abs_error").max()
    dmdc_err = _table_floats(c2 / "eigen_compare.csv", "abs_error").max()
    assert dmdc_err < dmd_err
    sims = _table_floats(c2 / "mode_similarity.csv", "cosine_similarity")
    assert sims.min() >= 0.99


def test_example2_freqresp_overlap(tmp_path, capsys):
    ds_dir = tmp_path / "ds"
    main(["synth", "--example", "2", "--n", "3", "--l", "2", "--q", "8",
          "--m", "40", "--seed", "9", "--out", str(ds_dir)])
    fit_dir = tmp_path / "fitc"
    assert main(["fitc", "--x", str(ds_dir / "x.csv"),
                 "--xp", str(ds_dir / "xp.csv"),
                 "--u", str(ds_dir / "upsilon.csv"), "--out", str(fit_dir)]) == 0
    cmp_dir = tmp_path / "cmp"
    assert main(["compare", "--model", str(fit_dir / "model.json"),
                 "--truth", str(ds_dir / "truth.json"), "--freqresp",
                 "--out", str(cmp_dir)]) == 0
    gaps = _table_floats(cmp_dir / "freq_compare.csv", "relgap1")
    assert gaps.max() <= 1e-6
    assert "max_sigma_relative_gap=" in capsys.readouterr().out


def test_tables_carry_the_library_floats_bit_for_bit(tmp_path):
    ds, fit, cmp, fr = (tmp_path / d for d in ("ds", "fitc", "cmp", "fr"))
    assert main(["synth", "--example", "2", "--out", str(ds)]) == 0
    assert main(["fitc", "--x", str(ds / "x.csv"), "--xp", str(ds / "xp.csv"),
                 "--u", str(ds / "upsilon.csv"), "--out", str(fit)]) == 0
    assert main(["compare", "--model", str(fit / "model.json"), "--truth",
                 str(ds / "truth.json"), "--freqresp", "--out", str(cmp)]) == 0
    assert main(["freqresp", "--model", str(fit / "model.json"), "--out", str(fr)]) == 0
    record = dio.read_model(fit / "model.json")
    truth, _ = dio.read_truth(ds / "truth.json")
    eigs = record.eigenvalues
    table = fit / "eigenvalues.csv"
    np.testing.assert_array_equal(_table_floats(table, "re"), eigs.real)
    np.testing.assert_array_equal(_table_floats(table, "im"), eigs.imag)
    magnitudes = [abs(z) for z in eigs]  # scalar abs, as the table takes it
    np.testing.assert_array_equal(_table_floats(table, "magnitude"), magnitudes)
    _, dists = match_eigenvalues(eigs, truth.eigs_true)
    np.testing.assert_array_equal(_table_floats(cmp / "eigen_compare.csv", "abs_error"),
                                  dists)
    omegas = default_frequency_grid()
    model_sig = frequency_response(realize(record), omegas).sigmas
    truth_sig = frequency_response(realize_truth(truth), omegas).sigmas
    assert model_sig.shape[1] == 2
    for i in (1, 2):
        for table, col, sig in ((cmp / "freq_compare.csv", f"sigma{i}_model", model_sig),
                                (cmp / "freq_compare.csv", f"sigma{i}_ref", truth_sig),
                                (fr / "freqresp.csv", f"sigma{i}", model_sig)):
            np.testing.assert_array_equal(_table_floats(table, col), sig[:, i - 1])


def test_freqresp_pure_delay(tmp_path):
    for name, mat in (
        ("a.csv", [[0.0]]), ("b.csv", [[1.0]]), ("c.csv", [[1.0]])
    ):
        dio.write_matrix_csv(np.array(mat), tmp_path / name)
    out = tmp_path / "fr"
    assert main([
        "freqresp", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
        "--c", str(tmp_path / "c.csv"), "--out", str(out),
    ]) == 0
    sig = _table_floats(out / "freqresp.csv", "sigma1")
    np.testing.assert_allclose(sig, 1.0, rtol=1e-12)
    assert len(sig) == 200


def test_freqresp_scalar_dc_value(tmp_path):
    for name, mat in (
        ("a.csv", [[0.5]]), ("b.csv", [[1.0]]), ("c.csv", [[1.0]])
    ):
        dio.write_matrix_csv(np.array(mat), tmp_path / name)
    out = tmp_path / "fr"
    assert main([
        "freqresp", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
        "--c", str(tmp_path / "c.csv"), "--out", str(out),
    ]) == 0
    sig = _table_floats(out / "freqresp.csv", "sigma1")
    np.testing.assert_allclose(sig[0], 2.0, atol=1e-3)


def test_freqresp_singular_row_flagged_run_continues(tmp_path):
    w0 = 0.5
    rot = [[np.cos(w0), -np.sin(w0)], [np.sin(w0), np.cos(w0)]]
    dio.write_matrix_csv(np.array(rot), tmp_path / "a.csv")
    dio.write_matrix_csv(np.ones((2, 1)), tmp_path / "b.csv")
    dio.write_matrix_csv(np.ones((1, 2)), tmp_path / "c.csv")
    out = tmp_path / "fr"
    assert main([
        "freqresp", "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"),
        "--c", str(tmp_path / "c.csv"),
        "--omega-min", repr(w0), "--omega-max", repr(w0),
        "--omega-count", "1", "--out", str(out),
    ]) == 0
    header, body = _read_table(out / "freqresp.csv")
    assert body[0][header.index("status")] == "singular"


def test_freqresp_dmd_model_rejected(tmp_path, capsys):
    traj = np.cumsum(np.ones((2, 6)), axis=1)
    dio.write_matrix_csv(traj, tmp_path / "traj.csv")
    fit_dir = tmp_path / "fit"
    main(["fit", "--traj", str(tmp_path / "traj.csv"), "--out", str(fit_dir)])
    code = main(["freqresp", "--model", str(fit_dir / "model.json"),
                 "--out", str(tmp_path / "fr")])
    assert code == 1
    assert "no inputs" in capsys.readouterr().err
    # a "dmd" index edited to carry an input map contradicts itself
    doc = json.loads((fit_dir / "model.json").read_text())
    doc["b_tilde"] = [[1.0] for _ in doc["a_tilde"]]
    (fit_dir / "model.json").write_text(json.dumps(doc))
    code = main(["freqresp", "--model", str(fit_dir / "model.json"),
                 "--out", str(tmp_path / "fr")])
    assert code == 2
    assert "b_tilde must have zero columns" in capsys.readouterr().err
    assert not (tmp_path / "fr").exists()


def test_unknown_subcommand_and_flags_are_usage_errors(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert main(["fit", "--bogus-flag", "--out", str(tmp_path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--model", "m.json", "--a", "a.csv"], "--model excludes --a/--b/--c",
                 id="model-and-a"),
    pytest.param(["--a", "a.csv"], "need --model or all of --a, --b, --c", id="a-alone"),
])
def test_freqresp_takes_a_model_or_three_matrices(tmp_path, capsys, flags, message):
    out = tmp_path / "fr"
    assert main(["freqresp", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_synth_with_actuation_spec_file(tmp_path):
    import json

    spec_path = tmp_path / "act.json"
    spec_path.write_text(json.dumps(
        {"center": [4.0, 4.0], "width": 2.0, "amplitude": -3.0}
    ))
    out = tmp_path / "ds"
    assert main([
        "synth", "--example", "3", "--grid", "16", "--modes", "2", "--m", "8",
        "--actuation", str(spec_path), "--out", str(out),
    ]) == 0
    truth, _ = dio.read_truth(out / "truth.json")
    bump = truth.b_true  # stronger actuation than the default spec
    default_out = tmp_path / "ds0"
    main(["synth", "--example", "3", "--grid", "16", "--modes", "2", "--m", "8",
          "--out", str(default_out)])
    default_truth, _ = dio.read_truth(default_out / "truth.json")
    assert np.linalg.norm(bump) != np.linalg.norm(default_truth.b_true)
    bad = tmp_path / "bad.json"
    for text, code in (
        ("{nope", 2), ("[1, 2]", 2), ('{"center": [1]}', 2),
        ('{"center": {"0": 1, "1": 2}}', 2), ('{"width": 1e400000}', 1),
        ('{"width": NaN}', 1), ('{"amplitude": Infinity}', 1),
        ('{"center": [NaN, 4.0]}', 1), ('{"center": [4.0, -Infinity]}', 1),
        ('{"width": 1' + "0" * 400 + "}", 2),
        # a mistyped key, a bool and a string are schema errors, never defaults
        ('{"widht": 2.0}', 2), ('{"amplitude": true}', 2), ('{"width": "3"}', 2),
        ('{"center": [4.0, "4"]}', 2), ('{"center": [true, 4.0]}', 2),
    ):
        bad.write_text(text)
        assert main([
            "synth", "--example", "3", "--grid", "16", "--modes", "2", "--m", "8",
            "--actuation", str(bad), "--out", str(tmp_path / "x"),
        ]) == code, text
        assert not (tmp_path / "x").exists()


def test_fit_transpose_input(tmp_path):
    a = np.diag([0.8, 0.3])
    traj = np.empty((2, 7))
    traj[:, 0] = [1.0, -1.0]
    for k in range(6):
        traj[:, k + 1] = a @ traj[:, k]
    dio.write_matrix_csv(traj.T, tmp_path / "rows_are_snapshots.csv")
    out = tmp_path / "fit"
    assert main([
        "fit", "--traj", str(tmp_path / "rows_are_snapshots.csv"),
        "--transpose-input", "--out", str(out),
    ]) == 0
    res = np.sort(_table_floats(out / "eigenvalues.csv", "re"))
    np.testing.assert_allclose(res, [0.3, 0.8], atol=1e-8)
    # the binary format is transposed the same way
    dio.write_matrix_bin(traj.T, tmp_path / "rows_are_snapshots.bin")
    out_bin = tmp_path / "fit_bin"
    assert main([
        "fit", "--traj", str(tmp_path / "rows_are_snapshots.bin"),
        "--transpose-input", "--out", str(out_bin),
    ]) == 0
    table = "eigenvalues.csv"
    assert (out_bin / table).read_bytes() == (out / table).read_bytes()


def test_transposed_read_is_a_view_for_both_formats(tmp_path, monkeypatch):
    # the sizes of test_fits_hold_no_snapshot_sized_temporaries
    x, xp, _, _ = sensor_pair(n=8192, m=40)
    unit = x.nbytes
    peaks, written = {}, {}
    writers = {".bin": dio.write_matrix_bin, ".csv": dio.write_matrix_csv}
    for suffix, write in writers.items():
        for transposed in (False, True):
            case = f"{suffix}{'T' if transposed else ''}"
            files = [tmp_path / f"{name}_{case}{suffix}" for name in ("x", "xp")]
            for m, path in zip((x, xp), files):
                write(m.T if transposed else m, path)
            out = tmp_path / f"fit_{case}"
            argv = ["fit", "--x", str(files[0]), "--xp", str(files[1]),
                    "--out", str(out)] + ["--transpose-input"] * transposed
            if suffix == ".bin":
                peaks[transposed] = peak_bytes(lambda: main(argv))
            else:
                assert main(argv) == 0
            record = dio.read_model(out / "model.json")
            written[case] = (
                {f.name: f.read_bytes() for f in out.iterdir() if f.suffix == ".bin"},
                (out / "eigenvalues.csv").read_bytes(),
                record.a_tilde.tobytes(), record.eigenvalues.tobytes(),
            )
    # a transposed .bin read is the view's transpose: no third n x m array
    assert peaks[True] <= peaks[False] + 0.1 * unit
    # a transposed read hands the fit the same matrix, so the same bits
    assert written[".binT"] == written[".bin"]
    assert written[".csvT"] == written[".csv"]
    # a transposed CSV read is the parsed array's transpose, not a copy;
    # argv is still the transposed CSV case's
    parsed, fitted = [], []
    read_csv, fit = dio.read_matrix_csv, cli.dmd_fit
    monkeypatch.setattr(dio, "read_matrix_csv",
                        lambda *a: parsed.append(read_csv(*a)) or parsed[-1])
    monkeypatch.setattr(cli, "dmd_fit", lambda x, *a: fitted.append(x) or fit(x, *a))
    assert main(argv + ["--out", str(tmp_path / "fit_view")]) == 0
    assert np.shares_memory(fitted[0], parsed[0])


def test_compare_two_models_freqresp(tmp_path, capsys):
    _write_ex1(tmp_path)
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    for out in (out1, out2):
        main([
            "fitc", "--x", str(tmp_path / "x.csv"),
            "--xp", str(tmp_path / "xp.csv"), "--u", str(tmp_path / "u.csv"),
            "--b-matrix", str(tmp_path / "b.csv"), "--out", str(out),
        ])
    cmp_out = tmp_path / "cmp"
    assert main([
        "compare", "--model", str(out1 / "model.json"),
        "--model2", str(out2 / "model.json"), "--freqresp",
        "--out", str(cmp_out),
    ]) == 0
    assert (cmp_out / "freq_compare.csv").exists()
    assert "max_sigma_relative_gap=0.0" in capsys.readouterr().out


def test_compare_requires_exactly_one_reference(tmp_path, capsys):
    assert main(["compare", "--model", "m.json", "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_console_entry_subprocess(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "ds"
    proc = subprocess.run(
        [sys.executable, "-m", "dmdc.cli", "synth", "--example", "1",
         "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    np.testing.assert_array_equal(dio.read_matrix_csv(out / "x.csv"), EX1_X)


# Runs in a fresh interpreter: each stage records its exit codes and the
# scipy modules loaded so far, and the last stdout line is the record.
_COLD_START = """
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

stages = []
import dmdc
stages.append(["import dmdc", [], scipy_modules()])
from dmdc import cli, io as dio
stages.append(["import dmdc.cli", [], scipy_modules()])
d = Path(sys.argv[1])
ds = d / "ds"
data = ["--x", str(ds / "x.csv"), "--xp", str(ds / "xp.csv")]
codes = [cli.main(["synth", "--example", "2", "--out", str(ds)])]
truth, _ = dio.read_truth(ds / "truth.json")
dio.write_matrix_csv(truth.c_true @ truth.b_true, d / "b.csv")
codes.append(cli.main(["fit", *data, "--out", str(d / "fit")]))
data += ["--u", str(ds / "upsilon.csv")]
codes.append(cli.main(["fitc", *data, "--out", str(d / "fitc")]))
codes.append(cli.main(["fitc", *data, "--b-matrix", str(d / "b.csv"),
                       "--out", str(d / "fitc_b")]))
stages.append(["synth, fit, fitc", codes, scipy_modules()])
model = str(d / "fitc" / "model.json")
codes = [cli.main(["freqresp", "--model", model, "--out", str(d / "fr")])]
codes.append(cli.main(["compare", "--model", model, "--truth", str(ds / "truth.json"),
                       "--freqresp", "--out", str(d / "cmp")]))
stages.append(["freqresp, compare", codes, scipy_modules()])
print(json.dumps(stages))
"""


def test_cold_start_loads_scipy_only_for_freqresp_and_compare(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.splitlines()[-1])
    assert [label for label, _, _ in stages] == [
        "import dmdc", "import dmdc.cli", "synth, fit, fitc", "freqresp, compare",
    ]
    for label, codes, scipy in stages[:3]:
        assert codes == [0] * len(codes) and scipy == [], label
    label, codes, scipy = stages[3]
    assert codes == [0, 0]
    assert {"scipy.linalg", "scipy.optimize"} <= set(scipy)
    assert (tmp_path / "fr" / "freqresp.csv").exists()
    assert (tmp_path / "cmp" / "freq_compare.csv").exists()


@pytest.mark.parametrize("suffix", [".csv", ".bin"])
def test_fitc_reads_each_input_once_and_records_its_digest(tmp_path, monkeypatch, suffix):
    import builtins
    import io

    write = dio.write_matrix_csv if suffix == ".csv" else dio.write_matrix_bin
    files = {"x": tmp_path / f"x{suffix}", "xp": tmp_path / f"xp{suffix}",
             "u": tmp_path / "u.csv", "b": tmp_path / "b.csv"}
    for key, m in (("x", EX1_X), ("xp", EX1_XP)):
        write(m, files[key])
    dio.write_matrix_csv(EX1_UPS, files["u"])
    dio.write_matrix_csv(EX1_B, files["b"])
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        if not isinstance(file, int):
            opened.append(os.path.realpath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    out = tmp_path / "fitc"
    assert main(["fitc", "--x", str(files["x"]), "--xp", str(files["xp"]),
                 "--u", str(files["u"]), "--b-matrix", str(files["b"]),
                 "--out", str(out)]) == 0
    monkeypatch.undo()
    for path in files.values():
        assert opened.count(os.path.realpath(path)) == 1, path
    inputs = dio.read_model(out / "model.json").provenance["inputs"]
    assert inputs == {
        key: "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
        for key, path in files.items()
    }


def test_fit_on_large_inputs_records_their_digests(tmp_path, monkeypatch):
    # files past the cut are hashed on threads of their own while the fit runs
    ds = gen_sparse_fourier(grid=64, n_modes=3, m=40, seed=6)
    files = {"x": tmp_path / "x.bin", "xp": tmp_path / "xp.bin"}
    for key, path in files.items():
        dio.write_matrix_bin(getattr(ds, key), path)
        assert path.stat().st_size >= dio.DIGEST_THREAD_MIN_BYTES
    hashed_on = []
    real = dio._hexdigest

    def recording(data):
        hashed_on.append(threading.current_thread().name)
        return real(data)

    monkeypatch.setattr(dio, "_hexdigest", recording)
    out = tmp_path / "fit"
    assert main(["fit", "--x", str(files["x"]), "--xp", str(files["xp"]),
                 "--out", str(out)]) == 0
    assert hashed_on.count("dmdc-sha256") >= 2
    inputs = dio.read_model(out / "model.json").provenance["inputs"]
    assert inputs == {
        key: "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
        for key, path in files.items()
    }


def test_large_bin_inputs_are_fitted_mapped_and_still_checked(tmp_path, monkeypatch,
                                                              capsys):
    ds = gen_sparse_fourier(grid=64, n_modes=3, m=40, seed=6)
    files = {"x": tmp_path / "x.bin", "xp": tmp_path / "xp.bin"}
    for key, path in files.items():
        dio.write_matrix_bin(getattr(ds, key), path)
    fitted, fit = [], cli.dmd_fit
    monkeypatch.setattr(cli, "dmd_fit", lambda *a: fitted.extend(a[:2]) or fit(*a))
    assert main(["fit", "--x", str(files["x"]), "--xp", str(files["xp"]),
                 "--out", str(tmp_path / "fit")]) == 0
    assert len(fitted) == 2 and all(is_mapped(m) for m in fitted)
    raw = files["x"].read_bytes()
    for name, data, message in (("short", raw[:-8], "payload"),
                                ("magic", b"DMDCMAT0" + raw[8:], "magic")):
        bad, out = tmp_path / f"{name}.bin", tmp_path / f"fit_{name}"
        bad.write_bytes(data)
        assert main(["fit", "--x", str(bad), "--xp", str(files["xp"]),
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_fit_on_small_inputs_starts_no_thread(tmp_path, monkeypatch):
    for name, m in (("x", EX1_X), ("xp", EX1_XP), ("u", EX1_UPS)):
        dio.write_matrix_csv(m, tmp_path / f"{name}.csv")

    def no_thread(self):
        raise AssertionError(f"started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert main(["fitc", "--x", str(tmp_path / "x.csv"), "--xp", str(tmp_path / "xp.csv"),
                 "--u", str(tmp_path / "u.csv"), "--out", str(tmp_path / "fitc")]) == 0
    assert main(["compare", "--model", str(tmp_path / "fitc" / "model.json"),
                 "--model2", str(tmp_path / "fitc" / "model.json"),
                 "--out", str(tmp_path / "cmp")]) == 0


def test_input_digest_error_surfaces_from_the_cli(tmp_path, monkeypatch):
    dio.write_matrix_csv(EX1_X, tmp_path / "x.csv")
    dio.write_matrix_csv(EX1_XP, tmp_path / "xp.csv")

    class Boom(Exception):
        pass

    def failing(data):
        raise Boom("hash failed")

    monkeypatch.setattr(dio, "DIGEST_THREAD_MIN_BYTES", 0)
    monkeypatch.setattr(dio, "_hexdigest", failing)
    out = tmp_path / "fit"
    with pytest.raises(Boom):
        main(["fit", "--x", str(tmp_path / "x.csv"), "--xp", str(tmp_path / "xp.csv"),
              "--out", str(out)])
    assert not (out / "model.json").exists()


@pytest.mark.parametrize("cut", ["default", "worker"])
def test_replaced_sidecar_fails_compare_and_freqresp(tmp_path, monkeypatch, capsys, cut):
    if cut == "worker":
        monkeypatch.setattr(dio, "DIGEST_THREAD_MIN_BYTES", 0)
    ds = tmp_path / "ds"
    assert main(["synth", "--example", "3", "--grid", "16", "--modes", "2",
                 "--m", "20", "--out", str(ds)]) == 0
    fit = tmp_path / "fitc"
    assert main(["fitc", "--x", str(ds / "x.bin"), "--xp", str(ds / "xp.bin"),
                 "--u", str(ds / "upsilon.csv"), "--out", str(fit)]) == 0
    basis = dio.read_matrix_bin(fit / "model_basis.bin")
    # a well-formed matrix of the same shape, but not the one indexed
    dio.write_matrix_bin(-basis, fit / "model_basis.bin")
    capsys.readouterr()
    for argv in (["compare", "--model", str(fit / "model.json"),
                  "--truth", str(ds / "truth.json"), "--out", str(tmp_path / "cmp")],
                 ["freqresp", "--model", str(fit / "model.json"),
                  "--out", str(tmp_path / "fr")]):
        assert main(argv) == 2
        assert "model_basis.bin does not match its sha256 digest" in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists() and not (tmp_path / "fr").exists()


def test_freqresp_from_matrices_computes_no_digest(tmp_path, monkeypatch):
    truth = gen_example2(n=3, l=1, q=6, m=10, seed=1).truth
    names = {"a": truth.a_true, "b": truth.b_true, "c": truth.c_true}
    for name, m in names.items():
        dio.write_matrix_csv(m, tmp_path / f"{name}.csv")

    def no_digest(data):
        raise AssertionError("freqresp --a/--b/--c computed a digest")

    monkeypatch.setattr(dio, "Sha256Digest", no_digest)
    monkeypatch.setattr(hashlib, "sha256", no_digest)
    out = tmp_path / "fr"
    assert main(["freqresp", *[f"--{k}={tmp_path / k}.csv" for k in names],
                 "--out", str(out)]) == 0
    monkeypatch.undo()
    ss = StateSpaceRealization(*(dio.read_matrix_csv(tmp_path / f"{k}.csv") for k in names))
    sig = frequency_response(ss, default_frequency_grid()).sigmas
    header, body = _read_table(out / "freqresp.csv")
    assert header == ["omega", "status", "sigma1"]
    assert [row[1] for row in body] == ["ok"] * len(sig)
    np.testing.assert_array_equal(_table_floats(out / "freqresp.csv", "sigma1"), sig[:, 0])


def _example2_pair(tmp_path, case):
    """fitc's X, X' and U files for one way of passing example 2's pair."""
    ds = tmp_path / "ds"
    assert main(["synth", "--example", "2", "--out", str(ds)]) == 0
    files = [ds / "x.csv", ds / "xp.csv", ds / "upsilon.csv"]
    if case == "swapped":
        files[:2] = files[1::-1]
    elif case == "transposed":
        for i, path in enumerate(files):
            files[i] = tmp_path / f"{path.stem}_t.csv"
            dio.write_matrix_csv(dio.read_matrix_csv(path).T, files[i])
    elif case == "bin":
        for i, path in enumerate(files[:2]):
            files[i] = tmp_path / f"{path.stem}.bin"
            dio.write_matrix_bin(dio.read_matrix_csv(path), files[i])
    return files


@pytest.mark.parametrize("case", ["shift", "swapped", "transposed", "bin"])
def test_fitc_parses_a_shifted_xp_once(tmp_path, monkeypatch, capsys, case):
    x, xp, u = _example2_pair(tmp_path, case)
    capsys.readouterr()
    out = tmp_path / "fitc"
    argv = ["fitc", "--x", str(x), "--xp", str(xp), "--u", str(u), "--out", str(out)]
    if case == "transposed":
        argv.append("--transpose-input")
    parsed = []
    for name in ("read_matrix_csv", "read_matrix_bin"):
        def counting(path, data=None, _read=getattr(dio, name)):
            parsed.append(Path(path).name)
            return _read(path, data)
        monkeypatch.setattr(dio, name, counting)
    written = []
    for full_parse in (False, True):
        if full_parse:
            # the files written when every X' is parsed in full
            monkeypatch.setattr(dio, "read_shifted_csv", lambda *args: None)
            shutil.rmtree(out)
        assert main(argv) == 0
        written.append((capsys.readouterr().out,
                        {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
        if not full_parse:
            assert x.name in parsed
            assert (xp.name in parsed) == (case != "shift"), parsed
    assert written[0] == written[1]
    assert {"model.json", "model_basis.bin", "eigenvalues.csv",
            "b_tilde.csv"} <= written[0][1].keys()


def _fit_example1_traj(tmp_path):
    dio.write_matrix_csv(EX1_TRAJ, tmp_path / "traj.csv")
    out = tmp_path / "fit"
    assert main(["fit", "--traj", str(tmp_path / "traj.csv"),
                 "--out", str(out)]) == 0
    return out


def test_fit_output_is_index_sidecars_and_table(tmp_path):
    out = _fit_example1_traj(tmp_path)
    assert sorted(f.name for f in out.iterdir()) == [
        "eigenvalues.csv", "model.json", "model_basis.bin",
        "model_modes_im.bin", "model_modes_re.bin",
    ]


def test_failing_compare_leaves_no_output_directory(tmp_path, capsys):
    fit = _fit_example1_traj(tmp_path)
    assert main(["synth", "--example", "1", "--out", str(tmp_path / "ds")]) == 0
    cmp_out = tmp_path / "cmp"
    code = main(["compare", "--model", str(fit / "model.json"),
                 "--truth", str(tmp_path / "ds" / "truth.json"), "--freqresp",
                 "--out", str(cmp_out)])
    assert code == 1
    assert "no inputs" in capsys.readouterr().err
    assert not cmp_out.exists()
    # a bad frequency grid is refused with or without --freqresp
    for freqresp in (["--freqresp"], []):
        for grid, flag in ((["--omega-count", "0"], "--omega-count"),
                           (["--omega-min", "2", "--omega-max", "1"], "--omega-min")):
            code = main(["compare", "--model", str(fit / "model.json"),
                         "--model2", str(fit / "model.json"), *freqresp,
                         *grid, "--out", str(cmp_out)])
            assert code == 1
            assert flag in capsys.readouterr().err
            assert not cmp_out.exists()


@pytest.mark.parametrize("flags2, message", [
    pytest.param(["--rank-r", "1"], "spectra differ in size: 2 vs 1", id="eigenvalue-count"),
    pytest.param(["--u", "u2.csv", "--b-matrix", "b2.csv"],
                 "frequency responses differ in shape: (200, 1) vs (200, 2)",
                 id="input-count"),
])
def test_compare_rejects_a_reference_of_another_shape(tmp_path, monkeypatch, capsys,
                                                      flags2, message):
    # both models fit example 1's two states; the reference differs in its
    # eigenvalue count or its input count
    monkeypatch.chdir(tmp_path)
    _write_ex1(tmp_path)
    dio.write_matrix_csv(np.vstack([EX1_UPS, [1.0, 0.0, -1.0, 2.0]]), "u2.csv")
    dio.write_matrix_csv(np.hstack([EX1_B, [[0.5], [1.0]]]), "b2.csv")
    fitc = ["fitc", "--x", "x.csv", "--xp", "xp.csv", "--u", "u.csv", "--b-matrix", "b.csv"]
    assert main([*fitc, "--out", "m1"]) == 0
    assert main([*fitc, *flags2, "--out", "m2"]) == 0
    capsys.readouterr()
    assert main(["compare", "--model", "m1/model.json", "--model2", "m2/model.json",
                 "--freqresp", "--out", "cmp"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "cmp").exists()


def test_compare_example1_truth_freqresp(ex1_files, tmp_path, capsys):
    # example 1's truth has an a_true and no c_true: C = I
    model, truth = ex1_files
    out = tmp_path / "cmp"
    capsys.readouterr()
    assert main(["compare", "--model", str(model), "--truth", str(truth), "--freqresp",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert float(printed.split("max_sigma_relative_gap=")[1].split()[0]) <= 1e-10
    header, body = _read_table(out / "freq_compare.csv")
    assert header == ["omega", "sigma1_model", "sigma1_ref", "relgap1"]
    assert len(body) == 200


def test_compare_missing_sidecar_exits_2(tmp_path, capsys):
    out = _fit_example1_traj(tmp_path)
    (out / "model_modes_re.bin").unlink()
    code = main(["compare", "--model", str(out / "model.json"),
                 "--model2", str(out / "model.json"), "--out", str(tmp_path / "c")])
    assert code == 2
    assert "model_modes_re.bin" in capsys.readouterr().err


@pytest.mark.parametrize("dt", ["nan", "-1", "0", "inf"])
def test_fit_rejects_bad_dt(tmp_path, capsys, dt):
    dio.write_matrix_csv(EX1_TRAJ, tmp_path / "traj.csv")
    _write_ex1(tmp_path)
    code = main(["fit", "--traj", str(tmp_path / "traj.csv"), f"--dt={dt}",
                 "--out", str(tmp_path / "fit")])
    assert code == 1
    assert "dt must be finite and positive" in capsys.readouterr().err
    code = main(["fitc", "--x", str(tmp_path / "x.csv"),
                 "--xp", str(tmp_path / "xp.csv"), "--u", str(tmp_path / "u.csv"),
                 f"--dt={dt}", "--out", str(tmp_path / "fitc")])
    assert code == 1
    assert not (tmp_path / "fit").exists() and not (tmp_path / "fitc").exists()
    capsys.readouterr()
    for example in (["1"], ["2", "--q", "8"], ["3", "--grid", "16", "--m", "6"]):
        code = main(["synth", "--example", *example, f"--dt={dt}",
                     "--out", str(tmp_path / "synth")])
        assert code == 1
        assert "dt must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "synth").exists()


def test_example3_grid64_compare_truth_freqresp(tmp_path, capsys):
    ds_dir, fit_dir = tmp_path / "ds", tmp_path / "fitc"
    assert main(["synth", "--example", "3", "--grid", "64", "--seed", "6",
                 "--out", str(ds_dir)]) == 0
    truth, _ = dio.read_truth(ds_dir / "truth.json")
    assert truth.a_true is None  # example 3's truth is modal
    assert main(["fitc", "--x", str(ds_dir / "x.bin"),
                 "--xp", str(ds_dir / "xp.bin"),
                 "--u", str(ds_dir / "upsilon.csv"), "--out", str(fit_dir)]) == 0
    capsys.readouterr()
    assert main(["compare", "--model", str(fit_dir / "model.json"),
                 "--truth", str(ds_dir / "truth.json"), "--freqresp",
                 "--out", str(tmp_path / "cmp")]) == 0
    printed = capsys.readouterr().out
    gap = float(printed.split("max_sigma_relative_gap=")[1].split()[0])
    assert gap <= 1e-6
    assert _table_floats(tmp_path / "cmp" / "freq_compare.csv", "relgap1").max() <= 1e-6


def test_example3_grid32_modal_truth_compare_freqresp(tmp_path, capsys):
    ds_dir, fit_dir = tmp_path / "ds", tmp_path / "fitc"
    assert main(["synth", "--example", "3", "--grid", "32", "--seed", "6",
                 "--out", str(ds_dir)]) == 0
    truth, _ = dio.read_truth(ds_dir / "truth.json")
    assert truth.a_true is None
    assert realize_truth(truth).order == 10  # 2k for the default 5 mode pairs
    assert main(["fitc", "--x", str(ds_dir / "x.bin"),
                 "--xp", str(ds_dir / "xp.bin"),
                 "--u", str(ds_dir / "upsilon.csv"), "--out", str(fit_dir)]) == 0
    capsys.readouterr()
    assert main(["compare", "--model", str(fit_dir / "model.json"),
                 "--truth", str(ds_dir / "truth.json"), "--freqresp",
                 "--omega-count", "50", "--out", str(tmp_path / "cmp")]) == 0
    printed = capsys.readouterr().out
    gap = float(printed.split("max_sigma_relative_gap=")[1].split()[0])
    assert gap <= 1e-6


def test_outputs_follow_umask(tmp_path):
    ds_dir, fit_dir = tmp_path / "ds", tmp_path / "fitc"
    old = os.umask(0o022)
    try:
        assert main(["synth", "--example", "3", "--grid", "16", "--seed", "6",
                     "--out", str(ds_dir)]) == 0
        assert main(["fitc", "--x", str(ds_dir / "x.bin"),
                     "--xp", str(ds_dir / "xp.bin"),
                     "--u", str(ds_dir / "upsilon.csv"), "--out", str(fit_dir)]) == 0
    finally:
        os.umask(old)
    written = [ds_dir / "x.bin", fit_dir / "model.json", *fit_dir.glob("model_*.bin")]
    assert len(written) == 5
    for path in written:
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name


def test_modal_truth_realization_matches_dense():
    truth = gen_sparse_fourier(grid=32, n_modes=5, m=10, seed=8).truth
    dense = modal_operator(truth)
    modal = realize_truth(truth)
    assert modal.order == 10
    np.testing.assert_allclose(modal.c.T @ modal.c, np.eye(10), atol=1e-12)
    lifted = modal.c @ modal.a @ modal.c.T
    assert np.linalg.norm(lifted - dense) <= 1e-10 * np.linalg.norm(dense)
    z = np.exp(0.3j)
    g_dense = np.linalg.solve(z * np.eye(dense.shape[0]) - dense, truth.b_true)
    g_modal = modal.c @ np.linalg.solve(z * np.eye(modal.order) - modal.a, modal.b)
    assert np.linalg.norm(g_modal - g_dense) <= 1e-10 * np.linalg.norm(g_dense)


def test_modal_truth_rejects_input_map_off_span():
    truth = gen_sparse_fourier(grid=16, n_modes=2, m=6, seed=8).truth
    off = np.ones_like(truth.b_true)  # the constant field is not an active mode
    with pytest.raises(SchemaError, match="span"):
        realize_truth(dataclasses.replace(truth, b_true=off))


def _synth_fitc(tmp_path, name, *example):
    """Synthesize a dataset and fit it with unknown B; return both paths."""
    ds, fit = tmp_path / f"{name}_ds", tmp_path / f"{name}_fitc"
    assert main(["synth", "--example", *example, "--out", str(ds)]) == 0
    ext = "bin" if example[0] == "3" else "csv"
    assert main(["fitc", "--x", str(ds / f"x.{ext}"), "--xp", str(ds / f"xp.{ext}"),
                 "--u", str(ds / "upsilon.csv"), "--out", str(fit)]) == 0
    return ds, fit / "model.json"


def _dense_example2_truth(truth):
    """The effective (C A C^T, C B) that example 2 used to record."""
    c = truth.c_true
    return dataclasses.replace(truth, a_true=c @ truth.a_true @ c.T,
                               b_true=c @ truth.b_true, c_true=None)


def _dense_example3_truth(truth):
    """The full-grid operator that example 3 used to record next to its modes."""
    return dataclasses.replace(truth, a_true=modal_operator(truth))


@pytest.mark.parametrize("example, make_old", [
    pytest.param(("2", "--q", "20", "--m", "40"), _dense_example2_truth,
                 id="example2-effective"),
    pytest.param(("3", "--grid", "16", "--modes", "3", "--m", "30"),
                 _dense_example3_truth, id="example3-grid16-dense"),
])
def test_compare_rejects_truth_from_older_version(tmp_path, capsys, example, make_old):
    ds, model = _synth_fitc(tmp_path, "new", *example)
    truth, dt = dio.read_truth(ds / "truth.json")
    old = tmp_path / "old" / "truth.json"
    old.parent.mkdir()
    dio.write_truth(make_old(truth), old, dt=dt)
    capsys.readouterr()
    for ref, code in ((old, 2), (ds / "truth.json", 0)):
        cmp_out = tmp_path / f"cmp_{code}"
        assert main(["compare", "--model", str(model), "--truth", str(ref),
                     "--freqresp", "--out", str(cmp_out)]) == code
        assert cmp_out.exists() == (code == 0)
    err = capsys.readouterr().err
    assert str(old) in err and "regenerate" in err


def test_compare_rejects_reference_of_another_state_dimension(tmp_path, capsys):
    _, model50 = _synth_fitc(tmp_path, "q50", "2", "--q", "50")
    ds100, model100 = _synth_fitc(tmp_path, "q100", "2", "--q", "100")
    capsys.readouterr()
    for ref in (["--truth", str(ds100 / "truth.json")], ["--model2", str(model100)]):
        cmp_out = tmp_path / "cmp"
        assert main(["compare", "--model", str(model50), *ref, "--freqresp",
                     "--out", str(cmp_out)]) == 2
        assert "state dimensions differ: model has 50" in capsys.readouterr().err
        assert not cmp_out.exists()


# The documented exit code of every error class, written out here so that a
# class added to dmdc.errors without a row fails the walk below.
EXIT_CODES = {
    "UsageError": 1,
    "InvalidConfigError": 1,
    "TruncationOrderError": 1,
    "FormatError": 2,
    "ParseError": 2,
    "SchemaError": 2,
    "LengthError": 2,
    "ShapeError": 2,
    "InsufficientDataError": 2,
    "InvalidInputError": 2,
    "DmdcError": 3,
    "DegenerateMatrixError": 3,
    "NumericalFailureError": 3,
    "DivergenceError": 3,
    "SingularFrequencyError": 3,
    "OSError": 2,
}
ERROR_CLASSES = [
    c for c in vars(errors).values()
    if isinstance(c, type) and issubclass(c, errors.DmdcError)
]


def test_exit_code_table_names_every_error_class():
    assert {c.__name__ for c in ERROR_CLASSES} | {"OSError"} == EXIT_CODES.keys()


@pytest.mark.parametrize(
    "exc_type", ERROR_CLASSES + [OSError], ids=lambda c: c.__name__
)
def test_exit_code_of_every_error_class(monkeypatch, capsys, tmp_path, exc_type):
    def command(args):
        raise exc_type("boom")

    monkeypatch.setitem(cli._COMMANDS, "fit", command)
    assert main(["fit", "--out", str(tmp_path)]) == EXIT_CODES[exc_type.__name__]
    assert capsys.readouterr().err.startswith("error: ")


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


NOT_UTF8 = b"1,2\n\xff\xfe,3\n"


@pytest.fixture
def ex1_files(tmp_path):
    """Example-1 dataset and a known-B model fitted to it."""
    _write_ex1(tmp_path)
    assert main(["synth", "--example", "1", "--out", str(tmp_path / "ds")]) == 0
    assert main(["fitc", "--x", str(tmp_path / "x.csv"),
                 "--xp", str(tmp_path / "xp.csv"), "--u", str(tmp_path / "u.csv"),
                 "--b-matrix", str(tmp_path / "b.csv"),
                 "--out", str(tmp_path / "fitc")]) == 0
    return tmp_path / "fitc" / "model.json", tmp_path / "ds" / "truth.json"


@pytest.mark.parametrize("target, edit", [
    pytest.param("model", NOT_UTF8, id="model-not-utf8"),
    pytest.param("truth", NOT_UTF8, id="truth-not-utf8"),
    pytest.param("model", b"[" * 100000 + b"]" * 100000, id="model-deep-array"),
    pytest.param("truth", b"[" * 100000 + b"]" * 100000, id="truth-deep-array"),
    pytest.param("model", b"[" + b"9" * 5000 + b"]", id="model-long-integer"),
    *(pytest.param("model", (field, value), id=f"{field}-{value}")
      for field in ("a_tilde", "b_tilde") for value in ([5], [1, 2])),
    *(pytest.param("truth", ("eigenvalues", value), id=f"eigenvalues-{value}")
      for value in (5, None, True, 1.5)),
    pytest.param("model", ("dt", 10**400), id="model-dt-big-int"),
    pytest.param("truth", ("dt", 10**400), id="truth-dt-big-int"),
    pytest.param("model", ("dt", [1.0, "0x1p99999"]), id="dt-hex-overflow"),
    pytest.param("model", ("dt", 1e400), id="model-dt-inf"),
    pytest.param("model", (("basis", "file"), "model\0basis.bin"), id="nul-sidecar"),
    pytest.param("truth", (("files", "b_true", "file"), "t\0.bin"), id="truth-nul-sidecar"),
])
def test_malformed_model_and_truth_exit_2(ex1_files, capsys, tmp_path, target, edit):
    model, truth = ex1_files
    path = model if target == "model" else truth
    if isinstance(edit, bytes):
        path.write_bytes(edit)
    else:
        doc = json.loads(path.read_text())
        key, value = edit
        _set(doc, key if isinstance(key, tuple) else (key,), value)
        path.write_text(json.dumps(doc))
    argv = ["compare", "--model", str(model), "--out", str(tmp_path / "cmp")]
    argv += ["--truth", str(truth)] if target == "truth" else ["--model2", str(model)]
    assert main(argv) == 2
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "cmp").exists()


def test_non_utf8_matrix_exits_2(tmp_path, capsys):
    bad = tmp_path / "traj.csv"
    bad.write_bytes(NOT_UTF8)
    assert main(["fit", "--traj", str(bad), "--out", str(tmp_path / "fit")]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def _as_decimal_hex_pairs(doc):
    """Rewrite an index in the old format: every float a [decimal, hex] pair."""
    def pair(v):
        return [v, float(v).hex()]

    doc["dt"] = pair(doc["dt"])
    doc["eigenvalues"] = [[pair(re), pair(im)] for re, im in doc["eigenvalues"]]
    for key in ("a_tilde", "b_tilde"):
        if key in doc:
            doc[key] = [[pair(v) for v in row] for row in doc[key]]


def _set_first_eigenvalue(value):
    def edit(doc):
        doc["eigenvalues"][0][0] = value
    return edit


@pytest.mark.parametrize("target, edit, message", [
    pytest.param("model", _set_first_eigenvalue(float("inf")), "non-finite value inf",
                 id="model-eig-inf"),
    pytest.param("truth", _set_first_eigenvalue(float("nan")), "non-finite value nan",
                 id="truth-eig-nan"),
    pytest.param("model", _as_decimal_hex_pairs, "expected a number, got list",
                 id="model-decimal-hex"),
    pytest.param("truth", _as_decimal_hex_pairs, "expected a number, got list",
                 id="truth-decimal-hex"),
])
def test_compare_truth_rejects_index_numbers_exit_2(ex1_files, capsys, tmp_path,
                                                    target, edit, message):
    model, truth = ex1_files
    path = model if target == "model" else truth
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    out = tmp_path / "cmp"
    assert main(["compare", "--model", str(model), "--truth", str(truth),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and message in err
    assert not out.exists()
