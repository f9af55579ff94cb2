import dataclasses
import json
import os
import stat

import numpy as np
import pytest

from dmdc import SchemaError, gen_sparse_fourier, realize_truth
from dmdc import cli, errors
from dmdc import io as dio
from dmdc.cli import main
from helpers import EX1_B, EX1_TRAJ, EX1_UPS, EX1_X, EX1_XP


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
    capsys.readouterr()


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
    assert record.rank_p == record.rank_r == 1
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
    code = main(["compare", "--model", str(fit / "model.json"),
                 "--model2", str(fit / "model.json"), "--freqresp",
                 "--omega-count", "0", "--out", str(cmp_out)])
    assert code == 1
    assert "--omega-count" in capsys.readouterr().err
    assert not cmp_out.exists()


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
    assert truth.a_true is None  # above the dense-truth cap
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


def test_example3_grid32_dense_truth_compare_freqresp(tmp_path, capsys):
    ds_dir, fit_dir = tmp_path / "ds", tmp_path / "fitc"
    assert main(["synth", "--example", "3", "--grid", "32", "--seed", "6",
                 "--out", str(ds_dir)]) == 0
    truth, _ = dio.read_truth(ds_dir / "truth.json")
    assert truth.a_true.shape == (1024, 1024)
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
    dense = realize_truth(truth)
    modal = realize_truth(dataclasses.replace(truth, a_true=None))
    assert modal.order == 10
    np.testing.assert_allclose(modal.c.T @ modal.c, np.eye(10), atol=1e-12)
    lifted = modal.c @ modal.a @ modal.c.T
    assert np.linalg.norm(lifted - dense.a) <= 1e-10 * np.linalg.norm(dense.a)
    z = np.exp(0.3j)
    g_dense = np.linalg.solve(z * np.eye(dense.order) - dense.a, dense.b)
    g_modal = modal.c @ np.linalg.solve(z * np.eye(modal.order) - modal.a, modal.b)
    assert np.linalg.norm(g_modal - g_dense) <= 1e-10 * np.linalg.norm(g_dense)


def test_modal_truth_rejects_input_map_off_span():
    truth = gen_sparse_fourier(grid=16, n_modes=2, m=6, seed=8).truth
    off = np.ones_like(truth.b_true)  # the constant field is not an active mode
    with pytest.raises(SchemaError, match="span"):
        realize_truth(dataclasses.replace(truth, a_true=None, b_true=off))


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
