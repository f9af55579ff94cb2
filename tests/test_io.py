import dataclasses
import copy
import hashlib
import json
import struct
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dmdc import (
    DmdcError,
    FormatError,
    GroundTruth,
    InvalidInputError,
    LengthError,
    ParseError,
    SchemaError,
    dmd_fit,
    dmdc_fit_known_b,
    dmdc_fit_unknown_b,
    gen_example1,
    gen_example2,
    gen_sparse_fourier,
)
from dmdc import io as dio
from helpers import (
    EX1_B,
    EX1_UPS,
    EX1_X,
    EX1_XP,
    consistent_forced_data,
    is_mapped,
    peak_bytes,
    random_diagonalizable,
    read_matrix_csv_per_cell,
    sensor_pair,
)


def test_csv_trivial_parse(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4\n")
    np.testing.assert_array_equal(
        dio.read_matrix_csv(p), [[1.0, 2.0], [3.0, 4.0]]
    )


def test_csv_example1_exact(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("4,2,1,0.5\n7,0.7,0.07,0.007\n")
    np.testing.assert_array_equal(dio.read_matrix_csv(p), EX1_X)
    out = tmp_path / "x_out.csv"
    dio.write_matrix_csv(EX1_X, out)
    np.testing.assert_array_equal(dio.read_matrix_csv(out), EX1_X)


def test_csv_round_trip_random_bitwise(tmp_path):
    rng = np.random.default_rng(101)
    m = rng.standard_normal((10, 10))
    p = tmp_path / "r.csv"
    dio.write_matrix_csv(m, p)
    np.testing.assert_array_equal(dio.read_matrix_csv(p), m)


def test_csv_ragged_row_reports_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3,4,5\n")
    with pytest.raises(FormatError, match="line 2"):
        dio.read_matrix_csv(p)


def test_csv_bad_cell_reports_coordinates(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError, match="line 2, column 2"):
        dio.read_matrix_csv(p)
    p.write_text("1,nan\n3,4\n")
    with pytest.raises(ParseError, match="line 1, column 2"):
        dio.read_matrix_csv(p)


def test_csv_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(FormatError, match="empty"):
        dio.read_matrix_csv(p)


def test_bin_scalar_file_size(tmp_path):
    p = tmp_path / "s.bin"
    dio.write_matrix_bin(np.array([[42.0]]), p)
    assert p.stat().st_size == 32  # 8 magic + 8 rows + 8 cols + 8 payload
    np.testing.assert_array_equal(dio.read_matrix_bin(p), [[42.0]])


def test_bin_round_trip_snapshot_bitwise(tmp_path):
    # The file is magic, dims and the column-major float64 payload whatever
    # the array's layout, and reads back as a read-only view of those bytes.
    rng = np.random.default_rng(29)
    z = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    layouts = {
        "snapshot": gen_sparse_fourier(grid=16, n_modes=3, m=8, seed=13).x,
        "c_order": rng.standard_normal((4, 3)),
        "f_order": np.asfortranarray(rng.standard_normal((3, 5))),
        "real_of_complex": np.real(z),
        "column_slice": rng.standard_normal((4, 7))[:, 1:6:2],
        "edge_values": np.array([[-0.0, 5e-324], [1.5, -5e-324], [0.0, -0.0]]),
    }
    for name, a in layouts.items():
        payload = a.astype("<f8").tobytes(order="F")
        expected = dio.BIN_MAGIC + struct.pack("<QQ", *a.shape) + payload
        p = tmp_path / f"{name}.bin"
        dio.write_matrix_bin(a, p)
        assert p.read_bytes() == expected, name
        back = dio.read_matrix_bin(p)
        assert not back.flags.writeable and not back.flags.owndata, name
        assert back.flags.f_contiguous and back.tobytes(order="F") == payload, name
        assert back.shape == a.shape and back.tobytes() == a.astype("<f8").tobytes(), name
        # a sidecar is the same bytes, and its index records their digest
        truth = GroundTruth(
            a_true=None, b_true=a, c_true=None,
            eigs_true=np.array([0.5 + 0.0j]), modes_true=None, seed=0,
        )
        dio.write_truth(truth, tmp_path / f"{name}.json")
        side = tmp_path / f"{name}_b_true.bin"
        assert side.read_bytes() == expected, name
        entry = json.loads((tmp_path / f"{name}.json").read_text())["files"]["b_true"]
        digest = hashlib.sha256(expected).hexdigest()
        assert entry == {"file": side.name, "sha256": digest}, name


# the fewest f64 cells whose .bin file reaches the map cut: 24 + 8 * cells bytes
_MAPPED_CELLS = (dio.DIGEST_THREAD_MIN_BYTES - 24 + 7) // 8


def test_bin_reads_at_the_cut_are_maps(tmp_path):
    # a .bin input and a sidecar of 1 MiB or more are the file's own pages;
    # anything smaller is read into memory
    for cells, mapped in ((_MAPPED_CELLS, True), (_MAPPED_CELLS - 1, False)):
        a = np.arange(float(cells)).reshape(-1, 1)
        p = tmp_path / f"{cells}.bin"
        dio.write_matrix_bin(a, p)
        assert (p.stat().st_size >= dio.DIGEST_THREAD_MIN_BYTES) == mapped
        truth = GroundTruth(a_true=None, b_true=a, c_true=None,
                            eigs_true=np.array([0.5 + 0.0j]), modes_true=None, seed=0)
        dio.write_truth(truth, tmp_path / f"{cells}.json")
        side = dio.read_truth(tmp_path / f"{cells}.json")[0].b_true
        for back in (dio.read_matrix_bin(p), side):
            assert is_mapped(back) == mapped and not back.flags.writeable
            np.testing.assert_array_equal(back, a)


def test_mapped_model_survives_being_overwritten(tmp_path):
    # write_model replaces each file by rename, so arrays read from the old
    # files keep the old bytes
    rec = next(iter(_records()))
    rng = np.random.default_rng(41)
    n, r = 1 << 16, rec.basis.shape[1]
    records = [dataclasses.replace(rec, basis=rng.standard_normal((n, r)),
                                   modes=rng.standard_normal((n, r)) + 0j)
               for _ in range(2)]
    p = tmp_path / "model.json"
    dio.write_model(records[0], p)
    first = dio.read_model(p)
    assert is_mapped(first.basis)
    kept = {field: getattr(first, field).copy() for field in _MODEL_ARRAYS}
    dio.write_model(records[1], p)
    for field in _MODEL_ARRAYS:
        assert _same_bits(getattr(first, field), kept[field]), field
    assert _same_bits(dio.read_model(p).basis, records[1].basis)


def test_mapped_bin_length_and_magic_checked(tmp_path):
    p = tmp_path / "big.bin"
    dio.write_matrix_bin(np.ones((_MAPPED_CELLS + 1, 1)), p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])  # still at the cut
    with pytest.raises(LengthError, match="payload"):
        dio.read_matrix_bin(p)
    p.write_bytes(b"DMDCMAT0" + raw[8:])
    with pytest.raises(FormatError, match="magic"):
        dio.read_matrix_bin(p)


def test_bin_corrupted_magic(tmp_path):
    p = tmp_path / "bad.bin"
    dio.write_matrix_bin(np.eye(2), p)
    raw = bytearray(p.read_bytes())
    raw[0] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        dio.read_matrix_bin(p)


def test_bin_truncated_payload(tmp_path):
    p = tmp_path / "short.bin"
    dio.write_matrix_bin(np.eye(3), p)
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(LengthError):
        dio.read_matrix_bin(p)
    p.write_bytes(raw[:12])
    with pytest.raises(LengthError):
        dio.read_matrix_bin(p)


def _records():
    rng = np.random.default_rng(103)
    a, _ = random_diagonalizable(rng, 3)
    b = rng.standard_normal((3, 2))
    x, xp, ups = consistent_forced_data(rng, a, b, 12)
    prov = {"inputs": {"x": "sha256:00"}, "truncation": {"r": None}, "seed": 7}
    yield dio.ModelRecord.from_model(dmd_fit(x, xp), prov)
    yield dio.ModelRecord.from_model(dmdc_fit_known_b(x, xp, ups, b), prov)
    yield dio.ModelRecord.from_model(dmdc_fit_unknown_b(x, xp, ups)[0], prov)


def test_model_round_trip_bitwise(tmp_path):
    for i, rec in enumerate(_records()):
        p = tmp_path / f"model{i}.json"
        dio.write_model(rec, p)
        back = dio.read_model(p)
        assert back.kind == rec.kind
        assert (back.input_rank, back.output_rank) == (rec.input_rank, rec.output_rank)
        assert back.dt == rec.dt
        np.testing.assert_array_equal(back.a_tilde, rec.a_tilde)
        assert back.b_tilde.shape == rec.b_tilde.shape
        np.testing.assert_array_equal(back.b_tilde, rec.b_tilde)
        np.testing.assert_array_equal(back.basis, rec.basis)
        np.testing.assert_array_equal(back.eigenvalues, rec.eigenvalues)
        np.testing.assert_array_equal(back.modes, rec.modes)
        assert back.provenance == rec.provenance


def test_model_kinds_tagged():
    kinds = [rec.kind for rec in _records()]
    assert kinds == ["dmd", "dmdc-known-b", "dmdc-unknown-b"]


def test_example1_model_file_contains_recovered_eigenvalues(tmp_path):
    model = dmdc_fit_known_b(EX1_X, EX1_XP, EX1_UPS, EX1_B)
    p = tmp_path / "ex1.json"
    dio.write_model(dio.ModelRecord.from_model(model, {}), p)
    back = dio.read_model(p)
    np.testing.assert_allclose(
        np.sort(back.eigenvalues.real), [0.1, 1.5], atol=1e-10
    )
    np.testing.assert_allclose(back.eigenvalues.imag, 0.0, atol=1e-10)


def test_model_unknown_kind_rejected(tmp_path):
    rec = next(iter(_records()))
    bogus = dataclasses.replace(rec, kind="spooky")
    p = tmp_path / "bogus.json"
    with pytest.raises(SchemaError):
        dio.write_model(bogus, p)
    dio.write_model(rec, p)
    doc = json.loads(p.read_text())
    doc["kind"] = "spooky"
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="kind"):
        dio.read_model(p)


def test_model_empty_file_is_schema_error(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    with pytest.raises(SchemaError):
        dio.read_model(p)


@pytest.mark.parametrize("key, value, match", [
    (("a_tilde", 0, 0), float("inf"), "a_tilde: non-finite value inf"),
    (("b_tilde", 0, 0), float("nan"), "b_tilde: non-finite value nan"),
    (("eigenvalues", 0, 1), float("-inf"), "eigenvalues: non-finite value -inf"),
    (("a_tilde", 0, 0), 10**400, "a_tilde: integer overflows a float"),
    (("eigenvalues", 0, 0), True, "eigenvalues: expected a number, got bool"),
])
def test_model_non_finite_number_rejected(tmp_path, key, value, match):
    rec = list(_records())[2]
    p = tmp_path / "m.json"
    dio.write_model(rec, p)
    doc = json.loads(p.read_text())
    node = doc
    for k in key[:-1]:
        node = node[k]
    node[key[-1]] = value
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=match):
        dio.read_model(p)


def test_index_numbers_are_plain_json(tmp_path):
    for rec in _records():
        p = tmp_path / "m.json"
        dio.write_model(rec, p)
        doc = json.loads(p.read_text())
        assert doc["dt"] == rec.dt
        assert doc["a_tilde"] == rec.a_tilde.tolist()
        assert doc["b_tilde"] == rec.b_tilde.tolist()
        assert doc["eigenvalues"] == [[z.real, z.imag] for z in rec.eigenvalues]
    dmd = next(iter(_records()))
    dio.write_model(dmd, p)
    assert json.loads(p.read_text())["b_tilde"] == [[]] * dmd.output_rank
    truth = gen_sparse_fourier(grid=4, n_modes=1, m=3, seed=2).truth
    dio.write_truth(truth, p, dt=0.5)
    doc = json.loads(p.read_text())
    assert doc["dt"] == 0.5
    assert doc["eigenvalues"] == [[z.real, z.imag] for z in truth.eigs_true]


def test_model_missing_field_rejected(tmp_path):
    rec = next(iter(_records()))
    p = tmp_path / "m.json"
    dio.write_model(rec, p)
    doc = json.loads(p.read_text())
    del doc["basis"]
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="basis"):
        dio.read_model(p)


def test_truth_round_trip(tmp_path):
    for ds in (gen_sparse_fourier(grid=16, n_modes=2, m=6, seed=17),
               gen_example2(n=3, l=2, q=8, m=10, seed=17, dt=0.5)):
        p = tmp_path / "truth.json"
        dio.write_truth(ds.truth, p, dt=ds.dt)
        back, dt = dio.read_truth(p)
        assert dt == ds.dt
        assert back.seed == ds.truth.seed
        for tag in ("a_true", "b_true", "c_true", "eigs_true", "modes_true"):
            want, got = getattr(ds.truth, tag), getattr(back, tag)
            assert (got is None) == (want is None), tag
            if want is not None:
                np.testing.assert_array_equal(got, want)


def test_atomic_write_leaves_no_partial_file(tmp_path):
    p = tmp_path / "x.csv"
    dio.write_matrix_csv(np.eye(2), p)
    before = p.read_bytes()
    with pytest.raises(Exception):
        dio.write_matrix_csv(np.array([[np.nan, 1.0]]), p)
    assert p.read_bytes() == before
    assert list(tmp_path.iterdir()) == [p]  # no stray temp files


def test_atomic_writes_never_touch_the_umask(tmp_path, monkeypatch):
    # reading the umask means setting it, for a moment, for every thread
    def no_umask(mask):
        raise AssertionError("the process umask was read or set")

    monkeypatch.setattr(dio.os, "umask", no_umask)
    dio.write_model(list(_records())[0], tmp_path / "model.json")
    dio.write_matrix_csv(np.eye(2), tmp_path / "x.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ("model.json", "x.csv", *MODEL_SIDECARS))


def test_atomic_write_takes_a_new_name_on_a_clash(tmp_path, monkeypatch):
    taken = tmp_path / ".x.csv.0000"
    taken.write_bytes(b"someone else's")
    names = iter(["0000", "0000", "0001"])
    monkeypatch.setattr(dio.secrets, "token_hex", lambda nbytes: next(names))
    dio.write_matrix_csv(np.eye(2), tmp_path / "x.csv")
    assert next(names, None) is None
    assert taken.read_bytes() == b"someone else's"
    assert sorted(p.name for p in tmp_path.iterdir()) == [".x.csv.0000", "x.csv"]


MODEL_SIDECARS = ("model_basis.bin", "model_modes_re.bin", "model_modes_im.bin")


def _written_model(tmp_path):
    rec = list(_records())[2]
    p = tmp_path / "model.json"
    dio.write_model(rec, p)
    return rec, p


def _with_nan(value):
    if np.ndim(value) == 0:
        return np.nan
    bad = np.array(value, copy=True)
    bad.flat[0] = np.nan
    return bad


@pytest.mark.parametrize("field", ["dt", "a_tilde", "b_tilde", "eigenvalues"])
def test_write_model_rejects_non_finite_and_leaves_no_file(tmp_path, field):
    rec, p = _written_model(tmp_path)
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    # a dt of 0 or below is finite, but the readers reject it too
    values = [_with_nan(getattr(rec, field))] + ([0.0, -1.0] if field == "dt" else [])
    for value in values:
        bad = dataclasses.replace(rec, **{field: value})
        for target in (p, tmp_path / "other.json"):
            with pytest.raises(InvalidInputError, match=field):
                dio.write_model(bad, target)
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


def test_write_truth_rejects_non_finite_and_leaves_no_file(tmp_path):
    truth = gen_sparse_fourier(grid=4, n_modes=1, m=3, seed=2).truth
    for dt in (np.nan, 0.0, -1.0):
        with pytest.raises(InvalidInputError, match="dt"):
            dio.write_truth(truth, tmp_path / "truth.json", dt=dt)
    bad = dataclasses.replace(truth, eigs_true=_with_nan(truth.eigs_true))
    with pytest.raises(InvalidInputError, match="eigenvalues"):
        dio.write_truth(bad, tmp_path / "truth.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field", ["basis", "modes"])
def test_write_model_checks_every_sidecar_before_the_first_write(tmp_path, field):
    rec = list(_records())[2]
    bad = dataclasses.replace(rec, **{field: _with_nan(getattr(rec, field))})
    with pytest.raises(InvalidInputError, match=field):
        dio.write_model(bad, tmp_path / "model.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("field", ["a_true", "b_true", "c_true", "modes_true"])
def test_write_truth_checks_every_sidecar_before_the_first_write(tmp_path, field):
    # example 2 stores a_true, b_true and c_true; example 3 b_true and modes
    latent = gen_example2(n=3, l=1, q=6, m=10, seed=1).truth
    modal = gen_sparse_fourier(grid=4, n_modes=1, m=3, seed=2).truth
    truth = modal if field == "modes_true" else latent
    bad = dataclasses.replace(truth, **{field: _with_nan(getattr(truth, field))})
    with pytest.raises(InvalidInputError, match=field):
        dio.write_truth(bad, tmp_path / "truth.json")
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(params=["inline", "worker"])
def digest_route(request, monkeypatch):
    """Write sidecars hashed as the small files they are, or each on a
    thread of its own; a reader hashes each sidecar as it reads it either
    way."""
    if request.param == "worker":
        monkeypatch.setattr(dio, "DIGEST_THREAD_MIN_BYTES", 0)
    return request.param


def test_worker_digest_error_surfaces_from_writer_and_reader(tmp_path, monkeypatch):
    rec, p = _written_model(tmp_path)

    class Boom(Exception):
        pass

    threads = []

    def failing(data):
        threads.append(threading.current_thread())
        raise Boom("hash failed")

    monkeypatch.setattr(dio, "DIGEST_THREAD_MIN_BYTES", 0)
    monkeypatch.setattr(dio, "_hexdigest", failing)
    with pytest.raises(Boom):
        dio.read_model(p)
    threads.clear()
    with pytest.raises(Boom):
        dio.write_model(rec, tmp_path / "other.json")
    assert not (tmp_path / "other.json").exists()
    # the writer's digest failed on its own thread and was raised again
    assert threads and threading.main_thread() not in threads


def test_readers_hash_inline_and_writers_on_a_thread_per_sidecar(tmp_path, monkeypatch):
    # even with every digest sent to a thread, a reader checks each sidecar
    # on the calling thread as it reads it, and a writer hashes each sidecar
    # on a thread of its own while the file is written
    monkeypatch.setattr(dio, "DIGEST_THREAD_MIN_BYTES", 0)
    real = dio._hexdigest
    hashed_on = []

    def recording(data):
        hashed_on.append(threading.current_thread())
        return real(data)

    monkeypatch.setattr(dio, "_hexdigest", recording)
    rec, p = _written_model(tmp_path)
    assert len(hashed_on) == len(MODEL_SIDECARS)
    assert len(set(hashed_on)) == len(MODEL_SIDECARS)
    assert all(t is not threading.current_thread() and t.name == "dmdc-sha256"
               for t in hashed_on)
    truth = gen_example2(n=3, l=1, q=6, m=10, seed=1).truth
    dio.write_truth(truth, tmp_path / "truth.json")
    hashed_on.clear()
    started = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        real_start(thread)

    with monkeypatch.context() as m:
        m.setattr(threading.Thread, "start", counting_start)
        dio.read_model(p)
        dio.read_truth(tmp_path / "truth.json")
    assert started == []
    # three model sidecars, then a_true, b_true and c_true
    assert hashed_on == [threading.current_thread()] * 6


def test_racing_large_digests_are_right_and_hashed_off_their_callers(monkeypatch):
    # threads racing large digests each get the right hex back, and no hash
    # runs on the thread that asked for it
    monkeypatch.setattr(dio, "DIGEST_THREAD_MIN_BYTES", 0)
    real = dio._hexdigest
    hashed_on = {}

    def recording(data):
        hashed_on[data] = threading.current_thread()
        return real(data)

    monkeypatch.setattr(dio, "_hexdigest", recording)
    blobs = [bytes([i]) * (1000 + i) for i in range(8)]
    results = {}
    barrier = threading.Barrier(len(blobs))

    def work(i):
        barrier.wait(timeout=10)
        results[i] = dio.Sha256Digest(blobs[i]).result()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(blobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert results == {i: hashlib.sha256(b).hexdigest() for i, b in enumerate(blobs)}
    for caller, blob in zip(threads, blobs):
        assert hashed_on[blob] is not caller
        assert hashed_on[blob].name == "dmdc-sha256"


def test_model_digest_mismatch_outranks_a_later_fault(tmp_path, digest_route):
    # the basis is checked before the modes are read, so its mismatch is the
    # error even when a modes sidecar is missing as well
    rec, p = _written_model(tmp_path)
    dio.write_matrix_bin(rec.basis + 1.0, tmp_path / "model_basis.bin")
    (tmp_path / "model_modes_im.bin").unlink()
    with pytest.raises(SchemaError, match="basis: .* does not match its sha256 digest"):
        dio.read_model(p)
    # with the basis intact, the missing file is the first fault
    dio.write_matrix_bin(rec.basis, tmp_path / "model_basis.bin")
    with pytest.raises(FormatError, match="model_modes_im.bin"):
        dio.read_model(p)


def test_truth_digest_mismatch_outranks_a_later_fault(tmp_path, digest_route):
    ds = gen_example2(n=3, l=1, q=6, m=10, seed=1)
    p = tmp_path / "truth.json"
    dio.write_truth(ds.truth, p, dt=ds.dt)
    dio.write_matrix_bin(2.0 * ds.truth.a_true, tmp_path / "truth_a_true.bin")
    doc = json.loads(p.read_text())
    doc["eigenvalues"] = "not rows"
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="a_true: .* does not match its sha256 digest"):
        dio.read_truth(p)


def test_model_is_index_plus_sidecars(tmp_path):
    rec, p = _written_model(tmp_path)
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        ("model.json",) + MODEL_SIDECARS
    )
    doc = json.loads(p.read_text())
    assert doc["basis"]["file"] == "model_basis.bin"
    assert doc["modes"]["re"]["file"] == "model_modes_re.bin"
    assert doc["modes"]["im"]["file"] == "model_modes_im.bin"
    np.testing.assert_array_equal(
        dio.read_matrix_bin(tmp_path / "model_basis.bin"), rec.basis
    )


@pytest.mark.parametrize("name", MODEL_SIDECARS)
def test_model_missing_sidecar_is_format_error(tmp_path, name):
    _, p = _written_model(tmp_path)
    (tmp_path / name).unlink()
    with pytest.raises(FormatError, match=name):
        dio.read_model(p)


def test_model_truncated_sidecar_is_length_error(tmp_path):
    _, p = _written_model(tmp_path)
    side = tmp_path / "model_modes_im.bin"
    side.write_bytes(side.read_bytes()[:-8])
    with pytest.raises(LengthError):
        dio.read_model(p)


def test_model_sidecar_digest_mismatch_rejected(tmp_path):
    rec, p = _written_model(tmp_path)
    # a well-formed matrix of the right shape, but not the one indexed
    dio.write_matrix_bin(rec.basis + 1.0, tmp_path / "model_basis.bin")
    with pytest.raises(SchemaError, match="sha256"):
        dio.read_model(p)


def test_model_old_inline_basis_rejected(tmp_path):
    rec, p = _written_model(tmp_path)
    doc = json.loads(p.read_text())
    doc["basis"] = [[[float(v), float(v).hex()] for v in row] for row in rec.basis]
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="basis"):
        dio.read_model(p)


def test_model_sidecar_name_must_be_plain(tmp_path):
    _, p = _written_model(tmp_path)
    doc = json.loads(p.read_text())
    for name in ("../model_basis.bin", "..", "model.json"):
        doc["basis"]["file"] = name
        p.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="plain .bin file name"):
            dio.read_model(p)


def test_model_index_stays_small_at_64x64(tmp_path):
    ds = gen_sparse_fourier(grid=64, n_modes=5, m=60, seed=4)
    model, _ = dmdc_fit_unknown_b(ds.x, ds.xp, ds.upsilon)
    p = tmp_path / "model.json"
    dio.write_model(dio.ModelRecord.from_model(model, {}), p)
    # no n-sized array inline: the 4096-row basis alone would be ~1 MB
    assert p.stat().st_size < 64 * 1024


def test_truth_sidecar_digest_mismatch_rejected(tmp_path):
    ds = gen_sparse_fourier(grid=16, n_modes=2, m=6, seed=17)
    p = tmp_path / "truth.json"
    dio.write_truth(ds.truth, p, dt=ds.dt)
    dio.write_matrix_bin(2.0 * ds.truth.b_true, tmp_path / "truth_b_true.bin")
    with pytest.raises(SchemaError, match="b_true"):
        dio.read_truth(p)


def _add_b_tilde(doc):
    doc["b_tilde"] = [[1.0] for _ in doc["a_tilde"]]


@pytest.mark.parametrize("kind, edit, match", [
    pytest.param("dmd", _add_b_tilde, "b_tilde must have zero columns", id="dmd-with-b"),
    pytest.param("dmdc-known-b", lambda d: d.update(b_tilde=None),
                 "b_tilde: expected a non-empty array of rows", id="dmdc-without-b"),
    pytest.param("dmd", lambda d: d.update(b_tilde=None),
                 "b_tilde: expected a non-empty array of rows", id="dmd-null-b"),
    pytest.param("dmdc-unknown-b", lambda d: d["b_tilde"].pop(),
                 "b_tilde row count", id="b-rows"),
    pytest.param("dmd", lambda d: d.update(rank_r=d["rank_r"] + 1),
                 "ranks", id="rank-r"),
    pytest.param("dmdc-unknown-b", lambda d: d.update(rank_p=d["rank_r"] - 1),
                 "ranks", id="rank-p-below-r"),
    pytest.param("dmd", lambda d: d.update(dt=-1.0),
                 "dt must be finite", id="dt-negative"),
    pytest.param("dmdc-known-b", lambda d: d.update(dt=0.0),
                 "dt must be finite", id="dt-zero"),
    pytest.param("dmd", lambda d: d.update(dt=float("inf")),
                 "dt must be finite", id="dt-inf"),
    pytest.param("dmd", lambda d: d.update(rank_r=float(d["rank_r"])),
                 "ranks must be integers", id="rank-float"),
    pytest.param("dmd", lambda d: d.update(basis=None),
                 "basis and modes must name sidecars", id="null-basis"),
    pytest.param("dmd", lambda d: d.update(a_tilde=[[*row, 0.0] for row in d["a_tilde"]]),
                 "a_tilde must be square", id="a-not-square"),
    pytest.param("dmdc-known-b", lambda d: d["eigenvalues"].append([0.0, 0.0]),
                 "eigenvalue count", id="eigenvalue-count"),
    pytest.param("dmdc-unknown-b",
                 lambda d: d.update(eigenvalues=[[*z, 0.0] for z in d["eigenvalues"]]),
                 r"eigenvalues must be \[re, im\] rows", id="eigenvalue-rows"),
    pytest.param("dmd", lambda d: d.update(provenance=[1, 2]),
                 "provenance must be a JSON object", id="provenance-list"),
])
def test_model_contradictory_index_rejected(tmp_path, kind, edit, match):
    rec = next(r for r in _records() if r.kind == kind)
    p = tmp_path / "m.json"
    dio.write_model(rec, p)
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=match):
        dio.read_model(p)



@pytest.mark.parametrize("tag, make, match", [
    pytest.param("basis", lambda r: np.hstack([r.basis, r.basis[:, :1]]),
                 "basis/modes width", id="basis-width"),
    pytest.param("basis", lambda r: np.vstack([r.basis, r.basis[:1]]),
                 "basis and modes differ in state dimension", id="basis-rows"),
    pytest.param("modes_im", lambda r: np.vstack([r.modes.imag, r.modes.imag[:1]]),
                 "real and imaginary parts of one shape", id="modes-parts"),
])
def test_model_sidecar_contradicting_the_index_rejected(tmp_path, tag, make, match):
    # a well-formed sidecar with a matching digest, of the wrong shape
    rec = next(iter(_records()))
    p = tmp_path / "m.json"
    dio.write_model(rec, p)
    doc = json.loads(p.read_text())
    entry = _sidecar(p, tag, make(rec))
    if tag == "basis":
        doc["basis"] = entry
    else:
        doc["modes"]["im"] = entry
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=match):
        dio.read_model(p)


def test_write_model_rejects_provenance_json_cannot_write(tmp_path):
    # the provenance is encoded before the first sidecar is written, so the
    # record already at the path stays whole
    rec, p = _written_model(tmp_path)
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    first = dio.read_model(p)
    bad = dataclasses.replace(rec, provenance={"when": object()})
    listed = dataclasses.replace(rec, provenance=[1, 2])
    for target in (p, tmp_path / "m.json"):
        with pytest.raises(InvalidInputError, match="object is not JSON serializable"):
            dio.write_model(bad, target)
        with pytest.raises(InvalidInputError, match="provenance must be a dict, got list"):
            dio.write_model(listed, target)
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
    back = dio.read_model(p)
    for field in _MODEL_ARRAYS:
        assert _same_bits(getattr(back, field), getattr(first, field)), field


def _sidecar(index, tag, mat):
    """Write ``mat`` as the sidecar ``tag`` of ``index``; return its index entry."""
    side = index.parent / f"{index.stem}_{tag}.bin"
    dio.write_matrix_bin(mat, side)
    return {"file": side.name, "sha256": hashlib.sha256(side.read_bytes()).hexdigest()}


def _extra_row(m):
    return np.vstack([m, m[:1]])


@pytest.mark.parametrize("latent, tag, make, match", [
    pytest.param(True, "a_true", lambda t: t.a_true[:, :-1],
                 "a_true columns", id="a-not-square"),
    pytest.param(True, "b_true", lambda t: _extra_row(t.b_true),
                 "state dimension", id="b-rows"),
    pytest.param(False, "b_true", lambda t: np.ones((100, 1)),
                 "state dimension", id="b-rows-modal"),
    pytest.param(True, "c_true", lambda t: np.ones((3, t.b_true.shape[0] + 1)),
                 "state dimension", id="c-cols"),
    pytest.param(True, "modes_true", lambda t: np.eye(4, 3, dtype=complex),
                 "state dimension", id="modes-rows"),
    pytest.param(True, "modes_true", lambda t: np.eye(3, 2, dtype=complex),
                 "eigenvalues", id="modes-cols"),
])
def test_truth_contradictory_sidecars_rejected(tmp_path, latent, tag, make, match):
    # the latent example-2 truth is order 3 with 3 eigenvalues and no modes
    if latent:
        truth = gen_example2(n=3, l=2, q=8, m=10, seed=17).truth
    else:
        truth = gen_sparse_fourier(grid=16, n_modes=2, m=6, seed=17).truth
    p = tmp_path / "truth.json"
    dio.write_truth(truth, p)
    doc = json.loads(p.read_text())
    mat = make(truth)
    if tag == "modes_true":
        entry = {"re": _sidecar(p, "modes_re", mat.real),
                 "im": _sidecar(p, "modes_im", mat.imag)}
    else:
        entry = _sidecar(p, tag, mat)
    doc["files"][tag] = entry
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=match):
        dio.read_truth(p)


@pytest.mark.parametrize("seed", [True, 1.0, "1"])
def test_truth_seed_must_be_an_integer(tmp_path, seed):
    p = tmp_path / "truth.json"
    dio.write_truth(gen_example1().truth, p)
    doc = json.loads(p.read_text())
    doc["seed"] = seed
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="seed must be an integer"):
        dio.read_truth(p)


@pytest.mark.parametrize("dt", [-1.0, 0.0, float("inf")])
def test_truth_bad_dt_rejected(tmp_path, dt):
    p = tmp_path / "truth.json"
    dio.write_truth(gen_sparse_fourier(grid=16, n_modes=2, m=6, seed=17).truth, p)
    doc = json.loads(p.read_text())
    doc["dt"] = dt
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="dt must be finite and positive"):
        dio.read_truth(p)

# signed zeros and subnormals drawn often: they are what a lossy path drops
_FINITE = st.sampled_from((0.0, -0.0, 5e-324, -5e-324)) | st.floats(
    allow_nan=False, allow_infinity=False
)
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | _FINITE | st.text()


def _real(draw, shape):
    return draw(hnp.arrays(np.float64, shape, elements=_FINITE))


def _complex(draw, shape):
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = _real(draw, shape), _real(draw, shape)
    return z


@st.composite
def _model_records(draw):
    kind = draw(st.sampled_from(dio.MODEL_KINDS))
    n, r, l = (draw(st.integers(1, k)) for k in (12, 5, 3))
    return dio.ModelRecord(
        kind=kind,
        input_rank=draw(st.integers(r, r + 3)),
        output_rank=r,
        dt=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        a_tilde=_real(draw, (r, r)),
        b_tilde=_real(draw, (r, 0 if kind == "dmd" else l)),
        basis=_real(draw, (n, r)),
        eigenvalues=_complex(draw, (r,)),
        modes=_complex(draw, (n, r)),
        provenance=draw(st.dictionaries(
            st.text(), st.recursive(
                _JSON_SCALARS,
                lambda kids: st.lists(kids, max_size=3)
                | st.dictionaries(st.text(), kids, max_size=3),
                max_leaves=8,
            ), max_size=4,
        ) | st.just({"inputs": {"x": "sha256:00"}, "note": "Ωmega · 模型 🚀"})),
    )


_MODEL_ARRAYS = ("a_tilde", "b_tilde", "basis", "eigenvalues", "modes")


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(_model_records())
def test_model_round_trip_property(rec):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "model.json"
        dio.write_model(rec, p)
        back = dio.read_model(p)
    assert (back.kind, back.input_rank, back.output_rank) == (
        rec.kind, rec.input_rank, rec.output_rank)
    assert back.dt.hex() == rec.dt.hex()
    for field in _MODEL_ARRAYS:
        assert _same_bits(getattr(back, field), getattr(rec, field)), field
    assert back.provenance == rec.provenance


# --- malformed files: each reader returns or raises a DmdcError -------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from((10**400, -(10**400), "0x1p99999", "model_basis.bin")),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(), kids, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def valid_indexes(tmp_path_factory):
    """A known-B model index and an example-1 truth index (a_true, b_true
    and modes), each with its sidecars."""
    d = tmp_path_factory.mktemp("indexes")
    rec = next(r for r in _records() if r.kind == "dmdc-known-b")
    dio.write_model(rec, d / "model.json")
    dio.write_truth(gen_example1().truth, d / "truth.json")
    return {
        reader: (d, json.loads((d / name).read_text()))
        for reader, name in ((dio.read_model, "model.json"),
                             (dio.read_truth, "truth.json"))
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_index_with_any_field_replaced_reads_or_raises_dmdc_error(valid_indexes, data):
    reader = data.draw(st.sampled_from(sorted(valid_indexes, key=repr)))
    d, doc = valid_indexes[reader]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(_JSON_VALUES)
    if path:
        doc = copy.deepcopy(doc)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    else:
        doc = value
    # the sidecars sit next to the mutant, so its index entries resolve
    mutant = d / "mutant.json"
    mutant.write_text(json.dumps(doc))
    try:
        reader(mutant)
    except DmdcError:
        pass


_BIN_HEADS = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
    lambda rc: dio.BIN_MAGIC + struct.pack("<QQ", *rc)
)


@settings(max_examples=300, deadline=None)
@given(
    suffix=st.sampled_from((".csv", ".bin")),
    data=st.binary()
    | st.text().map(str.encode)
    | st.text(alphabet="0123456789.,-+eEinfa_ \n").map(str.encode)
    | st.tuples(_BIN_HEADS, st.binary()).map(b"".join),
)
def test_matrix_file_of_any_bytes_reads_or_raises_dmdc_error(suffix, data):
    reader = dio.read_matrix_csv if suffix == ".csv" else dio.read_matrix_bin
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / f"m{suffix}"
        p.write_bytes(data)
        try:
            reader(p)
        except DmdcError:
            pass


# Tokens on which the per-cell parser and numpy's reader can disagree:
# float() takes underscores and non-ASCII digits, numpy's reader skips blank
# lines and strips the unit separator, and neither takes comments or quotes.
_CSV_TOKENS = (
    list("0123456789.eE+-_, \t\x0c\x0b\x1f\u3000\n\r#\"\u0661\ufeff")
    + ["nan", "inf", "1e400", "\r\n", "\n\n", "\n \n", "\n\t\n", "\n,\n"]
)
_CSV_PADS = st.sampled_from(("", "", " ", "\t", "\x0c", "\x1f", "\u3000"))
_CSV_LINE_ENDS = st.sampled_from(("\n", "\n", "\r\n", "\r", "\n\n", "\n \n", "\n\t\n"))


def _matrices(min_side=1):
    return hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=min_side, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )


def _csv_text(draw, m, pads=_CSV_PADS, line_ends=_CSV_LINE_ENDS) -> str:
    """Shortest reprs of the cells of ``m``, padded with whitespace, and
    lines ended by newlines or blank lines."""
    pad = draw(pads)
    return "".join(
        ",".join(pad + repr(v) + pad for v in row) + draw(line_ends)
        for row in m.tolist()
    )


@st.composite
def _csv_of_matrix(draw):
    return _csv_text(draw, draw(_matrices()))


_CSV_TEXTS = _csv_of_matrix() | st.lists(
    st.sampled_from(_CSV_TOKENS), max_size=40
).map("".join)


@settings(max_examples=500, deadline=None)
@given(
    text=_CSV_TEXTS,
    insert=st.none() | st.tuples(st.integers(0, 10**6), st.sampled_from(_CSV_TOKENS)),
)
def test_csv_reader_matches_per_cell_parser(text, insert):
    if insert is not None:
        at, token = insert[0] % (len(text) + 1), insert[1]
        text = text[:at] + token + text[at:]
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "m.csv"
        p.write_text(text, encoding="utf-8", newline="")
        outcomes = []
        for reader in (dio.read_matrix_csv, read_matrix_csv_per_cell):
            try:
                a = reader(p)
            except DmdcError as exc:
                outcomes.append((type(exc), str(exc)))
            else:
                outcomes.append((a.shape, a.view(np.int64).tobytes()))
    assert outcomes[0] == outcomes[1]


def test_csv_writer_matches_cell_by_cell_repr(tmp_path):
    m = np.random.default_rng(7).standard_normal((5, 7)) * np.logspace(-300, 300, 7)
    m[0, 0], m[1, 1], m[2, 2] = -0.0, 5e-324, 1.7976931348623157e308
    p = tmp_path / "m.csv"
    dio.write_matrix_csv(m, p)
    old = "\n".join(",".join(repr(float(v)) for v in row) for row in m) + "\n"
    assert p.read_bytes() == old.encode("utf-8")


def test_csv_writer_holds_one_row_block(tmp_path):
    # the sensor-csv X: a whole-file writer peaks at 7.9 n x m units
    x = sensor_pair(n=2048, m=200)[0]
    p = tmp_path / "x.csv"
    assert peak_bytes(lambda: dio.write_matrix_csv(x, p)) <= 1.5 * x.nbytes
    text = "".join(",".join(map(repr, row)) + "\n" for row in x.tolist())
    assert p.read_bytes() == text.encode("utf-8")


def test_failed_csv_write_leaves_no_file(tmp_path, monkeypatch):
    # each write fails after its first block is in its temp files
    real, listings = dio.csv_lines, []

    def fail_on_second_block(block):
        listings.append(sorted(p.name for p in tmp_path.iterdir()))
        if len(listings) % 2 == 0:
            raise OSError("disk full")
        return real(block)

    monkeypatch.setattr(dio, "csv_lines", fail_on_second_block)
    monkeypatch.setattr(dio, "CSV_BLOCK_BYTES", 2 * 2 * dio._CELL_BYTES_MAX)
    m = np.arange(12.0).reshape(6, 2)
    with pytest.raises(OSError, match="disk full"):
        dio.write_matrix_csv(m, tmp_path / "x.csv")
    with pytest.raises(OSError, match="disk full"):
        dio.write_shifted_csv(m[:, :-1], m[:, 1:], tmp_path / "x.csv", tmp_path / "xp.csv")
    temps = [[name.split(".")[:3] for name in names] for names in listings]
    assert temps == [[["", "x", "csv"]]] * 2 + [[["", "x", "csv"], ["", "xp", "csv"]]] * 2
    assert list(tmp_path.iterdir()) == []


def _pair_written_both_ways(x, xp):
    """The bytes of X and X' as ``write_shifted_csv`` writes them, and as
    two ``write_matrix_csv`` calls do."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("x.csv", "xp.csv", "x2.csv", "xp2.csv")]
        dio.write_shifted_csv(x, xp, paths[0], paths[1])
        dio.write_matrix_csv(x, paths[2])
        dio.write_matrix_csv(xp, paths[3])
        data = [p.read_bytes() for p in paths]
    return data[:2], data[2:]


_EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308]


@settings(max_examples=300, deadline=None)
@given(traj=_matrices(min_side=2))
@example(traj=np.array([_EXTREMES[:2], _EXTREMES[2:]]))  # one column
@example(traj=np.array([_EXTREMES * 10, _EXTREMES[::-1] * 10]))  # many columns
def test_shifted_csv_writer_matches_two_matrix_writes(traj):
    shifted, plain = _pair_written_both_ways(traj[:, :-1], traj[:, 1:])
    assert shifted == plain


def test_shifted_csv_writer_falls_back_off_the_shift():
    m = np.random.default_rng(5).standard_normal((300, 401))
    pairs = [
        (m[:, :-1], m[:, 1:]),      # a shift of many row blocks
        (m[:, 1:], m[:, :-1]),      # swapped: no shift
        (m[:, :-1], m[:, 1:-1]),    # X' one column short
        # the shared cell is 0.0 in X and -0.0 in X', which array_equal takes
        (np.array([[1.0, 0.0]]), np.array([[-0.0, 2.0]])),
    ]
    for x, xp in pairs:
        shifted, plain = _pair_written_both_ways(x, xp)
        assert shifted == plain
    assert shifted[1] == b"-0.0,2.0\n"


def test_shifted_csv_read_screens_in_blocks(tmp_path):
    # the sensor-csv pair: its X' file is 2.6 n x m units
    x, xp, _, _ = sensor_pair(n=2048, m=200)
    for name, m in (("x", x), ("xp", xp)):
        dio.write_matrix_csv(m, tmp_path / f"{name}.csv")
    x_data, data = ((tmp_path / f"{name}.csv").read_bytes() for name in ("x", "xp"))
    parsed = dio.read_matrix_csv("x.csv", x_data)
    assert peak_bytes(lambda: dio.read_shifted_csv(parsed, x_data, data)) <= 1.5 * x.nbytes
    assert _same_bits(dio.read_shifted_csv(parsed, x_data, data), xp)


@st.composite
def _shifted_csv_pair(draw):
    """The texts of X and X' = X advanced one column, cut from one matrix;
    half of them as plain as the writer's."""
    m = draw(_matrices(min_side=2))
    plain = draw(st.booleans())
    style = {"pads": st.just(""), "line_ends": st.just("\n")} if plain else {}
    return _csv_text(draw, m[:, :-1], **style), _csv_text(draw, m[:, 1:], **style)


def _outcome(read):
    try:
        a = read()
    except DmdcError as exc:
        return type(exc), str(exc)
    return a.shape, a.view(np.int64).tobytes()


def _edited(text: str, at_edge: bool, at: int, token: str, first: bool) -> str:
    """``text`` with ``token`` inserted, or one character deleted (token
    ""), anywhere or at an edge of each line's first or last cell."""
    if at_edge:
        ends = [i for i, c in enumerate(text) if c == "\n"] + [len(text)]
        edges, start = set(ends) | {0}, 0
        for end in ends:
            comma = text.find(",", start, end) if first else text.rfind(",", start, end)
            edges |= {comma, comma + 1} if comma >= 0 else set()
            start = end + 1
        at = sorted(edges)[at % len(edges)]
    else:
        at %= len(text) + 1
    return text[:at] + token + text[at + (token == ""):]


@settings(max_examples=500, deadline=None)
@given(
    pair=_shifted_csv_pair() | st.tuples(_CSV_TEXTS, _CSV_TEXTS),
    edit=st.none() | st.tuples(
        st.booleans(), st.integers(0, 10**6), st.just("") | st.sampled_from(_CSV_TOKENS)),
    in_x=st.booleans(),
)
def test_shifted_csv_read_matches_full_parse(pair, edit, in_x):
    """One edit, half of the time at an edge of a cell the shift compares
    or parses: in X' at its last cells, or in X, whose bytes the shift does
    not scan, at its first cells."""
    x_text, xp_text = pair
    if edit is not None and in_x:
        x_text = _edited(x_text, *edit, first=True)
    elif edit is not None:
        xp_text = _edited(xp_text, *edit, first=False)
    x_data, data = x_text.encode(), xp_text.encode()
    try:
        x = dio.read_matrix_csv("x.csv", x_data)
    except DmdcError:
        return  # the pair read stops at X's own error
    shifted = dio.read_shifted_csv(x, x_data, data)
    full = _outcome(lambda: dio.read_matrix_csv("xp.csv", data))
    pair_read = full if shifted is None else _outcome(lambda: shifted)
    assert pair_read == full


def test_shifted_csv_read_takes_only_a_plain_shift():
    m = np.arange(12.0).reshape(3, 4) / 7
    x_data, xp_data = (
        "".join(",".join(map(repr, row)) + "\n" for row in half.tolist()).encode()
        for half in (m[:, :-1], m[:, 1:])
    )
    x = dio.read_matrix_csv("x.csv", x_data)
    shifted = dio.read_shifted_csv(x, x_data, xp_data)
    assert _same_bits(shifted, m[:, 1:])
    assert _same_bits(dio.read_shifted_csv(x, x_data, xp_data.rstrip(b"\n")), m[:, 1:])
    assert _same_bits(dio.read_shifted_csv(x, x_data, xp_data + b"\n\n"), m[:, 1:])
    last = xp_data.rindex(b",", 0, xp_data.index(b"\n"))
    for other in (
        xp_data.replace(b"\n", b"\r\n"),                 # CRLF line ends
        xp_data.replace(b",", b", "),                     # padded cells
        xp_data.replace(b"\n", b"\x0b\n", 1),             # a line break float() strips
        x_data,                                           # not a shift
        xp_data + b"1.0,2.0,3.0\n",                       # an extra line
        xp_data[:xp_data.rindex(b",")] + b",1e400\n",     # a non-finite new cell
        xp_data[:xp_data.rindex(b",")] + b",1,2\n",       # two new cells
        xp_data[:last] + xp_data[last + 1:],              # a new cell fused to the last
    ):
        assert dio.read_shifted_csv(x, x_data, other) is None, other
    # only X's first cells may hold other bytes, and the shift never reads them
    padded = b"\n".join(b" " + line for line in x_data.split(b"\n")[:-1]) + b"\n"
    got = dio.read_shifted_csv(dio.read_matrix_csv("x.csv", padded), padded, xp_data)
    assert _same_bits(got, dio.read_matrix_csv("xp.csv", xp_data))
    # CR line ends put a byte X' lacks into every shared line
    assert dio.read_shifted_csv(x, x_data.replace(b"\n", b"\r\n"), xp_data) is None
