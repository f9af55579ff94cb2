import dataclasses
import copy
import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dmdc import (
    DmdcError,
    FormatError,
    InvalidInputError,
    LengthError,
    ParseError,
    SchemaError,
    dmd_fit,
    dmdc_fit_known_b,
    dmdc_fit_unknown_b,
    gen_sparse_fourier,
)
from dmdc import io as dio
from helpers import (
    EX1_B,
    EX1_UPS,
    EX1_X,
    EX1_XP,
    consistent_forced_data,
    random_diagonalizable,
    read_matrix_csv_per_cell,
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
    ds = gen_sparse_fourier(grid=16, n_modes=3, m=8, seed=13)
    p = tmp_path / "snap.bin"
    dio.write_matrix_bin(ds.x, p)
    np.testing.assert_array_equal(dio.read_matrix_bin(p), ds.x)


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
        assert (back.rank_p, back.rank_r) == (rec.rank_p, rec.rank_r)
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
    assert json.loads(p.read_text())["b_tilde"] == [[]] * dmd.rank_r
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
    ds = gen_sparse_fourier(grid=16, n_modes=2, m=6, seed=17)
    p = tmp_path / "truth.json"
    dio.write_truth(ds.truth, p, dt=ds.dt)
    back, dt = dio.read_truth(p)
    assert dt == ds.dt
    assert back.seed == ds.truth.seed
    np.testing.assert_array_equal(back.a_true, ds.truth.a_true)
    np.testing.assert_array_equal(back.b_true, ds.truth.b_true)
    assert back.c_true is None
    np.testing.assert_array_equal(back.eigs_true, ds.truth.eigs_true)
    np.testing.assert_array_equal(back.modes_true, ds.truth.modes_true)


def test_atomic_write_leaves_no_partial_file(tmp_path):
    p = tmp_path / "x.csv"
    dio.write_matrix_csv(np.eye(2), p)
    before = p.read_bytes()
    with pytest.raises(Exception):
        dio.write_matrix_csv(np.array([[np.nan, 1.0]]), p)
    assert p.read_bytes() == before
    assert list(tmp_path.iterdir()) == [p]  # no stray temp files


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
    bad = dataclasses.replace(rec, **{field: _with_nan(getattr(rec, field))})
    for target in (p, tmp_path / "other.json"):
        with pytest.raises(InvalidInputError, match=field):
            dio.write_model(bad, target)
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


def test_write_truth_rejects_non_finite_and_leaves_no_file(tmp_path):
    truth = gen_sparse_fourier(grid=4, n_modes=1, m=3, seed=2).truth
    with pytest.raises(InvalidInputError, match="dt"):
        dio.write_truth(truth, tmp_path / "truth.json", dt=np.nan)
    bad = dataclasses.replace(truth, eigs_true=_with_nan(truth.eigs_true))
    with pytest.raises(InvalidInputError, match="eigenvalues"):
        dio.write_truth(bad, tmp_path / "truth.json")
    assert list(tmp_path.iterdir()) == []


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



def _truth_sidecar(index, tag, mat):
    """Write ``mat`` as the truth sidecar ``tag`` and return its index entry."""
    side = index.parent / f"{index.stem}_{tag}.bin"
    dio.write_matrix_bin(mat, side)
    return {"file": side.name, "sha256": hashlib.sha256(side.read_bytes()).hexdigest()}


def _extra_row(m):
    return np.vstack([m, m[:1]])


@pytest.mark.parametrize("dense, tag, make, match", [
    pytest.param(True, "a_true", lambda t: t.a_true[:, :-1],
                 "a_true columns", id="a-not-square"),
    pytest.param(True, "b_true", lambda t: _extra_row(t.b_true),
                 "state dimension", id="b-rows"),
    pytest.param(False, "b_true", lambda t: np.ones((100, 1)),
                 "state dimension", id="b-rows-modal"),
    pytest.param(True, "c_true", lambda t: np.ones((3, t.b_true.shape[0] + 1)),
                 "state dimension", id="c-cols"),
    pytest.param(True, "modes_true", lambda t: _extra_row(t.modes_true),
                 "state dimension", id="modes-rows"),
    pytest.param(True, "modes_true", lambda t: t.modes_true[:, :-1],
                 "eigenvalues", id="modes-cols"),
])
def test_truth_contradictory_sidecars_rejected(tmp_path, dense, tag, make, match):
    truth = gen_sparse_fourier(grid=16, n_modes=2, m=6, seed=17).truth
    if not dense:
        truth = dataclasses.replace(truth, a_true=None)
    p = tmp_path / "truth.json"
    dio.write_truth(truth, p)
    doc = json.loads(p.read_text())
    mat = make(truth)
    if tag == "modes_true":
        entry = {"re": _truth_sidecar(p, "modes_re", mat.real),
                 "im": _truth_sidecar(p, "modes_im", mat.imag)}
    else:
        entry = _truth_sidecar(p, tag, mat)
    doc["files"][tag] = entry
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match=match):
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
        rank_p=draw(st.integers(r, r + 3)),
        rank_r=r,
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
    assert (back.kind, back.rank_p, back.rank_r) == (rec.kind, rec.rank_p, rec.rank_r)
    assert back.dt.hex() == rec.dt.hex()
    for field in ("a_tilde", "b_tilde", "basis", "eigenvalues", "modes"):
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
    """A known-B model index and a dense truth index, each with its sidecars."""
    d = tmp_path_factory.mktemp("indexes")
    rec = next(r for r in _records() if r.kind == "dmdc-known-b")
    dio.write_model(rec, d / "model.json")
    dio.write_truth(gen_sparse_fourier(grid=4, n_modes=1, m=3, seed=2).truth,
                    d / "truth.json")
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


@st.composite
def _csv_of_matrix(draw):
    """Shortest reprs of a random float64 matrix, cells padded with
    whitespace and lines ended by newlines or blank lines."""
    m = draw(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ))
    pad = draw(_CSV_PADS)
    return "".join(
        ",".join(pad + repr(v) + pad for v in row) + draw(_CSV_LINE_ENDS)
        for row in m.tolist()
    )


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
