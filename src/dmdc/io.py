"""File formats: text and binary matrices, model records, ground truth.

All writers are atomic (write to a temp file, rename on success) and all
round trips are bitwise stable: CSV cells use shortest round-trip decimal
reprs and the binary format is little-endian float64.

A snapshot pair cut from one trajectory shares all but one column: X' is X
advanced one column. When the bytes of two CSV files show that shift,
``read_shifted_csv`` builds X' from X and parses only its new last column;
on any other input it returns None and the caller parses X' in full. The
array is the same either way.

The writers mirror that. A CSV file is formatted and written in row
blocks of at most ``CSV_BLOCK_BYTES`` of text through one atomic file, so
no writer holds a whole file's lines, text and bytes. ``write_shifted_csv``
writes a pair whose X' is X advanced one column, bit for bit, from one
formatted line per row of [X | last column of X'], so each shared cell is
formatted once; any other pair it writes as two ``write_matrix_csv``
calls. Either way each file is byte for byte what ``write_matrix_csv``
writes.

Model records and ground truth are a JSON index plus binary sidecars. The
index holds the small fields (kinds, ranks, dt, reduced operators,
eigenvalues, provenance) as plain JSON numbers, which round-trip every
float bit for bit; eigenvalues are [re, im] rows, and a DMD record's
b_tilde is r x 0, r empty rows. Older indexes, which stored each float as
a [decimal, hex] pair, are rejected and must be regenerated.
Each n-sized matrix lives in a sibling ``<stem>_<tag>.bin`` file (complex
ones split into ``_re`` and ``_im``) that the index names together with
the sha256 of its bytes, so a stale or edited sidecar is rejected.
Sidecars are written before the index, each atomically.

A ``.bin`` read returns a read-only column-major view of the file's bytes,
not a copy: the bytes are the array. From ``DIGEST_THREAD_MIN_BYTES`` on
they are a read-only map of the file, which must not be rewritten in place
or truncated while its arrays are held (a truncation ends the process with
SIGBUS); the writers here replace a file only by rename, which is safe.

Each digest is resolved in the function that starts it. A writer hashes
a large sidecar on a thread of its own (``Sha256Digest``) while the file
is written, and joins it before it returns the sidecar's index entry. A
reader hashes each sidecar on the calling thread as it is read and raises
at once on a mismatch, before the next sidecar is opened. Only the CLI
keeps a digest pending past its read: each input's, on a thread for the
whole fit.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import mmap
import os
import secrets
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dmd import _valid_dt
from .errors import FormatError, InvalidInputError, LengthError, ParseError, SchemaError
from .linalg import as_matrix
from .synth import ActuationSpec, GroundTruth

BIN_MAGIC = b"DMDCMAT1"
MODEL_KINDS = ("dmd", "dmdc-known-b", "dmdc-unknown-b")


@contextlib.contextmanager
def _atomic_file(path):
    """A new binary file, open for writing, that replaces ``path`` when the
    ``with`` block ends; on any error it is removed and ``path`` is left
    as it was. A writer may write it in as many chunks as it likes."""
    path = Path(path)
    # O_EXCL with mode 0o666 creates a fresh temp file with the mode open()
    # would give it under the umask, which is never read or set here; a
    # name that is taken is skipped for a new random one.
    while True:
        tmp = path.parent / f".{path.name}.{secrets.token_hex(4)}"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_bytes(path, data: bytes) -> None:
    with _atomic_file(path) as f:
        f.write(data)


# Data of at least this many bytes is hashed on a thread of its own, below
# it on the calling thread. Handing a digest to another thread costs more
# than hashing a small buffer: with every digest handed to a worker thread,
# the benchmark's sweep workload, whose files are all about 200 KB, took 9%
# longer per pass, and starting and joining a thread costs 45 us against
# that handoff's 12.5 us (2-core x86-64 VM, one BLAS thread).
DIGEST_THREAD_MIN_BYTES = 1 << 20


def _hexdigest(data) -> str:
    return hashlib.sha256(data).hexdigest()


class Sha256Digest:
    """The hex sha256 of ``data`` (bytes, a bytearray or an ``mmap``), as an
    object whose ``result()`` returns it, or raises what the hash raised.

    Data of ``DIGEST_THREAD_MIN_BYTES`` or more is hashed on a daemon
    thread that the constructor starts for it alone, while the caller goes
    on; the caller must leave ``data`` unchanged until ``result()`` returns.
    Smaller data is hashed before the constructor returns. Two callers use
    it: the CLI, whose input digests run during the whole fit, and
    ``write_model``/``write_truth``, each of whose sidecar digests runs
    while that sidecar is written.
    """

    def __init__(self, data):
        self._hex = self._error = self._thread = None
        if len(data) < DIGEST_THREAD_MIN_BYTES:
            self._hex = _hexdigest(data)
            return
        self._thread = threading.Thread(target=self._compute, args=(data,),
                                        name="dmdc-sha256", daemon=True)
        self._thread.start()

    def _compute(self, data) -> None:  # on the digest's thread
        try:
            self._hex = _hexdigest(data)
        except BaseException as exc:  # raised again by result(), in the caller
            self._error = exc

    def result(self) -> str:
        """The hex digest, once computed; raises what the hash raised."""
        if self._thread is not None:
            self._thread.join()
        if self._error is not None:
            raise self._error
        return self._hex


def _input_bytes(path):
    """The bytes of the input file at ``path``: a read-only map of a ``.bin``
    file of ``DIGEST_THREAD_MIN_BYTES`` or more, else a copy."""
    path = Path(path)
    if path.suffix == ".bin" and path.stat().st_size >= DIGEST_THREAD_MIN_BYTES:
        with open(path, "rb") as f:
            return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    return path.read_bytes()


def write_text_atomic(path, text: str) -> None:
    """Write UTF-8 text with no partial output on failure."""
    _atomic_write_bytes(path, text.encode("utf-8"))


def _decode_text(data: bytes, path) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason}") from None


def read_json_object(path, what: str) -> dict:
    """Parse a file holding one JSON object.

    Raises FormatError if the file is not UTF-8 and SchemaError if it is
    not one JSON object (bad syntax and nesting too deep included).
    """
    text = _decode_text(Path(path).read_bytes(), path)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: not a valid {what} document: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return doc


def csv_lines(m) -> list[str]:
    """The CSV lines of a 2-D float array, one per row: each cell is its
    shortest round-trip repr, cells joined by commas. Every matrix file and
    every CLI table is written by this one rule; any float is formatted,
    a NaN or an infinity included."""
    return [",".join(map(repr, row.tolist())) for row in np.asarray(m, dtype=np.float64)]


# A CSV file is written, and screened on read, in blocks of at most this
# many bytes, so no writer holds a whole file's lines, text and bytes.
CSV_BLOCK_BYTES = 1 << 20
# The longest repr of a float64, "-2.2250738585072014e-308", and its comma.
_CELL_BYTES_MAX = 25


def _row_blocks(rows: int, width: int):
    """Slices of ``rows`` rows whose CSV text, ``width`` cells a row, fits
    in ``CSV_BLOCK_BYTES`` (a row at least)."""
    step = max(1, CSV_BLOCK_BYTES // (_CELL_BYTES_MAX * width))
    return (slice(i, i + step) for i in range(0, rows, step))


def _csv_bytes(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_matrix_csv(m, path) -> None:
    """Write a matrix as CSV, one state row per line, snapshots as columns."""
    a = as_matrix(m, "matrix")
    with _atomic_file(path) as f:
        for rows in _row_blocks(*a.shape):
            f.write(_csv_bytes(csv_lines(a[rows])))


def write_shifted_csv(x, xp, x_path, xp_path) -> None:
    """Write X and X' byte for byte as two ``write_matrix_csv`` calls would.

    When X' is X advanced one column, x'[:, :-1] equal to x[:, 1:] bit for
    bit, each row of [X | last column of X'] is formatted once: the X line
    is that line cut before its last comma, the X' line the same line after
    its first comma. Any other pair is written by two ``write_matrix_csv``
    calls, a shared cell that differs only in the sign of zero included.
    """
    x, xp = as_matrix(x, "matrix"), as_matrix(xp, "matrix")
    if x.shape != xp.shape or not np.array_equal(x[:, 1:].view(np.int64),
                                                 xp[:, :-1].view(np.int64)):
        write_matrix_csv(x, x_path)
        write_matrix_csv(xp, xp_path)
        return
    rows, cols = x.shape
    with _atomic_file(x_path) as fx, _atomic_file(xp_path) as fxp:
        for block in _row_blocks(rows, cols + 1):
            lines = csv_lines(np.column_stack((x[block], xp[block, -1])))
            fx.write(_csv_bytes([line[:line.rindex(",")] for line in lines]))
            fxp.write(_csv_bytes([line[line.index(",") + 1:] for line in lines]))


def read_matrix_csv(path, data: bytes | None = None) -> np.ndarray:
    """Read a CSV matrix; rows are state entries, columns snapshots.

    ``data`` is the file's content when the caller has already read it
    (to hash the bytes it parses); ``path`` then only names the file in
    messages. Raises FormatError for ragged rows (with the line number)
    and ParseError for cells that are not finite decimals (with
    coordinates).
    """
    if data is None:
        data = Path(path).read_bytes()
    # splitlines() ends a line at \r and \r\n, so no newline translation
    text = _decode_text(data, path)
    lines = text.splitlines()
    while lines and lines[-1].strip() == "":
        lines.pop()
    if not lines:
        raise FormatError(f"{path}: empty matrix file")
    a = _loadtxt(text, lines)
    if a is None:
        a = _parse_cells(lines, path)
    return a


def _loadtxt(text: str, lines: list[str]) -> np.ndarray | None:
    """numpy's C reader, or None wherever its result could differ from
    ``_parse_cells``, which then decides between an array and an error."""
    # numpy strips from a cell every character for which str.isspace() holds;
    # float() does not strip U+001F (U+001C-U+001E already end a line)
    if "\x1f" in text:
        return None
    try:
        a = np.loadtxt(lines, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    # loadtxt skips blank lines, which _parse_cells reports as ragged rows
    if a.shape[0] != len(lines) or not np.isfinite(a).all():
        return None
    return a


def _parse_cells(lines: list[str], path) -> np.ndarray:
    width = None
    rows = []
    for i, line in enumerate(lines, start=1):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise FormatError(
                f"{path}: line {i}: expected {width} cells, got {len(cells)}"
            )
        row = []
        for j, cell in enumerate(cells, start=1):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: line {i}, column {j}: not a number: {cell.strip()!r}"
                ) from None
            if not math.isfinite(v):
                raise ParseError(f"{path}: line {i}, column {j}: non-finite value")
            row.append(v)
        rows.append(row)
    return np.array(rows, dtype=np.float64)


# The bytes of a plain CSV file: one decimal per cell, lines ended by \n.
_PLAIN_CSV_BYTES = b"0123456789+-.eE,\n"


def read_shifted_csv(x: np.ndarray, x_data: bytes, data: bytes) -> np.ndarray | None:
    """X' read as ``x`` advanced one column, or None.

    ``x`` is the matrix ``read_matrix_csv`` parsed from the bytes
    ``x_data``, and ``data`` holds the candidate X'. The shift is taken
    only when ``data`` holds nothing but digits, signs, points, exponents,
    commas and newlines, each line of ``data`` is the matching line of
    ``x_data`` after its first comma, then a comma and one more cell, the
    new cells are finite decimals, and ``data`` ends in nothing but
    newlines. The result is then x[:, 1:] with the new cells as its last
    column, bit for bit what ``read_matrix_csv(data)`` returns, since
    equal cell texts parse to equal floats; only the new cells are parsed.
    Any other input, CRLF line ends and padded cells included, gives None,
    and the caller parses ``data`` in full.

    Only ``data`` is scanned for other bytes. The bytes of ``x_data`` that
    the result takes, each line after its first comma, equal bytes of
    ``data`` and so are plain too, and X's first cells are not taken.
    Nor can a line break other than a newline hide in a first cell: it
    would split off a line with no comma from one with commas, and X,
    ragged, would not have parsed.
    """
    # in blocks: translate() builds a result the size of its input
    for i in range(0, len(data), CSV_BLOCK_BYTES):
        if data[i:i + CSV_BLOCK_BYTES].translate(None, _PLAIN_CSV_BYTES):
            return None
    rows = x.shape[0]
    new = np.empty(rows)
    i = j = 0  # where the current line starts in x_data and in data
    for row in range(rows):
        end = x_data.find(b"\n", i)
        end = len(x_data) if end < 0 else end
        comma = x_data.find(b",", i, end)
        if comma < 0:
            return None
        shared = x_data[comma + 1:end]
        k = j + len(shared)
        if not data.startswith(shared, j) or data[k:k + 1] != b",":
            return None
        stop = data.find(b"\n", k)
        stop = len(data) if stop < 0 else stop
        try:  # float() takes no comma, so this is one cell
            value = float(data[k + 1:stop])
        except ValueError:
            return None
        if not math.isfinite(value):
            return None
        new[row] = value
        i, j = end + 1, stop + 1
    if data[j:].strip(b"\n"):
        return None
    return np.column_stack((x[:, 1:], new))


def _bin_bytes(m) -> bytearray:
    a = as_matrix(m, "matrix")
    rows, cols = a.shape
    buf = bytearray(24 + 8 * a.size)
    buf[:24] = BIN_MAGIC + struct.pack("<QQ", rows, cols)
    # the payload is written once, column-major, straight into the buffer
    payload = np.frombuffer(buf, dtype="<f8", offset=24)
    payload.reshape((rows, cols), order="F")[...] = a
    return buf


def write_matrix_bin(m, path) -> None:
    """Write the binary matrix format: magic, u64 dims, column-major f64."""
    _atomic_write_bytes(path, _bin_bytes(m))


def read_matrix_bin(path, data: bytes | None = None) -> np.ndarray:
    """Read the binary matrix format written by write_matrix_bin.

    ``data`` is the file's content when the caller has already read it;
    ``path`` then only names the file in messages; without it a file of
    ``DIGEST_THREAD_MIN_BYTES`` or more is mapped. The result is a
    read-only column-major view of the payload in ``data``, not a copy:
    the read adds no n x m array next to the bytes, and a digest of the
    bytes holds nothing beside the array.
    """
    if data is None:
        data = _input_bytes(path)
    if len(data) < 8 or data[:8] != BIN_MAGIC:
        raise FormatError(f"{path}: bad magic bytes")
    if len(data) < 24:
        raise LengthError(f"{path}: truncated header")
    rows, cols = struct.unpack("<QQ", data[8:24])
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: non-positive dimensions {rows}x{cols}")
    expected = rows * cols * 8
    if len(data) - 24 != expected:
        raise LengthError(
            f"{path}: payload is {len(data) - 24} bytes, expected {expected}"
        )
    flat = np.frombuffer(data, dtype="<f8", offset=24)
    flat.flags.writeable = False  # a bytearray's view would be writable
    return flat.reshape((rows, cols), order="F")


# --- index numbers ----------------------------------------------------------
#
# Floats in an index are plain JSON numbers: json writes a float as its
# shortest round-trip repr and reads it back with float(), so every bit
# survives, signed zeros and subnormals included. Complex values are
# [re, im] rows.

def _as_float(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {type(v).__name__}")
    try:
        return float(v)
    except OverflowError:
        raise SchemaError(f"{where}: integer overflows a float") from None


def read_actuation_spec(path) -> ActuationSpec:
    """Read an actuation spec: one JSON object with the optional keys
    ``center`` (null or [x, y]), ``width`` and ``amplitude``.

    Raises SchemaError for any other key and for a value that is not a
    number (a bool or a string included). A non-finite number is read as
    is; ``gen_sparse_fourier`` rejects it.
    """
    doc = read_json_object(path, "actuation spec")
    where = f"{path}: bad actuation spec"
    unknown = sorted(doc.keys() - {"center", "width", "amplitude"})
    if unknown:
        raise SchemaError(f"{where}: unknown keys {unknown}")
    spec = {k: _as_float(v, f"{where}: {k}") for k, v in doc.items() if k != "center"}
    center = doc.get("center")
    if center is not None:
        if not (isinstance(center, list) and len(center) == 2):
            raise SchemaError(f"{where}: center must be null or [x, y], got {center!r}")
        spec["center"] = tuple(_as_float(c, f"{where}: center") for c in center)
    return ActuationSpec(**spec)


def _dec_real(v, where: str) -> float:
    f = _as_float(v, where)
    if not math.isfinite(f):
        raise SchemaError(f"{where}: non-finite value {f!r}")
    return f


def _require_storable(dt, **fields) -> None:
    # json would write NaN or Infinity, and a dt that is not positive, which
    # the readers reject; a sidecar would keep a non-finite entry that the
    # fit rejects. Every field is checked before the first file is written.
    if not _valid_dt(float(dt)):
        raise InvalidInputError(f"dt must be finite and positive, got {dt!r}")
    for name, v in fields.items():
        if v is not None and not np.all(np.isfinite(v)):
            raise InvalidInputError(f"{name} contains non-finite entries")


def _complex_rows(z) -> list:
    z = np.asarray(z)
    return np.column_stack([z.real, z.imag]).tolist()


def _dec_real_matrix(rows, where: str) -> np.ndarray:
    if not (isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows)):
        raise SchemaError(f"{where}: expected a non-empty array of rows")
    if len({len(r) for r in rows}) != 1:
        raise SchemaError(f"{where}: ragged rows")
    return np.array([[_dec_real(v, where) for v in row] for row in rows],
                    dtype=np.float64)


# --- binary sidecars --------------------------------------------------------
#
# A sidecar entry in an index is {"file": name, "sha256": hex digest}; a
# complex matrix is {"re": entry, "im": entry}. Sidecar names are plain
# ``.bin`` file names resolved next to the index, so an index cannot point
# a reader elsewhere.

def _write_sidecar(index: Path, tag: str, mat) -> dict | None:
    if mat is None:
        return None
    name = f"{index.stem}_{tag}.bin"
    data = _bin_bytes(mat)
    digest = Sha256Digest(data)  # runs while the file is written
    _atomic_write_bytes(index.parent / name, data)
    return {"file": name, "sha256": digest.result()}


def _index_json(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def _read_sidecar(index: Path, entry, where: str) -> np.ndarray | None:
    if entry is None:
        return None
    if (
        not isinstance(entry, dict)
        or not isinstance(entry.get("file"), str)
        or not isinstance(entry.get("sha256"), str)
    ):
        raise SchemaError(
            f"{where}: expected a sidecar entry {{file, sha256}}, "
            f"got {type(entry).__name__}"
        )
    name = entry["file"]
    if Path(name).name != name or not name.endswith(".bin") or "\0" in name:
        raise SchemaError(f"{where}: sidecar {name!r} is not a plain .bin file name")
    side = index.parent / name
    try:
        data = _input_bytes(side)
    except FileNotFoundError:
        raise FormatError(f"{side}: sidecar named by {where} is missing") from None
    mat = read_matrix_bin(side, data)
    if _hexdigest(data) != entry["sha256"]:
        raise SchemaError(f"{where}: {side} does not match its sha256 digest")
    return mat


def _write_complex_sidecars(index: Path, tag: str, z) -> dict | None:
    if z is None:
        return None
    return {
        "re": _write_sidecar(index, f"{tag}_re", np.real(z)),
        "im": _write_sidecar(index, f"{tag}_im", np.imag(z)),
    }


def _read_complex_sidecars(index: Path, entry, where: str) -> np.ndarray | None:
    if entry is None:
        return None
    if not isinstance(entry, dict) or entry.keys() != {"re", "im"}:
        raise SchemaError(f"{where}: expected {{re, im}} sidecar entries")
    re_part = _read_sidecar(index, entry["re"], f"{where}.re")
    im_part = _read_sidecar(index, entry["im"], f"{where}.im")
    if re_part is None or im_part is None or re_part.shape != im_part.shape:
        raise SchemaError(f"{where}: needs real and imaginary parts of one shape")
    z = np.empty(re_part.shape, dtype=np.complex128)
    z.real, z.imag = re_part, im_part  # bitwise, signed zeros included
    return z


@dataclass(frozen=True)
class ModelRecord:
    """Serializable snapshot of a fitted model plus its provenance.

    ``b_tilde`` is r x l, with l = 0 for plain DMD, as on the model.
    ``input_rank`` and ``output_rank`` are p and r, as on the model; the
    index stores them as ``rank_p`` and ``rank_r``.
    """

    kind: str
    input_rank: int
    output_rank: int
    dt: float
    a_tilde: np.ndarray
    b_tilde: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray
    modes: np.ndarray
    provenance: dict

    @classmethod
    def from_model(cls, model, provenance: dict | None = None) -> "ModelRecord":
        return cls(
            kind=model.kind,
            input_rank=model.input_rank,
            output_rank=model.output_rank,
            dt=model.dt,
            a_tilde=model.a_tilde,
            b_tilde=model.b_tilde,
            basis=model.basis,
            eigenvalues=model.eigen.values,
            modes=model.modes,
            provenance=provenance or {},
        )


def write_model(record: ModelRecord, path) -> None:
    """Serialize a model record: a JSON index plus its basis and mode sidecars.

    The sidecars are ``<stem>_basis.bin``, ``<stem>_modes_re.bin`` and
    ``<stem>_modes_im.bin`` next to ``path``; they are written first and
    the index last. Each sidecar's digest runs on a thread while that file
    is written and is joined before the next sidecar is formatted, so the
    index holds plain hex digests. Raises InvalidInputError, before any
    file is written, if dt is not finite and positive, an entry of
    a_tilde, b_tilde, the eigenvalues, the basis or the modes is not
    finite, or the provenance is not a dict that json can encode.
    """
    if record.kind not in MODEL_KINDS:
        raise SchemaError(f"unknown model kind {record.kind!r}")
    _require_storable(dt=record.dt, a_tilde=record.a_tilde, b_tilde=record.b_tilde,
                      eigenvalues=record.eigenvalues, basis=record.basis,
                      modes=record.modes)
    if not isinstance(record.provenance, dict):
        raise InvalidInputError(
            f"provenance must be a dict, got {type(record.provenance).__name__}")
    try:
        json.dumps(record.provenance)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"provenance cannot be stored as JSON: {exc}") from None
    path = Path(path)
    doc = {
        "kind": record.kind,
        "rank_p": int(record.input_rank),
        "rank_r": int(record.output_rank),
        "dt": float(record.dt),
        "a_tilde": record.a_tilde.tolist(),
        "b_tilde": record.b_tilde.tolist(),
        "basis": _write_sidecar(path, "basis", record.basis),
        "eigenvalues": _complex_rows(record.eigenvalues),
        "modes": _write_complex_sidecars(path, "modes", record.modes),
        "provenance": record.provenance,
    }
    write_text_atomic(path, _index_json(doc))


def _require(doc: dict, key: str, path):
    if key not in doc:
        raise SchemaError(f"{path}: missing field {key!r}")
    return doc[key]


def _read_eigenvalues(doc: dict, path) -> np.ndarray:
    parts = _dec_real_matrix(_require(doc, "eigenvalues", path), f"{path}: eigenvalues")
    if parts.shape[1] != 2:
        raise SchemaError(f"{path}: eigenvalues must be [re, im] rows")
    z = np.empty(parts.shape[0], dtype=np.complex128)
    z.real, z.imag = parts[:, 0], parts[:, 1]  # bitwise, signed zeros included
    return z


def _read_dt(doc: dict, path) -> float:
    dt = _as_float(_require(doc, "dt", path), f"{path}: dt")
    if not _valid_dt(dt):
        raise SchemaError(f"{path}: dt must be finite and positive, got {dt!r}")
    return dt


def read_model(path) -> ModelRecord:
    """Read a model index and its sidecars.

    Raises SchemaError on structural problems, a number that is not finite,
    an index that contradicts itself (b_tilde with columns on a "dmd" kind
    or with other than a_tilde's row count, ranks that disagree with
    a_tilde, a dt that is not finite and positive), a provenance that is
    not a JSON object or a sidecar that does not match its digest,
    FormatError for a missing or malformed sidecar and LengthError for a
    truncated one.
    """
    path = Path(path)
    doc = read_json_object(path, "model")
    kind = _require(doc, "kind", path)
    if kind not in MODEL_KINDS:
        raise SchemaError(f"{path}: unknown model kind {kind!r}")
    rank_p = _require(doc, "rank_p", path)
    rank_r = _require(doc, "rank_r", path)
    if not all(isinstance(r, int) and not isinstance(r, bool) for r in (rank_p, rank_r)):
        raise SchemaError(f"{path}: ranks must be integers")
    basis = _read_sidecar(path, _require(doc, "basis", path), f"{path}: basis")
    modes = _read_complex_sidecars(path, _require(doc, "modes", path), f"{path}: modes")
    if basis is None or modes is None:
        raise SchemaError(f"{path}: basis and modes must name sidecars")
    provenance = _require(doc, "provenance", path)
    if not isinstance(provenance, dict):
        raise SchemaError(f"{path}: provenance must be a JSON object, "
                          f"got {type(provenance).__name__}")
    record = ModelRecord(
        kind=kind,
        input_rank=rank_p,
        output_rank=rank_r,
        dt=_read_dt(doc, path),
        a_tilde=_dec_real_matrix(_require(doc, "a_tilde", path), f"{path}: a_tilde"),
        b_tilde=_dec_real_matrix(_require(doc, "b_tilde", path), f"{path}: b_tilde"),
        basis=basis,
        eigenvalues=_read_eigenvalues(doc, path),
        modes=modes,
        provenance=provenance,
    )
    r = record.a_tilde.shape[0]
    if record.a_tilde.shape != (r, r):
        raise SchemaError(f"{path}: a_tilde must be square")
    if record.basis.shape[1] != r or record.modes.shape[1] != r:
        raise SchemaError(f"{path}: basis/modes width disagrees with a_tilde")
    if record.basis.shape[0] != record.modes.shape[0]:
        raise SchemaError(f"{path}: basis and modes differ in state dimension")
    if record.eigenvalues.shape[0] != r:
        raise SchemaError(f"{path}: eigenvalue count disagrees with a_tilde")
    if record.b_tilde.shape[0] != r:
        raise SchemaError(f"{path}: b_tilde row count disagrees with a_tilde")
    if kind == "dmd" and record.b_tilde.shape[1] != 0:
        raise SchemaError(f"{path}: b_tilde must have zero columns when kind is 'dmd'")
    if rank_r != r or rank_p < rank_r:
        raise SchemaError(
            f"{path}: ranks p={rank_p}, r={rank_r} disagree with a_tilde "
            f"order {r} (need r = {r} <= p)"
        )
    return record


def write_truth(truth: GroundTruth, path, dt: float = 1.0) -> None:
    """Write ground truth: a JSON index plus sibling binary matrices.

    Raises InvalidInputError, before any file is written, if dt is not
    finite and positive or an entry of the eigenvalues, a_true, b_true,
    c_true or modes_true is not finite.
    """
    _require_storable(dt=dt, eigenvalues=truth.eigs_true, a_true=truth.a_true,
                      b_true=truth.b_true, c_true=truth.c_true,
                      modes_true=truth.modes_true)
    path = Path(path)
    files = {
        "a_true": _write_sidecar(path, "a_true", truth.a_true),
        "b_true": _write_sidecar(path, "b_true", truth.b_true),
        "c_true": _write_sidecar(path, "c_true", truth.c_true),
        "modes_true": _write_complex_sidecars(path, "modes", truth.modes_true),
    }
    doc = {
        "kind": "ground-truth",
        "seed": int(truth.seed),
        "dt": float(dt),
        "eigenvalues": _complex_rows(truth.eigs_true),
        "files": files,
    }
    write_text_atomic(path, _index_json(doc))


def read_truth(path) -> tuple[GroundTruth, float]:
    """Read a ground-truth index and its sibling matrices.

    Besides the sidecar errors of ``read_model``, raises SchemaError for a
    bad dt, sidecars that disagree on the state dimension (a non-square
    ``a_true`` included), modes that disagree with the eigenvalues, and an
    ``a_true`` whose order is not the eigenvalue count: older versions
    stored a dense operator at the measurement dimension, and such files
    must be regenerated with ``synth``.
    """
    path = Path(path)
    doc = read_json_object(path, "truth")
    if doc.get("kind") != "ground-truth":
        raise SchemaError(f"{path}: not a ground-truth document")
    files = _require(doc, "files", path)
    if not isinstance(files, dict):
        raise SchemaError(f"{path}: 'files' must be an object")
    seed = _require(doc, "seed", path)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SchemaError(f"{path}: seed must be an integer")

    def _load(tag: str):
        return _read_sidecar(path, files.get(tag), f"{path}: files.{tag}")

    truth = GroundTruth(
        a_true=_load("a_true"),
        b_true=_load("b_true"),
        c_true=_load("c_true"),
        eigs_true=_read_eigenvalues(doc, path),
        modes_true=_read_complex_sidecars(
            path, files.get("modes_true"), f"{path}: files.modes_true"
        ),
        seed=seed,
    )
    dt = _read_dt(doc, path)
    a, modes = truth.a_true, truth.modes_true
    sides = (("a_true rows", a, 0), ("a_true columns", a, 1),
             ("b_true rows", truth.b_true, 0), ("c_true columns", truth.c_true, 1),
             ("modes_true rows", modes, 0))
    dims = {tag: m.shape[axis] for tag, m, axis in sides if m is not None}
    if len(set(dims.values())) > 1:
        raise SchemaError(f"{path}: sidecars disagree on the state dimension: {dims}")
    if modes is not None and modes.shape[1] != truth.eigs_true.size:
        raise SchemaError(f"{path}: modes_true has {modes.shape[1]} columns for "
                          f"{truth.eigs_true.size} eigenvalues")
    if a is not None and a.shape[0] != truth.eigs_true.size:
        raise SchemaError(f"{path}: a_true has order {a.shape[0]} for "
                          f"{truth.eigs_true.size} eigenvalues; a truth from an "
                          "older version must be regenerated with synth")
    return truth, dt
