"""Documents: one-line JSON reports that re-parse exactly, written in the bytes of
``json.dumps``, matrix blocks and CSV, entries read in one pass with the per-entry bits,
and malformed input refused with one short error line."""

import contextlib
import io
import json
import math
import string
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speccomp import InputFormatError, all_components, analyze
from speccomp.cli import main
from speccomp.documents import (
    _entries,
    _pair,
    csv_render,
    document_payload,
    load_document,
    matrix_block,
    matrix_from_block,
    write_json,
)
from speccomp.linalg import as_matrix

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-300, 0.1, -2.5, float("nan"),
               float("inf"), float("-inf")]

floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
finite_floats = st.one_of(st.sampled_from([x for x in EDGE_FLOATS if np.isfinite(x)]),
                          st.floats(allow_nan=False, allow_infinity=False))
text = st.one_of(st.sampled_from(["", "é", "naïve \"quoted\"", "back\\slash", "雪\n\t "]),
                 st.text())
pairs = st.lists(st.lists(st.one_of(finite_floats, floats), min_size=2, max_size=2))
scalars = st.one_of(floats, st.integers(), st.booleans(), st.none(), text)
payloads = st.recursive(
    st.one_of(scalars, pairs),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(text, inner, max_size=4)),
    max_leaves=30,
)


def _same(got, want) -> bool:
    """Equal values of equal types, NaN equal to NaN and -0.0 apart from 0.0."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        if math.isnan(want):
            return math.isnan(got)
        return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same, got, want))
    if isinstance(want, dict):
        return list(got) == list(want) and all(_same(got[key], want[key]) for key in want)
    return got == want


def _written(obj) -> str:
    out = io.StringIO()
    write_json(obj, out)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(text, payloads, max_size=4), payloads, st.lists(payloads, max_size=4))
def test_report_is_one_line_that_reparses_to_the_payload(head, payload, items):
    # an iterator-valued key is written as the array of its elements
    want = {**head, "value": payload, "items": items}
    out = _written({**want, "items": iter(items)})
    assert out == json.dumps(want) + "\n"
    assert out.count("\n") == 1 and out.endswith("\n")
    assert _same(json.loads(out), want)


def test_empty_report_is_written_as_json_dumps():
    assert _written({}) == json.dumps({}) + "\n"


names = st.text(alphabet=string.ascii_letters + string.digits + "_", max_size=6)
float_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(finite_floats, min_size=2 * n, max_size=2 * n), min_size=1, max_size=4)
).map(lambda rows: np.array(rows, dtype=float).view(complex))
named_matrices = st.lists(st.tuples(names, float_matrices), min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(named_matrices, named_matrices)
def test_csv_of_blocks_written_apart_is_the_csv_written_at_once(a, b):
    assert csv_render(a + b) == csv_render(a) + csv_render(b)


# ints inside the float range, where numpy and float() must round alike
entry_numbers = st.one_of(finite_floats, st.integers(-(2**64), 2**64), st.integers(-(2**1000), 2**1000))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.lists(entry_numbers, min_size=2, max_size=2),
                                             min_size=n * n, max_size=n * n))))
def test_entries_read_in_one_pass_have_the_per_entry_bits(case):
    n, entries = case
    got = _entries(entries, n)
    want = np.array([_pair(e, "") for e in entries], dtype=complex).reshape(n, n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _first_bad(entries):
    """Index of the first entry :func:`_pair` refuses, None when it refuses none."""
    for i, e in enumerate(entries):
        try:
            _pair(e, "")
        except InputFormatError:
            return i
    return None


# what a JSON entry list can hold: number pairs, with NaN, infinities and ints
# past the float range among the numbers, and every other JSON value
json_numbers = st.one_of(entry_numbers, floats, st.integers(-(2**1100), 2**1100))
json_values = st.one_of(json_numbers, st.booleans(), st.none(), text)
json_entries = st.one_of(st.lists(json_numbers, min_size=2, max_size=2), json_values,
                         st.lists(json_values, max_size=3), st.dictionaries(text, json_values, max_size=2))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(json_entries, min_size=n * n, max_size=n * n))))
def test_entries_the_one_pass_read_rejects_are_refused_at_the_first_bad_one(case):
    n, entries = case
    bad = _first_bad(entries)
    try:
        got = _entries(entries, n)
    except InputFormatError as exc:
        assert bad is not None and str(exc).startswith(f"entries[{bad}]: ")
    else:
        assert bad is None
        want = np.array([_pair(e, "") for e in entries], dtype=complex).reshape(n, n)
        assert got.tobytes() == want.tobytes()


def test_components_report_is_one_line_of_bit_exact_matrices(tmp_path, capsys):
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m[1, 2] = -0.0
    doc = tmp_path / "m.json"
    doc.write_text(json.dumps(document_payload(m)), encoding="utf-8")
    assert main(["components", "--input", str(doc)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    parts = all_components(m, analyze(m)).parts
    report = json.loads(out)["components"]
    assert sorted((c["k"], c["j"]) for c in report) == sorted(parts)
    for c in report:
        got, want = matrix_from_block(c["matrix"]), parts[(c["k"], c["j"])]
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def _old_block(m):
    flat = np.asarray(m, dtype=complex).ravel()
    return {"n": int(m.shape[0]), "entries": [[float(z.real), float(z.imag)] for z in flat]}


def _old_csv(named_matrices):
    lines = []
    for name, m in named_matrices:
        lines.append(name)
        for row in np.asarray(m, dtype=complex):
            cells = []
            for z in row:
                cells.append(repr(float(z.real)))
                cells.append(repr(float(z.imag)))
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_matrix_block_matches_per_element_build():
    rng = np.random.default_rng(3)
    full = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    full[0, 0] = complex(-0.0, -0.0)
    full[1, 1] = complex(0.0, -0.0)
    cases = [
        full,
        full[::2, ::2],                   # strided
        full.T,                           # Fortran order
        np.array([[-0.0, 1.5], [2.0, -3.0]]),  # real dtype with a negative zero
        np.eye(3, dtype=np.float32),
    ]
    for m in cases:
        new, old = matrix_block(m), _old_block(m)
        # repr tells -0.0 from 0.0 and a numpy scalar from a float
        assert repr(new) == repr(old)
        assert all(type(x) is float for pair in new["entries"] for x in pair)
        assert csv_render([("m", m)]) == _old_csv([("m", m)])
    named = [(f"Z_{i}", m) for i, m in enumerate(cases)]
    assert csv_render(named) == _old_csv(named)


# A valid document; each strategy below puts a generated value in one place.
BASE = {
    "n": 2,
    "entries": [[0, 0], [0, 0], [0, 0], [2, 0]],
    "spectrum": [{"value": [2, 0], "multiplicity": 1, "index": 1},
                 {"value": [0, 0], "multiplicity": 1, "index": 1}],
}


def _number(x) -> bool:
    """A value the parser takes as a finite number."""
    return type(x) is int or (type(x) is float and math.isfinite(x))


def _with(place, value):
    doc = json.loads(json.dumps(BASE))
    if place == "n":
        doc["n"] = value
    elif place == "entries":
        doc["entries"] = value
    elif place == "pair":
        doc["entries"][1] = value
    else:
        doc["spectrum"][0] = value
    return json.dumps(doc).encode()


def _float(cell: str) -> bool:
    try:
        float(cell.strip())
    except ValueError:
        return False
    return True


# drop the generated values that would make the document valid
malformed_json = st.one_of(
    payloads.filter(lambda v: not (type(v) is int and v == 2)).map(lambda v: _with("n", v)),
    payloads.filter(lambda v: not (isinstance(v, list) and len(v) == 4))
    .map(lambda v: _with("entries", v)),
    payloads.filter(lambda v: not (isinstance(v, list) and len(v) == 2 and all(map(_number, v))))
    .map(lambda v: _with("pair", v)),
    payloads.filter(lambda v: not (isinstance(v, dict) and {"value", "multiplicity", "index"} <= set(v)))
    .map(lambda v: _with("record", v)),
)
cells = st.one_of(st.sampled_from(["1", "-2.5", "nan", "inf", "1e999", "", " ", "x", "1_0"]),
                  st.text(alphabet=string.printable.replace(",", "").strip(), max_size=6))
csv_rows = st.lists(st.lists(cells, min_size=1, max_size=5), min_size=1, max_size=4).map(
    lambda rows: "\n".join(",".join(row) for row in rows)
).filter(lambda text: any(line.strip() and not all(map(_float, line.split(",")))
                          for line in text.splitlines()))


def _spectrum_cli(data: bytes, suffix: str):
    """``main(["spectrum", "--input", file])`` on ``data``: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"doc{suffix}"
        path.write_bytes(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["spectrum", "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    malformed_json.map(lambda data: (data, ".json")),
    st.binary(max_size=64).map(lambda data: (data, ".json")),
    csv_rows.map(lambda text: (text.encode(), ".csv")),
))
def test_malformed_document_exits_1_with_one_short_error_line(case):
    code, out, err = _spectrum_cli(*case)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 300


@pytest.mark.parametrize("data, suffix, message", [
    (b"[1, 2]", ".json", "document root must be a JSON object"),
    (b'{"n": 1, "entries": [[1, 0]], "spectrum": []}', ".json", "'spectrum' must be a nonempty list of records"),
    (b"1,0,0,0\n0,0\n", ".csv", "line 2: expected 4 columns like the first row, got 2"),
    (b"\n  \n", ".csv", "CSV document contains no data rows"),
    (b"1,0,2,0\n", ".csv", "CSV matrix must be square: 1 rows need 2 columns (re,im pairs), got 4"),
    (b"inf,0\n", ".csv", "CSV entries must be finite"),
], ids=["root-not-object", "empty-spectrum", "ragged-csv", "csv-no-rows", "csv-not-square", "csv-inf"])
def test_each_document_refusal_exits_1_with_its_message(data, suffix, message):
    assert _spectrum_cli(data, suffix) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("name, text", [
    ("doc.json", '{"n": 2, "entries": [[1, 2], [3.5, -4], [0, 0], [-0.0, 1e-300]]}'),
    ("doc.csv", "1,2,3.5,-4\n0,0,-0.0,1e-300\n"),
], ids=["json", "csv"])
def test_loaded_matrix_is_one_the_library_entries_accept_as_it_is(tmp_path, name, text):
    # the command line passes the loader's matrix on unchecked
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    matrix, _ = load_document(path)
    assert matrix.dtype == np.complex128 and matrix.shape == (2, 2) and matrix.flags.c_contiguous
    assert np.isfinite(matrix).all()
    assert as_matrix(matrix).view(float).tobytes() == matrix.view(float).tobytes()
    assert matrix.view(float).tolist() == [[1.0, 2.0, 3.5, -4.0], [0.0, 0.0, -0.0, 1e-300]]
