"""Documents: one-line JSON reports that re-parse exactly, matrix blocks and CSV, and
malformed input refused with one short error line."""

import contextlib
import io
import json
import math
import string
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from speccomp import all_components, analyze
from speccomp.cli import main
from speccomp.documents import csv_render, document_payload, json_text, matrix_block, matrix_from_block

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


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_report_is_one_line_that_reparses_to_the_payload(payload):
    text = json_text(payload)
    assert text.count("\n") == 1 and text.endswith("\n")
    assert _same(json.loads(text), payload)


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
