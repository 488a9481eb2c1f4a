"""Document rendering: one-line JSON reports that re-parse exactly, matrix blocks and CSV."""

import json
import math

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
