"""Document rendering: the JSON writer and matrix blocks against plain ``json``."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from speccomp.cli import main
from speccomp.documents import document_payload, json_text, matrix_block

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


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_writer_matches_json_dumps(payload):
    assert json_text(payload) == json.dumps(payload, indent=2) + "\n"


def test_writer_matches_json_dumps_on_a_components_report(tmp_path, capsys):
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m[1, 2] = -0.0
    doc = tmp_path / "m.json"
    doc.write_text(json.dumps(document_payload(m)), encoding="utf-8")
    assert main(["components", "--input", str(doc)]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert len(payload["components"]) == 4
    assert out == json.dumps(payload, indent=2) + "\n"
    assert json_text(payload) == out


def _old_block(m):
    flat = np.asarray(m, dtype=complex).ravel()
    return {"n": int(m.shape[0]), "entries": [[float(z.real), float(z.imag)] for z in flat]}


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
