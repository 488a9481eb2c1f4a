"""numpy is the only dependency: no import, subcommand or solve loads scipy.

Each check runs in a fresh interpreter, so ``sys.modules`` holds only what
speccomp and the check itself loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import speccomp

SRC = str(Path(speccomp.__file__).resolve().parent.parent)

PRELUDE = """
import contextlib, io, json, sys
import speccomp
from speccomp.cli import main

def quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)
"""

# row-stochastic, eigenvalues 1, 0.5 and 0: every subcommand exits 0 on it
CHAIN = {
    "n": 3,
    "entries": [[0.5, 0], [0.5, 0], [0, 0],
                [0.25, 0], [0.5, 0], [0.25, 0],
                [0, 0], [0.5, 0], [0.5, 0]],
}


def fresh(body: str, *args: str) -> dict:
    """Run ``PRELUDE + body`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + body, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def chain_document(tmp_path) -> str:
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN), encoding="utf-8")
    return str(path)


def test_import_and_factorization_free_subcommands_leave_scipy_unloaded(tmp_path):
    out = fresh(
        """
doc = sys.argv[1]
after_import = "scipy" in sys.modules
codes = {c: quiet([c, "--input", doc]) for c in ("spectrum", "projector", "components", "cesaro")}
codes["verify"] = quiet(["verify", "--input", doc, "--against", doc])
print(json.dumps({"after_import": after_import, "codes": codes, "after_cli": "scipy" in sys.modules}))
""",
        chain_document(tmp_path),
    )
    assert out["after_import"] is False
    assert out["codes"] == {c: 0 for c in ("spectrum", "projector", "components", "cesaro", "verify")}
    assert out["after_cli"] is False


def test_drazin_loads_scipy_and_exits_0(tmp_path):
    """``drazin`` exits 0 and, like every other subcommand, leaves scipy unloaded.

    The name dates from when ``drazin`` was the one subcommand that loaded
    scipy; it is kept so the check keeps its identity in test reports.
    """
    out = fresh(
        """
code = quiet(["drazin", "--input", sys.argv[1]])
print(json.dumps({"code": code, "loaded": "scipy" in sys.modules}))
""",
        chain_document(tmp_path),
    )
    assert out == {"code": 0, "loaded": False}


def test_first_solve_on_a_singular_matrix_reports_its_pivot():
    out = fresh(
        """
import numpy as np
try:
    speccomp.linalg.solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2))
    raised, pivot = None, None
except speccomp.SingularMatrixError as exc:
    raised, pivot = type(exc).__name__, exc.pivot
print(json.dumps({"raised": raised, "pivot": pivot, "loaded": "scipy" in sys.modules}))
"""
    )
    assert out["raised"] == "SingularMatrixError"
    assert isinstance(out["pivot"], float) and 0.0 <= out["pivot"] < 1e-10
    assert out["loaded"] is False
