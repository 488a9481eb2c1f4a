"""The paired-comparison tools under tools/, loaded by their paths as
``python3 tools/NAME.py`` runs them."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # a script's own directory leads sys.path
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["same_bytes", "ab_api"])
def tool(request, monkeypatch):
    return _load(request.param, monkeypatch)


@pytest.mark.parametrize("text, seeds", [("7", [7]), ("7-9", [7, 8, 9]), ("7-9,11,12", [7, 8, 9, 11, 12]),
                                         ("3,5,8", [3, 5, 8]), ("12-12", [12])])
def test_seeds_take_single_seeds_and_ranges(tool, text, seeds):
    assert tool.seeds(text) == seeds


@pytest.mark.parametrize("text", ["", "x", "7-", "-3", "9-7", "7,,8", "7-9-11", "1.5"])
def test_a_bad_seed_is_a_usage_error(tool, capsys, text):
    with pytest.raises(SystemExit) as exit_:
        tool.main(["src", "src", "--seeds", text])
    assert exit_.value.code == 2
    assert "is not a seed or a lo-hi range of seeds" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, largest", [
    (b'{"a": [1.0, 2.5], "b": "x"}\n', b'{"a": [1.0, 2.0], "b": "y"}\n', 0.5),
    (b'{"r": {"i": 0.25, "j": 3}}', b'{"r": {"i": -0.5, "j": 3}}', 0.75),
    (b'{"ok": true}', b'{"ok": false}', 0.0),
    (b'{"a": [1.0]}', b'{"a": [1.0, 2.0]}', None),
    (b'{"a": 1.0}', b'{"b": 1.0}', None),
    (b'1.0,2.0\n', b'1.0,2.5\n', None),
])
def test_same_bytes_sizes_a_moved_report(monkeypatch, old, new, largest):
    assert _load("same_bytes", monkeypatch).largest_difference(old, new) == largest
