"""The paired-comparison tools under tools/, loaded by their paths as
``python3 tools/NAME.py`` runs them."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(params=["same_bytes", "ab_api"])
def tool(request, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # a script's own directory leads sys.path
    spec = importlib.util.spec_from_file_location(f"tool_{request.param}", TOOLS / f"{request.param}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
