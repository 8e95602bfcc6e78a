"""The scripts under ``scripts/`` run end to end with small arguments."""

import importlib.util
import json
from pathlib import Path

from qutritmap.schemes import SCHEMES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_script_mains_run(capsys):
    assert load_script("headline_probabilities").main(["--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["scheme"] for r in rows] == list(SCHEMES)
    assert load_script("leakage_sweep").main(["--alpha-theta", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[2].split()[0] == "1.00"
