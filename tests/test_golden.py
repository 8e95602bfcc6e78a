"""CLI output compared byte for byte with reports recorded from a reference build.

Each case is one ``qutritmap`` command line; its expected stdout lives in
``tests/golden/<case>.out``.  The files were produced by running each command
line through ``qutritmap.cli.main`` at a known-good commit, so a refactor
that claims to leave the numbers alone is checked against the code before
it, not only against itself.
"""

from pathlib import Path

import pytest

from qutritmap.cli import main
from qutritmap.schemes import SCHEMES

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    # the README's CLI examples (the u3-kerr one without --out)
    "readme-run-kerr-forward": [
        "run", "--scheme", "kerr-forward",
        "--alpha", "0.5", "--beta", "0.5+0.5j", "--gamma", "-0.5",
    ],
    "readme-run-u3-kerr": [
        "run", "--scheme", "u3-kerr", "--random", "--matrix", "random", "--seed", "42",
    ],
    "readme-run-linear-forward-csv": [
        "run", "--scheme", "linear-forward", "--random", "--seed", "1", "--format", "csv",
    ],
    "readme-sweep-kerr-forward": [
        "sweep", "--scheme", "kerr-forward", "--random", "--seed", "3",
        "--param", "meas_mode=physical", "--axis", "qubus_alpha", "--values", "5,10,20,40",
    ],
    # the eraser and merge paths in physical mode and the quadrature variant
    "run-entangler-physical-seed5": [
        "run", "--scheme", "entangler", "--seed", "5", "--param", "meas_mode=physical",
    ],
    "run-kerr-inverse-physical-seed5": [
        "run", "--scheme", "kerr-inverse", "--seed", "5", "--param", "meas_mode=physical",
    ],
    "run-kerr-forward-separate-qnd-seed5": [
        "run", "--scheme", "kerr-forward", "--seed", "5", "--param", "variant=separate-qnd",
    ],
}
for _name in SCHEMES:
    CASES[f"run-{_name}-seed5"] = ["run", "--scheme", _name, "--seed", "5"] + (
        ["--matrix", "random"] if _name.startswith("u3-") else []
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, capsys):
    code = main(CASES[case])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
