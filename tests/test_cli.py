"""Command-line behavior: report schema, determinism, sweeps, config."""

import csv
import functools
import io
import json
import math

import jsonschema
import pytest

from qutritmap.cli import REPORT_SCHEMA, main
from qutritmap.schemes import SCHEMES


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_emits_valid_json_report(capsys):
    code, out, err = run_cli(
        ["run", "--scheme", "kerr-forward", "--random", "--seed", "3"], capsys
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["schema"] == "qutritmap-report/2"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({**payload, "schema": "qutritmap-report/1"}, REPORT_SCHEMA)
    assert payload["scheme"] == "kerr-forward"
    assert payload["seed"] == 3
    assert abs(payload["success_probability"] - 1 / 6) < 1e-10
    prod = 1.0
    for entry in payload["branch_log"]:
        prod *= entry["probability"]
    assert abs(prod - payload["success_probability"]) < 1e-9


def test_all_schemes_report_against_schema(capsys, tmp_path):
    matrix_file = tmp_path / "u.json"
    matrix_file.write_text(json.dumps([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    for scheme in (
        "linear-forward",
        "linear-inverse",
        "kerr-inverse",
        "entangler",
    ):
        code, out, _ = run_cli(["run", "--scheme", scheme, "--seed", "1"], capsys)
        assert code == 0
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)
    code, out, _ = run_cli(
        ["run", "--scheme", "u3-linear", "--seed", "1", "--matrix", str(matrix_file)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, REPORT_SCHEMA)
    assert payload["matrix"][0][1] == [1.0, 0.0]


def test_run_is_byte_identical_for_a_fixed_seed(capsys, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for path in (out_a, out_b):
        code = main(
            [
                "run",
                "--scheme",
                "u3-kerr",
                "--random",
                "--seed",
                "77",
                "--matrix",
                "random",
                "--out",
                str(path),
            ]
        )
        assert code == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_run_csv_has_fixed_columns(capsys):
    code, out, _ = run_cli(
        ["run", "--scheme", "linear-forward", "--format", "csv"], capsys
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["scheme", "seed", "success_probability", "output_fidelity"]
    assert len(rows) == 2
    assert rows[1][0] == "linear-forward"
    assert abs(float(rows[1][2]) - 0.0170568661) < 1e-9


def test_explicit_coefficients_are_normalized_and_recorded(capsys):
    code, out, _ = run_cli(
        [
            "run",
            "--scheme",
            "kerr-forward",
            "--alpha",
            "1",
            "--beta",
            "1j",
            "--gamma",
            "0",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    root_half = 1 / math.sqrt(2)
    assert payload["input"]["alpha"] == [pytest.approx(root_half), 0.0]
    assert payload["input"]["beta"] == [0.0, pytest.approx(root_half)]


def test_sweep_rows_follow_the_value_list(capsys):
    code, out, _ = run_cli(
        [
            "sweep",
            "--scheme",
            "kerr-forward",
            "--axis",
            "qubus_alpha",
            "--values",
            "5,10,20",
            "--param",
            "meas_mode=physical",
            "--param",
            "theta=0.1",
            "--seed",
            "2",
        ],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["qubus_alpha", "success_probability", "output_fidelity"]
    assert len(rows) == 4
    fidelities = [float(r[2]) for r in rows[1:]]
    assert fidelities == sorted(fidelities)


def test_sweep_single_value_matches_run(capsys):
    code, sweep_out, _ = run_cli(
        [
            "sweep",
            "--scheme",
            "linear-forward",
            "--axis",
            "t",
            "--values",
            "0.8",
            "--seed",
            "4",
        ],
        capsys,
    )
    assert code == 0
    row = list(csv.reader(io.StringIO(sweep_out)))[1]
    code, run_out, _ = run_cli(
        [
            "run",
            "--scheme",
            "linear-forward",
            "--param",
            "t=0.8",
            "--seed",
            "4",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(run_out)
    assert float(row[1]) == pytest.approx(payload["success_probability"], rel=1e-12)
    assert float(row[2]) == pytest.approx(payload["output_fidelity"], rel=1e-12)


def test_config_file_fills_flags_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"scheme": "entangler", "seed": 5, "param": {"theta": 0.2}})
    )
    code, out, _ = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["scheme"] == "entangler"
    assert payload["parameters"]["theta"] == 0.2
    code, out, _ = run_cli(
        ["run", "--config", str(cfg), "--param", "theta=0.4"], capsys
    )
    assert code == 0
    assert json.loads(out)["parameters"]["theta"] == 0.4


def test_errors_exit_nonzero_with_diagnostics(capsys, tmp_path):
    code, _, err = run_cli(["run", "--scheme", "u3-linear"], capsys)
    assert code == 2 and "matrix" in err
    code, _, err = run_cli(
        ["run", "--scheme", "kerr-forward", "--param", "volume=11"], capsys
    )
    assert code == 2 and "volume" in err
    code, _, err = run_cli(
        ["run", "--scheme", "linear-forward", "--param", "theta=0.3"], capsys
    )
    assert code == 2 and "not used" in err
    code, _, err = run_cli(
        ["run", "--scheme", "u3-linear", "--matrix", "random", "--param", "qubus_alpha=3"],
        capsys,
    )
    assert code == 2 and "not used by u3-linear: qubus_alpha" in err
    code, _, err = run_cli(
        ["run", "--scheme", "entangler", "--param", "number_cap=25"], capsys
    )
    assert code == 2 and "unknown parameter 'number_cap'" in err
    code, _, err = run_cli(["run", "--scheme", "linear-forward", "--alpha", "1"], capsys)
    assert code == 2 and "together" in err
    explicit = ["--alpha", "1", "--beta", "0", "--gamma", "0"]
    code, _, err = run_cli(["run", "--scheme", "linear-forward", "--random", *explicit], capsys)
    assert code == 2 and "--random cannot be combined" in err
    cfg = tmp_path / "random.json"
    cfg.write_text(json.dumps({"random": True}))
    code, _, err = run_cli(
        ["run", "--scheme", "linear-forward", "--config", str(cfg), *explicit], capsys
    )
    assert code == 2 and "--random cannot be combined" in err
    for param in ("qubus_alpha=nan", "qubus_alpha=inf", "theta=inf", "theta=nan"):
        code, _, err = run_cli(
            ["run", "--scheme", "kerr-forward", "--param", param], capsys
        )
        assert code == 2 and "must be positive and finite" in err
    for scheme, alpha in (
        ("entangler", "1e13"), ("entangler", "1e200"), ("kerr-forward", "1e200"),
    ):
        code, _, err = run_cli(
            ["run", "--scheme", scheme, "--param", f"qubus_alpha={alpha}"], capsys
        )
        assert code == 2 and "overlaps would lose more than 1e-9" in err
    code, out, err = run_cli(
        [
            "run", "--scheme", "entangler", "--param", "meas_mode=physical",
            "--param", "qubus_alpha=1e9", "--seed", "5", "--format", "csv",
        ],
        capsys,
    )
    assert (code, out) == (2, "")
    assert "qubus amplitude 1000000000.0 exceeds 1501" in err
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[1, 0], [0, 1]]))
    code, _, err = run_cli(
        ["run", "--scheme", "u3-linear", "--matrix", str(bad)], capsys
    )
    assert code == 2 and "3x3" in err
    code, _, err = run_cli(
        ["sweep", "--scheme", "kerr-forward", "--axis", "variant", "--values", "1"],
        capsys,
    )
    assert code == 2 and "numeric" in err
    code, _, err = run_cli(
        ["sweep", "--scheme", "kerr-forward", "--axis", "t", "--values", ","], capsys
    )
    assert code == 2 and "at least one" in err


def test_unused_param_is_rejected_before_the_scheme_runs(capsys, monkeypatch):
    original = SCHEMES["u3-linear"]

    @functools.wraps(original)  # keeps the signature the CLI reads
    def must_not_run(*args, **kwargs):
        raise AssertionError("u3-linear ran despite an unused parameter")

    monkeypatch.setitem(SCHEMES, "u3-linear", must_not_run)
    code, out, err = run_cli(
        ["run", "--scheme", "u3-linear", "--matrix", "random", "--param", "qubus_alpha=3"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "error: parameters not used by u3-linear: qubus_alpha\n"


def test_overflow_in_a_scheme_exits_with_a_diagnostic(capsys, monkeypatch):
    original = SCHEMES["entangler"]

    @functools.wraps(original)  # keeps the signature the CLI reads
    def overflows(*args, **kwargs):
        raise OverflowError("math range error")

    monkeypatch.setitem(SCHEMES, "entangler", overflows)
    code, out, err = run_cli(["run", "--scheme", "entangler"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: probe arithmetic overflows at these parameters: math range error\n"


def test_verify_json_reports_all_criteria(capsys):
    code, out, _ = run_cli(["verify", "--json"], capsys)
    payload = json.loads(out)
    assert len(payload["criteria"]) == 8
    assert payload["passed"] is True
    assert code == 0
    for criterion in payload["criteria"]:
        assert criterion["passed"] is True
        assert criterion["expected"]
        assert criterion["measured"]
