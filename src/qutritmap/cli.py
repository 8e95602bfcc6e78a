"""Command-line front end: run circuits, sweep parameters, verify claims.

Three subcommands:

- ``run``: execute one scheme and emit a schema-stable report (JSON or CSV).
- ``sweep``: rerun one scheme along a parameter axis and emit a CSV table.
- ``verify``: run the acceptance suite, print expected vs. measured per
  criterion, exit nonzero on any failure.

All randomness (input qutrits, random unitaries) flows from one 64-bit seed
that is recorded in every report; floats are printed with 12 significant
digits, so identical invocations produce byte-identical output.  A JSON
config file may pre-fill any flag; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys

import numpy as np

from .acceptance import run_all
from .fock import InvalidInput, QutritCoefficients, SimulationError
from .sampling import haar_unitary, random_qutrit
from .schemes import SCHEMES, SchemeReport

_FLOAT_PARAMS = ("t", "t1", "t2", "t3", "theta", "qubus_alpha")
_STR_PARAMS = ("variant", "meas_mode", "pattern")

_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "qutritmap scheme report",
    "type": "object",
    "required": [
        "schema",
        "scheme",
        "seed",
        "input",
        "success_probability",
        "output_fidelity",
        "branch_log",
        "parameters",
        "checks",
    ],
    "properties": {
        "schema": {"const": "qutritmap-report/2"},
        "scheme": {"type": "string"},
        "seed": {"type": "integer"},
        "input": {
            "type": "object",
            "required": ["alpha", "beta", "gamma"],
            "properties": {"alpha": _PAIR, "beta": _PAIR, "gamma": _PAIR},
            "additionalProperties": False,
        },
        "success_probability": {"type": "number", "minimum": 0, "maximum": 1},
        "output_fidelity": {"type": "number", "minimum": 0, "maximum": 1},
        "branch_log": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["step", "outcome", "probability"],
                "properties": {
                    "step": {"type": "string"},
                    "outcome": {"type": "string"},
                    "probability": {"type": "number", "minimum": 0, "maximum": 1},
                },
                "additionalProperties": False,
            },
        },
        "parameters": {"type": "object", "additionalProperties": {"type": "number"}},
        "options": {"type": "object", "additionalProperties": {"type": "string"}},
        "checks": {"type": "object", "additionalProperties": {"type": "number"}},
        "matrix": {
            "type": "array",
            "items": {"type": "array", "items": _PAIR, "minItems": 3, "maxItems": 3},
            "minItems": 3,
            "maxItems": 3,
        },
    },
    "additionalProperties": False,
}

# fixed column orders for the CSV emitters
RUN_CSV_COLUMNS = ("scheme", "seed", "success_probability", "output_fidelity")


def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _fmt12(x: float) -> str:
    return f"{float(x):.12g}"


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [_sig12(z.real), _sig12(z.imag)]


def _parse_complex(text: str) -> complex:
    try:
        return complex(str(text).replace(" ", ""))
    except ValueError:
        raise InvalidInput(f"cannot parse complex number from {text!r}")


def _parse_params(items) -> dict:
    params: dict = {}
    for item in items or ():
        if isinstance(item, str):
            if "=" not in item:
                raise InvalidInput(f"expected k=v, got {item!r}")
            key, _, raw = item.partition("=")
        else:
            raise InvalidInput(f"expected k=v string, got {item!r}")
        key = key.strip()
        raw = raw.strip()
        if key in _FLOAT_PARAMS:
            params[key] = float(raw)
        elif key in _STR_PARAMS:
            params[key] = raw
        else:
            known = ", ".join(_FLOAT_PARAMS + _STR_PARAMS)
            raise InvalidInput(f"unknown parameter {key!r} (known: {known})")
    return params


def _load_matrix(spec: str | None, rng) -> np.ndarray | None:
    if spec is None:
        return None
    if spec == "random":
        return haar_unitary(rng)
    with open(spec, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not (isinstance(raw, list) and len(raw) == 3):
        raise InvalidInput("matrix file must hold a 3x3 JSON array")
    rows = []
    for row in raw:
        if not (isinstance(row, list) and len(row) == 3):
            raise InvalidInput("matrix file must hold a 3x3 JSON array")
        parsed = []
        for cell in row:
            if isinstance(cell, (int, float)):
                parsed.append(complex(cell))
            elif isinstance(cell, list) and len(cell) == 2:
                parsed.append(complex(cell[0], cell[1]))
            elif isinstance(cell, str):
                parsed.append(_parse_complex(cell))
            else:
                raise InvalidInput(f"cannot parse matrix entry {cell!r}")
        rows.append(parsed)
    return np.array(rows, dtype=complex)


def _resolve_qutrit(args, rng) -> QutritCoefficients:
    explicit = (args.alpha, args.beta, args.gamma)
    if any(v is not None for v in explicit):
        if args.random:
            raise InvalidInput("--random cannot be combined with --alpha, --beta and --gamma")
        if any(v is None for v in explicit):
            raise InvalidInput("--alpha, --beta and --gamma must be given together")
        return QutritCoefficients.normalize(*(_parse_complex(v) for v in explicit))
    return random_qutrit(rng)


def _dispatch(scheme: str, c, params: dict, matrix) -> SchemeReport:
    if scheme not in SCHEMES:
        raise InvalidInput(f"unknown scheme {scheme!r} (known: {', '.join(SCHEMES)})")
    fn = SCHEMES[scheme]
    accepted = inspect.signature(fn).parameters
    if "u" not in accepted:
        if matrix is not None:
            raise InvalidInput(f"--matrix is only meaningful for u3 schemes, not {scheme}")
        args = (c,)
    elif matrix is None:
        raise InvalidInput(f"{scheme} needs --matrix <file>|random")
    else:
        args = (c, matrix)
    unused = sorted(k for k in params if k not in accepted)
    if unused:
        raise InvalidInput(f"parameters not used by {scheme}: {', '.join(unused)}")
    try:
        return fn(*args, **params)
    except OverflowError as exc:  # from huge probe amplitudes
        raise InvalidInput(f"probe arithmetic overflows at these parameters: {exc}") from exc


def _report_payload(rep: SchemeReport, seed: int, c, params: dict, matrix) -> dict:
    a, b, g = c.as_tuple()
    payload = {
        "schema": "qutritmap-report/2",
        "scheme": rep.scheme,
        "seed": int(seed),
        "input": {"alpha": _pair(a), "beta": _pair(b), "gamma": _pair(g)},
        "success_probability": _sig12(rep.success_probability),
        "output_fidelity": _sig12(rep.output_fidelity),
        "branch_log": [
            {
                "step": e.step,
                "outcome": e.outcome,
                "probability": _sig12(e.probability),
            }
            for e in rep.branch_log
        ],
        "parameters": {k: _sig12(v) for k, v in sorted(rep.parameters.items())},
        "checks": {k: _sig12(v) for k, v in sorted(rep.checks.items())},
    }
    options = {k: v for k, v in params.items() if k in _STR_PARAMS}
    if options:
        payload["options"] = dict(sorted(options.items()))
    if matrix is not None:
        payload["matrix"] = [[_pair(z) for z in row] for row in matrix]
    return payload


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _run_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RUN_CSV_COLUMNS)
    writer.writerow(
        [
            payload["scheme"],
            payload["seed"],
            _fmt12(payload["success_probability"]),
            _fmt12(payload["output_fidelity"]),
        ]
    )
    return buf.getvalue()


def cmd_run(args) -> int:
    seed = 0 if args.seed is None else int(args.seed)
    rng = np.random.default_rng(seed)
    c = _resolve_qutrit(args, rng)
    matrix = _load_matrix(args.matrix, rng)
    params = _parse_params(args.param)
    rep = _dispatch(args.scheme, c, params, matrix)
    payload = _report_payload(rep, seed, c, params, matrix)
    if args.format == "csv":
        text = _run_csv(payload)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0


def cmd_sweep(args) -> int:
    axis = args.axis
    if axis not in _FLOAT_PARAMS:
        raise InvalidInput(
            f"axis must name a numeric parameter, got {axis!r} "
            f"(known: {', '.join(_FLOAT_PARAMS)})"
        )
    raw_values = [v for v in str(args.values).split(",") if v.strip()]
    if not raw_values:
        raise InvalidInput("--values must list at least one value")
    values = [float(v) for v in raw_values]

    seed = 0 if args.seed is None else int(args.seed)
    rng = np.random.default_rng(seed)
    c = _resolve_qutrit(args, rng)
    matrix = _load_matrix(args.matrix, rng)
    base = _parse_params(args.param)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([axis, "success_probability", "output_fidelity"])
    for value in values:
        params = dict(base)
        params[axis] = value
        rep = _dispatch(args.scheme, c, params, matrix)
        writer.writerow(
            [_fmt12(value), _fmt12(rep.success_probability), _fmt12(rep.output_fidelity)]
        )
    _emit(buf.getvalue(), args.out)
    return 0


def cmd_verify(args) -> int:
    results = run_all()
    all_passed = all(r.passed for r in results)
    if args.json:
        payload = {
            "passed": all_passed,
            "criteria": [
                {
                    "number": r.number,
                    "name": r.name,
                    "passed": r.passed,
                    "expected": r.expected,
                    "measured": r.measured,
                    "details": list(r.details),
                }
                for r in results
            ],
        }
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for r in results:
            flag = "PASS" if r.passed else "FAIL"
            sys.stdout.write(f"[{flag}] criterion {r.number}: {r.name}\n")
            sys.stdout.write(f"       expected: {r.expected}\n")
            sys.stdout.write(f"       measured: {r.measured}\n")
            for d in r.details:
                sys.stdout.write(f"       - {d}\n")
        n_pass = sum(r.passed for r in results)
        sys.stdout.write(f"{n_pass}/{len(results)} criteria passed\n")
    return 0 if all_passed else 1


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--scheme", required=False, choices=SCHEMES)
    parser.add_argument("--alpha", help="first coefficient, e.g. 0.5 or 0.5+0.5j")
    parser.add_argument("--beta", help="second coefficient")
    parser.add_argument("--gamma", help="third coefficient")
    parser.add_argument(
        "--random",
        action="store_true",
        help="draw the input qutrit from the seeded generator (default when "
        "no coefficients are given)",
    )
    parser.add_argument("--seed", type=int, help="64-bit seed (default 0)")
    parser.add_argument(
        "--param",
        action="append",
        metavar="k=v",
        help="override a scheme parameter; repeatable",
    )
    parser.add_argument(
        "--matrix",
        help="3x3 unitary for u3 schemes: JSON file path or 'random'",
    )
    parser.add_argument("--config", help="JSON file pre-filling any flag")
    parser.add_argument("--out", help="output path (stdout when omitted)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutritmap",
        description="exact few-photon circuits mapping between qutrit encodings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scheme and emit a report")
    _add_common(p_run)
    p_run.add_argument("--format", choices=("json", "csv"), default=None)

    p_sweep = sub.add_parser("sweep", help="rerun a scheme along a parameter axis")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", help="parameter to sweep")
    p_sweep.add_argument("--values", help="comma-separated values")

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--json", action="store_true")
    return parser


def _apply_config(args) -> None:
    if getattr(args, "config", None) is None:
        return
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise InvalidInput("config file must hold a JSON object")
    for key, value in config.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest):
            raise InvalidInput(f"config key {key!r} does not match any flag")
        current = getattr(args, dest)
        if dest == "param":
            if isinstance(value, dict):
                value = [f"{k}={v}" for k, v in sorted(value.items())]
            merged = list(value) + list(current or [])
            setattr(args, dest, merged)
        elif current in (None, False):
            setattr(args, dest, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "sweep"):
            _apply_config(args)
            if args.scheme is None:
                raise InvalidInput("--scheme is required")
            if args.command == "run":
                if args.format is None:
                    args.format = "json"
                return cmd_run(args)
            if args.axis is None or args.values is None:
                raise InvalidInput("sweep needs --axis and --values")
            return cmd_sweep(args)
        return cmd_verify(args)
    except (SimulationError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
