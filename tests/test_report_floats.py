"""Report floats compared bit for bit with values recorded from a reference build.

The CLI goldens print 12 significant digits, so they cannot see a change in
the last bits of a probability or fidelity.  Here every scalar a report
carries (P, F, each branch-log probability, each check) is stored as
``float.hex`` in ``tests/golden/report-floats.json`` and compared exactly,
for every registry scheme on fixed seeds, in each measurement mode and
variant the scheme takes and at several probe amplitudes.

Regenerate the file (only on purpose, at a commit known to be right) with
``PYTHONPATH=src python tests/test_report_floats.py``.
"""

import inspect
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from qutritmap.fock import SimulationError
from qutritmap.sampling import haar_unitary, random_qutrit
from qutritmap.schemes import SCHEMES

GOLDEN = Path(__file__).parent / "golden" / "report-floats.json"

SEEDS = (0, 7)
OPTIONS = {
    "variant": ("double-xpm", "separate-qnd"),
    "meas_mode": ("ideal", "physical"),
    "qubus_alpha": (1.0, 2.0, 5.0, 10.0, 40.0),
}


def cases():
    """``{case_id: (scheme, seed, params)}`` over every scheme's options."""
    out = {}
    for name, fn in SCHEMES.items():
        keys = [k for k in OPTIONS if k in inspect.signature(fn).parameters]
        for seed in SEEDS:
            for values in itertools.product(*(OPTIONS[k] for k in keys)):
                params = dict(zip(keys, values))
                label = ",".join(f"{k}={v}" for k, v in params.items())
                out[f"{name}/seed={seed}/{label}"] = (name, seed, params)
    return out


def report_floats(name, seed, params):
    rng = np.random.default_rng(seed)
    c = random_qutrit(rng)
    args = (c, haar_unitary(rng)) if name.startswith("u3-") else (c,)
    try:
        rep = SCHEMES[name](*args, **params)
    except SimulationError as exc:  # a refusal is part of the recorded behaviour
        return {"raises": f"{type(exc).__name__}: {exc}"}
    return {
        "P": rep.success_probability.hex(),
        "F": float(rep.output_fidelity).hex(),
        "log": [float(e.probability).hex() for e in rep.branch_log],
        "checks": {k: float(v).hex() for k, v in rep.checks.items()},
    }


CASES = cases()


def collect():
    return {cid: report_floats(*case) for cid, case in CASES.items()}


GOLDEN_FLOATS = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_golden_covers_every_case():
    assert sorted(GOLDEN_FLOATS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_floats_match_golden(case):
    assert report_floats(*CASES[case]) == GOLDEN_FLOATS[case]


if __name__ == "__main__":
    text = json.dumps(collect(), indent=1, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
