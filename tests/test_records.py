"""A plain import loads only what a scheme call needs, and the plain records are NamedTuples.

``import qutritmap`` leaves the acceptance suite and the command line unloaded.  The
records without checks of their own are ``typing.NamedTuple``s: each keeps the field names,
``repr`` text, equality, hashing (where its fields hash) and pickling it had as a frozen
dataclass, and as a tuple it iterates and compares equal to a plain tuple.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from qutritmap import (
    BranchDistribution,
    BranchLogEntry,
    FeedForwardRule,
    Outcome,
    QutritCoefficients,
    ReckDecomposition,
    SchemeReport,
    detect_non_resolving,
    path_modes,
    scheme_linear_forward,
    single_photon,
)
from qutritmap.acceptance import CriterionResult

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_leaves_the_acceptance_suite_and_the_cli_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, qutritmap; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "qutritmap" in loaded and "qutritmap.schemes" in loaded
    assert "qutritmap.acceptance" not in loaded and "qutritmap.cli" not in loaded


# record, its field names, its repr, whether its fields hash
RECORDS = [
    (BranchLogEntry("herald", "D1&D2", 0.25), ("step", "outcome", "probability"),
     "BranchLogEntry(step='herald', outcome='D1&D2', probability=0.25)", True),
    (Outcome("odd", None, 0.5, None), ("label", "value", "probability", "state"),
     "Outcome(label='odd', value=None, probability=0.5, state=None)", True),
    (BranchDistribution((Outcome("0", 1.5, 1.0, None),)), ("outcomes",),
     "BranchDistribution(outcomes=(Outcome(label='0', value=1.5, probability=1.0, "
     "state=None),))", True),
    (FeedForwardRule({"click": ()}), ("corrections",),
     "FeedForwardRule(corrections={'click': ()})", False),
    (ReckDecomposition(((0, 1, 0.5, 0.25),), (0.0, 0.5, 0.0)), ("rotations", "phases"),
     "ReckDecomposition(rotations=((0, 1, 0.5, 0.25),), phases=(0.0, 0.5, 0.0))", True),
    (CriterionResult(1, "name", True, "e", "m"),
     ("number", "name", "passed", "expected", "measured", "details"),
     "CriterionResult(number=1, name='name', passed=True, expected='e', measured='m', "
     "details=())", True),
]


@pytest.mark.parametrize("record, fields, text, hashes", RECORDS,
                         ids=[type(r[0]).__name__ for r in RECORDS])
def test_a_record_keeps_its_fields_repr_equality_hash_and_pickle(record, fields, text, hashes):
    assert record._fields == fields
    assert repr(record) == text
    copy = type(record)(*record)
    assert copy == record and copy == tuple(record) and list(copy) == list(record)
    assert pickle.loads(pickle.dumps(record)) == record
    if hashes:
        assert hash(copy) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_records_made_by_the_package_pickle():
    c = QutritCoefficients.normalize(0.6, 0.3j, -0.5)
    report = scheme_linear_forward(c)
    assert report._fields == ("scheme", "output_fidelity", "output_state", "branch_log",
                              "parameters", "checks")
    assert isinstance(report, SchemeReport) and isinstance(report.branch_log[0], BranchLogEntry)
    assert pickle.loads(pickle.dumps(report)) == report
    dist = detect_non_resolving(single_photon("d"), path_modes("d"))
    assert pickle.loads(pickle.dumps(dist)) == dist
