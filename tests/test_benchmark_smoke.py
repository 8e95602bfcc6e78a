"""The benchmark runs and its oracles still accept the package.

``benchmarks/run.py`` checks every evaluation against closed forms and reads
names from the package (``branch_n*_probability``, ``probe_total_probability``,
the ``entangler-1``/``entangler-2`` log steps).  A short run of each
workload, the linear-optics one included, must end correct with no failed
evaluation: a readout that truncated probability mass again would fail here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["linear-optics", "qubus-ideal", "qubus-physical"])
def test_short_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seconds", "0.01"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
