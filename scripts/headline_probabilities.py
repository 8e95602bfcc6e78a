"""Print the success probability and fidelity of every mapping circuit.

Runs each scheme at its balanced working point on a seeded random qutrit
(and a Haar-random target unitary for the composed single-qutrit gates),
then prints one table row per scheme.  With ``--json`` the same numbers
are emitted as a JSON object instead.
"""

import argparse
import inspect
import json
import sys

import numpy as np

from qutritmap import haar_unitary, random_qutrit
from qutritmap.schemes import SCHEMES


def collect_rows(seed, qubus_alpha, theta):
    rng = np.random.default_rng(seed)
    c = random_qutrit(rng)
    u = haar_unitary(rng)
    probe = {"qubus_alpha": qubus_alpha, "theta": theta}

    reports = []
    for fn in SCHEMES.values():
        accepted = inspect.signature(fn).parameters
        args = (c, u) if "u" in accepted else (c,)
        reports.append(fn(*args, **{k: v for k, v in probe.items() if k in accepted}))
    return [
        {
            "scheme": r.scheme,
            "success_probability": r.success_probability,
            "output_fidelity": r.output_fidelity,
            "branches": len(r.branch_log),
        }
        for r in reports
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--qubus-alpha", type=float, default=2.0)
    parser.add_argument("--theta", type=float, default=0.3)
    parser.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    args = parser.parse_args(argv)

    rows = collect_rows(args.seed, args.qubus_alpha, args.theta)
    if args.json:
        json.dump({"seed": args.seed, "rows": rows}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    header = f"{'scheme':<16} {'probability':>14} {'fidelity':>12} {'branches':>9}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['scheme']:<16} {row['success_probability']:>14.6e}"
            f" {row['output_fidelity']:>12.9f} {row['branches']:>9d}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
