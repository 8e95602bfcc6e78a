"""Sweep the probe amplitude in physical measurement mode.

The number-mapping circuit reads its probe beams with ideal detectors by
default.  In physical mode the vacuum overlap of a displaced probe leaks
wrong components through post-selection; the leak shrinks like
exp(-2 |alpha|^2 sin^2 theta).  This script sweeps |alpha| * theta at
fixed theta and prints (or writes to CSV) the excess success probability
and infidelity of the forward number-mapping scheme, plus the weighted
entangler infidelity at the same operating point.
"""

import argparse
import csv
import math
import sys

from qutritmap import QutritCoefficients, scheme_entangler, scheme_kerr_forward

COEFFS = QutritCoefficients.normalize(0.5, 0.5 + 0.5j, -0.5)


def sweep_point(alpha_theta, theta):
    alpha = alpha_theta / theta
    forward = scheme_kerr_forward(
        COEFFS, meas_mode="physical", qubus_alpha=alpha, theta=theta
    )
    ent = scheme_entangler(
        COEFFS,
        pattern="reflected",
        meas_mode="physical",
        qubus_alpha=alpha,
        theta=theta,
    )
    mu = math.sqrt(2.0) * alpha * math.sin(theta)
    return {
        "alpha_theta": alpha_theta,
        "qubus_alpha": alpha,
        "mu": mu,
        "excess_probability": forward.success_probability - 1.0 / 6.0,
        "forward_infidelity": 1.0 - forward.output_fidelity,
        "entangler_infidelity": 1.0 - ent.output_fidelity,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", type=float, default=0.1)
    parser.add_argument(
        "--alpha-theta",
        default="0.5,1,2,4",
        help="comma-separated values of |alpha| * theta to sweep",
    )
    parser.add_argument("--csv", metavar="PATH", help="write rows to a CSV file")
    args = parser.parse_args(argv)

    points = [float(v) for v in args.alpha_theta.split(",") if v.strip()]
    rows = [sweep_point(v, args.theta) for v in points]

    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)
        return 0

    header = (
        f"{'a*theta':>8} {'mu':>8} {'excess P':>12}"
        f" {'fwd infid':>12} {'ent infid':>12}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['alpha_theta']:>8.2f} {row['mu']:>8.4f}"
            f" {row['excess_probability']:>12.4e}"
            f" {row['forward_infidelity']:>12.4e}"
            f" {row['entangler_infidelity']:>12.4e}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
