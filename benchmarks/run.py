"""Oracle-checked goodput benchmark for qutritmap.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the package is imported from
``src/`` and from nowhere else.  The workloads, their default seed and
their seed-state failures are in ``benchmarks/workloads.json``.

One process, one thread, one client in a closed loop: the next scheme
evaluation starts when the previous one returns.  The loop runs whole
rounds of the workload's mix (every scheme at every probe amplitude, each
on a fresh seeded input) until ``--seconds`` have passed, so the share of
failures repeats exactly from run to run.  Every evaluation is checked
against the paper's closed forms, computed here rather than imported from
the package, so a change to the package's constants cannot move its own
oracle.  An evaluation that raises or misses its oracle is failed; it is
still timed.  End-to-end timings are scaled to a reference host speed,
measured by a fixed speed task run after every evaluation (see
``REFERENCE_MS``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds in which every layer's public functions are
wrapped (see ``spans.py``), prints the per-layer metrics and writes the
spans to ``benchmarks/out/``.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from spans import COUPLINGS, LAYERS, PACKAGE, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG = json.loads((BENCH_DIR / "workloads.json").read_text())

# The paper's closed forms for P; linear-inverse is r1^2 / 64 with
# r1^2 = 1 - (sqrt 17 - 3) / 2.
P_LINEAR_FORWARD = 1.0 / (2.0 + 4.0 * math.sqrt(2.0)) ** 2
P_LINEAR_INVERSE = (1.0 - (math.sqrt(17.0) - 3.0) / 2.0) / 64.0
CLOSED_FORM_P = {
    "linear-forward": P_LINEAR_FORWARD,
    "linear-inverse": P_LINEAR_INVERSE,
    "u3-linear": P_LINEAR_FORWARD * P_LINEAR_INVERSE,
    "kerr-forward.double-xpm": 1.0 / 6.0,
    "kerr-forward.separate-qnd": 1.0 / 6.0,
    "kerr-inverse": 1.0 / 2.0,
    "entangler": 1.0,
    "u3-kerr": 1.0 / 12.0,
}
P_REL_TOL = 1e-9
FIDELITY_TOL = 1e-9
MASS_TOL = 1e-9
MIN_EVALS = 100
INPUT_POOL = 4096
SETUP_REPEATS = 21

# Host speed.  On a shared virtual machine the speed of every process
# drifts by 20-35% over seconds to minutes, and no length of run averages
# that out.  So the benchmark times a fixed pure-Python task, the speed
# task, next to every timed step, and scales each step's time by
# REFERENCE_MS over the local median time of the task.  Scaled times read
# as milliseconds on a host where the speed task takes REFERENCE_MS.  The
# task does not touch the package, so a change to the package moves scaled
# times by the same share as raw ones.
REFERENCE_MS = 1.0
SPEED_TASK_STEPS = 5000
SPEED_WINDOW = 8  # evaluations on each side whose speed tasks set the local median


class BenchError(Exception):
    """The benchmark cannot run here: the package sources are missing."""


# ---------------------------------------------------------------------------
# set-up: import and inputs


def import_package():
    """Import qutritmap afresh from ``src/`` of this checkout."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no {PACKAGE} sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        raise BenchError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def make_inputs(seed: int, n: int):
    """``n + 1`` seeded qutrits and Haar 3x3 unitaries; the last pair warms up."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n + 1, 3)) + 1j * rng.normal(size=(n + 1, 3))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    qutrits = [tuple(row) for row in z.tolist()]
    g = (rng.normal(size=(n + 1, 3, 3)) + 1j * rng.normal(size=(n + 1, 3, 3))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    unitaries = q * (d / np.abs(d))[:, None, :]
    return qutrits, unitaries


def speed_task() -> int:
    """Time a fixed pure-Python task (dict updates, complex arithmetic), in ns."""
    t0 = time.perf_counter_ns()
    acc: dict[int, complex] = {}
    z = 0.6 + 0.8j
    for i in range(SPEED_TASK_STEPS):
        k = (i * 40503) & 255
        acc[k] = acc.get(k, 0j) + z * i
    return time.perf_counter_ns() - t0


def speed_scaled(times_ns, speed_ns, window: int = SPEED_WINDOW):
    """Scale each time by REFERENCE_MS over the median speed task around it.

    ``speed_ns[i]`` is the speed task timed right after step ``i``; the
    median over steps ``i - window`` to ``i + window`` sets the scale of
    step ``i``.  Returns scaled times in ms.
    """
    n = len(times_ns)
    scaled = []
    for i, t in enumerate(times_ns):
        local = statistics.median(speed_ns[max(0, i - window) : min(n, i + window + 1)])
        scaled.append(REFERENCE_MS * t / local)
    return scaled


def set_up(seed: int):
    """Import the package and generate inputs; the median of several tries is setup_s.

    Each try starts from a collected heap, so that it does not pay for the
    garbage the previous import left behind, and is followed by three speed
    tasks, whose median scales it.  Returns the package, the inputs, and the
    raw and scaled times of the tries in s.
    """
    raw_ns, speed_ns = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter_ns()
        pkg = import_package()
        inputs = make_inputs(seed, INPUT_POOL)
        raw_ns.append(time.perf_counter_ns() - t0)
        speed_ns.append(statistics.median(speed_task() for _ in range(3)))
    scaled = [ms / 1e3 for ms in speed_scaled(raw_ns, speed_ns, window=0)]
    return pkg, inputs, [ns / 1e9 for ns in raw_ns], scaled


# ---------------------------------------------------------------------------
# workload: scheme calls and oracles


# scheme -> (package function, fixed keyword arguments, whether it takes the unitary)
SCHEMES = {
    "linear-forward": ("scheme_linear_forward", {}, False),
    "linear-inverse": ("scheme_linear_inverse", {}, False),
    "u3-linear": ("u3_biphotonic", {"backend": "linear"}, True),
    "kerr-forward.double-xpm": ("scheme_kerr_forward", {"variant": "double-xpm"}, False),
    "kerr-forward.separate-qnd": ("scheme_kerr_forward", {"variant": "separate-qnd"}, False),
    "entangler": ("scheme_entangler", {}, False),
    "kerr-inverse": ("scheme_kerr_inverse", {}, False),
    "u3-kerr": ("u3_biphotonic", {"backend": "kerr"}, True),
}


def scheme_callable(pkg, scheme: str, alpha, theta, meas_mode: str):
    """Bind one (scheme, |alpha|) pair of a mix to a call ``f(c, u)``.

    The package function is looked up now, so that in a traced run the
    benchmark's root span wraps the original function, not its wrapper.
    """
    attr, kwargs, takes_unitary = SCHEMES[scheme]
    fn = getattr(pkg, attr)
    kwargs = dict(kwargs)
    if alpha is not None:
        kwargs.update(qubus_alpha=float(alpha), theta=float(theta), meas_mode=meas_mode)
    if takes_unitary:
        return lambda c, u: fn(c, u, **kwargs)
    return lambda c, u: fn(c, **kwargs)


def readout_masses(scheme: str, report):
    """Total outcome probability of every photon-number readout in a report."""
    if scheme == "kerr-forward.double-xpm":
        return [("probe readout", report.checks["probe_total_probability"])]
    if scheme == "entangler":
        outcomes = [
            v for k, v in report.checks.items()
            if k.startswith("branch_n") and k.endswith("_probability")
        ]
        return [("probe readout", math.fsum(outcomes))]
    if scheme == "kerr-inverse":
        steps = {e.step: e.probability for e in report.branch_log}
        return [(s + " readout", steps[s]) for s in ("entangler-1", "entangler-2")]
    return []


def oracle_miss(scheme: str, meas_mode: str, report) -> str | None:
    """Why a report misses its oracle, or None when it passes."""
    p = report.success_probability
    if meas_mode == "ideal":
        p0 = CLOSED_FORM_P[scheme]
        if not abs(p - p0) <= P_REL_TOL * p0:
            return f"P = {p:.12g}, closed form {p0:.12g}"
        if not report.output_fidelity >= 1.0 - FIDELITY_TOL:
            return f"F = {report.output_fidelity:.12g} < 1 - {FIDELITY_TOL:g}"
        return None
    if scheme == "entangler" and not abs(p - 1.0) <= P_REL_TOL:
        return f"P = {p:.12g}, deterministic gate"
    for what, mass in readout_masses(scheme, report):
        if not abs(mass - 1.0) <= MASS_TOL:
            return f"{what} sums to {mass:.12g}, not 1"
    return None


class Workload:
    def __init__(self, name: str, pkg, inputs):
        spec = CONFIG["workloads"][name]
        self.name = name
        self.meas_mode = spec["meas_mode"]
        self.qutrits, self.unitaries = inputs
        self.pool = len(self.qutrits) - 1
        self.known_failures = {tuple(pair) for pair in spec["seed_state"]["known_failures"]}
        self.combos = [
            (scheme, alpha, scheme_callable(pkg, scheme, alpha, spec["theta"], self.meas_mode))
            for alpha in spec["alphas"]
            for scheme in spec["mix"]
        ]

    def evaluate(self, k: int, index: int) -> tuple[int, str | None]:
        """Run combo ``k`` on input ``index``; returns (nanoseconds, miss reason)."""
        scheme, _, call = self.combos[k]
        c = self.qutrits[index % self.pool]
        u = self.unitaries[index % self.pool]
        t0 = time.perf_counter_ns()
        try:
            report = call(c, u)
        except Exception as exc:  # an evaluation that raises is a counted failure
            return time.perf_counter_ns() - t0, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - t0
        return elapsed, oracle_miss(scheme, self.meas_mode, report)

    def warm_up(self):
        for k in range(len(self.combos)):
            self.evaluate(k, self.pool)

    def round(self, start: int, tracer=None, speed_ns=None):
        """One evaluation of every combo, on inputs ``start``, ``start + 1``, ...

        Returns per-evaluation (combo, nanoseconds, miss reason) records.
        With ``speed_ns``, a speed task is timed after each evaluation and
        appended to it.
        """
        records = []
        for k, (scheme, _, _) in enumerate(self.combos):
            close = tracer.evaluation(start + k, "schemes." + scheme) if tracer else None
            ns, miss = self.evaluate(k, start + k)
            if close is not None:
                close()
            records.append((k, ns, miss))
            if speed_ns is not None:
                speed_ns.append(speed_task())
        return records

    def run(self, seconds: float, min_evals: int):
        """Whole rounds until ``seconds`` and ``min_evals`` are reached.

        Returns the records, the speed task timed after each of them, and
        the loop's wall time.
        """
        gc.collect()
        records, speed_ns = [], []
        t_start = time.perf_counter()
        while True:
            records += self.round(len(records), speed_ns=speed_ns)
            wall = time.perf_counter() - t_start
            if wall >= seconds and len(records) >= min_evals:
                return records, speed_ns, wall

    def failures(self, records):
        """(expected, unexpected) failure counts, and the first reason per combo."""
        expected = unexpected = 0
        reasons = {}
        for k, _, miss in records:
            if miss is None:
                continue
            scheme, alpha, _ = self.combos[k]
            if (scheme, alpha) in self.known_failures and not miss.startswith("raised"):
                expected += 1
            else:
                unexpected += 1
            reasons.setdefault(k, miss)
        return expected, unexpected, reasons


# ---------------------------------------------------------------------------
# reporting


def environment() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu}"
    )


def print_combos(workload: Workload, records, reasons):
    by_combo: dict[int, list[int]] = {}
    misses: dict[int, int] = {}
    for k, ns, miss in records:
        by_combo.setdefault(k, []).append(ns)
        misses[k] = misses.get(k, 0) + (miss is not None)
    for k, (scheme, alpha, _) in enumerate(workload.combos):
        ns = by_combo.get(k, [])
        line = (
            f"  {scheme:<26} alpha={alpha!s:<5} n={len(ns):<5} "
            f"median={statistics.median(ns) / 1e6:8.3f} ms  failed={misses.get(k, 0)}"
        )
        if k in reasons:
            line += f"  ({reasons[k]})"
        print(line)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: Workload, setup_times, seconds: float):
    records, speed_ns, wall = workload.run(seconds, min_evals=MIN_EVALS)
    raw_ms = [ns / 1e6 for _, ns, _ in records]
    lat_ms = speed_scaled([ns for _, ns, _ in records], speed_ns)
    passed = sum(miss is None for _, _, miss in records)
    print(f"{len(records)} evaluations in {wall:.3f} s, {passed} passed their oracle")
    print(
        f"speed task median {statistics.median(speed_ns) / 1e6:.4f} ms "
        f"(reference {REFERENCE_MS:g} ms); unscaled: "
        f"{passed / (sum(raw_ms) / 1e3):.4g} passed evals/s, "
        f"p50 {statistics.median(raw_ms):.4g} ms, "
        f"p90 {statistics.quantiles(raw_ms, n=10)[8]:.4g} ms"
    )
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "goodput_evals_per_s": metric(passed / (sum(lat_ms) / 1e3), "1/s"),
        "eval_ms_p50": metric(statistics.median(lat_ms), "ms"),
        "eval_ms_p90": metric(statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "passed_share": metric(passed / len(records), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return records, metrics


def per_layer(workload: Workload, seconds: float, seed: int):
    # Traced and untraced rounds alternate, so drift in machine speed
    # cancels out of the tracing overhead.
    tracer = Tracer()
    untraced, traced = [], []
    gc.collect()
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        untraced += workload.round(len(untraced) + len(traced))
        tracer.install()
        try:
            traced += workload.round(len(untraced) + len(traced), tracer)
        finally:
            tracer.uninstall()
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.npz"
    tracer.save(spans_path)

    summary = tracer.summary()
    names = summary["names"]
    st = tracer.stats
    n = len(traced)

    def calls(name):
        return metric(names.get(name, {}).get("calls", 0) / n, "count/eval")

    def self_ms(name):
        return metric(names.get(name, {}).get("self_ns", 0.0) / 1e6 / n, "ms/eval")

    def layer_ms(layer, only=None):
        total = sum(
            v["self_ns"] for k, v in names.items()
            if k.startswith(layer + ".") and (only is None or k.split(".", 1)[1] in only)
        )
        return total / 1e6 / n

    def ratio(num, den):
        return metric(num / den if den else 0.0, "ratio")

    untraced_ms = sum(ns for _, ns, _ in untraced) / 1e6 / len(untraced)
    traced_ms = summary["root_ns"] / 1e6 / summary["roots"]
    layers_ms = sum(layer_ms(layer) for layer in LAYERS)
    mass_min = st["photon_number.mass_min"]
    metrics = {
        "fock.build_state.calls": calls("fock.build_state"),
        "fock.build_state.self_ms": self_ms("fock.build_state"),
        "fock.build_state.terms_out_per_in": ratio(st["build_state.terms_out"], st["build_state.terms_in"]),
        "fock.from_occupations.calls": calls("fock.from_occupations"),
        "fock.peak_terms": metric(st["build_state.peak_terms"], "count"),
        "fock.inner_product.calls": calls("fock.inner_product"),
        "fock.inner_product.self_ms": self_ms("fock.inner_product"),
        "fock.coherent_overlap.calls": calls("fock.coherent_overlap"),
        "fock.traced_fidelity.calls": calls("fock.traced_fidelity"),
        "fock.traced_fidelity.self_ms": self_ms("fock.traced_fidelity"),
        "fock.self_ms": metric(layer_ms("fock"), "ms/eval"),
        "elements.substitute_modes.calls": calls("elements.substitute_modes"),
        "elements.substitute_modes.self_ms": self_ms("elements.substitute_modes"),
        "elements.substitute_modes.terms_out_per_in": ratio(
            st["substitute_modes.terms_out"], st["substitute_modes.terms_in"]
        ),
        "elements.self_ms": metric(layer_ms("elements"), "ms/eval"),
        "measurement.post_select_coincidence.calls": calls("measurement.post_select_coincidence"),
        "measurement.post_select_coincidence.self_ms": self_ms("measurement.post_select_coincidence"),
        "measurement.strip_modes.calls": calls("measurement.strip_modes"),
        "measurement.strip_modes.self_ms": self_ms("measurement.strip_modes"),
        "measurement.merge_branches.calls": calls("measurement.merge_branches"),
        "measurement.merge_branches.self_ms": self_ms("measurement.merge_branches"),
        "measurement.branch_yield": ratio(st["post_select.terms_kept"], st["post_select.terms_in"]),
        "measurement.self_ms": metric(layer_ms("measurement"), "ms/eval"),
        "qubus.project_photon_number.calls": calls("qubus.project_photon_number"),
        "qubus.project_photon_number.self_ms": self_ms("qubus.project_photon_number"),
        "qubus.project_photon_number.outcome_yield": ratio(
            st["photon_number.outcomes"], st["photon_number.attempted"]
        ),
        "qubus.readout_mass_min": metric(1.0 if mass_min is None else mass_min, "ratio"),
        "qubus.project_quadrature_x.calls": calls("qubus.project_quadrature_x"),
        "qubus.project_quadrature_x.self_ms": self_ms("qubus.project_quadrature_x"),
        "qubus.coupling.self_ms": metric(layer_ms("qubus", COUPLINGS), "ms/eval"),
        "qubus.self_ms": metric(layer_ms("qubus"), "ms/eval"),
        "schemes.self_ms": metric(layer_ms("schemes"), "ms/eval"),
    }
    by_scheme: dict[str, list[int]] = {}
    for k, ns, _ in untraced:
        by_scheme.setdefault(workload.combos[k][0], []).append(ns)
    for scheme in SCHEMES:
        ns = by_scheme.get(scheme)
        metrics[f"schemes.{scheme}.ms_per_call"] = metric(
            sum(ns) / 1e6 / len(ns) if ns else 0.0, "ms/call"
        )
    metrics.update(
        {
            "trace.untraced_ms": metric(untraced_ms, "ms/eval"),
            "trace.wall_ms": metric(traced_ms, "ms/eval"),
            "trace.overhead_share": metric(traced_ms / untraced_ms - 1.0, "ratio"),
            "trace.accounted_share": metric(layers_ms / traced_ms, "ratio"),
            "trace.spans": metric(summary["spans"] / n, "count/eval"),
        }
    )
    print(
        f"{len(untraced)} untraced and {n} traced evaluations in alternating rounds; "
        f"{summary['spans']} spans written to "
        f"{spans_path.relative_to(ROOT)}"
    )
    if tracer.observe_errors[0]:
        print(f"{tracer.observe_errors[0]} calls could not be observed; their counts are missing")
    print(
        f"tracing overhead {traced_ms - untraced_ms:.3f} ms/eval "
        f"({100.0 * (traced_ms / untraced_ms - 1.0):.1f}% over the untraced rounds); "
        f"layer self times account for {100.0 * layers_ms / traced_ms:.3f}% of traced wall time"
    )
    return untraced + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")

    try:
        pkg, inputs, setup_raw, setup_times = set_up(args.seed)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    workload = Workload(args.workload, pkg, inputs)
    print(environment())
    print(
        f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}; {CONFIG['client']}"
    )
    print("setup tries, unscaled s: " + ", ".join(f"{t:.4f}" for t in setup_raw))
    workload.warm_up()

    if args.trace:
        records, metrics = per_layer(workload, args.seconds, args.seed)
    else:
        records, metrics = end_to_end(workload, setup_times, args.seconds)
    expected, unexpected, reasons = workload.failures(records)
    failed = expected + unexpected
    print_combos(workload, records, reasons)
    print(
        f"failed_share = {failed / len(records):.6g} "
        f"({expected} known NUMBER_CAP failures, {unexpected} unexpected)"
    )
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": unexpected == 0 and failed < len(records),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
