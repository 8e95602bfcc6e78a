"""Replay on against replay off, for every scheme.

Each scheme runs in both measurement modes on one sequence of inputs twice, each time
from a cleared memo: once with segment replay on, so that a later input of a shape
replays the tapes an earlier one recorded, and once with ``fock._REPLAY`` off, so that
every segment runs its body.  Every report float must match by ``float.hex``; where one
run raises, the other must raise the same error type and message.  The inputs mix
Haar-random, permutation and diagonal unitaries, qutrits with a zero coefficient, and
transmissivities away from the working points.
"""

from unittest import mock

import numpy as np

from qutritmap import fock, schemes
from qutritmap.fock import QutritCoefficients
from qutritmap.sampling import haar_unitary
from test_segments import outcome, report_hex


def qutrits(rng):
    """Random qutrits, then two of each zero pattern (one shape, two inputs)."""
    for _ in range(3):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        yield QutritCoefficients.normalize(*z)
    for zero in range(3):
        for k in (1.0, -0.7j):
            yield QutritCoefficients.normalize(*(0j if i == zero else k * (0.4 + 0.3j * i)
                                                 for i in range(3)))


def unitaries(rng):
    yield from (haar_unitary(rng) for _ in range(3))
    yield np.eye(3)[[2, 0, 1]]  # a permutation: rotations at pi/2, zeros skipped
    yield np.diag(np.exp(1j * np.array([0.3, -1.2, 2.5])))  # no rotation, a full screen
    yield np.diag([1.0, -1.0, 1j])  # a screen phase of exactly 0


def scheme_calls():
    """``(name, call)`` per scheme, mode and parameter set, each on every input."""
    for t in (None, 0.55):
        yield "linear-forward", lambda c, u, t=t: schemes.scheme_linear_forward(c, t)
        yield "u3-linear", lambda c, u, t=t: schemes.u3_biphotonic(c, u, "linear", t, t1=t)
    for ts in ((None, None, None), (0.6, 0.7, 0.5)):
        yield "linear-inverse", lambda c, u, ts=ts: schemes.scheme_linear_inverse(c, *ts)
    # the smallest probes, and the widest merges the benchmark workloads run
    for mode, alpha, theta in (("ideal", 2.0, 0.3), ("physical", 5.0, 0.1),
                               ("ideal", 20.0, 0.3), ("physical", 40.0, 0.1)):
        kw = {"qubus_alpha": alpha, "theta": theta, "meas_mode": mode}
        for variant in ("double-xpm", "separate-qnd"):
            yield "kerr-forward", lambda c, u, v=variant, kw=kw: schemes.scheme_kerr_forward(
                c, 0.5 if v == "separate-qnd" else None, v, **kw)
        for pattern in ("reflected", "transmitted"):
            yield "entangler", lambda c, u, p=pattern, kw=kw: schemes.scheme_entangler(c, p, **kw)
        yield "kerr-inverse", lambda c, u, kw=kw: schemes.scheme_kerr_inverse(c, **kw)
        yield "u3-kerr", lambda c, u, kw=kw: schemes.u3_biphotonic(c, u, "kerr", **kw)


def hexed(result):
    return report_hex(result) if isinstance(result, schemes.SchemeReport) else result


def runs(call, inputs):
    fock._MEMO.clear()
    return [hexed(outcome(lambda: call(c, u))) for c, u in inputs]


def test_every_scheme_replays_as_it_runs_with_replay_off():
    rng = np.random.default_rng(2718)
    cs, us = list(qutrits(rng)), list(unitaries(rng))
    inputs = [(c, us[k % len(us)]) for k, c in enumerate(cs + cs[::-1])]
    replays, real = [], fock._replayed

    def counted(tape, *args):
        done = real(tape, *args)
        replays.append(done is not None)
        return done

    for name, call in scheme_calls():
        with mock.patch.object(fock, "_replayed", counted):
            on = runs(call, inputs)
        with mock.patch.object(fock, "_REPLAY", False):
            calls = len(replays)
            off = runs(call, inputs)
            assert len(replays) == calls  # nothing replayed
        for k, (got, want) in enumerate(zip(on, off)):
            assert got == want, (name, k)
    assert sum(replays) > len(replays) // 2
