"""A warmed scheme call is one replay and little else.

Each scheme builds its input qutrit inside its segment, from the coefficients' parts, so a
warmed call makes exactly one ``fock._replayed`` call and no step or ``make_*`` call outside
it.  Tape keys carry which terms the input's prune keeps: a qutrit with an exactly-zero
coefficient, or one small enough to be pruned, records its own tape once and then replays,
bit for bit as with replay off.  The checks in front of the tape refuse malformed arguments
with ``InvalidInput``.
"""

import math
import sys
from unittest import mock

import numpy as np
import pytest

from qutritmap import fock, schemes
from qutritmap.fock import InvalidInput, QutritCoefficients
from qutritmap.sampling import haar_unitary
from test_segments import report_hex

U = haar_unitary(np.random.default_rng(7))


def calls():
    """``(name, call)`` per scheme and mode: the 7 schemes plus separate-qnd."""
    yield "linear-forward", schemes.scheme_linear_forward
    yield "linear-inverse", schemes.scheme_linear_inverse
    yield "u3-linear", lambda c: schemes.u3_biphotonic(c, U, "linear")
    for mode in ("ideal", "physical"):
        kw = {"meas_mode": mode}
        yield f"kerr-forward {mode}", lambda c, kw=kw: schemes.scheme_kerr_forward(c, **kw)
        if mode == "ideal":  # separate-qnd has no physical homodyne
            yield "separate-qnd", lambda c: schemes.scheme_kerr_forward(
                c, variant="separate-qnd")
        yield f"entangler {mode}", lambda c, kw=kw: schemes.scheme_entangler(c, **kw)
        yield f"kerr-inverse {mode}", lambda c, kw=kw: schemes.scheme_kerr_inverse(c, **kw)
        yield f"u3-kerr {mode}", lambda c, kw=kw: schemes.u3_biphotonic(c, U, "kerr", **kw)


CALLS = dict(calls())


def haar(seed):
    z = np.random.default_rng(seed).normal(size=6)
    return tuple(complex(z[k], z[k + 3]) / np.linalg.norm(z) for k in range(3))


def counting(monkeypatch):
    """Record each ``_replayed`` result, and each ``_step`` and ``make_*`` call, wherever
    the package bound them."""
    seen = {"replays": [], "steps": 0, "makes": 0}
    real_replayed, real_step = fock._replayed, fock._step

    def replayed(*args):
        done = real_replayed(*args)
        seen["replays"].append(done is not None)
        return done

    def counted(count, real):
        def call(*args, **kwargs):
            seen[count] += 1
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(fock, "_replayed", replayed)
    for name, module in list(sys.modules.items()):
        if name == "qutritmap" or name.startswith("qutritmap."):
            if getattr(module, "_step", None) is real_step:
                monkeypatch.setattr(module, "_step", counted("steps", real_step))
            for make in ("make_biphotonic_qutrit", "make_spatial_qutrit"):
                if hasattr(module, make):
                    monkeypatch.setattr(module, make, counted("makes", getattr(module, make)))
    return seen


@pytest.mark.parametrize("name", CALLS)
def test_a_warmed_call_is_one_replay_and_no_step(monkeypatch, name):
    call = CALLS[name]
    fock._MEMO.clear()
    call(haar(1))
    call(haar(2))  # the first replay compiles the tape
    seen = counting(monkeypatch)
    for seed in (3, 4, 5):
        call(haar(seed))
    assert seen == {"replays": [True] * 3, "steps": 0, "makes": 0}


def off(call, c):
    with mock.patch.object(fock, "_REPLAY", False):
        fock._MEMO.clear()
        return report_hex(call(c))


@pytest.mark.parametrize("name", CALLS)
@pytest.mark.parametrize("small", [0.0, 1e-13])
def test_a_pruned_coefficient_replays_its_own_tape_bit_for_bit(monkeypatch, name, small):
    """After Haar inputs, a qutrit whose second coefficient the input's prune drops records
    its tape once; the next such qutrit replays it without a bail."""
    call = CALLS[name]
    pruned = [QutritCoefficients.normalize(0.6 * k, small, (0.8 - 0.3j) / k) for k in (1, 2)]
    want = off(call, pruned[1])
    fock._MEMO.clear()
    call(haar(1))
    call(haar(2))
    seen = counting(monkeypatch)
    call(pruned[0])  # a new tape key: recorded, not replayed
    got = report_hex(call(pruned[1]))
    assert seen["replays"] == [True] and seen["makes"] == 0
    assert got == want


def refusal(run):
    with pytest.raises(InvalidInput) as info:
        run()
    return str(info.value)


@pytest.mark.parametrize("bad", [0.0, 1.0, math.nan, -0.2])
@pytest.mark.parametrize("at", ["t1", "t2", "t3"])
def test_u3_linear_refuses_the_transmissivities_linear_inverse_refuses(bad, at):
    c = QutritCoefficients.normalize(0.6, 0.3j, -0.5)
    want = refusal(lambda: schemes.scheme_linear_inverse(c, **{at: bad}))
    assert want.startswith(f"{at} must lie strictly between 0 and 1")
    assert refusal(lambda: schemes.u3_biphotonic(c, np.eye(3), "linear", **{at: bad})) == want


@pytest.mark.parametrize("c", [(0.6, 0.8), (0.6, 0.8, 0.0, 0.0), 0.5])
def test_a_coefficient_tuple_of_the_wrong_length_is_invalid_input(c):
    for call in CALLS.values():
        assert "expected three complex coefficients" in refusal(lambda: call(c))


@pytest.mark.parametrize("c", [("0.6", 0.8, 0.0), (0.6, None, 0.8), (0.6, 0.8, 10**400),
                               ("x", 1, 0), (None, 1, 0)])
def test_a_coefficient_that_is_no_number_is_invalid_input(c):
    for call in CALLS.values():
        assert "expected three complex coefficients" in refusal(lambda: call(c))
    want = f"expected three complex coefficients, got {c!r}"
    assert refusal(lambda: QutritCoefficients.normalize(*c)) == want


@pytest.mark.parametrize("u", [[[1, 0, 0], [0, 1], [0, 0, 1]], "eye", [["a"] * 3] * 3])
def test_a_ragged_or_string_matrix_is_invalid_input(u):
    c = QutritCoefficients.normalize(0.6, 0.3j, -0.5)
    for backend in ("linear", "kerr"):
        assert "3x3 complex matrix" in refusal(lambda: schemes.u3_biphotonic(c, u, backend))


@pytest.mark.parametrize("alpha", [2.0 + 0.5j, "two", None, True, np.True_, 10**400])
@pytest.mark.parametrize("name", ["qubus_alpha", "theta"])
def test_a_complex_or_string_probe_amplitude_is_invalid_input(name, alpha):
    """A bool is refused too, and each of these values given as the cross-phase angle."""
    c = QutritCoefficients.normalize(0.6, 0.3j, -0.5)
    for call in (schemes.scheme_kerr_forward, schemes.scheme_entangler,
                 schemes.scheme_kerr_inverse, lambda c, **kw: schemes.u3_biphotonic(
                     c, np.eye(3), "kerr", **kw)):
        want = f"{name} must be a real number, got {alpha!r}"
        assert refusal(lambda: call(c, **{name: alpha})) == want


@pytest.mark.parametrize("call, name, bad", [
    (schemes.scheme_linear_forward, "t", "a"),
    (schemes.scheme_linear_inverse, "t1", "a"),
    (schemes.scheme_linear_forward, "t", 1j),
    (schemes.scheme_kerr_forward, "t", [1]),
    (lambda c, **kw: schemes.u3_biphotonic(c, np.eye(3), "linear", **kw), "t", "x"),
    (lambda c, **kw: schemes.u3_biphotonic(c, np.eye(3), "kerr", **kw), "t", 1j),
    (schemes.scheme_linear_inverse, "t2", True),
    (schemes.scheme_linear_inverse, "t3", 10**400),
])
def test_a_transmissivity_that_is_no_real_number_is_invalid_input(call, name, bad):
    c = QutritCoefficients.normalize(0.6, 0.3j, -0.5)
    assert refusal(lambda: call(c, **{name: bad})) == f"{name} must be a real number, got {bad!r}"
