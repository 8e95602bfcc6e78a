"""Segment tapes replay the step path bit for bit.

The linear schemes run their fixed element chains through ``fock._segment``.
The first run per input shape records a tape of the chain's steps; later runs
replay it on the amplitudes alone, under three guards: every prune keeps the
recorded subset, no outcome falls at p <= PROB_EPS, and every post-selection's
input norm, computed again from the column, passes ``measurement._norm_in``'s
bounds.  A failed guard runs the chain through the step path instead.

The step path here is the same call on a cleared memo, which records and
replays nothing.  Every replayed result is compared with it by ``float.hex``,
and its errors by type and message.
"""

import cmath
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritmap import fock, schemes
from qutritmap.elements import BeamSplitterSpec, apply_beam_splitter
from qutritmap.fock import (
    FockTerm,
    InvalidInput,
    Mode,
    QutritCoefficients,
    build_state,
    make_biphotonic_qutrit,
    make_spatial_qutrit,
    scaled,
)
from qutritmap.measurement import path_modes, post_select_coincidence
from qutritmap.sampling import haar_unitary
from test_shape import bits, shapes_in
from test_sites import holds_shape

PATHS = ("s0", "s1", "s2")
T_FORWARD = math.sqrt(schemes.T2_LINEAR_FORWARD)


def outcome(run):
    """``run()``'s result, or the type and message of what it raised."""
    try:
        return run()
    except fock.SimulationError as exc:
        return type(exc), str(exc)


def tracked(run):
    """``outcome(run)`` and, per tape it found, whether its replay ran through."""
    tries, real = [], fock._replayed

    def replay(tape, state):
        done = real(tape, state)
        tries.append(done is not None)
        return done

    with mock.patch.object(fock, "_replayed", replay):
        return outcome(run), tries


def step_path(run):
    fock._MEMO.clear()
    return tracked(run)


def replayed(warm, run):
    """``tracked(run)`` after ``warm()`` recorded the tapes on a cleared memo."""
    fock._MEMO.clear()
    outcome(warm)
    return tracked(run)


def report_hex(report):
    return (
        [(e.step, e.outcome, float(e.probability).hex()) for e in report.branch_log],
        float(report.output_fidelity).hex(),
        {k: float(v).hex() for k, v in report.checks.items()},
        bits(report.output_state),
    )


def segment_hex(result):
    """A segment's ``(ps, state)``, or a linear-inverse run's ``(pre, log, state)``."""
    if isinstance(result, tuple) and isinstance(result[-1], fock.PhotonicState):
        return [bits(x) if isinstance(x, fock.PhotonicState) else repr(x) for x in result]
    return result


def forward_segment(state, t=T_FORWARD):
    return fock._segment("linear-forward", schemes._linear_forward_heralded, state, t)


part = st.one_of(st.just(0.0), st.floats(0.01, 10.0), st.floats(-10.0, -0.01))
coefficients = st.tuples(part, part, part, part, part, part).filter(any).map(
    lambda x: QutritCoefficients.normalize(*(complex(x[k], x[k + 3]) for k in range(3))))
transmissivity = st.one_of(st.none(), st.floats(0.05, 0.95))
factor = st.builds(cmath.rect, st.floats(1e-6, 1e6), st.floats(-math.pi, math.pi))


def twin(c: QutritCoefficients) -> QutritCoefficients:
    """Coefficients with the zeros of ``c`` and other values: an input of its shape."""
    return QutritCoefficients.normalize(*((0.3 + 0.2j) * k if x else 0j
                                          for k, x in enumerate(c.as_tuple(), 1)))


@given(c=coefficients, t=transmissivity, t1=transmissivity, t2=transmissivity,
       t3=transmissivity, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_schemes_replay_the_step_path_bit_for_bit(c, t, t1, t2, t3, seed):
    u = haar_unitary(np.random.default_rng(seed))
    runs = {
        "linear-forward": lambda c: schemes.scheme_linear_forward(c, t),
        "linear-inverse": lambda c: schemes.scheme_linear_inverse(c, t1, t2, t3),
        "u3-linear": lambda c: schemes.u3_biphotonic(c, u, "linear", t, t1, t2, t3),
    }
    for name, run in runs.items():
        expected, none = step_path(lambda: run(c))
        got, tries = replayed(lambda: run(twin(c)), lambda: run(c))
        assert none == [] and tries, name  # the warm run left a tape of c's shape
        if isinstance(expected, schemes.SchemeReport):
            expected, got = report_hex(expected), report_hex(got)
        assert got == expected, name


@given(c=coefficients, k=factor, t=st.floats(0.05, 0.95), ts=st.tuples(
    st.floats(0.05, 0.95), st.floats(0.05, 0.95), st.floats(0.05, 0.95)))
@settings(max_examples=40, deadline=None)
def test_segments_on_scaled_states_replay_the_step_path(c, k, t, ts):
    """Unnormalized inputs: the measured norms and prunes move with the scale."""
    runs = (
        lambda c: forward_segment(scaled(make_biphotonic_qutrit(c, "in"), k), t),
        lambda c: schemes._linear_inverse_run(scaled(make_spatial_qutrit(c, PATHS), k),
                                              PATHS, *ts),
    )
    for run in runs:
        expected, _ = step_path(lambda: run(c))
        got, tries = replayed(lambda: run(twin(c)), lambda: run(c))
        assert tries
        assert segment_hex(got) == segment_hex(expected)


def test_the_working_point_replays_every_segment():
    c = QutritCoefficients.normalize(0.6, 0.3j, -0.5)
    u = haar_unitary(np.random.default_rng(3))
    for run in (lambda: schemes.scheme_linear_forward(c), lambda: schemes.scheme_linear_inverse(c),
                lambda: schemes.u3_biphotonic(c, u, "linear")):
        expected, _ = step_path(run)
        got, tries = replayed(run, run)
        assert tries and all(tries)
        assert report_hex(got) == report_hex(expected)


# ---------------------------------------------------------------------------
# each guard failed on purpose


def test_a_prune_of_another_subset_bails_to_the_step_path():
    tiny = QutritCoefficients.normalize(0.6, 5e-12, 0.8)  # same shape, pruned on the way
    run = lambda: forward_segment(make_biphotonic_qutrit(tiny, "in"))  # noqa: E731
    warm = lambda: forward_segment(make_biphotonic_qutrit(twin(tiny), "in"))  # noqa: E731
    expected, _ = step_path(run)
    got, tries = replayed(warm, run)
    assert tries == [False]
    assert segment_hex(got) == segment_hex(expected)
    assert len(got[1].amplitudes) < len(replayed(warm, warm)[0][1].amplitudes)


def pair(x, y):
    """One photon in path a or b, with amplitudes x and y."""
    return build_state((), [FockTerm.from_occupations({Mode("a", "H"): 1}, (), x),
                            FockTerm.from_occupations({Mode("b", "H"): 1}, (), y)])


def split_and_click(state):
    """A 50:50 splitter and a click on its second output: p = |x - y|^2 / (2 (|x|^2 + |y|^2))."""
    s = apply_beam_splitter(state, "a", "b", "c", "d", BeamSplitterSpec.fifty_fifty())
    return post_select_coincidence(s, [(path_modes("d"), "click")])[1]


def split_segment(state):
    return fock._segment("split-and-click", split_and_click, state)


def test_an_outcome_at_prob_eps_bails_to_the_step_path():
    # the click amplitude survives the prune, and p ~ 2e-24
    run = lambda: split_segment(pair(1.0, 1.0 - 3e-12))  # noqa: E731
    expected, _ = step_path(run)
    got, tries = replayed(lambda: split_segment(pair(0.6, 0.8)), run)
    assert tries == [False]
    assert segment_hex(got) == segment_hex(expected)
    assert expected[0] == (0.0,) and expected[1].born_weight == 0.0


def test_a_refused_norm_raises_as_the_step_path_on_every_call():
    for k, message in ((1e-9, "cannot post-select a zero state"),
                       (1e300, "cannot post-select a state of squared norm inf")):
        run = lambda: split_segment(scaled(pair(0.6, 0.8), k))  # noqa: E731
        expected, _ = step_path(run)
        assert expected == (InvalidInput, message)
        fock._MEMO.clear()
        split_segment(pair(0.6, 0.8))
        for _ in range(3):
            assert tracked(run) == (expected, [False])


def test_a_tape_that_kept_the_measured_norm_would_fail_the_identity():
    """The check above finds a tape that replays a recorded norm: a post-selection's
    recorded value is the warm run's norm, which this patched replay reads."""
    run = lambda: split_segment(scaled(pair(0.6, 0.8j), 2.0))  # noqa: E731
    expected, _ = step_path(run)
    fock._MEMO.clear()
    split_segment(pair(0.6, 0.8j))
    for key, tape in list(fock._MEMO.items()):
        if isinstance(key[1], fock._Site) and key[1].kind == "segment":
            entries, registers, shape = tape
            fock._MEMO[key] = [e[:5] + (None,) for e in entries], registers, shape
    got, tries = tracked(run)
    assert tries == [True]
    assert segment_hex(got) != segment_hex(expected)
    assert got[1].born_weight == 4 * expected[1].born_weight  # p against the warm norm


# ---------------------------------------------------------------------------
# what the memo keeps


def test_segment_sites_hold_no_shape_and_tapes_two_shapes():
    c = QutritCoefficients.normalize(0.6, 0.3j, -0.5)
    fock._MEMO.clear()
    schemes.u3_biphotonic(c, haar_unitary(np.random.default_rng(5)), "linear")
    schemes.scheme_linear_inverse(c)
    tapes = [(key, value) for key, value in fock._MEMO.items()
             if isinstance(key[1], fock._Site) and key[1].kind == "segment"]
    assert len(tapes) == 2  # linear-forward, and linear-inverse on one input shape
    for key, value in tapes:
        assert not holds_shape(key[1], set())
        assert shapes_in((key, value)) <= 2
