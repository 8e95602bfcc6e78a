"""Segment tapes replay the step path bit for bit.

The schemes run their fixed blocks of steps through ``fock._segment``: the linear
maps' element chains, every eraser, linear-inverse's two eraser outcomes, the Kerr
forward map through its kept readout outcome, the Kerr inverse map and the entangler
scheme whole, and the U(3) mesh, whose angles are free parameters: tape inputs, not
key bits.  The first run per input shape records a tape; its steps may fork (an
eraser's labels, a readout's outcomes).  Later runs replay it on the amplitudes
alone, under guards: every prune keeps the recorded subset, every outcome is cut
(p <= PROB_EPS) where it was cut and kept where it was kept, and every value taken
from a state (a measured norm, a strip's split and rescale, a merge's fidelities,
a mixed readout's class masses) is computed again by the function the step path
calls, which raises where the step path would and must decide as it did (a strip's
heaviest row, which branches and classes are live).  A failed guard runs the block
through the step path instead.  A tape's first replay compiles it into one
straight-line function of the input state and a constants tuple, which every
replay below runs.

The step path here is the same call on a cleared memo, which records and
replays nothing.  Every replayed result is compared with it by ``float.hex``,
and its errors by type and message.
"""

import cmath
import gc
import math
import re
import weakref
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritmap import fock, measurement, schemes
from qutritmap.elements import (
    BeamSplitterSpec,
    ReckDecomposition,
    apply_beam_splitter,
    apply_lomi,
    apply_phase_shift,
    reck_decompose,
)
from qutritmap.fock import (
    FockTerm,
    InvalidInput,
    UnsupportedMode,
    Mode,
    QutritCoefficients,
    build_state,
    make_biphotonic_qutrit,
    make_spatial_qutrit,
    scaled,
)
from qutritmap.measurement import (
    Correction,
    FeedForwardRule,
    erase_and_merge,
    path_modes,
    post_select_coincidence,
    strip_modes,
)
from qutritmap.qubus import couple_probes, drop_register, project_photon_number
from qutritmap.sampling import haar_unitary
from test_shape import bits, shapes_in
from test_columns import scheme_runs
from test_sites import holds_shape, run_all

PATHS = ("s0", "s1", "s2")
T_FORWARD = math.sqrt(schemes.T2_LINEAR_FORWARD)


def tapes():
    """Every ``(key, tape)`` in the memo."""
    return [(key, value) for key, value in fock._MEMO.items()
            if isinstance(key[1], fock._Site) and key[1].kind == "segment"]


def outcome(run):
    """``run()``'s result, or the type and message of what it raised."""
    try:
        return run()
    except fock.SimulationError as exc:
        return type(exc), str(exc)


def tracked(run):
    """``outcome(run)`` and, per tape it found, whether its replay ran through."""
    tries, real = [], fock._replayed

    def replay(tape, *args):
        done = real(tape, *args)
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
    """A segment's ``(values, state)`` as comparable values; anything else as it is."""
    if isinstance(result, tuple) and isinstance(result[-1], fock.PhotonicState):
        return [bits(x) if isinstance(x, fock.PhotonicState) else repr(x) for x in result]
    return result


def forward_segment(state, t=T_FORWARD):
    return fock._segment("linear-forward", schemes._linear_forward_run, state, t)


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
        lambda c: fock._segment("linear-inverse", schemes._linear_inverse_run,
                                scaled(make_spatial_qutrit(c, PATHS), k), *ts),
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


def mix(x, y, z):
    """One photon in path a, b or e, with amplitudes x, y and z."""
    return build_state((), [FockTerm.from_occupations({Mode(path, "H"): 1}, (), amp)
                            for path, amp in zip("abe", (x, y, z))])


def splitter_segment(state):
    """A 50:50 splitter on a and b: one of its outputs c and d cancels where |x| = |y|."""
    return fock._segment("splitter", lambda s: ((), apply_beam_splitter(
        s, "a", "b", "c", "d", BeamSplitterSpec.fifty_fifty())), state)


def test_a_prune_of_terms_the_recording_kept_bails_to_the_step_path():
    for warm, run in (((0.6, 0.3, 0.2), (0.5, 0.5, 0.2)),  # d cancels where nothing did
                      ((0.5, 0.5, 0.2), (0.5, -0.5, 0.2))):  # c cancels where d did
        expected, _ = step_path(lambda: splitter_segment(mix(*run)))
        got, tries = replayed(lambda: splitter_segment(mix(*warm)),
                              lambda: splitter_segment(mix(*run)))
        assert tries == [False]
        assert segment_hex(got) == segment_hex(expected) and len(got[1].amplitudes) == 2


def pair(x, y):
    """One photon in path a or b, with amplitudes x and y."""
    return build_state((), [FockTerm.from_occupations({Mode("a", "H"): 1}, (), x),
                            FockTerm.from_occupations({Mode("b", "H"): 1}, (), y)])


def split_and_click(state):
    """A 50:50 splitter and a click on its second output: p = |x - y|^2 / (2 (|x|^2 + |y|^2))."""
    s = apply_beam_splitter(state, "a", "b", "c", "d", BeamSplitterSpec.fifty_fifty())
    p, s = post_select_coincidence(s, [(path_modes("d"), "click")])
    return (p,), s


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
    split = apply_beam_splitter(pair(0.6, 0.8j), "a", "b", "c", "d", BeamSplitterSpec.fifty_fifty())
    warm = fock.norm_sq(split)  # what the warm run measured
    for key, (entries, *rest) in tapes():
        fock._MEMO[key] = ([(lambda *_: warm, *e[1:]) if e[0] is measurement._measurable else e
                            for e in entries], *rest)
    got, tries = tracked(run)
    assert tries == [True]
    assert segment_hex(got) != segment_hex(expected)
    assert got[1].born_weight == 4 * expected[1].born_weight  # p against the warm norm


# ---------------------------------------------------------------------------
# forking tapes: erasers, strips, merges, readouts and drops


def hexed(value):
    """``value`` with every float by ``float.hex`` and every state by its bits."""
    if isinstance(value, fock.PhotonicState):
        return bits(value)
    if isinstance(value, schemes.SchemeReport):
        return report_hex(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [hexed(x) for x in value]
    if isinstance(value, dict):
        return {k: hexed(x) for k, x in value.items()}
    return value


def two_port(x, y, u, v):
    """A photon on detector path a or b and one on path o: a (x H + y V) + b (u H + v V)
    on o; a zero amplitude leaves its term out (another shape)."""
    cells = (("a", "H", x), ("a", "V", y), ("b", "H", u), ("b", "V", v))
    return build_state((), [FockTerm.from_occupations({Mode(d, "H"): 1, Mode("o", pol): 1}, (), a)
                            for d, pol, a in cells if a])


RULE = FeedForwardRule({"a": (), "b": (Correction("phase", "o", 0.5),)})


def eraser(state, tol=1e-9):
    return erase_and_merge(state, {"a": "a", "b": "b"}, RULE, tol=tol)


def check(warm, run, replays):
    """``run()`` after ``warm()`` recorded its tapes, against the step path: its replays
    run through as ``replays`` says; returns the step path's outcome."""
    expected, none = step_path(run)
    got, tries = replayed(warm, run)
    assert none == [] and tries == replays
    assert hexed(got) == hexed(expected)
    return expected


AGREE = 0.6, 0.3j, 0.3, 0.15j  # b's output photon is a's: the branches merge


def test_an_eraser_label_at_p_zero_replays_the_step_path():
    live, cut = two_port(*AGREE), two_port(0.6, 0.3j, 3e-10, 1.5e-10j)  # b's p ~ 1e-19
    was_kept = check(lambda: eraser(live), lambda: eraser(cut), [False])
    was_cut = check(lambda: eraser(cut), lambda: eraser(live), [False])
    assert was_kept[3]["b"] == 0.0 < was_cut[3]["b"]
    # a zero coefficient: b never fires, and the tape of that shape keeps the cut label
    expected = check(lambda: eraser(two_port(0.1, -0.8, 0, 0)),
                     lambda: eraser(two_port(0.6, 0.3j, 0, 0)), [True])
    assert expected[3]["b"] == 0.0


THREE = FeedForwardRule({"a": (), "b": (Correction("phase", "o", 0.5),),
                         "c": (Correction("phase", "o", -0.5),)})


def eraser3(state):
    """The eraser with a third detector, on path c, where no photon ever is."""
    return erase_and_merge(state, {"a": "a", "b": "b", "c": "c"}, THREE)


def test_two_cut_labels_store_a_tape_that_replays_the_step_path():
    """Labels b and c cut: both return the one literal p 0.0, which the tape keeps as a
    constant that their guards fix, so the eraser stores a tape."""
    expected = check(lambda: eraser3(two_port(0.1, -0.8, 0, 0)),
                     lambda: eraser3(two_port(0.6, 0.3j, 0, 0)), [True])
    assert len(tapes()) == 1 and expected[3]["b"] == expected[3]["c"] == 0.0
    # the recording kept b and the replay cuts it: the guard fails
    expected = check(lambda: eraser3(two_port(*AGREE)),
                     lambda: eraser3(two_port(0.6, 0.3j, 3e-10, 1.5e-10j)), [False])
    assert len(tapes()) == 1 and expected[3]["b"] == 0.0


def product(rows, cols):
    """(rows[0] |dH> + rows[1] |dV>) (cols[0] |rH> + cols[1] |rV>), or the matrix of
    amplitudes ``rows`` where ``cols`` is None: one strip row per pol of d."""
    matrix = rows if cols is None else [[a * b for b in cols] for a in rows]
    return build_state((), [FockTerm.from_occupations({Mode("d", dp): 1, Mode("r", rp): 1}, (), a)
                            for dp, row in zip("HV", matrix) for rp, a in zip("HV", row)])


def strip_segment(state):
    return fock._segment("strip", lambda s: ((), strip_modes(s, path_modes("d"))), state)


def test_a_strip_whose_pivot_moves_replays_the_step_path():
    warm = lambda: strip_segment(product((0.8, 0.6), (0.8, 0.6j)))  # noqa: E731
    # the pivot column moves: the replay picks it, as the step path does
    check(warm, lambda: strip_segment(product((0.8, 0.6), (0.6, 0.8j))), [True])
    # the heaviest row moves: another rank-1 merge, so the guard fails
    check(warm, lambda: strip_segment(product((0.6, 0.8), (0.8, 0.6j))), [False])


def test_an_entangled_strip_raises_as_the_step_path_on_every_call():
    run = lambda: strip_segment(product([[0.6, 0.3], [0.3, -0.6]], None))  # noqa: E731
    expected, _ = step_path(run)
    assert expected == (fock.WiringError, "watched modes are entangled with the rest; cannot strip")
    fock._MEMO.clear()
    strip_segment(product((0.8, 0.6), (0.8, 0.6j)))
    for _ in range(3):
        assert tracked(run) == (expected, [False])


def test_an_ideal_merge_below_one_minus_tol_raises_as_the_step_path():
    run = lambda: eraser(two_port(0.6, 0.3j, 0.3, -0.15j))  # noqa: E731
    expected, _ = step_path(run)
    assert expected[0] is fock.WiringError and expected[1].startswith("branches disagree")
    fock._MEMO.clear()
    eraser(two_port(*AGREE))
    for _ in range(3):
        assert tracked(run) == (expected, [False])
    # at tol inf (physical mode) the same branches merge, replayed
    check(lambda: eraser(two_port(*AGREE), math.inf),
          lambda: eraser(two_port(0.6, 0.3j, 0.3, -0.15j), math.inf), [True])


def tell_apart(state):
    """Probes p1 and p2 coupled to a photon on a (both) or b (p2 only): the photon on b
    displaces p1 and moves p2."""
    return couple_probes(state, "p1", "p2", 2.0, 0.3, path_modes("a"),
                         path_modes("a") + path_modes("b"))


def probe_readout(state):
    """A probe pair that tells a photon on a from one on b, read by photon number:
    every outcome's p and the state of "0" (the photon on a)."""
    s = tell_apart(state)
    dist = project_photon_number(s, "p1")
    return tuple(o.probability for o in dist.outcomes), dist.get("0").state


def test_a_readout_outcome_at_prob_eps_replays_the_step_path():
    def run(x, y):
        return lambda: fock._segment("readout", probe_readout, pair(x, y))

    check(run(0.6, 0.8), run(0.8, -0.6j), [True])
    expected = check(run(0.6, 0.8), run(1.0, 3e-10), [False])  # odd and even cut
    assert len(expected[0]) == 1
    expected = check(run(0.6, 0.8), run(3e-10, 1.0), [False])  # "0" cut: dist.get raises
    assert expected == (InvalidInput, "no outcome labelled '0'")


def test_a_merge_whose_live_branches_change_replays_the_step_path():
    """Branch b passes both of its steps (p ~ 1e-12, then q ~ 1e-8) but its P, their
    product, falls at PROB_EPS, so the merge drops it where the recording kept it."""
    def state(x, w, z):
        cells = (({"a": 1, "o": 1}, x), ({"b": 1, "o": 1}, w), ({"b": 1, "q": 1}, z))
        return build_state((), [FockTerm.from_occupations({Mode(k, "H"): n for k, n in occ.items()},
                                                          (), amp) for occ, amp in cells])

    def run(*amps):
        return lambda: erase_and_merge(state(*amps), {"a": "a", "b": "b"}, RULE,
                                       keep=path_modes("o"))

    expected = check(run(0.6, 0.5, 0.3), run(0.6, 1e-10, 1e-6), [False])
    assert 0.0 < expected[3]["b"] <= fock.PROB_EPS


def test_a_mixed_readout_class_at_prob_eps_replays_the_step_path():
    """Zero, one or two photons on a move probe p1 to 0, beta1 or beta2 (not -beta1): the
    odd and even classes are mixtures, cut where the photons on a are faint."""
    def state(x, y, z):
        cells = (({"a": 2}, x), ({"a": 1, "c": 1}, y), ({"c": 2}, z))
        return build_state((), [FockTerm.from_occupations({Mode(k, "H"): n for k, n in occ.items()},
                                                          (), amp) for occ, amp in cells])

    def readout(s):
        s = couple_probes(s, "p1", "p2", 2.0, 0.3, path_modes("a"), ())
        dist = project_photon_number(s, "p1")
        assert not any(o.state for o in dist.outcomes if o.label != "0")  # mixed classes
        return tuple(o.probability for o in dist.outcomes), dist.get("0").state

    def run(*amps):
        return lambda: fock._segment("mixed", readout, state(*amps))

    check(run(0.5, 0.5j, 0.6), run(-0.3, 0.4, 0.7j), [True])
    expected = check(run(0.5, 0.5j, 0.6), run(3e-9, 3e-9j, 1.0), [False])
    assert len(expected[0]) == 1  # odd and even cut


def test_a_correlated_register_drop_in_physical_mode_replays_the_step_path():
    c, d = (QutritCoefficients.normalize(0.6, 0.3j, -0.5),
            QutritCoefficients.normalize(-0.2, 0.7, 0.1 + 0.6j))
    kwargs = {"qubus_alpha": 5.0, "theta": 0.1, "meas_mode": "physical"}
    expected = check(lambda: schemes.scheme_kerr_inverse(c, **kwargs),
                     lambda: schemes.scheme_kerr_inverse(d, **kwargs), [True])
    assert expected.checks["entangler1_merge_fidelity"] < 1.0
    dead = [e for _, (entries, *_) in tapes() for e in entries if e[-1] is False]
    assert dead  # the refused drops, which replay as refused

    def dropped(s):
        return (), drop_register(tell_apart(s), "p2")  # correlated with the photon

    run = lambda: fock._segment("drop", dropped, pair(0.6, 0.8))  # noqa: E731
    expected, _ = step_path(run)
    assert expected[0] is fock.WiringError
    for _ in range(2):
        assert tracked(run) == (expected, [])
    assert not tapes()


def test_a_fidelity_clamped_to_one_is_a_value_of_the_tape():
    """A fidelity above 1 by rounding returns fock's literal 1.0, which is also every step's
    default weight: the recording copies the result, so the step after it keeps weight 1
    where a replay's fidelity is below 1."""
    target = pair(0.7 * 0.27, 0.7 * 0.27)

    def body(s):
        return (fock.fidelity(s, target),), apply_phase_shift(s, "a", 0.5)

    def run(x, y):
        return lambda: fock._segment("clamped", body, pair(x, y))

    assert step_path(run(0.27, 0.27))[0][0] == (1.0,)
    check(run(0.27, 0.27), run(0.6, 0.8), [True])


def nested(state):
    """An outer segment around an eraser's: a phase on o, then the eraser."""
    total, merged, fid, ps = eraser(apply_phase_shift(state, "o", 0.25))
    return (total, fid, *ps.values()), merged


def test_a_nested_segment_joins_the_outer_tape():
    def run(state):
        return lambda: fock._segment("outer", nested, state)

    check(run(two_port(0.3, 0.8j, -0.6, -1.6j)), run(two_port(*AGREE)), [True])
    assert len(tapes()) == 1  # the eraser's steps joined the outer tape: no tape of its own
    # a guard in the inner segment fails the outer replay
    check(run(two_port(*AGREE)), run(two_port(0.6, 0.3j, 3e-10, 1.5e-10j)), [False])


@given(c=coefficients, seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([2.0, 5.0]))
@settings(max_examples=8, deadline=None)
def test_qubus_schemes_replay_the_step_path_bit_for_bit(c, seed, alpha):
    u = haar_unitary(np.random.default_rng(seed))
    for mode, theta in (("ideal", 0.3), ("physical", 0.1)):
        kw = {"qubus_alpha": alpha, "theta": theta, "meas_mode": mode}
        runs = {
            "kerr-forward": lambda c: schemes.scheme_kerr_forward(c, **kw),
            "kerr-inverse": lambda c: schemes.scheme_kerr_inverse(c, **kw),
            "u3-kerr": lambda c: schemes.u3_biphotonic(c, u, "kerr", **kw),
        }
        if mode == "ideal":
            runs["separate-qnd"] = lambda c: schemes.scheme_kerr_forward(c, variant="separate-qnd",
                                                                         **kw)
        for name, run in runs.items():
            expected, none = step_path(lambda: run(c))
            got, tries = replayed(lambda: run(twin(c)), lambda: run(c))
            assert none == [] and tries or not isinstance(expected, schemes.SchemeReport), name
            if isinstance(expected, schemes.SchemeReport):
                expected, got = report_hex(expected), report_hex(got)
            assert got == expected, name


# ---------------------------------------------------------------------------
# compiled replays


def compiled():
    """Per tape with a compiled replay, ``(replay, consts)``."""
    return [value[-1] for _, value in tapes() if value[-1] is not None]


def test_a_tape_compiles_on_its_first_replay_and_shapes_of_one_structure_share_its_source():
    fock._MEMO.clear()
    for spectator in "xy":  # a photon on its own path: another shape of the same structure
        state = fock.tensor(pair(0.6, 0.8j), fock.single_photon(spectator))
        split_segment(state)
        assert len(compiled()) == len(tapes()) - 1  # the new tape is not compiled yet
        split_segment(state)
    (shape_x, _), (shape_y, _) = (key for key, _ in tapes())
    assert shape_x is not shape_y
    (replay_x, consts_x), (replay_y, consts_y) = compiled()
    assert replay_x is replay_y and consts_x != consts_y  # one source; the shapes are constants
    ((none, source),) = [key for key, value in fock._MEMO.items() if value is replay_x]
    assert none is None and source.startswith("def kernel(S, K, F):")
    assert source.count("columns(") == 1  # the output's: the measured norm is read from a column


def test_a_cleared_memo_leaves_no_compiled_replay_alive():
    fock._MEMO.clear()
    for _ in range(2):
        split_segment(pair(0.6, 0.8))
    ((replay, _),) = compiled()
    alive = weakref.ref(replay)
    del replay
    fock._MEMO.clear()
    gc.collect()
    assert alive() is None


def test_a_first_replay_whose_guard_fails_runs_the_step_path():
    """The first replay compiles the tape, whose guard then fails: the call returns the
    step path's result or raises its error, and the compiled replay stays."""
    tiny = QutritCoefficients.normalize(0.6, 5e-12, 0.8)  # pruned on the way
    check(lambda: forward_segment(make_biphotonic_qutrit(twin(tiny), "in")),
          lambda: forward_segment(make_biphotonic_qutrit(tiny, "in")), [False])
    assert len(compiled()) == len(tapes()) == 1
    expected = check(lambda: strip_segment(product((0.8, 0.6), (0.8, 0.6j))),
                     lambda: strip_segment(product([[0.6, 0.3], [0.3, -0.6]], None)), [False])
    assert expected[0] is fock.WiringError
    assert len(compiled()) == len(tapes()) == 1


# ---------------------------------------------------------------------------
# what the memo keeps


def test_segment_sites_hold_no_shape_and_tapes_two_shapes():
    c = QutritCoefficients.normalize(0.6, 0.3j, -0.5)
    fock._MEMO.clear()
    schemes.u3_biphotonic(c, haar_unitary(np.random.default_rng(5)), "linear")
    schemes.scheme_linear_inverse(c)
    found = tapes()
    assert len(found) == 2  # one per scheme: the inner segments joined their tapes
    for key, value in found:
        assert not holds_shape(key[1], set())
        assert shapes_in((key, value)) <= 2


def segment_names():
    """Per tape key in the memo, the name its segment was called with."""
    names = {id(site): key[1][1] for key, site in fock._MEMO.items()
             if key[0] is None and type(key[1]) is tuple and key[1][0] == "segment"}
    return [names[id(key[1])] for key, _ in tapes()]


def test_every_tape_of_every_scheme_holds_two_shapes():
    fock._MEMO.clear()
    runs = list(scheme_runs())
    run_all(runs)
    run_all(runs)  # each tape's first replay compiles it
    assert len(tapes()) >= 12 and len(compiled()) == len(tapes())
    kinds = {name[0] for name in segment_names() if type(name) is tuple}
    assert {"entangler", "kerr-inverse", "u3-linear", "u3-kerr"} <= kinds
    for key, value in tapes():
        assert not holds_shape(key[1], set()) and not holds_shape(value[0], set())
        assert not holds_shape(value[-1][0], set())  # the replay: all it holds is in consts
        assert shapes_in((key, value)) <= 2


def test_a_replay_builds_states_only_for_its_output_and_its_state_values():
    """A compiled replay keeps each step's and merge's state as its column locals: it calls
    ``columns(`` for its output, in its return line, and otherwise only for a segment value
    that is a state, which no line but the return line reads."""
    fock._MEMO.clear()
    runs = list(scheme_runs())
    run_all(runs)
    run_all(runs)  # each tape's first replay compiles it
    assert len(compiled()) == len(tapes())
    source_of = {id(value): key[1] for key, value in fock._MEMO.items()
                 if key[0] is None and type(key[1]) is str}
    for replay, _ in compiled():
        *body, returned = source_of[id(replay)].splitlines()
        assert returned.startswith("    return (") and returned.count("columns(") == 1
        for k, line in enumerate(body):
            if "columns(" in line:
                name = re.fullmatch(r"    (v\d+) = columns\(.*\)", line)[1]
                assert not any(re.search(rf"\b{name}\b", other)
                               for other in body[:k] + body[k + 1:]), (name, line)


# ---------------------------------------------------------------------------
# free parameters: the U(3) mesh


def mesh_run(decomp, c=QutritCoefficients.normalize(0.6, 0.3j, -0.5)):
    return lambda: apply_lomi(make_spatial_qutrit(c, PATHS), decomp, PATHS)


def near_block(eps):
    """A unitary whose entries (2, 0) and (2, 1), the first two reck_decompose eliminates,
    are -0.8 eps and -0.6 eps: below 1e-14 both rotations are skipped, else one is (the
    first leaves (1, 0) at 0)."""
    tilt = np.eye(3, dtype=complex)
    tilt[1:, 1:] = [[math.cos(eps), math.sin(eps)], [-math.sin(eps), math.cos(eps)]]
    return tilt @ np.array([[0.6, -0.8, 0], [0.8, 0.6, 0], [0, 0, 1j]])


def test_a_mesh_tape_replays_haar_unitaries_one_tape_per_structure():
    rng = np.random.default_rng(21)
    warm, run = (reck_decompose(haar_unitary(rng)) for _ in range(2))
    check(mesh_run(warm), mesh_run(run), [True])
    fock._MEMO.clear()
    state = make_spatial_qutrit(QutritCoefficients.normalize(0.6, 0.3j, -0.5), PATHS)
    for _ in range(1000):
        apply_lomi(state, reck_decompose(haar_unitary(rng)), PATHS)
    blocks = PATHS[1::-1], PATHS[:0:-1], PATHS[1::-1]  # (s1, s0), (s2, s1), (s1, s0)
    assert segment_names() == [("mesh", (blocks, PATHS))]  # and no screen phase is 0


def test_a_changed_skipped_rotation_pattern_keys_another_mesh_tape():
    kept, skipped = reck_decompose(near_block(5e-14)), reck_decompose(near_block(1e-15))
    assert (len(kept.rotations), len(skipped.rotations)) == (2, 1)
    check(mesh_run(kept), mesh_run(skipped), [])  # another structure: recorded, not replayed
    for eps in (3e-14, 1e-9):  # the structure of kept, replayed or run on the step path
        expected, _ = step_path(mesh_run(kept))
        got, tries = replayed(mesh_run(reck_decompose(near_block(eps))), mesh_run(kept))
        assert tries in ([True], [False]) and bits(got) == bits(expected)
        assert len(tapes()) == 1


def test_screen_phases_of_zero_and_minus_zero_leave_out_one_phase_shift():
    screens = [(0.0, 0.3, -1.2), (-0.0, 2.5, 0.7), (1e-300, 0.3, -1.2)]
    zero, minus_zero, tiny = (ReckDecomposition(((0, 1, 0.4, 1.1),), p) for p in screens)
    check(mesh_run(zero), mesh_run(minus_zero), [True])
    check(mesh_run(zero), mesh_run(tiny), [])  # a phase shift more: another tape
    u = reck_decompose(np.diag([1.0, -1.0, 1j]))
    assert u.rotations == () and u.phases[0] == 0.0
    check(mesh_run(u), mesh_run(reck_decompose(np.diag([complex(1.0, -0.0), 1j, -1j]))), [True])


def test_free_parameters_that_are_one_object_or_a_constant_replay_bit_for_bit():
    """A free parameter enters the tape as a fresh copy, so a float object that two
    parameters share, or that also stands in the tape as a constant (fock.PRUNE_EPS,
    which every step passes its kernel), is never read from the wrong slot."""
    x, y = 0.7, 1.2  # rotation angles lie in [0, pi/2]
    shared = ReckDecomposition(((0, 1, x, x), (1, 2, x, x)), (x, x, x))
    other = ReckDecomposition(((0, 1, y, y), (1, 2, y, y)), (y, y, y))
    check(mesh_run(shared), mesh_run(other), [True])
    check(mesh_run(other), mesh_run(shared), [True])
    eps = ReckDecomposition(((0, 1, 0.4, fock.PRUNE_EPS), (1, 2, 1.3, fock.PROB_EPS)),
                            (fock.PRUNE_EPS, 0.2, -0.3))
    check(mesh_run(eps), mesh_run(other), [True])
    check(mesh_run(other), mesh_run(eps), [True])


def test_a_non_finite_mesh_angle_raises_on_every_call():
    good = ReckDecomposition(((0, 1, 0.4, 1.1),), (0.0, 0.3, -1.2))
    for angles, screen in (((0.4, math.nan), (0.0, 0.3, -1.2)),
                           ((math.nan, 1.1), (0.0, 0.3, -1.2)),
                           ((0.4, 1.1), (0.0, math.inf, -1.2))):
        bad = mesh_run(ReckDecomposition(((0, 1, *angles),), screen))
        expected, _ = step_path(bad)
        assert expected[0] is InvalidInput
        fock._MEMO.clear()
        mesh_run(good)()
        for _ in range(2):
            got, tries = tracked(bad)
            assert got == expected and tries in ([], [False])


# ---------------------------------------------------------------------------
# the entangler scheme and the composed gates, off the working point


@given(c=coefficients, t=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=6, deadline=None)
def test_off_working_point_t_and_the_entangler_replay_the_step_path(c, t, seed):
    u = haar_unitary(np.random.default_rng(seed))
    runs = {
        "kerr-forward": lambda c: schemes.scheme_kerr_forward(c, t),
        "u3-kerr": lambda c: schemes.u3_biphotonic(c, u, "kerr", t),
        "u3-linear": lambda c: schemes.u3_biphotonic(c, u, "linear", t),
        "entangler": lambda c: schemes.scheme_entangler(c, "transmitted"),
    }
    for name, run in runs.items():
        expected, _ = step_path(lambda: run(c))
        got, tries = replayed(lambda: run(twin(c)), lambda: run(c))
        assert tries or not isinstance(expected, schemes.SchemeReport), name
        if isinstance(expected, schemes.SchemeReport):
            expected, got = report_hex(expected), report_hex(got)
        assert got == expected, name


# ---------------------------------------------------------------------------
# scheme tapes: one tape per scheme call, from its input to its report values


def test_every_warmed_scheme_call_replays_exactly_one_tape():
    runs = list(scheme_runs())
    run_all(runs)
    run_all(runs)
    for name, run in runs:
        got, tries = tracked(run)
        assert tries == [True] or got[0] is UnsupportedMode, name


def u3(c, u, backend):
    return lambda: schemes.u3_biphotonic(c, u, backend)


def test_one_u3_tape_per_wiring_replays_haar_unitaries_bit_for_bit():
    """The mesh angles and both targets' coefficients are free parameters of the gate's one
    tape, so a second unitary of the wiring replays it; another wiring keys another tape."""
    rng = np.random.default_rng(29)
    c = QutritCoefficients.normalize(0.6, 0.3j, -0.5)
    for backend in ("linear", "kerr"):
        warm, run = haar_unitary(rng), haar_unitary(rng)
        check(u3(c, warm, backend), u3(c, run, backend), [True])
        assert len(tapes()) == 1
        skipped = near_block(1e-15)  # two rotations skipped: another wiring
        check(u3(c, warm, backend), u3(c, skipped, backend), [])
        assert len(tapes()) == 2
        check(u3(c, near_block(1e-16), backend), u3(c, skipped, backend), [True])
        check(u3(c, warm, backend), u3(c, np.diag([1.0, -1.0, 1j]), backend), [])  # phase 0


def test_a_u3_target_with_a_zero_coefficient_replays_the_step_path():
    """The target is built in the tape, so its prune is a guard."""
    perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    zero = QutritCoefficients.normalize(0.6, 0.8j, 0)  # the target is (0.8j, 0, 0.6)
    rotation = np.array([[1, -1, 0], [1, 1, 0], [0, 0, math.sqrt(2)]]) / math.sqrt(2)
    cancel = QutritCoefficients.normalize(0.5, 0.5, 0.7)  # the target's first is 0
    for backend in ("linear", "kerr"):
        check(u3(twin(zero), perm, backend), u3(zero, perm, backend), [True])
        warm = QutritCoefficients.normalize(0.5, 0.3, 0.7)  # a target with no zero
        check(u3(warm, rotation, backend), u3(cancel, rotation, backend), [False])
