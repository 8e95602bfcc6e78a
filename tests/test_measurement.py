"""Detection, post-selection, stripping and branch-merge behaviour."""

import cmath
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritmap import measurement
from qutritmap.elements import BeamSplitterSpec, apply_beam_splitter, apply_phase_shift
from qutritmap.fock import (
    PRUNE_EPS,
    FockTerm,
    InvalidInput,
    Mode,
    PhotonicState,
    QutritCoefficients,
    SimulationError,
    WiringError,
    build_state,
    fidelity,
    make_spatial_qutrit,
    norm_sq,
    single_photon,
    state_paths,
    tensor,
)
from qutritmap.measurement import (
    Correction,
    FeedForwardRule,
    detect_non_resolving,
    erase_and_merge,
    merge_branches,
    path_modes,
    post_select_coincidence,
    project_total_photons,
    strip_modes,
)
from test_outcomes import branch_loop


def two_branch_state():
    r = 1 / math.sqrt(2)
    return build_state(
        (),
        [
            FockTerm.from_occupations({Mode("d", "H"): 1, Mode("a", "H"): 1}, (), r),
            FockTerm.from_occupations({Mode("b", "H"): 1}, (), r),
        ],
    )


def test_detect_non_resolving_splits_branches():
    dist = detect_non_resolving(two_branch_state(), path_modes("d"))
    click = dist.get("click")
    quiet = dist.get("no-click")
    assert click.probability == pytest.approx(0.5)
    assert quiet.probability == pytest.approx(0.5)
    assert norm_sq(click.state) == pytest.approx(1.0)
    assert click.state.born_weight == pytest.approx(0.5)
    assert quiet.state.terms[0].occ == (((Mode("b", "H")), 1),)
    assert dist.total_probability == pytest.approx(1.0)


def test_post_select_coincidence_on_hom_output():
    s = tensor(single_photon("a"), single_photon("b"))
    out = apply_beam_splitter(s, "a", "b", "c", "d", BeamSplitterSpec.fifty_fifty())
    p_cc, state_cc = post_select_coincidence(
        out, [(path_modes("c"), "click"), (path_modes("d"), "click")]
    )
    assert p_cc == 0.0
    assert state_cc.terms == ()
    assert state_cc.born_weight == 0.0
    p_c, state_c = post_select_coincidence(
        out, [(path_modes("c"), "click"), (path_modes("d"), "no-click")]
    )
    assert p_c == pytest.approx(0.5)
    assert norm_sq(state_c) == pytest.approx(1.0)


def test_post_select_rejects_overlapping_groups():
    with pytest.raises(WiringError):
        post_select_coincidence(
            two_branch_state(),
            [(path_modes("d"), "click"), ((Mode("d", "H"),), "no-click")],
        )


def test_project_total_photons():
    s = two_branch_state()
    p1, kept = project_total_photons(s, path_modes("d") + path_modes("a"), 2)
    assert p1 == pytest.approx(0.5)
    assert kept.terms[0].total_photons == 2
    p0, _ = project_total_photons(s, path_modes("d") + path_modes("a"), 1)
    assert p0 == 0.0


def test_project_total_photons_refuses_impossible_counts():
    s = two_branch_state()
    modes = path_modes("d") + path_modes("a")
    for n in (-1, 1.5, math.nan, math.inf):
        for _ in range(2):  # a refused count builds no site, so it is refused again
            with pytest.raises(InvalidInput, match="non-negative integer"):
                project_total_photons(s, modes, n)
    assert project_total_photons(s, modes, 2.0) == project_total_photons(s, modes, 2)


def test_strip_modes_product_state():
    c = QutritCoefficients.normalize(1.0, -2.0j, 0.5)
    q = make_spatial_qutrit(c, ("x", "y", "z"))
    from qutritmap.fock import ancilla_plus

    s = tensor(ancilla_plus("det"), q)
    stripped = strip_modes(s, path_modes("det"))
    assert fidelity(stripped, q) == pytest.approx(1.0)
    assert norm_sq(stripped) == pytest.approx(norm_sq(s))


def test_strip_modes_with_minus_polarized_detector():
    # detector factor (H - V)/sqrt2: the sign must fold into the kept factor
    r = 1 / math.sqrt(2)
    terms = []
    for sign, pol in ((1.0, "H"), (-1.0, "V")):
        terms.append(
            FockTerm.from_occupations(
                {Mode("det", pol): 1, Mode("a", "H"): 1}, (), sign * r * 0.6
            )
        )
        terms.append(
            FockTerm.from_occupations(
                {Mode("det", pol): 1, Mode("b", "H"): 1}, (), sign * r * 0.8
            )
        )
    s = build_state((), terms)
    stripped = strip_modes(s, path_modes("det"))
    want = build_state(
        (),
        [
            FockTerm.from_occupations({Mode("a", "H"): 1}, (), 0.6),
            FockTerm.from_occupations({Mode("b", "H"): 1}, (), 0.8),
        ],
    )
    assert fidelity(stripped, want) == pytest.approx(1.0)
    assert norm_sq(stripped) == pytest.approx(1.0)


def test_strip_modes_refuses_entangled_detector():
    r = 1 / math.sqrt(2)
    s = build_state(
        (),
        [
            FockTerm.from_occupations({Mode("det", "H"): 1, Mode("a", "H"): 1}, (), r),
            FockTerm.from_occupations({Mode("det", "V"): 1, Mode("b", "H"): 1}, (), r),
        ],
    )
    with pytest.raises(WiringError):
        strip_modes(s, path_modes("det"))


def test_feed_forward_applies_and_checks_labels():
    dist = detect_non_resolving(two_branch_state(), path_modes("d"))
    rule = FeedForwardRule(
        {
            "click": (Correction("phase", "a", math.pi),),
            "no-click": (),
        }
    )
    click, no_click = dist.get("click").state, dist.get("no-click").state
    after = rule.apply("click", click).terms[0].amplitude
    assert after == pytest.approx(-click.terms[0].amplitude)
    assert rule.apply("no-click", no_click) == no_click
    with pytest.raises(WiringError):
        FeedForwardRule({"click": ()}).apply("no-click", no_click)


def test_feed_forward_sigma_x_correction():
    s = single_photon("a", "V")
    dist = detect_non_resolving(tensor(s, single_photon("d")), path_modes("d"))
    rule = FeedForwardRule({"click": (Correction("sigma_x", "a"),)})
    occ = rule.apply("click", dist.get("click").state).terms[0].occupations()
    assert occ[Mode("a", "H")] == 1
    assert occ[Mode("d", "H")] == 1


def test_merge_branches_sums_probabilities():
    s = single_photon("a")
    rotated = apply_phase_shift(s, "a", 1.234)  # same ray, different phase
    total, merged, min_fid = merge_branches([(0.25, s), (0.25, rotated)])
    assert total == pytest.approx(0.5)
    assert min_fid == pytest.approx(1.0)
    assert fidelity(merged, s) == pytest.approx(1.0)


def test_merge_branches_rejects_disagreement():
    with pytest.raises(WiringError):
        merge_branches([(0.5, single_photon("a")), (0.5, single_photon("a", "V"))])


def test_merge_branches_rejects_all_zero():
    with pytest.raises(InvalidInput):
        merge_branches([(0.0, single_photon("a"))])


def which_path_state(idle=0.0):
    """0.6 |o1>|w1> + 0.8 |o2>|w2> (scaled by sqrt(1 - idle^2)) plus
    ``idle`` |w1> with no output photon, the which-path ports w1/w2 mixed
    on a 50:50 splitter onto detectors e1/e2."""
    k = math.sqrt(1.0 - idle * idle)
    terms = [
        FockTerm.from_occupations({Mode("o1", "H"): 1, Mode("w1", "H"): 1}, (), 0.6 * k),
        FockTerm.from_occupations({Mode("o2", "H"): 1, Mode("w2", "H"): 1}, (), 0.8 * k),
    ]
    if idle:
        terms.append(FockTerm.from_occupations({Mode("w1", "H"): 1}, (), idle))
    s = build_state((), terms)
    return apply_beam_splitter(s, "w1", "w2", "e1", "e2", BeamSplitterSpec.fifty_fifty())


ERASER_PORTS = {"plus": "e1", "minus": "e2"}
ERASER_RULE = FeedForwardRule({"plus": (), "minus": (Correction("phase", "o2", math.pi),)})


def test_erase_and_merge_corrects_then_merges_each_port():
    total, merged, min_fid, probs = erase_and_merge(
        which_path_state(), ERASER_PORTS, ERASER_RULE
    )
    assert probs == {"plus": pytest.approx(0.5), "minus": pytest.approx(0.5)}
    assert total == pytest.approx(1.0)
    assert min_fid == pytest.approx(1.0)
    want = make_spatial_qutrit(QutritCoefficients(0.6, 0.8, 0.0), ("o1", "o2", "o3"))
    assert fidelity(merged, want) == pytest.approx(1.0)
    assert state_paths(merged) == {"o1", "o2"}


def test_erase_and_merge_keep_projects_onto_one_output_photon():
    state = which_path_state(idle=0.6)
    total, _, _, probs = erase_and_merge(state, ERASER_PORTS, ERASER_RULE)
    assert total == pytest.approx(1.0)
    total, merged, _, probs = erase_and_merge(
        state, ERASER_PORTS, ERASER_RULE, keep=path_modes("o1") + path_modes("o2")
    )
    assert probs == {"plus": pytest.approx(0.32), "minus": pytest.approx(0.32)}
    assert total == pytest.approx(0.64)
    assert all(t.total_photons == 1 for t in merged.terms)


def test_erase_and_merge_rejects_a_wrong_or_missing_correction():
    state = which_path_state()
    uncorrected = FeedForwardRule({"plus": (), "minus": ()})
    with pytest.raises(WiringError, match="fidelity"):
        erase_and_merge(state, ERASER_PORTS, uncorrected)
    # the uncorrected branches overlap with fidelity (0.36 - 0.64)^2
    _, _, min_fid, _ = erase_and_merge(state, ERASER_PORTS, uncorrected, tol=0.95)
    assert min_fid == pytest.approx(0.0784)
    with pytest.raises(WiringError, match="no feed-forward entry"):
        erase_and_merge(state, ERASER_PORTS, FeedForwardRule({"plus": ()}))


# Random canonical states: occupations over three paths, labels on a coarse
# lattice jittered below COHERENT_MERGE_EPS (6e-10 and -6e-10 lie further
# apart than it), amplitudes of order one or just above PRUNE_EPS, and
# partners that cancel a term down to about PRUNE_EPS.
MODES = tuple(Mode(path, pol) for path in "abc" for pol in "HV")
JITTER = (0j, 6e-10, -6e-10, 5e-10j)
canonical_label = st.builds(
    lambda re, im, j: complex(re, im) / 2 + JITTER[j],
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(0, len(JITTER) - 1),
)
canonical_amplitude = st.one_of(
    st.complex_numbers(
        min_magnitude=0.05, max_magnitude=2.0, allow_nan=False, allow_infinity=False
    ),
    st.builds(
        lambda r, ph: cmath.rect(r * PRUNE_EPS, ph),
        st.floats(min_value=0.5, max_value=4.0),
        st.floats(min_value=-math.pi, max_value=math.pi),
    ),
)
canonical_term = st.tuples(
    st.dictionaries(st.sampled_from(MODES), st.integers(1, 2), max_size=2),
    st.lists(canonical_label, min_size=2, max_size=2),
    canonical_amplitude,
    st.booleans(),
)


def rebuilt_selection(state, needs, norm_in):
    """The selection step as it was: the kept subset rebuilt through build_state."""
    kept = [t for t in state.terms
            if all(lo <= sum(n for m, n in t.occ if m in w) <= hi for w, lo, hi in needs)]
    return branch_loop(build_state(state.registers, kept, state.born_weight), norm_in)


def outcome_repr(fn, *args):
    try:
        return repr(fn(*args))
    except SimulationError as exc:
        return repr(exc)


@given(
    nregs=st.integers(0, 2),
    specs=st.lists(canonical_term, max_size=12),
    born_weight=st.sampled_from((1.0, 0.375)),
    watched=st.sets(st.sampled_from(MODES)),
    n=st.integers(0, 3),
    wants=st.lists(st.sampled_from((None, "click", "no-click")), min_size=3, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_branches_keep_canonical_terms_as_they_stand(nregs, specs, born_weight, watched, n, wants):
    terms = []
    for occ, labels, amp, cancel in specs:
        terms.append(FockTerm.from_occupations(occ, labels[:nregs], amp))
        if cancel:
            terms.append(FockTerm.from_occupations(occ, labels[:nregs], -amp * (1 + 1e-12)))
    state = build_state(tuple(f"r{k}" for k in range(nregs)), terms, born_weight)
    pattern = [(path_modes(path), want) for path, want in zip("abc", wants) if want]
    calls = [
        (detect_non_resolving, state, watched),
        (post_select_coincidence, state, pattern),
        (project_total_photons, state, watched, n),
    ]
    got = [outcome_repr(*call) for call in calls]
    with mock.patch.object(measurement, "_selected", rebuilt_selection):
        want = [outcome_repr(*call) for call in calls]
    assert got == want


def test_a_state_of_nan_norm_is_not_measured():
    nan = PhotonicState((), (FockTerm(((Mode("a", "H"), 1),), (), complex(math.nan, 0.0)),))
    with pytest.raises(InvalidInput, match="squared norm nan"):
        post_select_coincidence(nan, [(path_modes("a"), "click")])
    with pytest.raises(InvalidInput, match="squared norm nan"):
        project_total_photons(nan, path_modes("a"), 1)
