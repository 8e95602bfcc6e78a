"""The interned shape's fast paths against the per-term code they replace.

Norms, post-selections, photon-number projections and phase shifts read
what a state's ``(occ, coherent)`` keys fix from its interned
``fock.Shape``.  The references below recompute everything per term on
each call, with ``inner_product`` for every norm, and must agree bit for
bit, so the comparisons are on ``repr`` (which also tells -0.0 from 0.0 and
shows the born weight).  Each fast path is checked on a first call and again
on a state of the same shape with new amplitudes, which finds what the first
call left in ``fock._MEMO``.
"""

import cmath
import gc
import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from qutritmap import elements, fock
from qutritmap.elements import BeamSplitterSpec, apply_beam_splitter, apply_phase_shift
from qutritmap.fock import (
    PHOTON_CAP,
    POLS,
    PRUNE_EPS,
    FockTerm,
    InvalidInput,
    Mode,
    PhotonicState,
    build_state,
    inner_product,
    norm_sq,
    single_photon,
    tensor,
)
from qutritmap.measurement import (
    PROB_EPS,
    path_modes,
    post_select_coincidence,
    project_total_photons,
    strip_modes,
)

PATHS = "abc"
MODES = tuple(Mode(p, pol) for p in PATHS for pol in POLS)

occupation = st.dictionaries(
    st.sampled_from(MODES), st.integers(1, PHOTON_CAP), max_size=3
).filter(lambda occ: sum(occ.values()) <= PHOTON_CAP)
# Lattice parts with signed zeros: distinct labels stay far apart, equal ones merge.
part = st.one_of(st.sampled_from((0.0, -0.0)), st.integers(-4, 4).map(lambda k: k / 4))
label = st.builds(complex, part, part)
near_eps = st.builds(
    lambda r, phase: cmath.rect(r * PRUNE_EPS, phase),
    st.floats(min_value=1.5, max_value=4.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
amplitude = st.one_of(
    st.complex_numbers(
        min_magnitude=0.05, max_magnitude=2.0, allow_nan=False, allow_infinity=False
    ),
    near_eps,
)
specs = st.lists(st.tuples(occupation, st.integers(0, 2), amplitude), min_size=1, max_size=10)
# per path: absent, "click" or "no-click"; the groups are disjoint
pattern = st.lists(st.sampled_from((None, "click", "no-click")), min_size=3, max_size=3)


def canonical_state(nregs, labels, specs):
    regs = tuple(f"r{k}" for k in range(nregs))
    terms = [
        FockTerm.from_occupations(
            occ, [labels[(pick + r) % len(labels)] for r in range(nregs)], amp
        )
        for occ, pick, amp in specs
    ]
    return build_state(regs, terms)


def same_shape(state, amplitudes):
    """A state of ``state``'s keys carrying ``amplitudes``, built directly."""
    terms = tuple(FockTerm(t.occ, t.coherent, a) for t, a in zip(state.terms, amplitudes))
    return PhotonicState(state.registers, terms, state.born_weight)


def reference_branch(state, keep, action):
    """The renormalized branch of the terms ``keep`` accepts, as measurement._branch."""
    norm_in = inner_product(state, state).real
    if norm_in <= PROB_EPS:
        raise InvalidInput(f"cannot {action} a zero state")
    kept = PhotonicState(state.registers, tuple(t for t in state.terms if keep(t)))
    n2 = inner_product(kept, kept).real
    p = n2 / norm_in
    if p <= PROB_EPS:
        return 0.0, PhotonicState(state.registers, (), 0.0)
    factor = 1.0 / math.sqrt(n2)
    terms = tuple(FockTerm(t.occ, t.coherent, t.amplitude * factor) for t in kept.terms)
    return p, PhotonicState(state.registers, terms, state.born_weight * p)


def photons_in(term, watched):
    return sum(n for m, n in term.occ if m in watched)


def reference_post_select(state, pattern):
    sets = [(frozenset(modes), want == "click") for modes, want in pattern]
    return reference_branch(
        state, lambda t: all((photons_in(t, w) > 0) == click for w, click in sets), "post-select"
    )


def reference_project_total(state, modes, n):
    return reference_branch(state, lambda t: photons_in(t, frozenset(modes)) == n, "project")


def reference_phase_shift(state, target, phi):
    watched = {target} if isinstance(target, Mode) else set(path_modes(target))
    terms = tuple(
        FockTerm(t.occ, t.coherent, t.amplitude * cmath.exp(1j * photons_in(t, watched) * phi))
        for t in state.terms
    )
    return PhotonicState(state.registers, terms, state.born_weight)


def outcome(f, *args):
    """``repr`` of ``f(*args)``, or the type and text of what it raises."""
    try:
        return repr(f(*args))
    except InvalidInput as exc:
        return type(exc), str(exc)


@given(
    nregs=st.integers(0, 2),
    labels=st.lists(label, min_size=1, max_size=3),
    specs=specs,
    again=st.lists(amplitude, min_size=10, max_size=10),
)
@settings(max_examples=200, deadline=None)
def test_norm_matches_inner_product_bit_for_bit(nregs, labels, specs, again):
    fock._MEMO.clear()  # a drop at the bound would give the twin a shape of its own
    state = canonical_state(nregs, labels, specs)
    twin = same_shape(state, again)
    assert repr(norm_sq(state)) == repr(inner_product(state, state).real)
    assert fock._shape(twin) is fock._shape(state)
    assert repr(norm_sq(twin)) == repr(inner_product(twin, twin).real)


def test_repeated_occupations_take_the_generic_path():
    # A register-free state built by hand with two terms of one occupation:
    # they are not orthogonal, so the norm takes the pair sum.
    h, v = Mode("a", "H"), Mode("a", "V")
    terms = (
        FockTerm(((h, 2),), (), 0.5 + 0.25j),
        FockTerm(((h, 1), (v, 1)), (), -0.75j),
        FockTerm(((h, 2),), (), 0.125 - 1.0j),
    )
    state = PhotonicState((), terms)
    weights, pairs = fock._shape(state)._norm_plan()
    assert weights is None and pairs is not None
    assert repr(norm_sq(state)) == repr(inner_product(state, state).real)
    canonical = build_state((), terms)
    assert fock._shape(canonical)._norm_plan()[1] is None
    assert repr(norm_sq(canonical)) == repr(inner_product(canonical, canonical).real)


@given(
    nregs=st.integers(0, 2),
    labels=st.lists(label, min_size=1, max_size=3),
    specs=specs,
    again=st.lists(amplitude, min_size=10, max_size=10),
    wants=pattern,
    n=st.integers(0, 3),
    target=st.one_of(st.sampled_from(PATHS), st.sampled_from(MODES)),
    phi=st.floats(min_value=-7.0, max_value=7.0),
)
@settings(max_examples=200, deadline=None)
def test_selection_and_phase_shift_match_per_term_reference(
    nregs, labels, specs, again, wants, n, target, phi
):
    first = canonical_state(nregs, labels, specs)
    fock._MEMO.clear()  # so the first call builds what the second one finds
    for state in (first, same_shape(first, again)):
        requirements = [(path_modes(p), w) for p, w in zip(PATHS, wants) if w is not None]
        assert outcome(post_select_coincidence, state, requirements) == outcome(
            reference_post_select, state, requirements
        )
        assert outcome(project_total_photons, state, path_modes("a"), n) == outcome(
            reference_project_total, state, path_modes("a"), n
        )
        assert repr(apply_phase_shift(state, target, phi)) == repr(
            reference_phase_shift(state, target, phi)
        )
    assert fock._shape(state) is fock._shape(first)


def test_signed_zero_labels_share_a_shape_and_keep_their_own():
    def probe_state(zero):
        return build_state(
            ("r",),
            [
                FockTerm.from_occupations({Mode("a", "H"): 1}, (complex(2, zero),), 0.6),
                FockTerm.from_occupations({Mode("b", "H"): 1}, (complex(-1, zero),), 0.8),
            ],
        )

    fock._MEMO.clear()
    plus, minus = probe_state(0.0), probe_state(-0.0)
    assert fock._shape(plus) is fock._shape(minus)
    bs = BeamSplitterSpec.fifty_fifty()
    for state, want in ((plus, ["((2+0j),)", "((-1+0j),)"]), (minus, ["((2-0j),)", "((-1-0j),)"])):
        _, kept = post_select_coincidence(state, [(path_modes("a"), "no-click")])
        assert [repr(t.coherent) for t in kept.terms] == want[1:]
        shifted = apply_phase_shift(state, "a", 0.5)
        assert [repr(t.coherent) for t in shifted.terms] == want
        mixed = apply_beam_splitter(state, "a", "b", "c", "d", bs)
        assert {repr(t.coherent) for t in mixed.terms} == set(want)
        stripped = strip_modes(tensor(state, single_photon("x")), path_modes("x"))
        assert [repr(t.coherent) for t in stripped.terms] == want
        assert repr(norm_sq(state)) == repr(inner_product(state, state).real)


def test_retention_stays_bounded_and_rebuilds_dropped_entries():
    bs = BeamSplitterSpec.fifty_fifty()
    pair = build_state(
        (),
        [
            FockTerm.from_occupations({Mode("a", "H"): 1}, (), 0.6),
            FockTerm.from_occupations({Mode("a", "V"): 1}, (), 0.8j),
        ],
    )

    def case(k):
        # a spectator photon on its own path gives every input and output its own shape
        out = apply_beam_splitter(tensor(pair, single_photon(f"p{k}")), "a", None, "c", "d", bs)
        return out, post_select_coincidence(out, [(path_modes("c"), "click")])

    def retained_shapes():
        gc.collect()
        shapes = {id(o) for o in gc.get_objects() if isinstance(o, fock.Shape)}
        live = {
            id(o.shape) for o in gc.get_objects() if isinstance(o, PhotonicState) and o.shape
        }
        return len(shapes - live)

    fock._MEMO.clear()
    for k in range(5000):
        case(k)
        assert len(fock._MEMO) <= fock._RETAINED
    # every memo entry holds at most two shapes
    assert retained_shapes() <= 2 * fock._RETAINED

    builds = []
    real = elements._substitution_plan

    def counted(shape, op):
        builds.append(op)
        return real(shape, op)

    with mock.patch.object(elements, "_substitution_plan", counted):
        out, selected = case(0)  # its entries went when the bound was reached
    assert len(builds) == 1
    assert repr(selected) == repr(reference_post_select(out, [(path_modes("c"), "click")]))
