"""Substitution plans against the per-call expansion they replace.

``substitute_modes`` works out once per input shape and mapping shape which
output terms arise, which merge and how they sort, and per call only
computes coefficients, amplitudes, group sums and the prune.  The reference
below is the expansion written the direct way, rebuilding everything on
each call; both must agree bit for bit, so the comparisons are on ``repr``
(which also tells -0.0 from 0.0).  Plan builds are counted by wrapping
``elements._substitution_plan``, which ``substitute_modes`` calls on a miss.
"""

import cmath
import contextlib
import itertools
import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from qutritmap import elements, fock
from qutritmap.elements import BeamSplitterSpec, apply_beam_splitter, substitute_modes
from qutritmap.fock import PHOTON_CAP, PRUNE_EPS, FockTerm, Mode, build_state


@contextlib.contextmanager
def counted_plan_builds():
    """Yields the list of ``(shape, op)`` of every plan built while open."""
    builds = []
    real = elements._substitution_plan

    def counted(shape, op):
        builds.append((shape, op))
        return real(shape, op)

    with mock.patch.object(elements, "_substitution_plan", counted):
        yield builds


def reference_substitute_modes(state, mapping):
    """Expand every term on every call, then merge, prune and sort with build_state."""
    expansions_of = {}
    new_terms = []
    for term in state.terms:
        partials = [({}, term.amplitude)]
        for mode, n in term.occ:
            targets = mapping.get(mode)
            if targets is None:
                for occ, _ in partials:
                    occ[mode] = occ.get(mode, 0) + n
                continue
            expansions = expansions_of.get((mode, n))
            if expansions is None:
                expansions = expansions_of[mode, n] = []
                for pick in itertools.combinations_with_replacement(range(len(targets)), n):
                    counts = {}
                    for i in pick:
                        counts[i] = counts.get(i, 0) + 1
                    coeff = math.factorial(n)
                    add = {}
                    for i, k in counts.items():
                        coeff /= math.factorial(k)
                        tmode, c = targets[i]
                        coeff *= c**k
                        add[tmode] = add.get(tmode, 0) + k
                    expansions.append((add, coeff))
            grown = []
            for occ, amp in partials:
                for add, coeff in expansions:
                    merged = dict(occ)
                    for m, k in add.items():
                        merged[m] = merged.get(m, 0) + k
                    grown.append((merged, amp * coeff))
            partials = grown
        for occ, amp in partials:
            new_terms.append(FockTerm(tuple(sorted(occ.items())), term.coherent, amp))
    return build_state(state.registers, new_terms, state.born_weight)


# Input modes on paths a and b; targets also on x and y, so a target either
# collides with an unmapped input mode or opens a new one.
MODES = tuple(Mode(p, pol) for p in "ab" for pol in "HV")
TARGETS = MODES + tuple(Mode(p, pol) for p in "xy" for pol in "HV")

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
coefficient = st.one_of(
    st.sampled_from((0.0, 1.0, -1.0, 0j, 1j, 0.5, -0.5j)),
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
)
# (mapped mode, its targets); coefficients are drawn per call
shape = st.dictionaries(
    st.sampled_from(MODES),
    st.lists(st.sampled_from(TARGETS), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
)


@given(
    nregs=st.integers(0, 2),
    labels=st.lists(label, min_size=1, max_size=3),
    specs=st.lists(
        st.tuples(occupation, st.integers(0, 2), amplitude), min_size=1, max_size=10
    ),
    shape=shape,
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_substitution_matches_reference_bit_for_bit(nregs, labels, specs, shape, data):
    regs = tuple(f"r{k}" for k in range(nregs))
    terms = [
        FockTerm.from_occupations(
            occ, [labels[(pick + r) % len(labels)] for r in range(nregs)], amp
        )
        for occ, pick, amp in specs
    ]
    state = build_state(regs, terms)
    fock._MEMO.clear()  # so the first call builds the plan
    with counted_plan_builds() as builds:
        for _ in range(2):  # the second call finds the plan the first one built
            mapping = {
                mode: [(t, data.draw(coefficient)) for t in targets]
                for mode, targets in shape.items()
            }
            assert repr(substitute_modes(state, mapping)) == repr(
                reference_substitute_modes(state, mapping)
            )
    assert len(builds) == 1


def test_signed_zero_labels_get_plans_of_their_own():
    # 2+0j and 2-0j are equal keys but not the same bits, so each input has a
    # shape and a plan of its own, and each output carries its input's label.
    def one_photon(label):
        return build_state(("r",), [FockTerm.from_occupations({Mode("a", "H"): 1}, (label,))])

    bs = BeamSplitterSpec.fifty_fifty()
    fock._MEMO.clear()
    with counted_plan_builds() as builds:
        plus_in, minus_in = one_photon(complex(2, 0.0)), one_photon(complex(2, -0.0))
        plus = apply_beam_splitter(plus_in, "a", None, "c", "d", bs)
        minus = apply_beam_splitter(minus_in, "a", None, "c", "d", bs)
    assert plus_in.shape is not minus_in.shape
    assert len(builds) == 2
    assert [repr(t.coherent) for t in plus.terms] == ["((2+0j),)"] * 2
    assert [repr(t.coherent) for t in minus.terms] == ["((2-0j),)"] * 2

    # Two input terms merge into one output term, which keeps the label of
    # its first member (the 'a' term), as build_state does.
    both = build_state(
        ("r",),
        [
            FockTerm.from_occupations({Mode("a", "H"): 1}, (complex(2, -0.0),)),
            FockTerm.from_occupations({Mode("b", "H"): 1}, (complex(2, 0.0),)),
        ],
    )
    mapping = {Mode(p, "H"): [(Mode("c", "H"), 1.0)] for p in "ab"}
    merged = substitute_modes(both, mapping)
    assert repr(merged) == repr(reference_substitute_modes(both, mapping))
    assert [repr(t.coherent) for t in merged.terms] == ["((2-0j),)"]


def test_plan_cache_stays_bounded_and_rebuilds_evicted_plans():
    def case(k):
        s = build_state((), [FockTerm.from_occupations({Mode(f"p{k}", "H"): 2}, (), 0.5 + k * 1j)])
        mapping = {Mode(f"p{k}", "H"): [(Mode("x", "H"), 0.6), (Mode("y", "V"), 0.8j)]}
        return s, mapping

    fock._MEMO.clear()
    with counted_plan_builds() as builds:
        for k in range(fock._RETAINED + 20):  # each case holds a shape and a plan at least
            substitute_modes(*case(k))
            assert len(fock._MEMO) <= fock._RETAINED
        assert len(builds) == fock._RETAINED + 20
        state, mapping = case(0)  # its plan went when the bound was reached
        assert repr(substitute_modes(state, mapping)) == repr(
            reference_substitute_modes(state, mapping)
        )
        assert len(builds) == fock._RETAINED + 21
