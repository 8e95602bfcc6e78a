"""The photon-number readout and its shared layout against per-outcome references.

``project_photon_number`` works out once which terms merge, how they sort
and which pairs its norms sum, and reuses that for every outcome n.  The
reference below is the readout written the direct way, rebuilding,
merging, sorting and norming each outcome on its own; both must agree bit
for bit, so the comparisons are on ``repr`` (which also tells -0.0 from 0.0).
"""

import cmath
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qutritmap.fock import (
    COHERENT_MERGE_EPS,
    PRUNE_EPS,
    CanonicalLayout,
    FockTerm,
    InvalidInput,
    Mode,
    SimulationError,
    build_state,
    inner_product,
    norm_sq,
)
from qutritmap.measurement import BranchDistribution, Outcome, _branch, _norm_in
from qutritmap.qubus import (
    NUMBER_CAP,
    _register_index,
    _without_register,
    coherent_number_overlap,
    project_photon_number,
)


def reference_project_photon_number(state, register, mode="ideal", cap=NUMBER_CAP):
    """Per-outcome readout: each n rebuilds, merges, sorts and norms its branch."""
    if mode not in ("ideal", "physical"):
        raise InvalidInput(f"unknown measurement mode {mode!r}")
    idx = _register_index(state, register)
    norm_in = _norm_in(state, "measure")
    outcomes = []
    for n in range(cap + 1):
        def weight(term, n=n):
            beta = term.coherent[idx]
            if mode == "ideal":
                if abs(beta) <= COHERENT_MERGE_EPS:
                    return term.amplitude if n == 0 else None
                if n == 0:
                    return None
                excess = 1.0 - math.exp(-abs(beta) ** 2)
                return term.amplitude * coherent_number_overlap(beta, n) / math.sqrt(excess)
            return term.amplitude * coherent_number_overlap(beta, n)

        regs, terms = _without_register(state, idx, weight)
        p, branch = _branch(regs, terms, state.born_weight, norm_in)
        if p > 0.0:
            outcomes.append(Outcome(str(n), float(n), p, branch))
    return BranchDistribution(tuple(outcomes))


# Norm factors 2! and 3! (not only powers of two, whose products are exact).
OCCS = (
    {Mode("a", "H"): 2},
    {Mode("a", "H"): 3},
    {Mode("a", "H"): 1, Mode("b", "V"): 1},
    {Mode("a", "V"): 1},
    {},
)

# Labels on a 1/4 lattice (distinct labels far apart), the undisplaced label
# among them; a small pool per register makes terms share keys, so they merge.
lattice_label = st.builds(complex, st.integers(-6, 6), st.integers(-6, 6)).map(
    lambda z: z / 4
)
label_pool = st.lists(st.one_of(st.just(0j), lattice_label), min_size=1, max_size=3)
# Amplitudes of order one and just above PRUNE_EPS, so that some branches
# prune a term that others keep.
near_eps = st.builds(
    lambda r, phase: cmath.rect(r * PRUNE_EPS, phase),
    st.floats(min_value=0.5, max_value=4.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
amplitude = st.one_of(
    st.complex_numbers(
        min_magnitude=0.05, max_magnitude=2.0, allow_nan=False, allow_infinity=False
    ),
    near_eps,
)
term_spec = st.tuples(
    st.integers(0, len(OCCS) - 1),
    st.lists(st.integers(0, 2), min_size=3, max_size=3),
    amplitude,
)


def labelled_state(pools, specs, born_weight=1.0):
    regs = tuple(f"r{k}" for k in range(len(pools)))
    terms = [
        FockTerm.from_occupations(
            OCCS[occ], [pool[i % len(pool)] for pool, i in zip(pools, picks)], amp
        )
        for occ, picks, amp in specs
    ]
    return build_state(regs, terms, born_weight)


@given(
    pools=st.lists(label_pool, min_size=1, max_size=3),
    specs=st.lists(term_spec, min_size=1, max_size=14),
    pick=st.integers(0, 2),
    mode=st.sampled_from(("ideal", "physical")),
    born_weight=st.sampled_from((1.0, 0.375)),
)
@settings(max_examples=150, deadline=None)
def test_readout_matches_per_outcome_reference(pools, specs, pick, mode, born_weight):
    state = labelled_state(pools, specs, born_weight)
    register = state.registers[pick % len(state.registers)]
    try:
        want = reference_project_photon_number(state, register, mode)
    except SimulationError as exc:
        try:
            project_photon_number(state, register, mode)
        except type(exc) as got:
            assert str(got) == str(exc)
            return
        raise AssertionError(f"reference raised {exc!r}, readout did not")
    got = project_photon_number(state, register, mode)
    assert got.labels() == want.labels()
    assert repr(got) == repr(want)


# Jitter below COHERENT_MERGE_EPS: the layout must cluster nearly equal labels.
JITTER = (0j, 3e-10, -4e-10j, 2e-10 + 2e-10j)


@given(
    nregs=st.integers(0, 2),
    labels=st.lists(lattice_label, min_size=2, max_size=4),
    specs=st.lists(
        st.tuples(
            st.integers(0, len(OCCS) - 1),
            st.integers(0, 15),
            st.integers(0, len(JITTER) - 1),
            amplitude,
        ),
        min_size=0,
        max_size=16,
    ),
    flips=st.lists(st.booleans(), min_size=16, max_size=16),
)
@settings(max_examples=150, deadline=None)
def test_layout_gives_build_state_terms_and_norm(nregs, labels, specs, flips):
    # Raw, unmerged terms: equal keys merge, and some amplitudes cancel down to
    # about PRUNE_EPS before the prune.
    terms = []
    for k, (occ, pick, jitter, amp) in enumerate(specs):
        coh = tuple(labels[(pick + r) % len(labels)] + JITTER[jitter] for r in range(nregs))
        terms.append(FockTerm.from_occupations(OCCS[occ], coh, amp))
        if flips[k]:
            terms.append(FockTerm.from_occupations(OCCS[occ], coh, -amp * (1 + 1e-12)))
    regs = tuple(f"r{k}" for k in range(nregs))
    layout = CanonicalLayout((t.occ, t.coherent) for t in terms)
    got_terms, got_norm = layout.apply([t.amplitude for t in terms])
    want = build_state(regs, terms)
    assert repr(got_terms) == repr(want.terms)
    assert repr(got_norm) == repr(norm_sq(want)) == repr(inner_product(want, want).real)
