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
    COHERENT_MERGE_EPS,
    PHOTON_CAP,
    POLS,
    PRUNE_EPS,
    FockTerm,
    InvalidInput,
    Mode,
    PhotonicState,
    QutritCoefficients,
    build_state,
    coherent_overlap,
    inner_product,
    norm_sq,
    scaled,
    single_photon,
    tensor,
    traced_fidelity,
)
from qutritmap.measurement import (
    PROB_EPS,
    merge_branches,
    path_modes,
    post_select_coincidence,
    project_total_photons,
    strip_modes,
)
from qutritmap.qubus import (
    add_register,
    apply_xpm,
    coherent_bs50,
    coherent_phase,
    couple_probes,
    drop_register,
    project_photon_number,
    project_quadrature_x,
)
from qutritmap.schemes import scheme_kerr_forward

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
    assert twin.shape is state.shape
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
    _, overlaps = state.shape._norm_plan()  # a pair plan's overlap slots (none here)
    assert overlaps is not None
    assert repr(norm_sq(state)) == repr(inner_product(state, state).real)
    canonical = build_state((), terms)
    assert canonical.shape._norm_plan()[1] is None
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
    fock._MEMO.clear()  # so the first call builds what the second one finds
    first = canonical_state(nregs, labels, specs)
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
    assert state.shape is first.shape


def test_signed_zero_labels_get_shapes_of_their_own():
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
    assert plus.shape is not minus.shape  # equal keys, but not the same bits
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


# ---------------------------------------------------------------------------
# Register paths against direct references, by float.hex.  The memoized paths
# build pair plans, label-overlap slots, groupings and sort orders once per
# shape; the references below take every pair, overlap, merge and sort afresh
# on each call.  A twin of each state has the other sign on every zero label
# part, so its keys compare equal but it has a shape of its own: a plan found
# under a key blind to the sign of zero would hand it the other's labels.


def hexed(z):
    return z.real.hex(), z.imag.hex()


def bits(state):
    if state is None:
        return None
    terms = [(t.occ, [hexed(c) for c in t.coherent], hexed(t.amplitude)) for t in state.terms]
    return state.registers, terms, float(state.born_weight).hex()


def occ_weight(occ):
    """prod(n!) as a float, multiplied up in occupation order."""
    fac = 1.0
    for _, n in occ:
        fac *= math.factorial(n)
    return fac


def reference_inner(bra, ket):
    """<bra|ket>: every same-occupation pair, each overlap from its own labels."""
    total = 0j
    for a in bra.terms:
        for b in ket.terms:
            if a.occ != b.occ:
                continue
            val = a.amplitude.conjugate() * b.amplitude * occ_weight(a.occ)
            for x, y in zip(a.coherent, b.coherent):
                val *= coherent_overlap(x, y)
            total += val
    return total


def reference_traced(state, target):
    t_by_occ = {}
    for t in target.terms:
        t_by_occ[t.occ] = t_by_occ.get(t.occ, 0j) + t.amplitude
    weights, labels = [], []
    for term in state.terms:
        if term.occ in t_by_occ:
            weights.append(t_by_occ[term.occ].conjugate() * term.amplitude * occ_weight(term.occ))
            labels.append(term.coherent)
    num = 0j
    for i, wi in enumerate(weights):
        for j, wj in enumerate(weights):
            gram = 1.0 + 0j
            for ck, ci in zip(labels[j], labels[i]):
                gram *= coherent_overlap(ck, ci)
            num += wi * wj.conjugate() * gram
    denom = reference_inner(state, state).real * reference_inner(target, target).real
    if denom <= 0.0:
        raise InvalidInput("fidelity of a zero state is undefined")
    return min(max(num.real / denom, 0.0), 1.0)


def sort_key(t):
    return t.occ, [(round(c.real, 9), round(c.imag, 9)) for c in t.coherent]


def reference_canonical(registers, keyed, born_weight, prune=True):
    """``(occ, labels, amplitude)`` merged into the first key within the merge
    tolerance, summed in order, pruned (if ``prune``) and sorted."""
    groups = []
    for occ, coh, amp in keyed:
        for g in groups:
            if g[0] == occ and all(abs(x - y) <= COHERENT_MERGE_EPS for x, y in zip(g[1], coh)):
                g[2] += amp
                break
        else:
            groups.append([occ, coh, amp])
    kept = [FockTerm(occ, coh, amp) for occ, coh, amp in groups
            if abs(amp) > PRUNE_EPS or not prune]
    return PhotonicState(tuple(registers), tuple(sorted(kept, key=sort_key)), born_weight)


def reference_relabeled(state, relabel):
    terms = [FockTerm(t.occ, tuple(relabel(t)), t.amplitude) for t in state.terms]
    return PhotonicState(state.registers, tuple(sorted(terms, key=sort_key)), state.born_weight)


def reference_read(merged, norm_in):
    """The branch of one readout outcome from ``merged``, its merged and unpruned terms:
    their squared norm serves both p and the renormalization, then the terms whose
    sums are at or below PRUNE_EPS are pruned."""
    n2 = reference_inner(merged, merged).real
    p = n2 / norm_in
    if p <= PROB_EPS:
        return 0.0, PhotonicState(merged.registers, (), 0.0)
    f = 1.0 / math.sqrt(n2)
    terms = tuple(FockTerm(t.occ, t.coherent, t.amplitude * f)
                  for t in merged.terms if abs(t.amplitude) > PRUNE_EPS)
    return p, PhotonicState(merged.registers, terms, merged.born_weight * p)


def reference_readout(state, register, mode):
    """``[(label, p, branch)]`` of the photon-number readout by outcome class."""
    idx = state.registers.index(register)
    regs = state.registers[:idx] + state.registers[idx + 1 :]
    norm_in = reference_inner(state, state).real
    if norm_in <= PROB_EPS:
        raise InvalidInput("cannot measure a zero state")

    def merged(weighted):  # unpruned: each outcome's norm is taken before the prune
        keyed = [(t.occ, t.coherent[:idx] + t.coherent[idx + 1 :], a) for t, a in weighted]
        return reference_canonical(regs, keyed, state.born_weight, prune=False)

    def branch(kept):
        return reference_read(kept, norm_in)

    x = [abs(t.coherent[idx]) ** 2 for t in state.terms]
    quiet = [abs(t.coherent[idx]) <= COHERENT_MERGE_EPS for t in state.terms]
    if mode == "ideal":
        zero = [(t, t.amplitude) for t, q in zip(state.terms, quiet) if q]
        lit = [(t, t.amplitude * (1.0 / math.sqrt(-math.expm1(-b))))
               for t, b, q in zip(state.terms, x, quiet) if not q]
    else:
        zero = [(t, t.amplitude * math.exp(-0.5 * b)) for t, b in zip(state.terms, x)]
        lit = [(t, t.amplitude) for t, q in zip(state.terms, quiet) if not q]
    classes = [("0", *branch(merged(zero)))]
    betas = [t.coherent[idx] for t, _ in lit]
    signs = [1.0 if abs(b - betas[0]) <= COHERENT_MERGE_EPS else -1.0 for b in betas]
    if lit and all(abs(b - s * betas[0]) <= COHERENT_MERGE_EPS for b, s in zip(betas, signs)):
        m = abs(betas[0]) ** 2
        k_odd, k_even = math.sqrt(-0.5 * math.expm1(-2.0 * m)), -math.expm1(-m) / math.sqrt(2.0)
        odd = [(t, a * s * k_odd) for (t, a), s in zip(lit, signs)]
        classes.append(("odd", *branch(merged(odd))))
        classes.append(("even", *branch(merged([(t, a * k_even) for t, a in lit]))))
    elif lit:
        vacuum = merged([(t, a * math.exp(-0.5 * abs(t.coherent[idx]) ** 2)) for t, a in lit])
        vac = reference_inner(vacuum, vacuum).real

        def flipped(t):
            return t.coherent[:idx] + (-t.coherent[idx],) + t.coherent[idx + 1 :]

        psi = PhotonicState(state.registers, tuple(FockTerm(t.occ, t.coherent, a) for t, a in lit))
        mirror = PhotonicState(
            state.registers, tuple(FockTerm(t.occ, flipped(t), a) for t, a in lit)
        )
        n2 = reference_inner(psi, psi).real
        flip = reference_inner(psi, mirror).real
        classes.append(("odd", 0.5 * (n2 - flip) / norm_in, None))
        classes.append(("even", (0.5 * (n2 + flip) - vac) / norm_in, None))
    return [(label, p.hex(), bits(branch)) for label, p, branch in classes if p > PROB_EPS]


def readout_bits(state, register, mode):
    dist = project_photon_number(state, register, mode)
    return [(o.label, o.probability.hex(), bits(o.state)) for o in dist.outcomes]


def flip_zeros(z):
    return complex(-z.real if z.real == 0 else z.real, -z.imag if z.imag == 0 else z.imag)


def has_zero_part(state):
    """Whether some label of ``state`` has a zero part, which :func:`flip_zeros` flips."""
    return any(0.0 in (c.real, c.imag) for t in state.terms for c in t.coherent)


def fresh(state):
    """The same terms, built from them again, with no computed norm."""
    return PhotonicState(state.registers, state.terms, state.born_weight)


@given(
    nregs=st.integers(1, 2),
    labels=st.lists(label, min_size=1, max_size=3),
    specs=specs,
    again=st.lists(amplitude, min_size=10, max_size=10),
    target=st.lists(st.tuples(occupation, amplitude), min_size=1, max_size=4),
    theta=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=150, deadline=None)
def test_register_paths_match_direct_references_bit_for_bit(
    nregs, labels, specs, again, target, theta
):
    state = canonical_state(nregs, labels, specs)
    twin = same_shape(state, again)
    twin = PhotonicState(
        twin.registers,
        tuple(FockTerm(t.occ, tuple(map(flip_zeros, t.coherent)), t.amplitude) for t in twin.terms),
    )
    goal = build_state((), [FockTerm.from_occupations(occ, (), amp) for occ, amp in target])
    watched = path_modes("a")
    last = state.registers[-1]
    s = 1.0 / math.sqrt(2)

    def xpm(t):
        coh = list(t.coherent)
        coh[0] = coh[0] * cmath.exp(1j * photons_in(t, watched) * theta)
        return coh

    def phase(t):
        return t.coherent[:-1] + (t.coherent[-1] * cmath.exp(1j * theta),)

    def bs50(t):
        a, b = t.coherent
        return (a - b) * s, (a + b) * s

    for pair in ((state, twin), (twin, state)):
        fock._MEMO.clear()
        pair = [fresh(x) for x in pair]
        assert (pair[0].shape is pair[1].shape) is not has_zero_part(state)
        for x, other in (pair, pair[::-1]):
            assert norm_sq(x).hex() == reference_inner(x, x).real.hex()
            assert hexed(inner_product(x, other)) == hexed(reference_inner(x, other))
            if goal.terms:
                assert outcome(lambda: traced_fidelity(x, goal).hex()) == outcome(
                    lambda: reference_traced(x, goal).hex()
                )
            assert bits(apply_xpm(x, "r0", watched, theta)) == bits(reference_relabeled(x, xpm))
            assert bits(coherent_phase(x, last, theta)) == bits(reference_relabeled(x, phase))
            if nregs == 2:
                assert bits(coherent_bs50(x, "r0", "r1")) == bits(reference_relabeled(x, bs50))
            for mode in ("ideal", "physical"):
                assert outcome(readout_bits, x, "r0", mode) == outcome(
                    reference_readout, x, "r0", mode
                )


@given(
    nregs=st.integers(0, 1),
    labels=st.lists(label, min_size=1, max_size=3),
    specs=specs,
    again=st.lists(amplitude, min_size=10, max_size=10),
    alpha=st.floats(min_value=0.5, max_value=40.0),
    theta=st.floats(min_value=-3.0, max_value=3.0).filter(lambda t: abs(math.sin(t)) > 1e-3),
)
@settings(max_examples=150, deadline=None)
def test_coupled_probes_match_the_chain_bit_for_bit(nregs, labels, specs, again, alpha, theta):
    state = canonical_state(nregs, labels, specs)
    twin = same_shape(state, again)
    twin = PhotonicState(
        twin.registers,
        tuple(FockTerm(t.occ, tuple(map(flip_zeros, t.coherent)), t.amplitude) for t in twin.terms),
    )
    modes_a, modes_b = path_modes("a"), (Mode("b", "V"), Mode("c", "H"))

    def chain(x):
        s = add_register(add_register(x, "p1", alpha), "p2", alpha)
        s = apply_xpm(apply_xpm(s, "p1", modes_a, theta), "p2", modes_b, theta)
        s = coherent_phase(coherent_phase(s, "p1", -theta), "p2", -theta)
        return coherent_bs50(s, "p1", "p2")

    fock._MEMO.clear()
    for x in (fresh(state), fresh(twin), fresh(state)):  # the last finds the plan
        coupled = couple_probes(x, "p1", "p2", alpha, theta, modes_a, modes_b)
        chained = chain(x)
        assert bits(coupled) == bits(chained)
        assert coupled.shape is chained.shape


def test_float_parameters_key_plans_by_their_bits():
    # 2+0j and 2-0j, and 0.0 and -0.0, compare equal but are not the same bits:
    # in one memo lifetime, each call must build its own plan and carry its own
    # labels, which a plan keyed by == would take from the first call instead
    base = build_state(("r",), [
        FockTerm.from_occupations({Mode("a", "H"): 1}, (1.5,), 0.6),
        FockTerm.from_occupations({Mode("b", "V"): 1}, (complex(-0.5, 0.25),), 0.8j),
        FockTerm.from_occupations({Mode("a", "V"): 2}, (complex(0.0, -0.75),), -0.3),
    ])
    watched, other = path_modes("a"), path_modes("b")
    s = 1.0 / math.sqrt(2)

    def on(registers, state):
        return PhotonicState(registers, state.terms, state.born_weight)

    def xpm(theta):
        return lambda t: (t.coherent[0] * cmath.exp(1j * photons_in(t, watched) * theta),)

    def phase(phi):
        return lambda t: (t.coherent[0] * cmath.exp(1j * phi),)

    def probes(alpha, theta):
        def relabel(t):
            label, back = complex(alpha), cmath.exp(1j * -theta)
            a = label * cmath.exp(1j * photons_in(t, watched) * theta) * back
            b = label * cmath.exp(1j * photons_in(t, other) * theta) * back
            return t.coherent + ((a - b) * s, (a + b) * s)

        return relabel

    fock._MEMO.clear()
    for label in (complex(2, 0.0), complex(2, -0.0)):
        assert bits(add_register(base, "p", label)) == bits(
            on(("r", "p"), reference_relabeled(base, lambda t: t.coherent + (label,)))
        )
    for theta in (0.0, -0.0):
        assert bits(apply_xpm(base, "r", watched, theta)) == bits(
            reference_relabeled(base, xpm(theta))
        )
        assert bits(coherent_phase(base, "r", theta)) == bits(
            reference_relabeled(base, phase(theta))
        )
    for alpha, theta in ((complex(2, 0.0), 0.5), (complex(2, -0.0), 0.5), (2.0, 0.0), (2.0, -0.0)):
        coupled = couple_probes(base, "p1", "p2", alpha, theta, watched, other)
        assert bits(coupled) == bits(
            on(("r", "p1", "p2"), reference_relabeled(base, probes(alpha, theta)))
        )
    plans = [op.kind for _, op in fock._MEMO if isinstance(op, fock._Site)]
    for kind in ("register", "xpm", "phase"):
        assert plans.count(kind) == 2, kind
    assert plans.count("probes") == 4


def shapes_in(obj, seen=None) -> int:
    """How many distinct shapes ``obj`` holds, looking into containers."""
    seen = set() if seen is None else seen
    if isinstance(obj, fock.Shape):
        seen.add(id(obj))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            shapes_in(item, seen)
    elif isinstance(obj, dict):
        for item in obj.items():
            shapes_in(item, seen)
    return len(seen)


def test_register_memo_stays_bounded_and_holds_two_shapes_per_entry():
    pair = build_state(
        (),
        [
            FockTerm.from_occupations({Mode("a", "H"): 1}, (), 0.6),
            FockTerm.from_occupations({Mode("b", "V"): 1}, (), 0.8j),
        ],
    )
    kinds = set()

    def case(k):
        # a spectator photon on its own path gives every state its own shape
        base = tensor(pair, single_photon(f"p{k}"))
        s = add_register(add_register(base, "r1", 1.5), "r2", 1.5)
        s = apply_xpm(s, "r1", path_modes("a"), 0.4)
        s = coherent_phase(s, "r1", -0.4)
        s = coherent_bs50(s, "r1", "r2")
        for mode in ("ideal", "physical"):
            project_photon_number(s, "r1", mode)
        traced_fidelity(s, base)
        inner_product(s, s)
        stripped = strip_modes(s, path_modes(f"p{k}"))
        merge_branches([(0.5, stripped), (0.5, stripped)], tol=math.inf)
        project_quadrature_x(s, "r2")
        drop_register(add_register(base, "r3", 1.0), "r3")
        if not k % 20:
            # kerr-forward's probe labels are not +beta or -beta of one beta: its readout's
            # odd and even classes are mixtures, whose plans hold no shape of their own
            for mode in ("ideal", "physical"):
                c = QutritCoefficients.normalize(0.6, 0.3j, -0.5 + k)
                scheme_kerr_forward(c, meas_mode=mode)

    fock._MEMO.clear()
    sizes = []
    for k in range(400):
        case(k)
        sizes.append(len(fock._MEMO))
        assert sizes[-1] <= fock._RETAINED
        if k % 20:
            continue
        for key, value in list(fock._MEMO.items()):
            op = key[1]
            if isinstance(op, fock._Site):
                kinds.add(op.kind)
            elif isinstance(op, str):
                kinds.add(op)
            elif isinstance(op, tuple) and op and isinstance(op[0], str):
                kinds.add(op[0])
            assert shapes_in((key, value)) <= 2, op
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # the bound was reached
    # the mixed readout's lit shape and mirror image are worked out in its plan's kernels
    assert {"pairs", "traced", "drop", "strip", "rank1", "register", "xpm", "phase", "bs50",
            "kept", "readout", "quadrature", "eraser"} <= kinds


def test_merged_branch_keeps_its_shape_and_norm():
    first = tensor(single_photon("a"), single_photon("b"))
    second = scaled(first, 1j)
    assert norm_sq(first) == norm_sq(second)  # computes and caches both norms
    _, merged, fid = merge_branches([(0.25, first), (0.5, second)])
    assert fid == 1.0 and merged.amplitudes is first.amplitudes
    assert merged.shape is first.shape
    with mock.patch.object(fock.Shape, "norm_sq", side_effect=AssertionError("recomputed")):
        assert norm_sq(merged) == norm_sq(first)
