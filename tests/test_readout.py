"""The photon-number readout by outcome class against a per-n reference.

``project_photon_number`` sums each class ("0", "odd", "even" n >= 2) in
closed form.  The reference below is the readout written the direct way:
one branch per photon number n, built, merged and normed on its own, with
<n|beta> in log space, summed until the remaining tail is below 1e-17.
Class probabilities must match its per-n sums, and a class state must be
the state of every n in its class (fidelity 1 against the per-n mixture).
"""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qutritmap.fock import (
    COHERENT_MERGE_EPS,
    PRUNE_EPS,
    FockTerm,
    InvalidInput,
    Mode,
    PhotonicState,
    SimulationError,
    UnsupportedMode,
    build_state,
    fidelity,
    inner_product,
    norm_sq,
)
from qutritmap.measurement import _norm_in
from qutritmap.qubus import _register_index, project_photon_number
from qutritmap.sampling import haar_unitary, random_qutrit
from qutritmap.schemes import (
    P_KERR_FORWARD,
    P_KERR_INVERSE,
    entangler_branches,
    scheme_entangler,
    scheme_kerr_forward,
    scheme_kerr_inverse,
    u3_biphotonic,
)
from test_outcomes import branch_loop

TAIL = 1e-17


def number_overlap(beta: complex, n: int) -> complex:
    """<n|beta> = e^{-|beta|^2/2} beta^n / sqrt(n!), in log space."""
    if beta == 0:
        return 1.0 if n == 0 else 0.0
    return cmath.exp(-0.5 * abs(beta) ** 2 + n * cmath.log(beta) - 0.5 * math.lgamma(n + 1))


def without_register(state, idx, rewrite):
    """Terms with register ``idx`` removed and amplitudes rewritten (None drops a term)."""
    regs = state.registers[:idx] + state.registers[idx + 1 :]
    terms = []
    for t in state.terms:
        amp = rewrite(t)
        if amp is not None:
            terms.append(FockTerm(t.occ, t.coherent[:idx] + t.coherent[idx + 1 :], amp))
    return regs, terms


def reference_per_n(state, register, mode="ideal"):
    """``[(n, p, branch)]`` for n = 0, 1, ... until the tail is below TAIL.

    ``p`` is the squared norm of the unmerged, unpruned per-n terms: a term
    just above PRUNE_EPS that the canonical branch drops would otherwise take
    its cross term with an O(1) term (about 1e-12) out of p.  ``branch``, the
    canonical renormalised state, serves the fidelity check only.
    """
    if mode not in ("ideal", "physical"):
        raise InvalidInput(f"unknown measurement mode {mode!r}")
    idx = _register_index(state, register)
    norm_in = _norm_in(state, "measure")
    ideal = mode == "ideal"

    def weight(term, n):
        beta = term.coherent[idx]
        if ideal:
            if abs(beta) <= COHERENT_MERGE_EPS:
                return term.amplitude if n == 0 else None
            if n == 0:
                return None
            return term.amplitude * number_overlap(beta, n) / math.sqrt(-math.expm1(-abs(beta) ** 2))
        return term.amplitude * number_overlap(beta, n)

    roots = [math.sqrt(math.prod(math.factorial(k) for _, k in t.occ)) for t in state.terms]
    mu = max(abs(t.coherent[idx]) ** 2 for t in state.terms)
    out = []
    n = 0
    while True:
        regs, terms = without_register(state, idx, lambda t, n=n: weight(t, n))
        raw = PhotonicState(regs, tuple(terms))
        _, branch = branch_loop(build_state(regs, terms, state.born_weight), norm_in)
        out.append((n, inner_product(raw, raw).real / norm_in, branch))
        # Triangle bound on p(n), the other registers' overlaps being at most
        # 1; past n = 2 mu it at least halves with each n, so the tail after
        # n is below twice this bound.
        weights = [weight(t, n) for t in state.terms]
        bound = sum(r * abs(w) for r, w in zip(roots, weights) if w is not None) ** 2 / norm_in
        if n > 2 * mu + 1 and bound < TAIL / 4:
            return out
        n += 1


def reference_classes(state, register, mode="ideal"):
    """``{class: (probability, [(p, branch) per n])}`` from the per-n reference."""
    classes = {"0": (0.0, []), "odd": (0.0, []), "even": (0.0, [])}
    for n, p, branch in reference_per_n(state, register, mode):
        label = "0" if n == 0 else ("odd" if n % 2 else "even")
        total, members = classes[label]
        classes[label] = (total + p, members + ([(p, branch)] if branch.terms else []))
    return classes


def plus_minus_one_beta(state, register):
    """Whether every displaced label of ``register`` is +beta or -beta of one beta."""
    idx = state.registers.index(register)
    lit = [t.coherent[idx] for t in state.terms if abs(t.coherent[idx]) > COHERENT_MERGE_EPS]
    return all(
        min(abs(b - lit[0]), abs(b + lit[0])) <= COHERENT_MERGE_EPS for b in lit
    )


def assert_matches_reference(state, register, mode):
    try:
        want = reference_classes(state, register, mode)
    except SimulationError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            project_photon_number(state, register, mode)
        return
    got = project_photon_number(state, register, mode)
    order = [label for label in ("0", "odd", "even") if label in got.labels()]
    assert list(got.labels()) == order
    for label, (p_want, members) in want.items():
        o = got.get(label) if label in got.labels() else None
        p_got = o.probability if o is not None else 0.0
        assert abs(p_got - p_want) <= 1e-12, (label, p_got, p_want)
        if o is None:
            continue
        assert (o.state is None) == (label != "0" and not plus_minus_one_beta(state, register))
        if o.state is not None:
            assert o.state.born_weight == pytest.approx(state.born_weight * o.probability, rel=1e-12)
            # <psi| rho_class |psi>, rho_class the per-n mixture of the class
            mixed = sum(p * fidelity(branch, o.state) for p, branch in members)
            assert mixed / sum(p for p, _ in members) >= 1 - 1e-12


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
@example(  # two terms at PRUNE_EPS merge to 2e-12, whose "even" amplitude a prune took
    pools=[[0.25j], [0j, 0.25j]],
    specs=[(0, [0, 0, 0], PRUNE_EPS), (0, [0, 0, 0], PRUNE_EPS), (0, [0, 1, 0], 0.0625)],
    pick=0,
    mode="ideal",
    born_weight=1.0,
)
@settings(max_examples=150, deadline=None)
def test_readout_matches_per_outcome_reference(pools, specs, pick, mode, born_weight):
    state = labelled_state(pools, specs, born_weight)
    register = state.registers[pick % len(state.registers)]
    assert_matches_reference(state, register, mode)


# Label sets of one modulus (+beta, -beta), of two moduli on one axis (as in
# kerr-forward's coupler), with the undisplaced label and signed-zero parts.
ZEROS = (0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0))
phase = st.one_of(
    st.sampled_from((0.0, math.pi / 2, math.pi, -math.pi / 2)),
    st.floats(min_value=-math.pi, max_value=math.pi),
)


@st.composite
def class_label_sets(draw):
    ph = draw(phase)
    beta = cmath.rect(math.sqrt(draw(st.floats(min_value=0.05, max_value=30.0))), ph)
    labels = [beta, -beta]
    if draw(st.booleans()):
        m2 = draw(st.floats(min_value=0.05, max_value=30.0).filter(
            lambda m: abs(math.sqrt(m) - abs(beta)) > 1e-3))
        gamma = cmath.rect(math.sqrt(m2), ph)
        labels += [gamma, -gamma]
    labels += draw(st.lists(st.sampled_from(ZEROS), max_size=2))
    return labels


@given(
    labels=class_label_sets(),
    others=label_pool,
    specs=st.lists(
        st.tuples(
            st.integers(0, len(OCCS) - 1),
            st.tuples(st.integers(0, 7), st.integers(0, 2)),
            amplitude,
        ),
        min_size=1,
        max_size=10,
    ),
    mode=st.sampled_from(("ideal", "physical")),
)
@example(  # a term just above PRUNE_EPS beside an O(1) term of its occupation
    labels=[1 + 0j, -1 - 0j, math.sqrt(3) + 0j, -math.sqrt(3) - 0j],
    others=[0j, 0.25j],
    specs=[
        (0, (0, 0), 1 + 0j),
        (0, (0, 0), 0.25 + 0j),
        (0, (0, 0), 0.25 + 0j),
        (1, (2, 0), 2e-12 + 0j),
        (1, (0, 1), 1 + 0j),
    ],
    mode="ideal",
)
@example(  # an "even" sum just below PRUNE_EPS beside an O(1) term
    labels=[1.4142135623730951 + 0j, -1.4142135623730951 - 0j],
    others=[0j, 0.25j],
    specs=[(0, (0, 0), 1 + 0j), (0, (0, 1), 1.5e-12 + 0j)],
    mode="ideal",
)
@settings(max_examples=120, deadline=None)
def test_class_readout_matches_per_n_reference(labels, others, specs, mode):
    state = labelled_state([labels, others], specs)
    assert_matches_reference(state, "r0", mode)


def reference_canonical_terms(terms):
    """Merge equal monomials (labels clustered within COHERENT_MERGE_EPS of a
    group's first label), prune at PRUNE_EPS and sort, in one pass."""
    groups = {}
    for t in terms:
        bucket = groups.setdefault(t.occ, [])
        for entry in bucket:
            if all(abs(x - y) <= COHERENT_MERGE_EPS for x, y in zip(entry[0], t.coherent)):
                entry[1] += t.amplitude
                break
        else:
            bucket.append([t.coherent, t.amplitude])
    kept = (
        FockTerm(occ, coh, amp)
        for occ, bucket in groups.items()
        for coh, amp in bucket
        if abs(amp) > PRUNE_EPS
    )

    def order(t):
        return t.occ, tuple((round(c.real, 9), round(c.imag, 9)) for c in t.coherent)

    return tuple(sorted(kept, key=order))


# Jitter below COHERENT_MERGE_EPS: build_state must cluster nearly equal labels.
# 6e-10 and -6e-10 lie 1.2e-9 apart, so which of them merge with 0 depends on
# the group's first label.
JITTER = (0j, 3e-10, -4e-10j, 2e-10 + 2e-10j, 6e-10, -6e-10)


@given(
    nregs=st.integers(0, 3),
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
def test_build_state_gives_reference_terms_and_norm(nregs, labels, specs, flips):
    # Raw, unmerged terms: equal keys merge, and some amplitudes cancel down to
    # about PRUNE_EPS before the prune.
    terms = []
    for k, (occ, pick, jitter, amp) in enumerate(specs):
        coh = tuple(labels[(pick + r) % len(labels)] + JITTER[jitter] for r in range(nregs))
        terms.append(FockTerm.from_occupations(OCCS[occ], coh, amp))
        if flips[k]:
            terms.append(FockTerm.from_occupations(OCCS[occ], coh, -amp * (1 + 1e-12)))
    s = build_state(tuple(f"r{k}" for k in range(nregs)), terms)
    assert repr(s.terms) == repr(reference_canonical_terms(terms))
    assert repr(norm_sq(s)) == repr(inner_product(s, s).real)


def readout_totals(name, report):
    """Total outcome probability of every photon-number readout in a report."""
    checks, steps = report.checks, {e.step: e.probability for e in report.branch_log}
    if name == "entangler":
        return [sum(v for k, v in checks.items() if k.startswith("branch_n") and k.endswith("_probability"))]
    if name == "kerr-forward":
        return [checks["probe_total_probability"]]
    if name == "kerr-inverse":
        return [steps["entangler-1"], steps["entangler-2"]]
    return [checks["forward_probe_total_probability"], steps["entangler-1"], steps["entangler-2"]]


LARGE_ALPHAS = (10.0, 20.0, 40.0, 1000.0)


def large_alpha_reports(alpha, mode):
    rng = np.random.default_rng(11)
    c = random_qutrit(rng)
    kwargs = {"qubus_alpha": alpha, "meas_mode": mode}
    return {
        "kerr-inverse": (scheme_kerr_inverse(c, **kwargs), P_KERR_INVERSE),
        "u3-kerr": (
            u3_biphotonic(c, haar_unitary(rng), backend="kerr", **kwargs),
            P_KERR_FORWARD * P_KERR_INVERSE,
        ),
        "entangler": (scheme_entangler(c, **kwargs), 1.0),
        "kerr-forward": (scheme_kerr_forward(c, **kwargs), P_KERR_FORWARD),
    }


@pytest.mark.parametrize("alpha", LARGE_ALPHAS)
def test_large_alpha_ideal_probabilities_are_closed_forms(alpha):
    # 1e-9 at |alpha| = 1000: the coherent-overlap rounding bound of
    # schemes._MAX_PROBE_ALPHA, about 2 alpha^2 epsilon
    tol = 1e-12 if alpha <= 40 else 1e-9
    for name, (report, p0) in large_alpha_reports(alpha, "ideal").items():
        assert abs(report.success_probability - p0) <= tol, name
        assert report.output_fidelity >= 1 - 1e-9, name


@pytest.mark.parametrize("mode", ["ideal", "physical"])
@pytest.mark.parametrize("alpha", LARGE_ALPHAS)
def test_large_alpha_readouts_are_complete(alpha, mode):
    for name, (report, _) in large_alpha_reports(alpha, mode).items():
        for total in readout_totals(name, report):
            assert abs(total - 1.0) <= 1e-12, (name, total)


def test_two_moduli_give_stateless_classes_and_the_entangler_refuses_them():
    beta = 0.8 + 0.3j
    s = build_state(
        ("p",),
        [
            FockTerm.from_occupations({Mode("a", "H"): 1}, (beta,), 0.6),
            FockTerm.from_occupations({Mode("b", "H"): 1}, (2 * beta,), 0.8),
        ],
    )
    for mode in ("ideal", "physical"):
        dist = project_photon_number(s, "p", mode)
        for label in ("odd", "even"):
            assert dist.get(label).state is None
            assert dist.get(label).probability > 0.0
        assert dist.total_probability == pytest.approx(1.0, abs=1e-12)

    # One term meets two photons on the H-coupled beam, the other one photon:
    # the readout labels then have two moduli.
    s = build_state(
        (),
        [
            FockTerm.from_occupations({Mode("0", "H"): 1, Mode("a", "V"): 1}, (), 0.6),
            FockTerm.from_occupations({Mode("0", "H"): 1}, (), 0.8),
        ],
    )
    with pytest.raises(UnsupportedMode):
        entangler_branches(s, ("0", "1", "2"), "a", "reflected")
