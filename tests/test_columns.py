"""States as a shape plus an amplitude column, and ``terms`` as a view of them.

A state carries its interned ``fock.Shape``, which holds every term's
occupation and register labels, and one amplitude column;
``PhotonicState.terms`` is built from the two on first read.  The references
below rebuild every output per term from the input's ``terms`` and must agree
with the view by ``float.hex``.  Each operation also runs on a twin whose
labels differ only in the sign of their zeros: its keys compare equal to the
state's, but shapes are interned by exact bits, so a plan found under a key
blind to the sign of zero would show in the second one's labels.  The
operations not checked here are checked the same way in ``test_shape``,
``test_substitution`` and ``test_kernels``; the last tests show that no scheme
reads a view at all, and that a warmed scheme takes no coherent overlap.
"""

import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritmap import fock
from qutritmap.fock import (
    COHERENT_MERGE_EPS,
    FockTerm,
    H,
    InvalidInput,
    Mode,
    PHOTON_CAP,
    PhotonCapExceeded,
    PhotonicState,
    QutritCoefficients,
    SimulationError,
    V,
    WiringError,
    ancilla_plus,
    build_state,
    make_biphotonic_qutrit,
    make_spatial_qutrit,
    normalized,
    relabel_paths,
    scaled,
    single_photon,
    tensor,
    vacuum_state,
)
from qutritmap.measurement import (
    FeedForwardRule,
    erase_and_merge,
    merge_branches,
    path_modes,
    strip_modes,
)
from qutritmap.qubus import add_register, drop_register, project_quadrature_x
from qutritmap.sampling import haar_unitary, random_qutrit
from qutritmap.schemes import SCHEMES
from test_shape import (
    amplitude,
    bits,
    canonical_state,
    flip_zeros,
    fresh,
    label,
    reference_canonical,
    reference_inner,
    reference_read,
    specs,
)


def twin_of(state):
    """``state`` with the sign of every zero label part flipped, built from terms."""
    terms = tuple(t._replace(coherent=tuple(map(flip_zeros, t.coherent))) for t in state.terms)
    return PhotonicState(state.registers, terms, state.born_weight)


def both_orders(state, run):
    """``run(x)`` for ``x`` of ``state`` and its twin, each pair in both orders on a
    cleared memo: the second of each pair runs on the plans the first one built."""
    twin = twin_of(state)
    for pair in ((state, twin), (twin, state)):
        fock._MEMO.clear()
        for x in pair:
            run(fresh(x))


def outcome(f, *args):
    """``bits`` of ``f(*args)``, or the type and text of what it raises."""
    try:
        return bits(f(*args))
    except SimulationError as exc:
        return type(exc), str(exc)


def ref_tensor(a, b):
    products = [
        FockTerm.from_occupations(dict(ta.occ + tb.occ), ta.coherent + tb.coherent,
                                  ta.amplitude * tb.amplitude)
        for ta in a.terms
        for tb in b.terms
    ]
    return reference_canonical(a.registers + b.registers, products, a.born_weight * b.born_weight)


def ref_relabel(state, mapping):
    keyed = [
        (tuple(sorted((Mode(mapping.get(m.path, m.path), m.pol), n) for m, n in t.occ)),
         t.coherent, t.amplitude)
        for t in state.terms
    ]
    return reference_canonical(state.registers, keyed, state.born_weight)


def ref_scaled(state, factor):
    terms = tuple(t._replace(amplitude=t.amplitude * factor) for t in state.terms)
    return PhotonicState(state.registers, terms, state.born_weight)


def ref_add_register(state, register, alpha):
    terms = [t._replace(coherent=t.coherent + (complex(alpha),)) for t in state.terms]
    terms.sort(key=lambda t: (t.occ, [(round(c.real, 9), round(c.imag, 9)) for c in t.coherent]))
    return PhotonicState(state.registers + (register,), tuple(terms), state.born_weight)


def without(labels, idx):
    return labels[:idx] + labels[idx + 1 :]


def ref_drop_register(state, register):
    if not state.terms:
        raise InvalidInput("cannot drop a register from a zero state")
    idx = state.registers.index(register)
    keyed = [(t.occ, without(t.coherent, idx), t.amplitude) for t in state.terms]
    return reference_canonical(without(state.registers, idx), keyed, state.born_weight)


def ref_quadrature(state, register):
    idx = state.registers.index(register)
    norm_in = reference_inner(state, state).real
    centers = []
    for t in state.terms:
        x = t.coherent[idx].real
        if not any(abs(x - c) <= COHERENT_MERGE_EPS for c in centers):
            centers.append(x)
    outcomes = []
    for x0 in sorted(centers):
        keyed = [(t.occ, without(t.coherent, idx), t.amplitude) for t in state.terms
                 if abs(t.coherent[idx].real - x0) <= COHERENT_MERGE_EPS]
        p, branch = reference_read(
            reference_canonical(without(state.registers, idx), keyed, state.born_weight, False),
            norm_in,
        )
        if p > 0.0:
            outcomes.append((f"x={x0:.9g}", p.hex(), bits(branch)))
    return outcomes


def ref_strip_product(state, watched):
    """strip_modes of a state whose every term holds the same ``watched`` content."""
    keyed = [(tuple(mn for mn in t.occ if mn[0] not in watched), t.coherent, 0j + t.amplitude)
             for t in state.terms]
    stripped = reference_canonical(state.registers, keyed, state.born_weight)
    factor = (reference_inner(state, state).real / reference_inner(stripped, stripped).real) ** 0.5
    return ref_scaled(stripped, factor)


def outcome_bits(dist):
    return [(o.label, o.probability.hex(), bits(o.state)) for o in dist.outcomes]


@given(
    nregs=st.integers(1, 2),
    labels=st.lists(label, min_size=1, max_size=3),
    specs=specs,
    other=st.lists(st.tuples(st.sampled_from((Mode("x", H), Mode("y", V))), amplitude),
                   min_size=1, max_size=2),
    factor=amplitude,
    alpha=st.sampled_from((0.0, -0.0, 1.5, complex(-0.5, -0.0))),
)
@settings(max_examples=150, deadline=None)
def test_views_match_per_term_references_bit_for_bit(nregs, labels, specs, other, factor, alpha):
    state = canonical_state(nregs, labels, specs)
    # a register-free factor on paths of its own, and one with a probe of its own
    free = build_state((), [FockTerm.from_occupations({m: 1}, (), a) for m, a in other])
    probed = add_register(free, "q", 2.0 - 0.0j)
    last = state.registers[-1]

    def run(x):
        for y in (free, probed):
            assert outcome(tensor, x, y) == outcome(ref_tensor, x, y)
            assert outcome(tensor, y, x) == outcome(ref_tensor, y, x)
        assert bits(relabel_paths(x, {"a": "z", "b": "a"})) == bits(
            ref_relabel(x, {"a": "z", "b": "a"})
        )
        assert bits(scaled(x, factor)) == bits(ref_scaled(x, factor))
        assert bits(add_register(x, "new", alpha)) == bits(ref_add_register(x, "new", alpha))
        uniform = add_register(x, "new", alpha)
        assert outcome(drop_register, uniform, "new") == outcome(ref_drop_register, uniform, "new")
        n2 = reference_inner(x, x).real
        if n2 <= 1e-9:  # the measurements below refuse (near-)zero states
            return
        assert bits(normalized(x)) == bits(ref_scaled(x, 1.0 / math.sqrt(n2)))
        assert outcome_bits(project_quadrature_x(x, last)) == ref_quadrature(x, last)
        if max(t.total_photons for t in x.terms) == PHOTON_CAP:
            return
        product = tensor(x, single_photon("w"))
        assert bits(strip_modes(product, path_modes("w"))) == bits(
            ref_strip_product(product, frozenset(path_modes("w")))
        )
        _, merged, _ = merge_branches([(0.5, product), (0.25, product)], tol=math.inf)
        assert bits(merged) == bits(dataclasses.replace(product, born_weight=2.0))

    both_orders(state, run)


def test_constructors_match_their_terms():
    c = QutritCoefficients.normalize(0.3 - 0.0j, -0.0 + 0.4j, -0.5)
    a, b, g = c.as_tuple()
    s = 1.0 / math.sqrt(2)

    def built(*terms):
        return build_state((), [FockTerm.from_occupations(occ, (), amp) for occ, amp in terms])

    h, v = Mode("in", H), Mode("in", V)
    pairs = [
        (make_biphotonic_qutrit(c, "in"),
         built(({h: 2}, a / math.sqrt(2)), ({h: 1, v: 1}, b), ({v: 2}, g / math.sqrt(2)))),
        (make_spatial_qutrit(c, ("s2", "s0", "s1")),
         built(*(({Mode(p, H): 1}, x) for p, x in zip(("s2", "s0", "s1"), (a, b, g))))),
        (single_photon("p", V), built(({Mode("p", V): 1}, 1.0))),
        (ancilla_plus("q"), built(({Mode("q", H): 1}, s), ({Mode("q", V): 1}, s))),
        (vacuum_state(), built(({}, 1.0))),
    ]
    for got, want in pairs:
        assert bits(got) == bits(want)
    tiny = QutritCoefficients(1.0, 1e-13, 0.0)  # pruned levels, as build_state prunes them
    assert bits(make_biphotonic_qutrit(tiny)) == bits(
        built(({h: 2}, 1.0 / math.sqrt(2)), ({h: 1, v: 1}, 1e-13), ({v: 2}, 0.0))
    )


@given(
    nregs=st.integers(0, 2),
    labels=st.lists(label, min_size=1, max_size=3),
    specs=specs,
    born_weight=st.sampled_from((1.0, 0.375)),
)
@settings(max_examples=60, deadline=None)
def test_term_built_and_column_built_states_are_one_value(nregs, labels, specs, born_weight):
    made = canonical_state(nregs, labels, specs)
    column_built = scaled(dataclasses.replace(made, born_weight=born_weight), 1.0)
    want = ref_scaled(dataclasses.replace(made, born_weight=born_weight), 1.0)
    term_built = PhotonicState(want.registers, want.terms, want.born_weight)
    assert "terms" not in vars(column_built)
    assert hash(column_built) == hash(term_built)  # reads the view first
    assert column_built == term_built and term_built == column_built
    assert repr(column_built) == repr(term_built)
    assert tuple(column_built.amplitudes) == term_built.amplitudes
    assert column_built.shape is term_built.shape and not hasattr(column_built, "labels")
    for obj in (column_built, term_built):
        copied = pickle.loads(pickle.dumps(obj))
        assert copied == term_built and hash(copied) == hash(term_built)
        assert bits(copied) == bits(term_built)
        assert fock.norm_sq(copied).hex() == fock.norm_sq(term_built).hex()
        reweighted = dataclasses.replace(obj, born_weight=0.25)
        assert reweighted == dataclasses.replace(term_built, born_weight=0.25)
        assert bits(reweighted) == bits(dataclasses.replace(term_built, born_weight=0.25))


def scheme_runs():
    """Every scheme in both modes, kerr-forward's two variants included."""
    rng = np.random.default_rng(11)
    for name, fn in SCHEMES.items():
        variants = [{"variant": v} for v in ("double-xpm", "separate-qnd")] if (
            name == "kerr-forward") else [{}]
        for params in variants:
            for mode in ("ideal", "physical"):
                c = random_qutrit(rng)
                args = (c, haar_unitary(rng)) if name.startswith("u3-") else (c,)
                if name in ("linear-forward", "linear-inverse", "u3-linear"):
                    if mode == "ideal":  # no readout, so the modes do not differ
                        yield name, lambda fn=fn, args=args: fn(*args)
                else:
                    kwargs = {**params, "meas_mode": mode}
                    yield name, lambda fn=fn, args=args, kwargs=kwargs: fn(*args, **kwargs)


def test_no_scheme_builds_a_terms_view():
    views, terms = [], []
    real_view, real_from = fock._view, FockTerm.from_occupations.__func__

    def counted_view(state):
        views.append(state)
        return real_view(state)

    def counted_from(cls, *args, **kwargs):
        terms.append(args)
        return real_from(cls, *args, **kwargs)

    ran = []
    with mock.patch.object(fock, "_view", counted_view), \
            mock.patch.object(FockTerm, "from_occupations", classmethod(counted_from)):
        for name, run in scheme_runs():
            try:
                report = run()
            except fock.UnsupportedMode:  # separate-qnd has no physical homodyne
                continue
            ran.append(name)
            assert report.output_state.shape is not None
        assert views == [] and terms == []
        # the hook does count: reading an output's terms builds its view once
        assert report.output_state.terms == report.output_state.terms
        assert views == [report.output_state]
    assert ran.count("kerr-forward") == 3 and len(set(ran)) == len(SCHEMES)


def test_warmed_schemes_take_no_coherent_overlap():
    # overlaps and Gram products are worked out once per shape: run every
    # scheme twice on the same inputs, and the second run computes none
    fock._MEMO.clear()
    overlaps = []
    real = fock.coherent_overlap

    def counted(beta, gamma):
        overlaps.append((beta, gamma))
        return real(beta, gamma)

    with mock.patch.object(fock, "coherent_overlap", counted):
        runs = []
        for warm in (False, True):
            overlaps.clear()
            ran = []
            for name, run in scheme_runs():
                try:
                    runs.append(bits(run().output_state))
                except fock.UnsupportedMode:  # separate-qnd has no physical homodyne
                    continue
                ran.append(name)
            if not warm:
                assert overlaps  # the hook does count
    assert overlaps == []
    assert ran.count("kerr-forward") == 3 and len(set(ran)) == len(SCHEMES)
    assert runs[: len(runs) // 2] == runs[len(runs) // 2 :]


def test_failed_checks_raise_on_every_call():
    a, b = single_photon("a"), single_photon("b")
    three = build_state((), [FockTerm.from_occupations({Mode("c", H): 3})])
    # a term that bypassed from_occupations' cap check
    crowded = PhotonicState((), (FockTerm(((Mode("d", H), 5),), (), 1 + 0j),))
    probed = add_register(a, "r", 1.0)
    correlated = build_state(("r",), [FockTerm.from_occupations({Mode(p, H): 1}, (x,))
                                      for p, x in (("a", 1.0), ("b", 2.0))])
    entangled = build_state((), [FockTerm.from_occupations({Mode("a", p): 1, Mode("d", p): 1})
                                 for p in (H, V)])
    cases = [
        (WiringError, "share paths", lambda: tensor(a, single_photon("a", V))),
        (WiringError, "share register", lambda: tensor(probed, add_register(b, "r", 1.0))),
        (PhotonCapExceeded, "5 photons", lambda: tensor(three, tensor(a, b))),
        (WiringError, "both map to", lambda: relabel_paths(tensor(a, b), {"a": "b"})),
        (PhotonCapExceeded, "5 photons", lambda: relabel_paths(crowded, {"d": "e"})),
        (WiringError, "correlated", lambda: drop_register(correlated, "r")),
        (WiringError, "entangled", lambda: strip_modes(entangled, path_modes("d"))),
        (WiringError, "overlap",
         lambda: erase_and_merge(entangled, {"x": "a", "y": "a"}, FeedForwardRule({}))),
    ]
    for error, match, call in cases:
        fock._MEMO.clear()
        for _ in range(3):  # a failed plan build leaves nothing in the memo, a verdict stays
            with pytest.raises(error, match=match):
                call()
