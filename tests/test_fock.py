"""Fock-layer checks against a dense number-basis oracle.

The oracle expands every monomial term into the orthonormal number basis
(component amp * prod sqrt(n!)) and represents coherent registers by their
truncated number-basis series, so it shares no closed-form shortcuts with
the implementation under test.
"""

import cmath
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritmap import fock
from qutritmap.fock import (
    FockTerm,
    InvalidInput,
    Mode,
    PhotonCapExceeded,
    QutritCoefficients,
    WiringError,
    amplitude_of,
    ancilla_plus,
    build_state,
    coherent_overlap,
    fidelity,
    inner_product,
    make_biphotonic_qutrit,
    make_spatial_qutrit,
    norm_sq,
    normalized,
    relabel_paths,
    single_photon,
    tensor,
    traced_fidelity,
    vacuum_state,
)
from qutritmap.elements import apply_phase_shift, apply_sigma_x
from qutritmap.qubus import apply_xpm, coherent_bs50, coherent_phase

NMAX = 60


def coherent_vector(c, nmax=NMAX):
    return np.array(
        [
            cmath.exp(-abs(c) ** 2 / 2) * c**n / math.sqrt(math.factorial(n))
            for n in range(nmax)
        ]
    )


def oracle_overlap(c1, c2):
    return complex(np.vdot(coherent_vector(c1), coherent_vector(c2)))


def oracle_inner(bra, ket):
    assert bra.registers == ket.registers
    total = 0j
    for tb in bra.terms:
        for tk in ket.terms:
            if tb.occ != tk.occ:
                continue
            cb = tb.amplitude * math.prod(math.sqrt(math.factorial(n)) for _, n in tb.occ)
            ck = tk.amplitude * math.prod(math.sqrt(math.factorial(n)) for _, n in tk.occ)
            val = cb.conjugate() * ck
            for rb, rk in zip(tb.coherent, tk.coherent):
                val *= oracle_overlap(rb, rk)
            total += val
    return total


def oracle_traced_fidelity(state, target, nmax=40):
    """<T| Tr_regs(|s><s|) |T> via an explicit joint density matrix."""
    occs = sorted({t.occ for t in state.terms} | {t.occ for t in target.terms})
    occ_index = {occ: i for i, occ in enumerate(occs)}
    nregs = len(state.registers)
    dims = (len(occs),) + (nmax,) * nregs
    psi = np.zeros(dims, dtype=complex)
    for t in state.terms:
        comp = t.amplitude * math.prod(math.sqrt(math.factorial(n)) for _, n in t.occ)
        reg = np.ones(1, dtype=complex)
        for c in t.coherent:
            reg = np.kron(reg, coherent_vector(c, nmax))
        psi[occ_index[t.occ]] += comp * reg.reshape((nmax,) * nregs)
    flat = psi.reshape(len(occs), -1)
    rho = flat @ flat.conj().T  # traced over all register axes
    tvec = np.zeros(len(occs), dtype=complex)
    for t in target.terms:
        tvec[occ_index[t.occ]] += t.amplitude * math.prod(
            math.sqrt(math.factorial(n)) for _, n in t.occ
        )
    num = (tvec.conj() @ rho @ tvec).real
    return num / (norm_sq(state) * norm_sq(target))


complex_amp = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)
small_label = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=2.5, allow_nan=False, allow_infinity=False
)


# Labels on a 1/4 lattice: distinct labels stay far apart under every label
# map, so a one-to-one operation can never bring two of them within the
# merge tolerance.
lattice_label = st.builds(complex, st.integers(-8, 8), st.integers(-8, 8)).map(
    lambda z: z / 4
)


def random_state(amps, labels, nregs):
    modes = [Mode("a", "H"), Mode("a", "V"), Mode("b", "H")]
    occs = [{modes[0]: 2}, {modes[0]: 1, modes[2]: 1}, {modes[1]: 1}, {}]
    terms = []
    for i, amp in enumerate(amps):
        coh = tuple(labels[(i * nregs + k) % len(labels)] for k in range(nregs))
        terms.append(FockTerm.from_occupations(occs[i % len(occs)], coh, amp))
    regs = tuple(f"r{k}" for k in range(nregs))
    return build_state(regs, terms)


@given(
    amps1=st.lists(complex_amp, min_size=1, max_size=4),
    amps2=st.lists(complex_amp, min_size=1, max_size=4),
    labels=st.lists(small_label, min_size=4, max_size=4),
    nregs=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=60, deadline=None)
def test_inner_product_matches_dense_oracle(amps1, amps2, labels, nregs):
    s1 = random_state(amps1, labels, nregs)
    s2 = random_state(amps2, labels, nregs)
    got = inner_product(s1, s2)
    want = oracle_inner(s1, s2)
    assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


@given(beta=small_label, gamma=small_label)
@settings(max_examples=80, deadline=None)
def test_coherent_overlap_matches_series(beta, gamma):
    got = coherent_overlap(beta, gamma)
    want = oracle_overlap(beta, gamma)
    assert abs(got - want) <= 1e-10


@given(
    amps=st.lists(complex_amp.filter(lambda z: abs(z) > 1e-3), min_size=1, max_size=12),
    labels=st.lists(lattice_label, min_size=2, max_size=6),
    phi=st.floats(min_value=-2 * math.pi, max_value=2 * math.pi),
)
@settings(max_examples=60, deadline=None)
def test_one_to_one_operations_skip_the_merge_exactly(amps, labels, phi):
    # Several labels share each occupation; the fast paths must return
    # exactly what build_state makes of the same mapped terms.
    s = random_state(amps, labels, 2)
    for out in (
        apply_phase_shift(s, "a", phi),
        apply_phase_shift(s, Mode("a", "H"), phi),
        apply_sigma_x(s, "a"),
        apply_xpm(s, "r0", (Mode("a", "H"), Mode("b", "H")), phi),
        coherent_phase(s, "r1", phi),
        coherent_bs50(s, "r0", "r1"),
    ):
        assert len(out.terms) == len(s.terms)
        assert build_state(out.registers, out.terms, out.born_weight) == out


def test_mode_rejects_unknown_polarization():
    with pytest.raises(InvalidInput):
        Mode("p", "D")


def test_mode_orders_hashes_and_prints_as_its_fields():
    modes = [Mode("b", "H"), Mode("a", "V"), Mode("b", "V"), Mode("a", "H")]
    pairs = [(m.path, m.pol) for m in modes]
    assert [(m.path, m.pol) for m in sorted(modes)] == sorted(pairs)
    twin = Mode("a", "V")
    assert twin == modes[1] and hash(twin) == hash(modes[1])
    assert repr(Mode("p", "H")) == "Mode(path='p', pol='H')"
    copied = pickle.loads(pickle.dumps(twin))
    assert copied == twin and type(copied) is Mode
    assert not hasattr(twin, "_replace")


def test_fock_term_fields_are_read_only():
    term = FockTerm.from_occupations({Mode("p", "H"): 1})
    with pytest.raises(AttributeError):
        term.amplitude = 2.0


def test_monomial_norm_counts_factorials():
    m = Mode("p", "H")
    s = build_state((), [FockTerm.from_occupations({m: 3})])
    assert norm_sq(s) == pytest.approx(math.factorial(3))


def test_canonicalize_merges_duplicates_and_prunes():
    m = Mode("p", "H")
    t1 = FockTerm.from_occupations({m: 1}, (), 0.5)
    t2 = FockTerm.from_occupations({m: 1}, (), 0.25)
    t3 = FockTerm.from_occupations({m: 2}, (), 1e-15)
    s = build_state((), [t1, t2, t3])
    assert len(s.terms) == 1
    assert s.terms[0].amplitude == pytest.approx(0.75)


def test_canonicalize_clusters_close_coherent_labels():
    m = Mode("p", "H")
    t1 = FockTerm.from_occupations({m: 1}, (1.0 + 0j,), 0.5)
    t2 = FockTerm.from_occupations({m: 1}, (1.0 + 1e-12j,), 0.5)
    t3 = FockTerm.from_occupations({m: 1}, (2.0 + 0j,), 0.5)
    s = build_state(("r",), [t1, t2, t3])
    assert len(s.terms) == 2


def test_qutrit_constructors_are_normalized():
    c = QutritCoefficients.normalize(1.0, 1.0 - 0.5j, 0.25j)
    assert norm_sq(make_biphotonic_qutrit(c, "q")) == pytest.approx(1.0)
    assert norm_sq(make_spatial_qutrit(c, ("a", "b", "c"))) == pytest.approx(1.0)


def test_biphotonic_qutrit_amplitudes():
    c = QutritCoefficients.normalize(0.6, 0.0, 0.8)
    s = make_biphotonic_qutrit(c, "q")
    assert amplitude_of(s, {Mode("q", "H"): 2}) == pytest.approx(0.6 / math.sqrt(2))
    assert amplitude_of(s, {Mode("q", "V"): 2}) == pytest.approx(0.8 / math.sqrt(2))
    assert amplitude_of(s, {Mode("q", "H"): 1, Mode("q", "V"): 1}) == 0


def test_coefficients_validate_norm():
    with pytest.raises(InvalidInput):
        QutritCoefficients(1.0, 1.0, 0.0)


@given(
    a=complex_amp.filter(lambda z: abs(z) > 1e-3),
    b=complex_amp,
    g=complex_amp,
    phase=st.floats(min_value=-math.pi, max_value=math.pi),
)
@settings(max_examples=40, deadline=None)
def test_fidelity_is_phase_invariant_and_one_on_self(a, b, g, phase):
    c = QutritCoefficients.normalize(a, b, g)
    s = make_biphotonic_qutrit(c, "q")
    assert fidelity(s, s) == pytest.approx(1.0)
    from qutritmap.fock import scaled

    rotated = scaled(s, cmath.exp(1j * phase))
    assert fidelity(rotated, s) == pytest.approx(1.0)


def test_fidelity_orthogonal_levels():
    c0 = QutritCoefficients(1.0, 0.0, 0.0)
    c2 = QutritCoefficients(0.0, 0.0, 1.0)
    assert fidelity(make_biphotonic_qutrit(c0, "q"), make_biphotonic_qutrit(c2, "q")) == 0.0


def test_traced_fidelity_product_state_ignores_register():
    # A register in a product with the photons must not change fidelity.
    c = QutritCoefficients.normalize(1.0, 1.0j, -0.5)
    target = make_biphotonic_qutrit(c, "q")
    terms = [
        FockTerm.from_occupations(t.occupations(), (1.3 - 0.2j,), t.amplitude)
        for t in target.terms
    ]
    s = build_state(("bus",), terms)
    assert traced_fidelity(s, target) == pytest.approx(1.0)


@given(
    amps=st.lists(complex_amp.filter(lambda z: abs(z) > 1e-3), min_size=2, max_size=4),
    labels=st.lists(small_label, min_size=4, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_traced_fidelity_matches_density_matrix_oracle(amps, labels):
    s = random_state(amps, labels, 1)
    target = build_state((), [FockTerm(t.occ, (), t.amplitude) for t in s.terms])
    got = traced_fidelity(s, target)
    want = oracle_traced_fidelity(s, target)
    assert got == pytest.approx(want, abs=1e-9)


def test_traced_fidelity_requires_register_free_target():
    s = single_photon("a")
    t = build_state(("r",), [FockTerm.from_occupations({Mode("a", "H"): 1}, (0j,))])
    with pytest.raises(InvalidInput):
        traced_fidelity(s, t)


def test_tensor_multiplies_norms_and_checks_paths():
    s1 = ancilla_plus("a")
    s2 = single_photon("b", "V")
    both = tensor(s1, s2)
    assert norm_sq(both) == pytest.approx(1.0)
    with pytest.raises(WiringError):
        tensor(s1, single_photon("a"))


def test_photon_cap_enforced():
    c = QutritCoefficients(1.0, 0.0, 0.0)
    q1 = make_biphotonic_qutrit(c, "x")
    q2 = make_biphotonic_qutrit(c, "y")
    four = tensor(q1, q2)  # exactly at the cap
    assert norm_sq(four) == pytest.approx(1.0)
    with pytest.raises(PhotonCapExceeded):
        tensor(four, single_photon("z"))


def test_relabel_paths_moves_modes_and_rejects_collisions():
    s = make_spatial_qutrit(QutritCoefficients.normalize(1, 1, 1), ("a", "b", "c"))
    moved = relabel_paths(s, {"a": "x"})
    assert amplitude_of(moved, {Mode("x", "H"): 1}) != 0
    assert amplitude_of(moved, {Mode("a", "H"): 1}) == 0
    with pytest.raises(WiringError):
        relabel_paths(s, {"a": "b"})


def test_normalized_restores_unit_norm():
    s = scaled_state = make_biphotonic_qutrit(QutritCoefficients(0, 1, 0), "q")
    from qutritmap.fock import scaled

    shrunk = scaled(scaled_state, 0.3)
    assert norm_sq(normalized(shrunk)) == pytest.approx(1.0)
    assert norm_sq(shrunk) == pytest.approx(0.09)
    with pytest.raises(InvalidInput):
        normalized(scaled(s, 0.0))


def test_vacuum_state_norm():
    assert norm_sq(vacuum_state()) == pytest.approx(1.0)


def test_inner_product_register_mismatch():
    s1 = single_photon("a")
    s2 = build_state(("r",), [FockTerm.from_occupations({Mode("a", "H"): 1}, (0j,))])
    with pytest.raises(InvalidInput):
        inner_product(s1, s2)


def test_norm_is_computed_once_per_state(monkeypatch):
    s = random_state([0.5 + 0.25j, -0.75j, 0.5, 0.25], [0.25, -0.5j, 1.0], 2)
    want = inner_product(s, s).real
    calls = []
    evaluate = fock.Shape.norm_sq

    def counted(shape, terms):
        calls.append(terms)
        return evaluate(shape, terms)

    monkeypatch.setattr(fock.Shape, "norm_sq", counted)
    assert norm_sq(s) == want
    assert norm_sq(s) == want
    assert calls == [s.terms]


def test_cached_norm_leaves_value_semantics_alone():
    def make():
        return random_state([0.5 + 0.25j, -0.75j, 0.5], [0.25, -0.5j], 1)

    s, twin = make(), make()
    n2 = norm_sq(s)  # cached on s only
    assert s == twin and hash(s) == hash(twin) and repr(s) == repr(twin)
    reweighted = dataclasses.replace(s, born_weight=0.25)
    assert reweighted.born_weight == 0.25 and reweighted.terms == s.terms
    assert norm_sq(reweighted) == n2
    doubled = dataclasses.replace(s, terms=fock.scaled(s, 2.0).terms)
    assert norm_sq(doubled) == inner_product(doubled, doubled).real != n2
    for obj in (s, twin):
        copied = pickle.loads(pickle.dumps(obj))
        assert copied == obj and hash(copied) == hash(obj) and norm_sq(copied) == n2
