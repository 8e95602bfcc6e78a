"""Element checks against repeated-multiplication polynomial oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritmap.elements import (
    BeamSplitterSpec,
    BsConvention,
    WiringError,
    apply_beam_splitter,
    apply_lomi,
    apply_path_unitary,
    apply_phase_shift,
    apply_qft,
    apply_sigma_x,
    assert_unitary,
    ReckDecomposition,
    _block,
    reck_decompose,
    route_pbs,
    substitute_modes,
)
from qutritmap.fock import (
    FockTerm,
    InvalidInput,
    Mode,
    QutritCoefficients,
    amplitude_of,
    ancilla_plus,
    build_state,
    fidelity,
    inner_product,
    make_biphotonic_qutrit,
    norm_sq,
    single_photon,
    tensor,
)
from qutritmap.sampling import haar_unitary, random_qutrit


def monomial_signature(term):
    flat = []
    for m, n in term.occ:
        flat.extend([m] * n)
    return tuple(sorted(flat))


def oracle_substitute(state, mapping):
    """Expand powers by repeated multiplication of linear forms.

    No multinomial coefficients anywhere, so this route is independent of
    the combinatorial expansion in the implementation.
    """
    out = {}
    for term in state.terms:
        poly = {(): term.amplitude}
        for mode, n in term.occ:
            lin = mapping.get(mode, [(mode, 1.0)])
            for _ in range(n):
                nxt = {}
                for mono, amp in poly.items():
                    for m2, c in lin:
                        key = tuple(sorted(mono + (m2,)))
                        nxt[key] = nxt.get(key, 0j) + amp * c
                poly = nxt
        for mono, amp in poly.items():
            key = (mono, term.coherent)
            out[key] = out.get(key, 0j) + amp
    return {k: v for k, v in out.items() if abs(v) > 1e-12}


def states_close(a, b, tol=1e-10):
    # same register labels assumed; compares full term lists
    da = {(monomial_signature(t), t.coherent): t.amplitude for t in a.terms}
    db = {(monomial_signature(t), t.coherent): t.amplitude for t in b.terms}
    keys = set(da) | set(db)
    return all(abs(da.get(k, 0j) - db.get(k, 0j)) <= tol for k in keys)


@given(
    amps=st.lists(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=3,
    ),
    t=st.floats(min_value=0.0, max_value=1.0),
    conv=st.sampled_from(list(BsConvention)),
)
@settings(max_examples=60, deadline=None)
def test_beam_splitter_matches_polynomial_oracle(amps, t, conv):
    occs = [
        {Mode("a", "H"): 2},
        {Mode("a", "H"): 1, Mode("b", "V"): 1},
        {Mode("b", "H"): 1, Mode("a", "V"): 2},
    ]
    terms = [
        FockTerm.from_occupations(occs[i % 3], (), amp) for i, amp in enumerate(amps)
    ]
    s = build_state((), terms)
    spec = BeamSplitterSpec.from_t(t, conv)
    got = apply_beam_splitter(s, "a", "b", "c", "d", spec)
    m = spec.matrix()
    mapping = {}
    for pol in ("H", "V"):
        mapping[Mode("a", pol)] = [(Mode("c", pol), m[0][0]), (Mode("d", pol), m[1][0])]
        mapping[Mode("b", pol)] = [(Mode("c", pol), m[0][1]), (Mode("d", pol), m[1][1])]
    want = oracle_substitute(s, mapping)
    have = {(monomial_signature(t_), t_.coherent): t_.amplitude for t_ in got.terms}
    assert set(have) == set(want)
    for k, v in want.items():
        assert abs(have[k] - v) < 1e-10


def test_hong_ou_mandel_kills_coincidences():
    s = tensor(single_photon("a"), single_photon("b"))
    out = apply_beam_splitter(s, "a", "b", "c", "d", BeamSplitterSpec.fifty_fifty())
    assert amplitude_of(out, {Mode("c", "H"): 1, Mode("d", "H"): 1}) == 0
    assert abs(amplitude_of(out, {Mode("c", "H"): 2})) == pytest.approx(0.5)
    assert abs(amplitude_of(out, {Mode("d", "H"): 2})) == pytest.approx(0.5)
    assert norm_sq(out) == pytest.approx(1.0)


def test_conventions_differ_on_second_input():
    s = single_photon("b")
    sym = apply_beam_splitter(s, "a", "b", "c", "d", BeamSplitterSpec.fifty_fifty())
    rot = apply_beam_splitter(
        s, "a", "b", "c", "d", BeamSplitterSpec.fifty_fifty(BsConvention.ROTATION)
    )
    r = 1 / math.sqrt(2)
    assert amplitude_of(sym, {Mode("d", "H"): 1}) == pytest.approx(-r)
    assert amplitude_of(rot, {Mode("d", "H"): 1}) == pytest.approx(r)
    assert amplitude_of(sym, {Mode("c", "H"): 1}) == pytest.approx(r)
    assert amplitude_of(rot, {Mode("c", "H"): 1}) == pytest.approx(r)


def test_beam_splitter_norm_preserved_and_vacuum_port():
    q = make_biphotonic_qutrit(QutritCoefficients.normalize(1, 1j, -1), "a")
    out = apply_beam_splitter(q, "a", None, "c", "d", BeamSplitterSpec.from_t(0.3))
    assert norm_sq(out) == pytest.approx(1.0)


def test_wiring_checks():
    s = tensor(single_photon("a"), single_photon("x"))
    with pytest.raises(WiringError):
        apply_beam_splitter(s, "a", "a", "c", "d", BeamSplitterSpec.fifty_fifty())
    with pytest.raises(WiringError):
        apply_beam_splitter(s, "a", None, "c", "c", BeamSplitterSpec.fifty_fifty())
    with pytest.raises(WiringError):
        # output collides with an uninvolved occupied path
        apply_beam_splitter(s, "a", None, "x", "d", BeamSplitterSpec.fifty_fifty())
    for paths in (("a", "x", "a"), ()):
        with pytest.raises(WiringError):
            apply_qft(s, paths)
    for paths in (("a", "x", "a"), ("a", "x")):
        with pytest.raises(WiringError):
            apply_path_unitary(s, np.eye(3), paths)


def test_phase_shift_counts_photons_and_wraps():
    s = build_state((), [FockTerm.from_occupations({Mode("a", "H"): 2})])
    out = apply_phase_shift(s, "a", 8 * math.pi / 3)
    want = cmath.exp(2j * (2 * math.pi / 3 + 2 * math.pi))
    assert out.terms[0].amplitude == pytest.approx(want)
    only_v = apply_phase_shift(s, Mode("a", "V"), 1.0)
    assert only_v.terms[0].amplitude == pytest.approx(1.0)


def test_sigma_x_swaps_and_is_involutive():
    q = make_biphotonic_qutrit(QutritCoefficients.normalize(0.2, 0.5j, -1.0), "a")
    flipped = apply_sigma_x(q, "a")
    assert amplitude_of(flipped, {Mode("a", "H"): 2}) == pytest.approx(
        amplitude_of(q, {Mode("a", "V"): 2})
    )
    assert states_close(apply_sigma_x(flipped, "a"), q)


def test_pbs_hv_routing():
    s = tensor(ancilla_plus("a"), single_photon("b", "V"))
    out = route_pbs(s, ("a", "b"), ("u", "v"))
    r = 1 / math.sqrt(2)
    # H from a stays in u, V from a drops to v, V from b crosses to u
    assert amplitude_of(out, {Mode("u", "H"): 1, Mode("u", "V"): 1}) == pytest.approx(r)
    assert amplitude_of(out, {Mode("v", "V"): 1, Mode("u", "V"): 1}) == pytest.approx(r)
    assert norm_sq(out) == pytest.approx(1.0)


def test_pbs_diag_transmits_plus_state():
    out = route_pbs(ancilla_plus("a"), ("a", None), ("u", "v"), basis="diag")
    assert amplitude_of(out, {Mode("v", "H"): 1}) == 0
    assert amplitude_of(out, {Mode("v", "V"): 1}) == 0
    r = 1 / math.sqrt(2)
    assert amplitude_of(out, {Mode("u", "H"): 1}) == pytest.approx(r)
    assert amplitude_of(out, {Mode("u", "V"): 1}) == pytest.approx(r)


def test_pbs_diag_reflects_minus_state():
    minus = build_state(
        (),
        [
            FockTerm.from_occupations({Mode("a", "H"): 1}, (), 1 / math.sqrt(2)),
            FockTerm.from_occupations({Mode("a", "V"): 1}, (), -1 / math.sqrt(2)),
        ],
    )
    out = route_pbs(minus, ("a", None), ("u", "v"), basis="diag")
    assert amplitude_of(out, {Mode("u", "H"): 1}) == 0
    assert amplitude_of(out, {Mode("u", "V"): 1}) == 0
    assert norm_sq(out) == pytest.approx(1.0)


def test_qft_dim2_equals_symmetric_fifty_fifty():
    for pol in ("H", "V"):
        for start in ("a", "b"):
            s = single_photon(start, pol)
            via_qft = apply_qft(s, ("a", "b"))
            via_bs = apply_beam_splitter(
                s, "a", "b", "a", "b", BeamSplitterSpec.fifty_fifty()
            )
            assert states_close(via_qft, via_bs)


def test_qft_dim3_matrix_and_unitarity():
    w = cmath.exp(2j * math.pi / 3)
    for j, start in enumerate(("p0", "p1", "p2")):
        out = apply_qft(single_photon(start), ("p0", "p1", "p2"))
        for k, path in enumerate(("p0", "p1", "p2")):
            got = amplitude_of(out, {Mode(path, "H"): 1})
            assert got == pytest.approx(w ** (j * k) / math.sqrt(3))
        assert norm_sq(out) == pytest.approx(1.0)


def test_qft_preserves_overlaps():
    rng = np.random.default_rng(7)
    for _ in range(5):
        c1 = random_qutrit(rng)
        c2 = random_qutrit(rng)
        from qutritmap.fock import make_spatial_qutrit

        s1 = make_spatial_qutrit(c1, ("p0", "p1", "p2"))
        s2 = make_spatial_qutrit(c2, ("p0", "p1", "p2"))
        before = inner_product(s1, s2)
        after = inner_product(
            apply_qft(s1, ("p0", "p1", "p2")), apply_qft(s2, ("p0", "p1", "p2"))
        )
        assert abs(before - after) < 1e-12


def reck_recompose(decomp: ReckDecomposition) -> np.ndarray:
    """The unitary of a decomposition: its phase screen times its blocks, T_K first."""
    n = decomp.dim
    m = np.diag(np.exp(1j * np.array(decomp.phases)))
    for p, q, theta, phi in decomp.rotations:
        m = m @ _block(n, p, q, theta, phi)
    return m


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_reck_recomposes_haar_unitaries(dim):
    rng = np.random.default_rng(42 + dim)
    rounds = 100 if dim == 3 else 20
    for _ in range(rounds):
        u = haar_unitary(rng, dim)
        d = reck_decompose(u)
        assert np.max(np.abs(reck_recompose(d) - u)) < 1e-10


def test_reck_identity_has_no_rotations():
    d = reck_decompose(np.eye(3))
    assert d.rotations == ()
    assert np.allclose(d.phases, 0.0)


@pytest.mark.parametrize("dim", [2, 3])
def test_lomi_elements_match_direct_substitution(dim):
    rng = np.random.default_rng(5 + dim)
    paths = tuple(f"p{i}" for i in range(dim))
    for _ in range(10):
        u = haar_unitary(rng, dim)
        c = random_qutrit(rng)
        if dim == 3:
            from qutritmap.fock import make_spatial_qutrit

            s = make_spatial_qutrit(c, paths)
        else:
            s = ancilla_plus("p0")
        via_elements = apply_lomi(s, reck_decompose(u), paths)
        direct = apply_path_unitary(s, u, paths)
        assert states_close(via_elements, direct)
        assert fidelity(via_elements, direct) == pytest.approx(1.0)


def test_lomi_runs_both_polarizations():
    rng = np.random.default_rng(11)
    u = haar_unitary(rng, 2)
    s = tensor(ancilla_plus("p0"), single_photon("p1", "V"))
    via_elements = apply_lomi(s, reck_decompose(u), ("p0", "p1"))
    direct = apply_path_unitary(s, u, ("p0", "p1"))
    assert states_close(via_elements, direct)


def test_path_unitary_rejects_non_unitary():
    from qutritmap.fock import InvalidInput

    with pytest.raises(InvalidInput):
        apply_path_unitary(single_photon("a"), np.array([[1.0, 1.0], [0.0, 1.0]]), ("a", "b"))


def test_substitute_modes_accumulates_on_shared_target():
    # two different inputs feeding one output slot must stack photons
    s = build_state(
        (),
        [FockTerm.from_occupations({Mode("a", "H"): 1, Mode("b", "H"): 1})],
    )
    out = substitute_modes(
        s,
        {
            Mode("a", "H"): [(Mode("c", "H"), 1.0)],
            Mode("b", "H"): [(Mode("c", "H"), 1.0)],
        },
    )
    assert amplitude_of(out, {Mode("c", "H"): 2}) == pytest.approx(1.0)
    assert norm_sq(out) == pytest.approx(2.0)  # bunching factor 2!


def test_non_finite_matrices_are_refused_by_entry():
    # a NaN entry makes every norm test false, so it would pass as unitary
    for bad in (math.nan, math.inf, complex(0, math.nan)):
        u = np.eye(3, dtype=complex)
        u[1, 2] = bad
        for check in (assert_unitary, reck_decompose):
            with pytest.raises(InvalidInput, match=r"matrix entry \(1, 2\) = .* is not finite"):
                check(u)
