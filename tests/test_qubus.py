"""Probe-register behaviour: phase kicks, beam mixing and readout."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritmap.fock import (
    FockTerm,
    InvalidInput,
    Mode,
    UnsupportedMode,
    WiringError,
    build_state,
    norm_sq,
    single_photon,
)
from qutritmap.qubus import (
    add_register,
    apply_xpm,
    coherent_bs50,
    coherent_phase,
    drop_register,
    project_photon_number,
    project_quadrature_x,
)


def labelled_state(pairs, registers=("p",)):
    """pairs: list of (path, amplitude, labels tuple)."""
    terms = [
        FockTerm.from_occupations({Mode(path, "H"): 1}, labels, amp)
        for path, amp, labels in pairs
    ]
    return build_state(registers, terms)


def test_add_register_and_duplicate():
    s = add_register(single_photon("a"), "p", 2.0)
    assert s.registers == ("p",)
    assert s.terms[0].coherent == (2.0 + 0j,)
    with pytest.raises(WiringError):
        add_register(s, "p", 1.0)


def test_xpm_counts_photons():
    s = add_register(
        build_state((), [FockTerm.from_occupations({Mode("a", "H"): 2})]), "p", 1.5
    )
    out = apply_xpm(s, "p", (Mode("a", "H"),), 0.25)
    assert out.terms[0].coherent[0] == pytest.approx(1.5 * cmath.exp(0.5j))
    untouched = apply_xpm(s, "p", (Mode("b", "H"),), 0.25)
    assert untouched.terms[0].coherent[0] == pytest.approx(1.5)


def test_xpm_inverse_restores_label():
    s = add_register(single_photon("a"), "p", 1.0 - 0.5j)
    kicked = apply_xpm(s, "p", (Mode("a", "H"),), 0.7)
    back = apply_xpm(kicked, "p", (Mode("a", "H"),), -0.7)
    assert back.terms[0].coherent[0] == pytest.approx(1.0 - 0.5j)


def test_coherent_phase_rotates_label():
    s = add_register(single_photon("a"), "p", 2.0)
    out = coherent_phase(s, "p", math.pi / 2)
    assert out.terms[0].coherent[0] == pytest.approx(2.0j)


def test_coherent_bs50_balanced_input_cancels_first_port():
    s = add_register(add_register(single_photon("a"), "p1", 3.0), "p2", 3.0)
    out = coherent_bs50(s, "p1", "p2")
    assert out.terms[0].coherent[0] == pytest.approx(0.0)
    assert out.terms[0].coherent[1] == pytest.approx(3.0 * math.sqrt(2))


def test_coherent_bs50_conjugate_phases_give_sine_signal():
    alpha, theta = 2.0, 0.3
    s = add_register(add_register(single_photon("a"), "p1", alpha), "p2", alpha)
    s = coherent_phase(s, "p1", theta)
    s = coherent_phase(s, "p2", -theta)
    out = coherent_bs50(s, "p1", "p2")
    assert out.terms[0].coherent[0] == pytest.approx(1j * math.sqrt(2) * alpha * math.sin(theta))
    assert out.terms[0].coherent[1] == pytest.approx(math.sqrt(2) * alpha * math.cos(theta))


def test_measure_physical_leakage_is_vacuum_overlap():
    mu = 2 * math.sqrt(2)
    s = add_register(single_photon("a"), "p", mu)
    dist = project_photon_number(s, "p", mode="physical")
    assert dist.get("0").probability == pytest.approx(math.exp(-8.0))


def test_measure_physical_is_complete_at_moderate_amplitude():
    s = add_register(single_photon("a"), "p", 2.0)
    dist = project_photon_number(s, "p", mode="physical")
    assert dist.labels() == ("0", "odd", "even")
    assert dist.total_probability == pytest.approx(1.0, abs=1e-12)
    # Poisson statistics with mean 4, summed over each class
    assert dist.get("0").probability == pytest.approx(math.exp(-4.0), rel=1e-12)
    assert dist.get("odd").probability == pytest.approx(math.sinh(4.0) * math.exp(-4.0), rel=1e-12)
    assert dist.get("even").probability == pytest.approx(
        (math.cosh(4.0) - 1.0) * math.exp(-4.0), rel=1e-12
    )


def test_measure_ideal_separates_flagged_and_quiet_terms():
    r = 1 / math.sqrt(2)
    s = labelled_state([("a", r, (0.0,)), ("b", r, (2.0,))])
    dist = project_photon_number(s, "p", mode="ideal")
    zero = dist.get("0")
    assert zero.probability == pytest.approx(0.5)
    assert zero.state.terms[0].occ == ((Mode("a", "H"), 1),)
    assert zero.state.registers == ()
    flagged = [o for o in dist.outcomes if o.label != "0"]
    assert [o.label for o in flagged] == ["odd", "even"]
    assert sum(o.probability for o in flagged) == pytest.approx(0.5, abs=1e-12)
    for o in flagged:
        assert o.state.terms[0].occ == ((Mode("b", "H"), 1),)
    assert dist.total_probability == pytest.approx(1.0, abs=1e-12)


def test_measure_ideal_zero_branch_has_no_vacuum_contamination():
    # unlike the physical detector, ideal n=0 excludes displaced registers
    s = labelled_state([("a", 0.6, (0.0,)), ("b", 0.8, (0.5,))])
    dist = project_photon_number(s, "p", mode="ideal")
    zero = dist.get("0")
    assert zero.probability == pytest.approx(0.36)
    assert len(zero.state.terms) == 1


def test_measure_number_interferes_indistinguishable_labels():
    # labels +beta and -beta: photon-number parity modulates the branch
    # state, each class keeping one relative sign
    beta = 2.0 * cmath.exp(0.4j)
    r = 1 / math.sqrt(2)
    s = labelled_state([("a", r, (beta,)), ("b", r, (-beta,))])
    dist = project_photon_number(s, "p", mode="physical")
    for label, sign in (("odd", -1.0), ("even", 1.0)):
        st_c = dist.get(label).state
        amp_a = st_c.terms[0].amplitude
        amp_b = st_c.terms[1].amplitude
        assert amp_b / amp_a == pytest.approx(sign, abs=1e-12)
    # both labels have one vacuum overlap, so "0" keeps the even sign too
    zero = dist.get("0").state
    assert zero.terms[1].amplitude / zero.terms[0].amplitude == pytest.approx(1.0)


def test_born_weight_tracks_cascaded_measurements():
    s = labelled_state([("a", 0.6, (0.0,)), ("b", 0.8, (3.0,))])
    zero = project_photon_number(s, "p", mode="ideal").get("0")
    assert zero.state.born_weight == pytest.approx(0.36)


@given(st.floats(min_value=0.1, max_value=2.0))
@settings(max_examples=20, deadline=None)
def test_measure_physical_completeness_below_cap(mu):
    s = add_register(single_photon("a"), "p", mu)
    dist = project_photon_number(s, "p", mode="physical")
    assert dist.total_probability >= 0.999


def test_project_quadrature_groups_by_real_part():
    theta = 0.5
    s = labelled_state(
        [
            ("a", 0.5, (2.0 + 0j,)),
            ("b", 0.5, (2.0 * cmath.exp(1j * theta),)),
            ("c", 0.5, (2.0 * cmath.exp(2j * theta),)),
            ("d", 0.5, (2.0 * cmath.exp(-1j * theta),)),
        ]
    )
    dist = project_quadrature_x(s, "p")
    assert len(dist.outcomes) == 3  # cos(theta) group holds paths b and d
    mid = dist.closest(2.0 * math.cos(theta))
    assert mid.probability == pytest.approx(0.5)
    assert len(mid.state.terms) == 2
    assert mid.state.registers == ()
    top = dist.closest(2.0)
    assert top.probability == pytest.approx(0.25)
    assert dist.total_probability == pytest.approx(1.0)


def test_project_quadrature_keeps_relative_amplitudes():
    s = labelled_state([("a", 0.6, (1.5 + 0.2j,)), ("b", 0.8j, (1.5 - 0.2j,))])
    dist = project_quadrature_x(s, "p")
    only = dist.outcomes[0]
    amps = sorted(
        (t.occ[0][0].path, t.amplitude) for t in only.state.terms
    )
    assert amps[0][1] / amps[1][1] == pytest.approx(0.6 / 0.8j)


def test_project_quadrature_physical_unsupported():
    s = add_register(single_photon("a"), "p", 1.0)
    with pytest.raises(UnsupportedMode):
        project_quadrature_x(s, "p", mode="physical")


def test_drop_register_requires_product_state():
    s = labelled_state([("a", 0.6, (1.0,)), ("b", 0.8, (1.0,))])
    out = drop_register(s, "p")
    assert out.registers == ()
    assert norm_sq(out) == pytest.approx(1.0)
    bad = labelled_state([("a", 0.6, (1.0,)), ("b", 0.8, (2.0,))])
    with pytest.raises(WiringError):
        drop_register(bad, "p")


def test_missing_register_raises():
    s = single_photon("a")
    with pytest.raises(InvalidInput):
        project_photon_number(s, "nope")
