"""End-to-end checks of the five conversion circuits.

Closed-form probabilities and intermediate amplitudes are recomputed here
from first principles (route bookkeeping by hand) and compared against the
wired circuits, including off-working-point settings where the output
fidelity must drop in a predictable way.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritmap.fock import (
    H,
    InvalidInput,
    Mode,
    QutritCoefficients,
    UnsupportedMode,
    V,
    amplitude_of,
    ancilla_plus,
    fidelity,
    make_biphotonic_qutrit,
    make_spatial_qutrit,
    tensor,
)
from qutritmap.elements import apply_sigma_x
from qutritmap.qubus import (
    add_register,
    apply_xpm,
    coherent_bs50,
    coherent_phase,
    project_photon_number,
)
from qutritmap import elements, schemes
from qutritmap.sampling import haar_unitary, random_qutrit
from qutritmap.schemes import (
    P_KERR_FORWARD,
    P_KERR_INVERSE,
    P_LINEAR_FORWARD,
    P_LINEAR_INVERSE,
    R1_SQ_LINEAR_INVERSE,
    T1_SQ_LINEAR_INVERSE,
    T2_LINEAR_FORWARD,
    T3_SQ_LINEAR_INVERSE,
    T_KERR_FORWARD,
    _linear_forward_premeasure,
    _linear_inverse_premeasure,
    _kerr_forward_routed,
    default_linear_inverse_params,
    entangler_branches,
    scheme_entangler,
    scheme_kerr_forward,
    scheme_kerr_inverse,
    scheme_linear_forward,
    scheme_linear_inverse,
    u3_biphotonic,
)

COEFFS = QutritCoefficients.normalize(0.5, 0.5 + 0.5j, -0.5)

coeff_floats = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def random_coeffs(seed):
    return random_qutrit(np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# working-point constants


def test_forward_working_point_balances_both_routes():
    # doubly-occupied route weight t^2/(4 sqrt 2) equals single-route r^2/2
    assert abs(T2_LINEAR_FORWARD / (4 * math.sqrt(2)) - (1 - T2_LINEAR_FORWARD) / 2) < 1e-15
    assert abs(P_LINEAR_FORWARD - (T2_LINEAR_FORWARD / (4 * math.sqrt(2))) ** 2) < 1e-15


def test_inverse_working_point_closes_the_quadratic():
    u = T1_SQ_LINEAR_INVERSE
    assert abs(u * u + 3 * u - 2) < 1e-14
    assert abs(T3_SQ_LINEAR_INVERSE - R1_SQ_LINEAR_INVERSE / 2) < 1e-15
    assert abs(P_LINEAR_INVERSE - R1_SQ_LINEAR_INVERSE / 64) < 1e-16
    # the recombination splitter ends up with r2^2 = r1^2 / 2 as well
    p = default_linear_inverse_params()
    r2_sq = 1 - p["t2"] ** 2
    assert abs(r2_sq - R1_SQ_LINEAR_INVERSE / 2) < 1e-14


def test_kerr_working_point_halves_the_reflected_route():
    t = T_KERR_FORWARD
    r = math.sqrt(1 - t * t)
    assert abs(t * t - 1 / 3) < 1e-15
    assert abs(r / 2 - t / math.sqrt(2)) < 1e-15
    assert abs(P_KERR_FORWARD - (r / 2) ** 2) < 1e-15


# ---------------------------------------------------------------------------
# linear forward map


def test_forward_premeasure_amplitudes():
    t = math.sqrt(T2_LINEAR_FORWARD)
    a, b, g = COEFFS.as_tuple()
    tt, rr = t * t, 1 - t * t
    pre = _linear_forward_premeasure(make_biphotonic_qutrit(COEFFS, "in"), t)
    herald = {Mode("D1", H): 1, Mode("D2", V): 1}
    cases = [
        ({Mode("6", H): 1, Mode("P2", V): 1}, -a * tt / (4 * math.sqrt(2))),
        ({Mode("3", H): 1, Mode("P1", V): 1}, b * rr / 2),
        ({Mode("7", H): 1, Mode("P3", V): 1}, -g * tt / (4 * math.sqrt(2))),
    ]
    for occ, expected in cases:
        got = amplitude_of(pre, {**occ, **herald})
        assert cmath.isclose(got, expected, abs_tol=1e-12)


def test_forward_probability_and_fidelity_at_working_point():
    r = scheme_linear_forward(COEFFS)
    assert abs(r.success_probability - P_LINEAR_FORWARD) < 1e-12
    assert r.output_fidelity > 1 - 1e-10
    assert abs(r.checks["output_born_weight"] - r.success_probability) < 1e-12
    assert r.checks["eraser_min_branch_fidelity"] > 1 - 1e-10


def test_forward_eraser_outcomes_equally_likely():
    r = scheme_linear_forward(COEFFS)
    p_eraser = r.branch_log[1].probability
    for label in ("D3", "D4", "D5"):
        assert abs(r.checks[f"eraser_{label}_probability"] - p_eraser / 3) < 1e-12


def test_forward_many_random_inputs():
    for seed in range(50):
        r = scheme_linear_forward(random_coeffs(seed))
        assert abs(r.success_probability - P_LINEAR_FORWARD) < 1e-12
        assert r.output_fidelity > 1 - 1e-10


def test_forward_off_working_point_matches_route_weights():
    # with t != t*, component i picks up weight k_i; fidelity and success
    # probability then follow from the mismatched coefficient vector
    t = 0.6
    a, b, g = COEFFS.as_tuple()
    k1 = t * t / (4 * math.sqrt(2))
    k2 = (1 - t * t) / 2
    weights = np.array([k1, k2, k1])
    comps = np.abs(np.array([a, b, g])) ** 2
    expected_p = float(comps @ weights**2)
    expected_f = float((comps @ weights) ** 2 / (comps @ weights**2))
    r = scheme_linear_forward(COEFFS, t=t)
    assert abs(r.success_probability - expected_p) < 1e-12
    assert abs(r.output_fidelity - expected_f) < 1e-12
    assert r.output_fidelity < 1 - 1e-3


@settings(max_examples=20, deadline=None)
@given(st.tuples(*[coeff_floats] * 6))
def test_forward_fidelity_one_for_any_input(raw):
    re = np.array(raw[:3])
    im = np.array(raw[3:])
    n = np.linalg.norm(re + 1j * im)
    if n < 0.1:
        return
    c = QutritCoefficients.normalize(*(re + 1j * im))
    r = scheme_linear_forward(c)
    assert r.output_fidelity > 1 - 1e-10


# ---------------------------------------------------------------------------
# linear inverse map


def test_inverse_premeasure_amplitudes():
    p = default_linear_inverse_params()
    t1, t2, t3 = p["t1"], p["t2"], p["t3"]
    r1 = math.sqrt(1 - t1 * t1)
    r2 = math.sqrt(1 - t2 * t2)
    a, b, g = COEFFS.as_tuple()
    state = make_spatial_qutrit(COEFFS, ("s0", "s1", "s2"))
    pre = _linear_inverse_premeasure(state, ("s0", "s1", "s2"), t1, t2, t3)
    d1 = {Mode("eD1", V): 1}
    cases = [
        ({Mode("4", H): 2}, -(a * r2 - b * t1 * t2) / 4),
        ({Mode("7", H): 1, Mode("7", V): 1}, -b * r1 / 4),
        ({Mode("4", H): 1, Mode("7", H): 1}, -b * r1 / 4),
        ({Mode("7", V): 2}, -g * t3 / 4),
    ]
    for occ, expected in cases:
        got = amplitude_of(pre, {**occ, **d1})
        assert cmath.isclose(got, expected, abs_tol=1e-12)


def test_inverse_probability_and_fidelity_at_working_point():
    r = scheme_linear_inverse(COEFFS)
    assert abs(r.success_probability - P_LINEAR_INVERSE) < 1e-12
    assert r.output_fidelity > 1 - 1e-10
    assert abs(r.checks["output_born_weight"] - r.success_probability) < 1e-12


def test_inverse_discarded_outcome_is_recorded():
    # the second eraser port fires equally often but carries sign flips the
    # passive network cannot undo, so its fidelity is quoted, not merged
    r = scheme_linear_inverse(COEFFS)
    assert abs(r.checks["discarded_d2_probability"] - r.success_probability) < 1e-12
    assert r.checks["discarded_d2_fidelity"] < 1 - 1e-3


def test_inverse_many_random_inputs():
    for seed in range(50):
        r = scheme_linear_inverse(random_coeffs(seed))
        assert abs(r.success_probability - P_LINEAR_INVERSE) < 1e-12
        assert r.output_fidelity > 1 - 1e-10


def _inverse_expectations(c, t1, t2, t3):
    """Output overlap and success probability from the route amplitudes."""
    a, b, g = c.as_tuple()
    r1 = math.sqrt(1 - t1 * t1)
    r2 = math.sqrt(1 - t2 * t2)
    big_a = a * r2 - b * t1 * t2
    x = (big_a + b * r1) / math.sqrt(2)
    y = b * r1 / 2
    z = g * t3 / math.sqrt(2)
    norm = abs(x) ** 2 + abs(y) ** 2 + abs(z) ** 2
    overlap = abs(np.conj(a) * x + np.conj(b) * y + np.conj(g) * z) ** 2
    return overlap / norm, norm / 16


@pytest.mark.parametrize("t1,t2,t3", [(0.8, 0.6, 0.5), (0.6, 0.9, 0.7), (0.75, 0.7, 0.65)])
def test_inverse_off_working_point_matches_route_weights(t1, t2, t3):
    expected_f, expected_p = _inverse_expectations(COEFFS, t1, t2, t3)
    r = scheme_linear_inverse(COEFFS, t1=t1, t2=t2, t3=t3)
    assert abs(r.success_probability - expected_p) < 1e-12
    assert abs(r.output_fidelity - expected_f) < 1e-12


def test_inverse_working_point_maximizes_fidelity_to_one():
    p = default_linear_inverse_params()
    expected_f, expected_p = _inverse_expectations(COEFFS, p["t1"], p["t2"], p["t3"])
    assert abs(expected_f - 1) < 1e-12
    assert abs(expected_p - P_LINEAR_INVERSE) < 1e-12


# ---------------------------------------------------------------------------
# Kerr forward map


def test_kerr_routed_amplitudes():
    t = T_KERR_FORWARD
    r = math.sqrt(1 - t * t)
    a, b, g = COEFFS.as_tuple()
    s = _kerr_forward_routed(make_biphotonic_qutrit(COEFFS, "in"), t)
    cases = [
        ({Mode("1", H): 1, Mode("5", H): 1}, a * r / math.sqrt(2)),
        ({Mode("1", H): 1, Mode("6", V): 1}, b * r / 2),
        ({Mode("1l", V): 1, Mode("7", V): 1}, g * t / math.sqrt(2)),
        ({Mode("1", H): 1, Mode("1l", V): 1}, b / 2),
        ({Mode("4h", H): 2}, a * t * t / (2 * math.sqrt(2))),
        ({Mode("1", H): 1, Mode("7", V): 1}, b * t / 2),
        ({Mode("1l", V): 1, Mode("6", V): 1}, g * r / math.sqrt(2)),
        ({Mode("6", V): 1, Mode("7", V): 1}, g * t * r / math.sqrt(2)),
    ]
    for occ, expected in cases:
        assert cmath.isclose(amplitude_of(s, occ), expected, abs_tol=1e-12)


@pytest.mark.parametrize("variant", ["separate-qnd", "double-xpm"])
def test_kerr_forward_exact_probability(variant):
    r = scheme_kerr_forward(COEFFS, variant=variant)
    assert abs(r.success_probability - P_KERR_FORWARD) < 1e-12
    assert r.output_fidelity > 1 - 1e-10
    assert abs(r.checks["output_born_weight"] - r.success_probability) < 1e-12


def test_kerr_forward_variants_agree():
    for seed in range(10):
        c = random_coeffs(seed)
        r1 = scheme_kerr_forward(c, variant="separate-qnd")
        r2 = scheme_kerr_forward(c, variant="double-xpm")
        assert abs(r1.success_probability - r2.success_probability) < 1e-10
        assert fidelity(r1.output_state, r2.output_state) > 1 - 1e-10


def test_kerr_forward_many_random_inputs():
    for seed in range(50):
        r = scheme_kerr_forward(random_coeffs(seed))
        assert abs(r.success_probability - P_KERR_FORWARD) < 1e-12
        assert r.output_fidelity > 1 - 1e-10


def test_kerr_forward_off_working_point_matches_route_weights():
    t = 0.75
    r_amp = math.sqrt(1 - t * t)
    a, b, g = COEFFS.as_tuple()
    weights = np.array([r_amp / 2, r_amp / 2, t / math.sqrt(2)])
    comps = np.abs(np.array([a, b, g])) ** 2
    expected_p = float(comps @ weights**2)
    expected_f = float((comps @ weights) ** 2 / (comps @ weights**2))
    rep = scheme_kerr_forward(COEFFS, t=t)
    assert abs(rep.success_probability - expected_p) < 1e-12
    assert abs(rep.output_fidelity - expected_f) < 1e-12


def test_kerr_forward_physical_excess_probability():
    # vacuum-overlap readout lets phase-shifted routes leak through with
    # amplitude weight exp(-mu^2 / 2); three of them survive post-selection
    alpha, theta = 5.0, 0.1
    t = T_KERR_FORWARD
    r = math.sqrt(1 - t * t)
    a, b, g = COEFFS.as_tuple()
    mu = math.sqrt(2) * alpha * math.sin(theta)
    leak = (
        abs(b * t / 2) ** 2
        + abs(b * r / 2) ** 2 / 2
        + abs(g * r / math.sqrt(2)) ** 2
    ) * math.exp(-mu * mu)
    rep = scheme_kerr_forward(
        COEFFS, meas_mode="physical", qubus_alpha=alpha, theta=theta
    )
    assert abs(rep.success_probability - P_KERR_FORWARD - leak) < 1e-12
    assert rep.output_fidelity < 1 - 1e-3
    assert abs(rep.checks["probe_total_probability"] - 1) < 1e-12


def test_kerr_forward_physical_leak_shrinks_with_alpha_theta():
    previous = None
    for alpha in (5.0, 10.0, 20.0, 40.0):
        rep = scheme_kerr_forward(
            COEFFS, meas_mode="physical", qubus_alpha=alpha, theta=0.1
        )
        deficit = 1 - rep.output_fidelity
        excess = rep.success_probability - P_KERR_FORWARD
        assert excess >= 0
        if previous is not None:
            assert deficit < previous[0]
            assert excess < previous[1]
        previous = (deficit, excess)
    assert abs(rep.success_probability - P_KERR_FORWARD) < 1e-9


def test_kerr_forward_separate_qnd_has_no_physical_quadrature():
    with pytest.raises(UnsupportedMode):
        scheme_kerr_forward(COEFFS, variant="separate-qnd", meas_mode="physical")


def test_kerr_forward_rejects_bad_arguments():
    with pytest.raises(InvalidInput):
        scheme_kerr_forward(COEFFS, variant="triple-xpm")
    with pytest.raises(InvalidInput):
        scheme_kerr_forward(COEFFS, theta=-0.1)
    with pytest.raises(InvalidInput):
        scheme_kerr_forward(COEFFS, qubus_alpha=1e-8)
    with pytest.raises(InvalidInput):
        scheme_kerr_forward(COEFFS, meas_mode="noisy")


# ---------------------------------------------------------------------------
# entangling block


@pytest.mark.parametrize("pattern", ["reflected", "transmitted"])
def test_entangler_all_outcomes_corrected(pattern):
    r = scheme_entangler(COEFFS, pattern=pattern)
    assert abs(r.success_probability - 1) < 1e-12
    assert r.output_fidelity > 1 - 1e-12
    assert abs(r.checks["branch_n0_probability"] - 0.5) < 1e-12
    fids = [v for k, v in r.checks.items() if k.endswith("_fidelity") and k.startswith("branch")]
    assert min(fids) > 1 - 1e-12


def test_entangler_uncorrected_outcomes_carry_opposite_phases():
    # reconstruct the block inline: in the odd class the H-coupled and the
    # V-coupled components differ by exp(-i pi), in the even class by 1,
    # which the pi phase (odd only) plus ancilla flip removes
    alpha, theta = 2.0, 0.3
    a, b, g = COEFFS.as_tuple()
    s = make_spatial_qutrit(COEFFS, ("0", "1", "2"))
    s = apply_sigma_x(s, "1")
    s = apply_sigma_x(s, "2")
    s = tensor(s, ancilla_plus("a"))
    s = add_register(s, "p1", alpha)
    s = add_register(s, "p2", alpha)
    s = apply_xpm(s, "p1", (Mode("1", V), Mode("2", V), Mode("a", H)), theta)
    s = apply_xpm(s, "p2", (Mode("0", H), Mode("a", V)), theta)
    s = coherent_phase(s, "p1", -theta)
    s = coherent_phase(s, "p2", -theta)
    s = coherent_bs50(s, "p1", "p2")
    dist = project_photon_number(s, "p1")
    for label, parity in (("odd", 1), ("even", 0)):
        st_c = dist.get(label).state
        up = amplitude_of(st_c, {Mode("0", H): 1, Mode("a", V): 1})
        dn = amplitude_of(st_c, {Mode("1", V): 1, Mode("a", H): 1})
        expected = (a / b) * cmath.exp(-1j * parity * math.pi)
        assert cmath.isclose(up / dn, expected, abs_tol=1e-9)
        # the matching-polarization components vanish for n > 0
        assert abs(amplitude_of(st_c, {Mode("0", H): 1, Mode("a", H): 1})) < 1e-12


def test_entangler_physical_mode_is_complete():
    r = scheme_entangler(COEFFS, meas_mode="physical")
    assert abs(r.success_probability - 1) < 1e-6
    # every counted outcome is exactly right even with true vacuum overlaps;
    # only the n = 0 branch inherits the leaked components
    for k, v in r.checks.items():
        if k.startswith("branch_n") and k.endswith("_fidelity") and k != "branch_n0_fidelity":
            assert v > 1 - 1e-9
    assert r.checks["branch_n0_fidelity"] < 1
    assert r.output_fidelity < 1


def test_entangler_branches_drop_the_idle_probe_when_ideal():
    s = make_spatial_qutrit(COEFFS, ("0", "1", "2"))
    s = apply_sigma_x(s, "1")
    s = apply_sigma_x(s, "2")
    s = tensor(s, ancilla_plus("a"))
    for _, _, st in entangler_branches(s, ("0", "1", "2"), "a", "reflected"):
        assert st.registers == ()
    for _, _, st in entangler_branches(
        s, ("0", "1", "2"), "a", "reflected", meas_mode="physical"
    ):
        assert st.registers != ()


# ---------------------------------------------------------------------------
# Kerr inverse map


def test_kerr_inverse_exact_probability():
    r = scheme_kerr_inverse(COEFFS)
    assert abs(r.success_probability - P_KERR_INVERSE) < 1e-12
    assert r.output_fidelity > 1 - 1e-10
    assert abs(r.checks["output_born_weight"] - r.success_probability) < 1e-12
    for port in ("5", "6", "7", "8"):
        assert abs(r.checks[f"eraser_{port}_probability"] - 0.25) < 1e-12


def test_kerr_inverse_tap_and_merge_bookkeeping():
    a, b, g = COEFFS.as_tuple()
    r = scheme_kerr_inverse(COEFFS)
    p_tap = r.branch_log[3].probability
    assert abs(p_tap - (1 - (abs(a) ** 2 + abs(g) ** 2) / 2)) < 1e-12
    # the two bunched groups fire equally and the split group carries the rest
    p1 = r.checks["bunched_m1_probability"]
    p2 = r.checks["bunched_m2_probability"]
    assert abs(p1 - p2) < 1e-12
    assert abs(p1 - 1 / (4 * p_tap)) < 1e-12
    assert abs(p1 + p2 + r.checks["split_discard_probability"] - 1) < 1e-12


def test_kerr_inverse_many_random_inputs():
    for seed in range(50):
        r = scheme_kerr_inverse(random_coeffs(seed))
        assert abs(r.success_probability - P_KERR_INVERSE) < 1e-12
        assert r.output_fidelity > 1 - 1e-10


def test_kerr_inverse_physical_mode_degrades_gracefully():
    r = scheme_kerr_inverse(COEFFS, meas_mode="physical")
    assert 0.4 < r.success_probability < 0.6
    assert r.output_fidelity < 1
    assert r.output_fidelity > 0.5


def test_probe_readouts_must_resolve_their_outcome_groups():
    # The merge probe centres on alpha cos(k theta) for k = 0, 1, 2 photons:
    # k = 1 and 2 meet at 2 pi / 3, and k = 2 returns to alpha at pi.
    for theta in (2 * math.pi / 3, math.pi):
        with pytest.raises(InvalidInput, match="merge-probe"):
            scheme_kerr_inverse(COEFFS, theta=theta)
        with pytest.raises(InvalidInput):
            u3_biphotonic(COEFFS, np.eye(3), backend="kerr", theta=theta)
    # cos(2 theta) > cos(theta) here, yet all three centres are far apart.
    r = scheme_kerr_inverse(COEFFS, theta=2.5)
    assert abs(r.success_probability - P_KERR_INVERSE) < 1e-12
    assert abs(r.output_fidelity - 1) < 1e-10
    # At pi a probe that saw zero or two photons returns to the one-photon
    # label, so a probe pair's difference port is dark for every component;
    # separate-qnd's quadrature readouts still tell a kicked probe (x = -alpha)
    # from an unkicked one.
    with pytest.raises(InvalidInput, match="sin theta"):
        scheme_entangler(COEFFS, theta=math.pi)
    with pytest.raises(InvalidInput, match="sin theta"):
        scheme_kerr_forward(COEFFS, theta=math.pi)
    r = scheme_kerr_forward(COEFFS, variant="separate-qnd", theta=math.pi)
    assert abs(r.success_probability - P_KERR_FORWARD) < 1e-12


def test_u3_kerr_checks_the_merge_probe_before_the_forward_map(monkeypatch):
    def forward(*args, **kwargs):
        raise AssertionError("the forward map ran before the merge-probe check")

    monkeypatch.setattr(schemes, "scheme_kerr_forward", forward)
    with pytest.raises(InvalidInput, match="merge-probe"):
        u3_biphotonic(COEFFS, np.eye(3), backend="kerr", theta=2 * math.pi / 3)


# ---------------------------------------------------------------------------
# unitary on the two-photon encoding


def test_u3_linear_round_trip():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        c = random_qutrit(rng)
        u = haar_unitary(rng)
        r = u3_biphotonic(c, u, backend="linear")
        assert abs(r.success_probability - P_LINEAR_FORWARD * P_LINEAR_INVERSE) < 1e-14
        assert r.output_fidelity > 1 - 1e-9


def test_u3_kerr_round_trip():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        c = random_qutrit(rng)
        u = haar_unitary(rng)
        r = u3_biphotonic(c, u, backend="kerr")
        assert abs(r.success_probability - P_KERR_FORWARD * P_KERR_INVERSE) < 1e-12
        assert r.output_fidelity > 1 - 1e-9


def test_u3_identity_is_a_pure_round_trip():
    r = u3_biphotonic(COEFFS, np.eye(3))
    assert r.output_fidelity > 1 - 1e-9
    assert fidelity(r.output_state, make_biphotonic_qutrit(COEFFS, "out")) > 1 - 1e-9


def test_u3_rejects_bad_matrices():
    with pytest.raises(InvalidInput):
        u3_biphotonic(COEFFS, np.eye(2))
    with pytest.raises(InvalidInput):
        u3_biphotonic(COEFFS, np.ones((3, 3)))
    with pytest.raises(InvalidInput):
        u3_biphotonic(COEFFS, np.eye(3), backend="magic")


@pytest.mark.parametrize("backend", ["linear", "kerr"])
def test_u3_checks_unitarity_once_and_before_any_optics(monkeypatch, backend):
    def optics(*args, **kwargs):
        raise AssertionError("optics ran before the unitarity check")

    checks = []
    real = elements.assert_unitary
    for module in (elements, schemes):  # wherever the check may be bound
        monkeypatch.setattr(module, "assert_unitary", lambda u: checks.append(u) or real(u),
                            raising=False)
    skewed = np.eye(3, dtype=complex)
    skewed[0, 1] = 0.1
    with monkeypatch.context() as m:
        for name in ("scheme_linear_forward", "scheme_kerr_forward", "_segment"):
            m.setattr(schemes, name, optics)
        with pytest.raises(InvalidInput, match="not unitary"):
            u3_biphotonic(COEFFS, skewed, backend=backend)
    checks.clear()
    u3_biphotonic(COEFFS, np.eye(3), backend=backend)
    assert len(checks) == 1  # reck_decompose's check is the only one


# ---------------------------------------------------------------------------
# report invariants


def test_reports_tie_born_weight_to_the_branch_log():
    reports = [
        scheme_linear_forward(COEFFS),
        scheme_linear_inverse(COEFFS),
        scheme_kerr_forward(COEFFS),
        scheme_kerr_inverse(COEFFS),
    ]
    for r in reports:
        prod = 1.0
        for entry in r.branch_log:
            prod *= entry.probability
        assert abs(prod - r.success_probability) < 1e-12
        assert abs(r.checks["output_born_weight"] - r.success_probability) < 1e-12
