"""End-to-end conversion circuits between the two qutrit encodings.

Five circuits are wired here, entirely from the element layer:

- ``scheme_linear_forward``: two-photon polarization qutrit to single-photon
  spatial qutrit using beam splitters, two ancilla photons, a heralding
  coincidence, and a three-path eraser with feed-forward phase corrections.
- ``scheme_linear_inverse``: spatial qutrit back to the two-photon encoding
  using three variable splitters, two ancilla photons, and a two-path eraser.
- ``scheme_kerr_forward``: near-deterministic forward map built on qubus
  probe beams with cross-phase couplings; two measurement variants.
- ``scheme_kerr_inverse``: near-deterministic inverse map built from two
  entangling blocks, a four-port path eraser, amplitude rebalancing, and a
  probe-heralded mode merge.
- ``u3_biphotonic``: arbitrary 3x3 unitary on the two-photon encoding by
  converting forward, applying a path interferometer, and converting back.

Every scheme returns a :class:`SchemeReport`.  Reports keep a branch log of
(step, outcome, probability) entries whose product is the success
probability; extra scalar diagnostics go into ``checks``.  Working-point
constants below are computed from their defining constraints rather than
typed in as decimals.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .fock import (
    H,
    V,
    InvalidInput,
    Mode,
    PhotonicState,
    QutritCoefficients,
    UnsupportedMode,
    WiringError,
    ancilla_plus,
    build_state,
    fidelity,
    make_biphotonic_qutrit,
    make_spatial_qutrit,
    relabel_paths,
    single_photon,
    tensor,
    traced_fidelity,
)
from .elements import (
    BeamSplitterSpec,
    apply_beam_splitter,
    apply_lomi,
    apply_phase_shift,
    apply_qft,
    apply_sigma_x,
    assert_unitary,
    reck_decompose,
    route_pbs,
)
from .measurement import (
    Correction,
    FeedForwardRule,
    erase_and_merge,
    merge_branches,
    path_modes,
    post_select_coincidence,
    project_total_photons,
    strip_modes,
)
from .qubus import (
    add_register,
    apply_xpm,
    coherent_bs50,
    coherent_phase,
    drop_register,
    project_photon_number,
    project_quadrature_x,
)

# Forward map: the doubly-occupied route is suppressed by t^2/4 relative to
# the singly-occupied ones, so balance demands t^2/(4 sqrt 2) = r^2/2 sqrt 2,
# i.e. t^2 = 2 sqrt(2) (1 - t^2).
T2_LINEAR_FORWARD = 2.0 * math.sqrt(2.0) / (1.0 + 2.0 * math.sqrt(2.0))
P_LINEAR_FORWARD = 1.0 / (2.0 + 4.0 * math.sqrt(2.0)) ** 2

# Inverse map: matching the three output amplitudes pins r2 = t1 t2 (1 + r1)
# with t2 = r1 / t1, which closes to u^2 + 3u - 2 = 0 for u = t1^2.
T1_SQ_LINEAR_INVERSE = (math.sqrt(17.0) - 3.0) / 2.0
R1_SQ_LINEAR_INVERSE = 1.0 - T1_SQ_LINEAR_INVERSE
T3_SQ_LINEAR_INVERSE = R1_SQ_LINEAR_INVERSE / 2.0
P_LINEAR_INVERSE = R1_SQ_LINEAR_INVERSE / 64.0

# Kerr forward map: the tapped splitter halves the reflected route, so
# r/2 = t/sqrt(2) balances all three components at t^2 = 1/3.
T_KERR_FORWARD = 1.0 / math.sqrt(3.0)
P_KERR_FORWARD = 1.0 / 6.0
P_KERR_INVERSE = 1.0 / 2.0

DEFAULT_QUBUS_ALPHA = 2.0
DEFAULT_THETA = 0.3

_FIFTY = BeamSplitterSpec.fifty_fifty()
_PHASE_RESOLUTION = 1e-6
# Probe labels reach sqrt(2) alpha and fock.coherent_overlap sums exponent
# terms of size |label|^2, so its rounding error is about 2 alpha^2 epsilon;
# above this amplitude that error exceeds 1e-9 (alpha ~ 1500).
_MAX_PROBE_ALPHA = math.sqrt(1e-9 / (2.0 * sys.float_info.epsilon))


@dataclass(frozen=True)
class BranchLogEntry:
    """One conditioning step: which outcome was kept and with what probability."""

    step: str
    outcome: str
    probability: float


@dataclass(frozen=True)
class SchemeReport:
    """Outcome summary of one scheme run.

    ``checks`` carries auxiliary scalars (branch fidelities, discarded-outcome
    bookkeeping, the output Born weight).
    """

    scheme: str
    output_fidelity: float
    output_state: PhotonicState
    branch_log: tuple[BranchLogEntry, ...]
    parameters: Mapping[str, float]
    checks: Mapping[str, float] = field(default_factory=dict)

    @property
    def success_probability(self) -> float:
        """The product of the branch-log probabilities."""
        return math.prod(e.probability for e in self.branch_log)


def _coeffs(c) -> QutritCoefficients:
    if isinstance(c, QutritCoefficients):
        return c
    return QutritCoefficients(*c)


def _check_unit_interval(name: str, value: float):
    if not 0.0 < value < 1.0:
        raise InvalidInput(f"{name} must lie strictly between 0 and 1, got {value!r}")


def _check_probe(alpha, theta) -> tuple[float, float]:
    """Convert the probe amplitude and cross-phase angle to floats and check them."""
    alpha, theta = float(alpha), float(theta)
    if not 0.0 < alpha < math.inf:
        raise InvalidInput(f"qubus amplitude must be positive and finite, got {alpha!r}")
    if alpha > _MAX_PROBE_ALPHA:
        raise InvalidInput(
            f"qubus amplitude {alpha!r} exceeds {_MAX_PROBE_ALPHA:.0f}: coherent-state "
            "overlaps would lose more than 1e-9 to rounding"
        )
    if not 0.0 < theta < math.inf:
        raise InvalidInput(f"cross-phase angle must be positive and finite, got {theta!r}")
    if alpha * (1.0 - math.cos(theta)) < _PHASE_RESOLUTION:
        raise InvalidInput(
            "qubus amplitude times (1 - cos theta) is too small to resolve "
            "the probe outcome groups"
        )
    return alpha, theta


def _check_merge_probe(alpha, theta) -> tuple[float, float]:
    """:func:`_check_probe`, and that the merge probe resolves 0, 1 and 2 photons on m1."""
    alpha, theta = _check_probe(alpha, theta)
    centres = (alpha, alpha * math.cos(theta), alpha * math.cos(2.0 * theta))
    if any(abs(a - b) < _PHASE_RESOLUTION for a, b in itertools.combinations(centres, 2)):
        raise InvalidInput("qubus amplitude cannot resolve the merge-probe groups")
    return alpha, theta


def _merge_tol(meas_mode: str) -> float:
    """Validate ``meas_mode``; return the fidelity tolerance for merging branches.

    Physical readouts leave branches that genuinely differ, so there the
    merge only sums their probabilities.
    """
    if meas_mode not in ("ideal", "physical"):
        raise InvalidInput(f"unknown measurement mode {meas_mode!r}")
    return 1e-9 if meas_mode == "ideal" else math.inf


def _probe_pair(state, prefix, alpha, theta, modes1, modes2) -> PhotonicState:
    """Couple probes ``<prefix>-1`` and ``<prefix>-2`` and interfere them.

    Each probe starts at ``alpha`` and picks up ``theta`` per photon in its
    modes; both are then rotated back by ``theta``, so a probe that saw
    exactly one photon returns to ``alpha``, and the pair meets on a 50:50
    coupler, whose difference port then holds 0 or +/- sqrt(2) alpha sin(theta).
    """
    if alpha * abs(math.sin(theta)) < _PHASE_RESOLUTION:
        raise InvalidInput(
            "qubus amplitude times |sin theta| cannot resolve the probe number classes"
        )
    reg1, reg2 = f"{prefix}-1", f"{prefix}-2"
    s = add_register(state, reg1, alpha)
    s = add_register(s, reg2, alpha)
    s = apply_xpm(s, reg1, modes1, theta)
    s = apply_xpm(s, reg2, modes2, theta)
    s = coherent_phase(s, reg1, -theta)
    s = coherent_phase(s, reg2, -theta)
    return coherent_bs50(s, reg1, reg2)


def _quadrature_group(dist, register: str, value: float):
    """The outcome of ``register``'s x-quadrature readout centred on ``value``."""
    kept = dist.closest(value)
    if abs(kept.value - value) > 1e-6:
        raise WiringError(f"no quadrature group near {value!r} for {register}")
    return kept


# ---------------------------------------------------------------------------
# linear forward map


def _linear_forward_premeasure(c: QutritCoefficients, t: float) -> PhotonicState:
    """State after the full passive network, before phase fixing and the QFT.

    Populated paths: 3/6/7 (prospective outputs), P1/P2/P3 (eraser inputs),
    D1/D2 (heralding detectors).
    """
    spec = BeamSplitterSpec.from_t(t)
    s = make_biphotonic_qutrit(c, "in")
    s = tensor(s, single_photon("ancH", H))
    s = tensor(s, single_photon("ancV", V))
    s = apply_beam_splitter(s, "in", None, "2", "1", spec)
    s = route_pbs(s, ("1", None), ("3", "P1"))
    s = route_pbs(s, ("2", None), ("2h", "2v"))
    s = apply_beam_splitter(s, "2h", "ancH", "4", "D1", _FIFTY)
    s = apply_beam_splitter(s, "2v", "ancV", "5", "D2", _FIFTY)
    s = apply_beam_splitter(s, "4", None, "6", "P2", _FIFTY)
    s = apply_sigma_x(s, "P2")
    s = apply_beam_splitter(s, "5", None, "7", "P3", _FIFTY)
    s = apply_sigma_x(s, "7")
    return s


# Eraser detectors and their corrections, keyed by which QFT output fires.
# QFT order is (P1, P3, P2), so detector k imprints exp(2 pi i j k / 3) on
# input j.
_FORWARD_ERASER_PORTS = {"D3": "P1", "D4": "P3", "D5": "P2"}
_FORWARD_ERASER_RULE = FeedForwardRule(
    {
        "D3": (),
        "D4": (
            Correction("phase", "6", 2.0 * math.pi / 3.0),
            Correction("phase", "7", 4.0 * math.pi / 3.0),
        ),
        "D5": (
            Correction("phase", "6", 4.0 * math.pi / 3.0),
            Correction("phase", "7", 8.0 * math.pi / 3.0),
        ),
    }
)


def scheme_linear_forward(c, t: float | None = None) -> SchemeReport:
    """Convert a two-photon polarization qutrit to a spatial qutrit.

    The input rides on path ``in``; the output photon leaves in superposition
    of paths 6/3/7 (all H after the sigma-x stage), in that coefficient
    order.  ``t`` is the first splitter's transmissivity; the default is the
    balanced working point.
    """
    c = _coeffs(c)
    t = math.sqrt(T2_LINEAR_FORWARD) if t is None else float(t)
    _check_unit_interval("t", t)

    s = _linear_forward_premeasure(c, t)
    s = apply_phase_shift(s, "6", math.pi)
    s = apply_phase_shift(s, "7", math.pi)
    p_herald, s = post_select_coincidence(
        s, [(path_modes("D1"), "click"), (path_modes("D2"), "click")]
    )
    if p_herald == 0.0:
        raise WiringError("heralding coincidence has zero probability")
    s = apply_qft(s, ("P1", "P3", "P2"))
    p_eraser, merged, min_fid, p_ports = erase_and_merge(
        s,
        _FORWARD_ERASER_PORTS,
        _FORWARD_ERASER_RULE,
        keep=path_modes("6") + path_modes("3") + path_modes("7"),
        strip=path_modes("D1") + path_modes("D2"),
    )

    target = make_spatial_qutrit(c, ("6", "3", "7"))
    log = (
        BranchLogEntry("heralding-coincidence", "D1&D2", p_herald),
        BranchLogEntry("which-path-eraser", "D3|D4|D5", p_eraser),
    )
    checks = {f"eraser_{k}_probability": p for k, p in p_ports.items()}
    checks["eraser_min_branch_fidelity"] = min_fid
    checks["output_born_weight"] = merged.born_weight
    return SchemeReport(
        scheme="linear-forward",
        output_fidelity=fidelity(merged, target),
        output_state=merged,
        branch_log=log,
        parameters={"t": t, "t_squared": t * t},
        checks=checks,
    )


# ---------------------------------------------------------------------------
# linear inverse map


def _linear_inverse_premeasure(
    state: PhotonicState,
    paths: tuple[str, str, str],
    t1: float,
    t2: float,
    t3: float,
) -> PhotonicState:
    """State after the full passive network, through the two-path eraser.

    Populated paths: 4/6/7 (prospective outputs), eD1/eD2 (eraser detectors),
    disc1/disc3 (unmonitored vacuum-biased ports).
    """
    p0, p1, p2 = paths
    s = tensor(state, single_photon("ancH", H))
    s = tensor(s, single_photon("ancV", V))
    s = apply_beam_splitter(s, p1, None, "arm", "2", BeamSplitterSpec.from_t(t1))
    s = apply_beam_splitter(s, p0, "arm", "disc1", "1", BeamSplitterSpec.from_t(t2))
    s = apply_beam_splitter(s, p2, None, "3", "disc3", BeamSplitterSpec.from_t(t3))
    s = apply_sigma_x(s, "3")
    s = apply_beam_splitter(s, "1", "ancH", "4", "P1", _FIFTY)
    s = route_pbs(s, ("2", "3"), ("5", "junk"))
    s = apply_beam_splitter(s, "5", "ancV", "7", "6", _FIFTY)
    s = route_pbs(s, ("6", None), ("6", "P2"))
    # Without this flip the eraser detector would record H for one branch
    # and V for the others, i.e. keep which-route information.
    s = apply_sigma_x(s, "P1")
    s = apply_beam_splitter(s, "P1", "P2", "eD1", "eD2", _FIFTY)
    return s


def _linear_inverse_branch(pre: PhotonicState, fired: str, dark: str):
    """One eraser outcome: ``fired`` clicks, ``dark`` does not, and two
    photons then bunch on path ``out``.

    Returns ``(p_eraser, p_two, state)``; ``state`` is None when either
    probability is zero.
    """
    p_eraser, s = post_select_coincidence(
        pre, [(path_modes(fired), "click"), (path_modes(dark), "no-click")]
    )
    if p_eraser == 0.0:
        return 0.0, 0.0, None
    s = apply_beam_splitter(s, "4", "7", "out1", "out2", _FIFTY)
    p_two, s = project_total_photons(s, path_modes("out1"), 2)
    if p_two == 0.0:
        return p_eraser, 0.0, None
    s = strip_modes(s, path_modes(fired))
    return p_eraser, p_two, relabel_paths(s, {"out1": "out"})


def _linear_inverse_run(
    state: PhotonicState,
    paths: tuple[str, str, str],
    t1: float,
    t2: float,
    t3: float,
):
    pre = _linear_inverse_premeasure(state, paths, t1, t2, t3)
    p_eraser, p_two, s = _linear_inverse_branch(pre, "eD1", "eD2")
    if s is None:
        raise InvalidInput("the heralded eraser outcome has zero probability")
    log = (
        BranchLogEntry("two-path-eraser", "D1&not-D2", p_eraser),
        BranchLogEntry("output-coincidence", "2 photons on out", p_two),
    )
    return pre, log, s


def default_linear_inverse_params(
    t1: float | None = None, t2: float | None = None, t3: float | None = None
) -> dict[str, float]:
    """Splitter transmissivities of the inverse map: each given value as a
    float, each omitted one at the balanced working point."""
    t1_0 = math.sqrt(T1_SQ_LINEAR_INVERSE)
    defaults = {
        "t1": t1_0,
        "t2": math.sqrt(R1_SQ_LINEAR_INVERSE) / t1_0,
        "t3": math.sqrt(T3_SQ_LINEAR_INVERSE),
    }
    given = {"t1": t1, "t2": t2, "t3": t3}
    return {k: defaults[k] if v is None else float(v) for k, v in given.items()}


def scheme_linear_inverse(
    c,
    t1: float | None = None,
    t2: float | None = None,
    t3: float | None = None,
) -> SchemeReport:
    """Convert a spatial qutrit back to the two-photon polarization encoding.

    The spatial photon enters on paths s0/s1/s2 in coefficient order; the
    output pair leaves on path ``out``.  Defaults are the balanced working
    point.  The discarded second eraser outcome is quantified in ``checks``:
    it occurs with the same probability but carries an uncorrectable sign
    pattern, hence its lower output fidelity.
    """
    c = _coeffs(c)
    params = default_linear_inverse_params(t1, t2, t3)
    for name, val in params.items():
        _check_unit_interval(name, val)

    paths = ("s0", "s1", "s2")
    state = make_spatial_qutrit(c, paths)
    pre, log, s = _linear_inverse_run(state, paths, **params)
    target = make_biphotonic_qutrit(c, "out")

    p_d2, q_d2, s_d2 = _linear_inverse_branch(pre, "eD2", "eD1")
    checks = {"output_born_weight": s.born_weight}
    if p_d2 > 0.0:
        checks["discarded_d2_probability"] = p_d2 * q_d2
    if s_d2 is not None:
        checks["discarded_d2_fidelity"] = fidelity(s_d2, target)

    return SchemeReport(
        scheme="linear-inverse",
        output_fidelity=fidelity(s, target),
        output_state=s,
        branch_log=log,
        parameters=params,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Kerr forward map


def _kerr_forward_routed(c: QutritCoefficients, t: float) -> PhotonicState:
    """Photonic part of the Kerr forward map, before any probe couples.

    Populated modes: (1,H), (1l,V), (4h,H), (5,H), (6,V), (7,V).
    """
    s = make_biphotonic_qutrit(c, "in")
    s = apply_beam_splitter(s, "in", None, "1", "2", _FIFTY)
    s = apply_beam_splitter(s, "2", None, "4", "3", BeamSplitterSpec.from_t(t))
    s = route_pbs(s, ("1", None), ("1", "1l"))
    s = route_pbs(s, ("3", None), ("5", "6"))
    s = route_pbs(s, ("4", None), ("4h", "7"))
    return s


_PAIR_ERASER_PORTS = {"dp": "dp", "dm": "dm"}
_PAIR_ERASER_RULE = FeedForwardRule(
    {"dp": (), "dm": (Correction("phase", "7", math.pi),)}
)


def scheme_kerr_forward(
    c,
    t: float | None = None,
    variant: str = "double-xpm",
    meas_mode: str = "ideal",
    qubus_alpha: float = DEFAULT_QUBUS_ALPHA,
    theta: float = DEFAULT_THETA,
) -> SchemeReport:
    """Convert a two-photon polarization qutrit to a spatial one via probes.

    ``variant`` selects how the unwanted components are heralded away:

    - ``separate-qnd``: each probe is read out by quadrature; components that
      imprint any phase are discarded.
    - ``double-xpm``: the probes interfere on a 50:50 coupler first and a
      single photon-number readout keeps the n = 0 outcome.

    Both succeed with probability 1/6 at the default ``t``.  In
    ``meas_mode="physical"`` the number readout uses true vacuum overlaps,
    so phase-shifted components leak into n = 0 with weight exp(-mu^2/2),
    mu = sqrt(2) alpha sin(theta); the output fidelity then falls below one
    by the leaked weight and improves as alpha theta grows.
    """
    c = _coeffs(c)
    t = T_KERR_FORWARD if t is None else float(t)
    _check_unit_interval("t", t)
    alpha, theta = _check_probe(qubus_alpha, theta)
    tol = _merge_tol(meas_mode)
    if variant not in ("separate-qnd", "double-xpm"):
        raise InvalidInput(f"unknown variant {variant!r}")

    checks: dict[str, float] = {}
    s = _kerr_forward_routed(c, t)
    if variant == "separate-qnd":
        s = add_register(s, "probe-1", alpha)
        s = add_register(s, "probe-2", alpha)
        s = apply_xpm(s, "probe-1", (Mode("1", H),), theta)
        s = apply_xpm(s, "probe-1", (Mode("5", H), Mode("6", V)), -theta)
        s = apply_xpm(s, "probe-2", (Mode("1l", V),), theta)
        s = apply_xpm(s, "probe-2", (Mode("7", V),), -theta)
        log_entries = []
        for reg in ("probe-1", "probe-2"):
            dist = project_quadrature_x(s, reg, mode=meas_mode)
            kept = _quadrature_group(dist, reg, alpha)
            log_entries.append(
                BranchLogEntry(f"quadrature-{reg}", kept.label, kept.probability)
            )
            s = kept.state
        p_meas_log = tuple(log_entries)
    else:
        # After the coupler every wanted component leaves probe-1 in vacuum,
        # while single-route components imprint +/- theta on it.
        probe1 = (Mode("1", H), Mode("7", V))
        probe2 = (Mode("1l", V), Mode("5", H), Mode("6", V))
        s = _probe_pair(s, "probe", alpha, theta, probe1, probe2)
        dist = project_photon_number(s, "probe-1", mode=meas_mode)
        kept = dist.get("0")
        checks["probe_total_probability"] = dist.total_probability
        s = kept.state
        p_meas_log = (BranchLogEntry("probe-number", "n=0", kept.probability),)

    # Rebalance path 5, erase the left-arm pair and post-select.
    s = apply_beam_splitter(s, "5", None, "5", "tap5", _FIFTY)
    s = route_pbs(s, ("1", "1l"), ("m", "mjunk"))
    s = route_pbs(s, ("m", None), ("dp", "dm"), basis="diag")
    p_det, merged, min_fid, p_ports = erase_and_merge(
        s,
        _PAIR_ERASER_PORTS,
        _PAIR_ERASER_RULE,
        keep=path_modes("5") + path_modes("6") + path_modes("7"),
        tol=tol,
    )
    merged = apply_sigma_x(merged, "6")
    merged = apply_sigma_x(merged, "7")
    checks.update({f"eraser_{k}_probability": p for k, p in p_ports.items()})
    checks["eraser_min_branch_fidelity"] = min_fid
    if merged.registers:
        try:
            merged = drop_register(merged, "probe-2")
        except WiringError:
            pass

    target = make_spatial_qutrit(c, ("5", "6", "7"))
    log = p_meas_log + (BranchLogEntry("pair-eraser", "dp|dm", p_det),)
    checks["output_born_weight"] = merged.born_weight
    return SchemeReport(
        scheme="kerr-forward",
        output_fidelity=traced_fidelity(merged, target),
        output_state=merged,
        branch_log=log,
        parameters={
            "t": t,
            "t_squared": t * t,
            "qubus_alpha": alpha,
            "theta": theta,
        },
        checks=checks,
    )


# ---------------------------------------------------------------------------
# entangling block (used standalone and inside the Kerr inverse map)


def _entangler_paths(paths, pattern):
    """Split the qutrit paths into those whose H and whose V photon couples."""
    if pattern == "reflected":
        return tuple(paths[:1]), tuple(paths[1:])
    if pattern == "transmitted":
        return tuple(paths[:2]), tuple(paths[2:])
    raise InvalidInput(f"unknown entangler pattern {pattern!r}")


def _entangler_reference(
    state: PhotonicState, paths, ancilla: str
) -> PhotonicState:
    """Ideal block output: ancilla polarization matching the path photon.

    Built directly from the input by keeping the matching-polarization half
    of the ancilla superposition and undoing its 1/sqrt(2) weight.
    """
    path_set = set(paths)
    terms = []
    for term in state.terms:
        qutrit_pol = None
        anc_pol = None
        for mode, n in term.occ:
            if mode.path in path_set:
                if n != 1 or qutrit_pol is not None:
                    raise WiringError(
                        "entangler input must hold exactly one photon "
                        "across the qutrit paths"
                    )
                qutrit_pol = mode.pol
            elif mode.path == ancilla:
                if n != 1 or anc_pol is not None:
                    raise WiringError(
                        "entangler ancilla must hold exactly one photon"
                    )
                anc_pol = mode.pol
        if qutrit_pol is None or anc_pol is None:
            raise WiringError("entangler input misses the photon or the ancilla")
        if anc_pol == qutrit_pol:
            terms.append(term._replace(amplitude=term.amplitude * math.sqrt(2.0)))
    return build_state(state.registers, terms, state.born_weight)


def entangler_branches(
    state: PhotonicState,
    paths,
    ancilla: str,
    pattern: str = "reflected",
    qubus_alpha: float = DEFAULT_QUBUS_ALPHA,
    theta: float = DEFAULT_THETA,
    meas_mode: str = "ideal",
    register_prefix: str = "probe",
) -> list[tuple[str, float, PhotonicState]]:
    """All corrected outcomes of one entangling block, as (class, p, state).

    Two probe beams pick up conditional cross phases (which polarization
    couples to which beam depends on ``pattern``), interfere on a 50:50
    coupler, and the difference port is counted by outcome class.  n = 0
    needs no correction; odd n is fixed by a phase of pi on the H-coupled
    paths plus a polarization flip of the ancilla, even n >= 2 by the flip
    alone.  The undetected probe is dropped when its labels are uniform
    across every branch, otherwise kept on all.  A readout class without a
    pure state raises ``UnsupportedMode``.
    """
    alpha, theta = _check_probe(qubus_alpha, theta)
    h_active, v_active = _entangler_paths(paths, pattern)
    beam1 = tuple(Mode(p, V) for p in v_active) + (Mode(ancilla, H),)
    beam2 = tuple(Mode(p, H) for p in h_active) + (Mode(ancilla, V),)
    s = _probe_pair(state, register_prefix, alpha, theta, beam1, beam2)
    dist = project_photon_number(s, f"{register_prefix}-1", mode=meas_mode)

    if any(o.state is None for o in dist.outcomes):
        raise UnsupportedMode("probe readout class holds a mixture, which is not modelled")
    phase = tuple(Correction("phase", Mode(p, H), math.pi) for p in h_active)
    flip = (Correction("sigma_x", ancilla),)
    rule = FeedForwardRule({"0": (), "odd": phase + flip, "even": flip})
    corrected = [(o.label, o.probability, rule.apply(o.label, o.state)) for o in dist.outcomes]
    dropped = []
    for label, p, st in corrected:
        try:
            dropped.append((label, p, drop_register(st, f"{register_prefix}-2")))
        except WiringError:
            return corrected
    return dropped


def scheme_entangler(
    c,
    pattern: str = "reflected",
    qubus_alpha: float = DEFAULT_QUBUS_ALPHA,
    theta: float = DEFAULT_THETA,
    meas_mode: str = "ideal",
) -> SchemeReport:
    """Entangling block on a freshly prepared spatial qutrit and |+> ancilla.

    Prepares the polarization pattern the block expects: paths carrying H
    where the block couples H, V where it couples V.  Deterministic: the
    branch probabilities sum to one and every corrected branch matches the
    ideal output, so the merged state is reported with a single
    full-probability log entry.  Per-branch probabilities and fidelities
    land in ``checks``.
    """
    c = _coeffs(c)
    paths = ("0", "1", "2")
    s = make_spatial_qutrit(c, paths)
    for path in _entangler_paths(paths, pattern)[1]:
        s = apply_sigma_x(s, path)
    s = tensor(s, ancilla_plus("a"))
    reference = _entangler_reference(s, paths, "a")
    branches = entangler_branches(s, paths, "a", pattern, qubus_alpha, theta, meas_mode)
    checks: dict[str, float] = {}
    mean_fid = 0.0
    for label, p, st in branches:
        f = traced_fidelity(st, reference)
        checks[f"branch_n{label}_probability"] = p
        checks[f"branch_n{label}_fidelity"] = f
        mean_fid += p * f
    tol = _merge_tol(meas_mode)
    p_all, merged, min_fid = merge_branches([(p, st) for _, p, st in branches], tol=tol)
    checks["merge_min_fidelity"] = min_fid
    checks["output_born_weight"] = merged.born_weight
    log = (BranchLogEntry("probe-number", "all n merged", p_all),)
    return SchemeReport(
        scheme="entangler",
        output_fidelity=mean_fid / p_all,
        output_state=merged,
        branch_log=log,
        parameters={"qubus_alpha": float(qubus_alpha), "theta": float(theta)},
        checks=checks,
    )


# ---------------------------------------------------------------------------
# Kerr inverse map


def _attenuate_mode(
    state: PhotonicState, path: str, pol: str, tap_path: str
) -> PhotonicState:
    """Halve the amplitude of one polarization on a path, tapping the rest.

    Split the polarizations apart, pass the chosen one through a 50:50
    splitter whose second output is ``tap_path``, and recombine.  Vacuum on
    the tap heralds the attenuated component.
    """
    sh, sv = f"{path}-h", f"{path}-v"
    s = route_pbs(state, (path, None), (sh, sv))
    arm = sh if pol == H else sv
    s = apply_beam_splitter(s, arm, None, arm, tap_path, _FIFTY)
    return route_pbs(s, (sh, sv), (path, f"{path}-junk"))


_PATH_ERASER_PORTS = {p: p for p in ("5", "6", "7", "8")}
_PATH_ERASER_RULE = FeedForwardRule(
    {
        "5": (),
        "6": (Correction("phase", Mode("b", V), math.pi),),
        "7": (Correction("phase", Mode("a", V), math.pi),),
        "8": (
            Correction("phase", Mode("a", V), math.pi),
            Correction("phase", Mode("b", V), math.pi),
        ),
    }
)


def _kerr_inverse_run(
    state: PhotonicState,
    paths: tuple[str, str, str],
    alpha: float,
    theta: float,
    meas_mode: str,
):
    tol = _merge_tol(meas_mode)
    checks: dict[str, float] = {}
    log = []

    s = tensor(state, ancilla_plus("a"))
    s = tensor(s, ancilla_plus("b"))
    for k, ancilla, pattern, flips in (
        (1, "a", "reflected", paths[1:]),
        (2, "b", "transmitted", paths[1:2]),
    ):
        for path in flips:
            s = apply_sigma_x(s, path)
        branches = entangler_branches(
            s, paths, ancilla, pattern, alpha, theta, meas_mode, f"ent{k}"
        )
        p, s, fid = merge_branches([(q, st) for _, q, st in branches], tol=tol)
        checks[f"entangler{k}_merge_fidelity"] = fid
        log.append(BranchLogEntry(f"entangler-{k}", "all n merged", p))

    # Erase which-path information of the single photon.
    s = route_pbs(s, (paths[1], paths[2]), ("merge12", "junk12"))
    s = apply_beam_splitter(s, paths[0], "merge12", "e3", "e4", _FIFTY)
    s = route_pbs(s, ("e3", None), ("5", "6"), basis="diag")
    s = route_pbs(s, ("e4", None), ("7", "8"), basis="diag")
    p_eraser, s, fid_eraser, p_ports = erase_and_merge(
        s, _PATH_ERASER_PORTS, _PATH_ERASER_RULE, tol=tol
    )
    checks.update({f"eraser_{k}_probability": p for k, p in p_ports.items()})
    checks["eraser_merge_fidelity"] = fid_eraser

    # Rebalance the two-H and two-V components, then merge the ancilla pair
    # into one path, heralded by a probe that only sees the first output.
    s = _attenuate_mode(s, "a", H, "tapA")
    s = _attenuate_mode(s, "b", V, "tapB")
    p_tap, s = post_select_coincidence(
        s, [(path_modes("tapA"), "no-click"), (path_modes("tapB"), "no-click")]
    )
    s = apply_beam_splitter(s, "a", "b", "m1", "m2", _FIFTY)
    s = add_register(s, "merge-probe", alpha)
    s = apply_xpm(s, "merge-probe", path_modes("m1"), theta)
    dist = project_quadrature_x(s, "merge-probe", mode="ideal")
    bunched = []
    for value, out_path in ((alpha * math.cos(2.0 * theta), "m1"), (alpha, "m2")):
        kept = _quadrature_group(dist, "merge-probe", value)
        st = relabel_paths(kept.state, {out_path: "out"})
        q, st = project_total_photons(st, path_modes("out"), 2)
        checks[f"bunched_{out_path}_probability"] = kept.probability * q
        if kept.probability * q > 0.0:
            bunched.append((kept.probability * q, st))
    checks["split_discard_probability"] = dist.total_probability - sum(
        checks[f"bunched_{p}_probability"] for p in ("m1", "m2")
    )
    p_bunch, s, fid_bunch = merge_branches(bunched, tol=tol)
    checks["bunched_merge_fidelity"] = fid_bunch

    log += [
        BranchLogEntry("path-eraser", "5|6|7|8", p_eraser),
        BranchLogEntry("rebalance-taps", "vacuum", p_tap),
        BranchLogEntry("bunched-merge", "m1|m2", p_bunch),
    ]
    return tuple(log), s, checks


def scheme_kerr_inverse(
    c,
    qubus_alpha: float = DEFAULT_QUBUS_ALPHA,
    theta: float = DEFAULT_THETA,
    meas_mode: str = "ideal",
) -> SchemeReport:
    """Convert a spatial qutrit to the two-photon encoding via two
    entangling blocks.

    The blocks copy the path information onto two ancilla photons, a
    four-port eraser removes the original photon, tapped attenuators
    rebalance the outer components, and a probe-heralded 50:50 merge bunches
    the ancilla pair onto path ``out``.  Succeeds with probability 1/2.
    """
    c = _coeffs(c)
    alpha, theta = _check_merge_probe(qubus_alpha, theta)
    paths = ("s0", "s1", "s2")
    state = make_spatial_qutrit(c, paths)
    log, s, checks = _kerr_inverse_run(state, paths, alpha, theta, meas_mode)
    target = make_biphotonic_qutrit(c, "out")
    checks["output_born_weight"] = s.born_weight
    return SchemeReport(
        scheme="kerr-inverse",
        output_fidelity=traced_fidelity(s, target),
        output_state=s,
        branch_log=log,
        parameters={"qubus_alpha": alpha, "theta": theta},
        checks=checks,
    )


# ---------------------------------------------------------------------------
# arbitrary unitary on the two-photon encoding


def u3_biphotonic(
    c,
    u,
    backend: str = "linear",
    t: float | None = None,
    t1: float | None = None,
    t2: float | None = None,
    t3: float | None = None,
    qubus_alpha: float = DEFAULT_QUBUS_ALPHA,
    theta: float = DEFAULT_THETA,
    meas_mode: str = "ideal",
) -> SchemeReport:
    """Apply a 3x3 unitary to a two-photon qutrit by round-tripping through
    the spatial encoding.

    The forward map produces a single photon over three paths, a triangular
    mesh of two-path rotations realizes ``u`` on those paths, and the
    matching inverse map restores the two-photon encoding on path ``out``.
    ``backend`` picks the linear-optics pair (success 1.17e-4) or the
    probe-based pair (success 1/12).
    """
    c = _coeffs(c)
    u = np.asarray(u, dtype=complex)
    if u.shape != (3, 3):
        raise InvalidInput(f"expected a 3x3 matrix, got shape {u.shape}")
    assert_unitary(u)
    if backend == "linear":
        fwd = scheme_linear_forward(c, t)
        outputs = ("6", "3", "7")
    elif backend == "kerr":
        alpha, theta = _check_merge_probe(qubus_alpha, theta)
        fwd = scheme_kerr_forward(
            c, t, meas_mode=meas_mode, qubus_alpha=alpha, theta=theta
        )
        outputs = ("5", "6", "7")
    else:
        raise InvalidInput(f"unknown backend {backend!r}")

    spatial = ("s0", "s1", "s2")
    s = relabel_paths(fwd.output_state, dict(zip(outputs, spatial)))
    s = apply_lomi(s, reck_decompose(u), spatial)

    checks = {f"forward_{k}": v for k, v in fwd.checks.items()}
    checks["forward_fidelity"] = fwd.output_fidelity
    if backend == "linear":
        params = default_linear_inverse_params(t1, t2, t3)
        _, inv_log, s = _linear_inverse_run(s, spatial, **params)
    else:
        inv_log, s, inv_checks = _kerr_inverse_run(s, spatial, alpha, theta, meas_mode)
        checks.update({f"inverse_{k}": v for k, v in inv_checks.items()})
        params = {"qubus_alpha": alpha, "theta": theta}

    vec = u @ np.array(c.as_tuple())
    target = make_biphotonic_qutrit(QutritCoefficients.normalize(*vec), "out")
    log = fwd.branch_log + inv_log
    checks["output_born_weight"] = s.born_weight
    return SchemeReport(
        scheme=f"u3-{backend}",
        output_fidelity=traced_fidelity(s, target),
        output_state=s,
        branch_log=log,
        parameters={"t": fwd.parameters["t"], **params},
        checks=checks,
    )


def _u3_linear(c, u, t=None, t1=None, t2=None, t3=None) -> SchemeReport:
    return u3_biphotonic(c, u, "linear", t, t1, t2, t3)


def _u3_kerr(
    c, u, t=None, qubus_alpha=DEFAULT_QUBUS_ALPHA, theta=DEFAULT_THETA, meas_mode="ideal"
) -> SchemeReport:
    return u3_biphotonic(
        c, u, "kerr", t, qubus_alpha=qubus_alpha, theta=theta, meas_mode=meas_mode
    )


# Every scheme by name.  Each takes the input qutrit first and, for the u3
# gates, the 3x3 unitary ``u`` second; its other parameters (read with
# ``inspect.signature``) are the ones a caller may set.
SCHEMES = {
    "linear-forward": scheme_linear_forward,
    "linear-inverse": scheme_linear_inverse,
    "kerr-forward": scheme_kerr_forward,
    "kerr-inverse": scheme_kerr_inverse,
    "entangler": scheme_entangler,
    "u3-linear": _u3_linear,
    "u3-kerr": _u3_kerr,
}
