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

import functools
import math
import operator
import sys
from typing import Mapping, NamedTuple

import numpy as np

from .fock import (
    H,
    PRUNE_EPS,
    V,
    InvalidInput,
    Mode,
    PhotonicState,
    QutritCoefficients,
    UnsupportedMode,
    WiringError,
    _SOURCE,
    _built,
    _merge_plan,
    _run,
    _segment,
    _site,
    _step,
    _unit,
    ancilla_plus,
    fidelity,
    relabel_paths,
    single_photon,
    tensor,
    traced_fidelity,
)
from .elements import (
    BeamSplitterSpec,
    ReckDecomposition,
    apply_beam_splitter,
    apply_lomi,
    apply_phase_shift,
    apply_qft,
    apply_sigma_x,
    reck_decompose,
    route_pbs,
)
from .measurement import (
    Correction,
    FeedForwardRule,
    _summed,
    erase_and_merge,
    merge_branches,
    path_modes,
    post_select_coincidence,
    project_total_photons,
    strip_modes,
)
from .qubus import (
    _dropped,
    add_register,
    apply_xpm,
    couple_probes,
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
_ENTANGLER_PATHS = ("0", "1", "2")  # the entangler scheme's qutrit
_SPATIAL = ("s0", "s1", "s2")  # the inverse maps' input qutrit
_FORWARD_OUT, _KERR_OUT = ("6", "3", "7"), ("5", "6", "7")  # the forward maps' outputs
# fock._built keys: the maps' two-photon input and output, and the inverse maps' input
_IN, _OUT_PAIR, _SPATIAL_IN = ("biphotonic", "in"), ("biphotonic", "out"), ("spatial", _SPATIAL)
# A segment body or map with its configuration bound, built once per configuration; callers
# check the configuration first, so the cache holds only the few valid ones.
_bound = functools.cache(functools.partial)


class BranchLogEntry(NamedTuple):
    """One conditioning step: which outcome was kept and with what probability."""

    step: str
    outcome: str
    probability: float


class SchemeReport(NamedTuple):
    """Outcome summary of one scheme run.

    ``checks`` carries auxiliary scalars (branch fidelities, discarded-outcome
    bookkeeping, the output Born weight).
    """

    scheme: str
    output_fidelity: float
    output_state: PhotonicState
    branch_log: tuple[BranchLogEntry, ...]
    parameters: Mapping[str, float]
    checks: Mapping[str, float]

    @property
    def success_probability(self) -> float:
        """The product of the branch-log probabilities."""
        return math.prod(e.probability for e in self.branch_log)


def _report(scheme: str, state, output_fidelity, parameters, template, ps, values):
    """The report of ``scheme``'s output ``state``: ``template``, its log's (step, outcome) pairs
    and its check keys, filled with ``ps`` and ``values``, the checks ended by the born weight."""
    checks = dict(zip(template[1], values))
    checks["output_born_weight"] = state.born_weight
    log = tuple([BranchLogEntry(step, outcome, p) for (step, outcome), p in zip(template[0], ps)])
    return SchemeReport(scheme, output_fidelity, state, log, parameters, checks)


def _targeted(run, target, source, s, *args):
    """``run(s, *params)``, a map returning ``(values, output)``, and the output's traced
    fidelity to the ``target`` qutrit (a :func:`fock._built` key) of coefficients' parts the
    last six of ``args``, built from ``s``: ``((*values, fidelity), output)``.  Given a key
    ``source``, ``s`` is a segment's input (fock._SOURCE): the map runs on that qutrit."""
    s = _built(source, *args[-6:], source=s) if source else s
    values, out = run(s, *args[:-6])
    return (*values, traced_fidelity(out, _built(target, *args[-6:], source=s))), out


def _coeffs(c, kind: str):
    """The parts of ``c``, a QutritCoefficients or three coefficients it would take, and which
    terms of the ``kind`` qutrit of them the prune of :func:`fock._built` keeps, worked out as
    its kernel does: a segment that builds its input keys its tape by them."""
    a, b, g = c.as_tuple() if isinstance(c, QutritCoefficients) else _unit(c)
    r = math.sqrt(2.0) if kind == "biphotonic" else 1.0  # the root of 2! for HH and VV
    return [a.real, a.imag, b.real, b.imag, g.real, g.imag], (
        abs(a / r) > PRUNE_EPS, abs(b) > PRUNE_EPS, abs(g / r) > PRUNE_EPS)


def _real(name: str, value) -> float:
    """``value`` as a float; a bool, or what float() refuses, raises InvalidInput naming it."""
    try:
        if not isinstance(value, (bool, np.bool_)):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInput(f"{name} must be a real number, got {value!r}")


def _unit_interval(name: str, value) -> float:
    """:func:`_real` of ``value``, which must lie strictly between 0 and 1."""
    if not 0.0 < (value := _real(name, value)) < 1.0:
        raise InvalidInput(f"{name} must lie strictly between 0 and 1, got {value!r}")
    return value


def _check_probe(alpha, theta) -> tuple[float, float]:
    """Convert the probe amplitude and cross-phase angle to floats and check them."""
    alpha, theta = _real("qubus_alpha", alpha), _real("theta", theta)
    if not 0.0 < alpha < math.inf:
        raise InvalidInput(f"qubus amplitude must be positive and finite, got {alpha!r}")
    if alpha > _MAX_PROBE_ALPHA:
        raise InvalidInput(f"qubus amplitude {alpha!r} exceeds {_MAX_PROBE_ALPHA:.0f}: "
                           "coherent-state overlaps would lose more than 1e-9 to rounding")
    if not 0.0 < theta < math.inf:
        raise InvalidInput(f"cross-phase angle must be positive and finite, got {theta!r}")
    if alpha * (1.0 - math.cos(theta)) < _PHASE_RESOLUTION:
        raise InvalidInput("qubus amplitude times (1 - cos theta) is too small to resolve "
                           "the probe outcome groups")
    return alpha, theta


def _check_merge_probe(alpha, theta) -> tuple[float, float]:
    """:func:`_check_probe`, and that the merge probe resolves 0, 1 and 2 photons on m1."""
    alpha, theta = _check_probe(alpha, theta)
    a, b, c = alpha, alpha * math.cos(theta), alpha * math.cos(2.0 * theta)  # the centres
    if min(abs(a - b), abs(a - c), abs(b - c)) < _PHASE_RESOLUTION:
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
    """:func:`qubus.couple_probes` on probes ``<prefix>-1`` and ``<prefix>-2``."""
    if alpha * abs(math.sin(theta)) < _PHASE_RESOLUTION:
        raise InvalidInput(
            "qubus amplitude times |sin theta| cannot resolve the probe number classes"
        )
    return couple_probes(state, f"{prefix}-1", f"{prefix}-2", alpha, theta, modes1, modes2)


def _quadrature_group(dist, register: str, value: float):
    """The outcome of ``register``'s x-quadrature readout centred on ``value``."""
    kept = dist.closest(value)
    if abs(kept.value - value) > 1e-6:
        raise WiringError(f"no quadrature group near {value!r} for {register}")
    return kept


# ---------------------------------------------------------------------------
# linear forward map


def _linear_forward_premeasure(s: PhotonicState, t: float) -> PhotonicState:
    """State after the full passive network on the input ``s``, before phases and QFT.

    Populated paths: 3/6/7 (prospective outputs), P1/P2/P3 (eraser inputs),
    D1/D2 (heralding detectors).
    """
    spec = BeamSplitterSpec.from_t(t)
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


_HERALD = ((path_modes("D1"), "click"), (path_modes("D2"), "click"))
_FORWARD_KEEP = path_modes("6") + path_modes("3") + path_modes("7")
_FORWARD_STRIP = path_modes("D1") + path_modes("D2")
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
_FORWARD_REPORT = ((("heralding-coincidence", "D1&D2"), ("which-path-eraser", "D3|D4|D5")), (
    *(f"eraser_{k}_probability" for k in _FORWARD_ERASER_PORTS), "eraser_min_branch_fidelity"))


def scheme_linear_forward(c, t: float | None = None) -> SchemeReport:
    """Convert a two-photon polarization qutrit to a spatial qutrit.

    The input rides on path ``in``; the output photon leaves in superposition
    of paths 6/3/7 (all H after the sigma-x stage), in that coefficient
    order.  ``t`` is the first splitter's transmissivity; the default is the
    balanced working point.
    """
    (parts, kept), t = _coeffs(c, "biphotonic"), _linear_forward_t(t)
    run = _bound(_targeted, _linear_forward_run, ("spatial", _FORWARD_OUT), _IN)
    (*values, fid), s = _segment(("linear-forward", kept), run, _SOURCE, t, free=parts)
    return _report("linear-forward", s, fid, {"t": t, "t_squared": t * t},
                   *_linear_forward_read(values))


def _linear_forward_t(t) -> float:
    """The forward map's first transmissivity, checked; None is the working point."""
    return _unit_interval("t", math.sqrt(T2_LINEAR_FORWARD) if t is None else t)


def _linear_forward_run(s, t, *_):  # in a u3 gate, the inverse map's parameters follow t
    """The forward map on its input ``s``: the network, the pi phase shifts on 6 and 7, the
    D1&D2 heralding coincidence, the QFT on the eraser inputs and the eraser.  Its values are
    the herald's P, the eraser's P and minimum branch fidelity, then its P per port."""
    s = apply_phase_shift(_linear_forward_premeasure(s, t), "6", math.pi)
    p_herald, s = post_select_coincidence(apply_phase_shift(s, "7", math.pi), _HERALD)
    if p_herald == 0.0:
        raise WiringError("heralding coincidence has zero probability")
    p_eraser, merged, min_fid, p_ports = erase_and_merge(
        apply_qft(s, ("P1", "P3", "P2")), _FORWARD_ERASER_PORTS, _FORWARD_ERASER_RULE,
        keep=_FORWARD_KEEP, strip=_FORWARD_STRIP)
    return (p_herald, p_eraser, min_fid, *p_ports.values()), merged


def _linear_forward_read(values):
    """The forward map's report template, log probabilities and check values from its run's."""
    p_herald, p_eraser, min_fid, *p_ports = values
    return _FORWARD_REPORT, (p_herald, p_eraser), (*p_ports, min_fid)


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


# Per fired eraser detector, its coincidence pattern: it clicks, the other stays dark.
_INVERSE_ERASER = {a: ((path_modes(a), "click"), (path_modes(b), "no-click"))
                   for a, b in (("eD1", "eD2"), ("eD2", "eD1"))}
_OUT1 = path_modes("out1")
_INVERSE_STEPS = (("two-path-eraser", "D1&not-D2"), ("output-coincidence", "2 photons on out"))
_DISCARDED = ("discarded_d2_probability", "discarded_d2_fidelity")
_T1 = math.sqrt(T1_SQ_LINEAR_INVERSE)  # the inverse map's balanced working point
_LINEAR_INVERSE_DEFAULTS = {"t1": _T1, "t2": math.sqrt(R1_SQ_LINEAR_INVERSE) / _T1,
                            "t3": math.sqrt(T3_SQ_LINEAR_INVERSE)}


def _linear_inverse_branch(s: PhotonicState, fired: str):
    """One eraser outcome of the network's output ``s``: ``fired`` clicks, the other detector
    does not, and two photons then bunch on path ``out``.  Returns ``(p_eraser, p_two,
    state)``; ``state`` is None when either probability is zero."""
    p_eraser, s = post_select_coincidence(s, _INVERSE_ERASER[fired])
    if p_eraser == 0.0:
        return 0.0, 0.0, None
    s = apply_beam_splitter(s, "4", "7", "out1", "out2", _FIFTY)
    p_two, s = project_total_photons(s, _OUT1, 2)
    if p_two == 0.0:
        return p_eraser, 0.0, None
    s = strip_modes(s, _INVERSE_ERASER[fired][0][0])
    return p_eraser, p_two, relabel_paths(s, {"out1": "out"})


def _linear_inverse_run(s, t1: float, t2: float, t3: float, discarded: bool = False):
    """The inverse map on its input ``s`` on the spatial paths: the network and the kept
    eraser outcome.  Its values are that outcome's P and its P of two photons on ``out``,
    then, if ``discarded``, the other outcome's two and its state (or None)."""
    pre = _linear_inverse_premeasure(s, _SPATIAL, t1, t2, t3)
    p_eraser, p_two, out = _linear_inverse_branch(pre, "eD1")
    if out is None:
        raise InvalidInput("the heralded eraser outcome has zero probability")
    return (p_eraser, p_two, *(_linear_inverse_branch(pre, "eD2") if discarded else ())), out


def default_linear_inverse_params(t1: float | None = None, t2: float | None = None,
                                  t3: float | None = None) -> dict[str, float]:
    """Splitter transmissivities of the inverse map: each given value as a
    float, each omitted one at the balanced working point; each must lie
    strictly between 0 and 1."""
    return {k: _unit_interval(k, _LINEAR_INVERSE_DEFAULTS[k] if v is None else v)
            for k, v in (("t1", t1), ("t2", t2), ("t3", t3))}


def scheme_linear_inverse(c, t1: float | None = None, t2: float | None = None,
                          t3: float | None = None) -> SchemeReport:
    """Convert a spatial qutrit back to the two-photon polarization encoding.

    The spatial photon enters on paths s0/s1/s2 in coefficient order; the
    output pair leaves on path ``out``.  Defaults are the balanced working
    point.  The discarded second eraser outcome is quantified in ``checks``:
    it occurs with the same probability but carries an uncorrectable sign
    pattern, hence its lower output fidelity.
    """
    (parts, kept), params = _coeffs(c, "spatial"), default_linear_inverse_params(t1, t2, t3)
    (*values, p_d2, q_d2, fid_d2, fid), s = _segment(
        ("linear-inverse", kept), _linear_inverse_checked, _SOURCE, *params.values(), free=parts)
    n = (p_d2 > 0.0) + (fid_d2 is not None)  # the discarded outcome's checks: none where p is 0
    return _report("linear-inverse", s, fid, params, (_INVERSE_STEPS, _DISCARDED[:n]), values,
                   (p_d2 * q_d2, fid_d2)[:n])


def _linear_inverse_checked(s, t1, t2, t3, *parts):
    """scheme_linear_inverse's segment from fock._SOURCE: :func:`_linear_inverse_run` on the input
    and the discarded outcome, whose fidelity (None without a state) precedes the output's."""
    s = _built(_SPATIAL_IN, *parts, source=s)
    target = _built(_OUT_PAIR, *parts, source=s)
    (*values, s_d2), out = _linear_inverse_run(s, t1, t2, t3, True)
    return (*values, None if s_d2 is None else fidelity(s_d2, target),
            traced_fidelity(out, target)), out


# ---------------------------------------------------------------------------
# Kerr forward map


def _kerr_forward_routed(s: PhotonicState, t: float) -> PhotonicState:
    """Photonic part of the Kerr forward map on the input ``s``, before any probe couples.

    Populated modes: (1,H), (1l,V), (4h,H), (5,H), (6,V), (7,V).
    """
    s = apply_beam_splitter(s, "in", None, "1", "2", _FIFTY)
    s = apply_beam_splitter(s, "2", None, "4", "3", BeamSplitterSpec.from_t(t))
    s = route_pbs(s, ("1", None), ("1", "1l"))
    s = route_pbs(s, ("3", None), ("5", "6"))
    s = route_pbs(s, ("4", None), ("4h", "7"))
    return s


def _kerr_forward_run(variant, meas_mode, s, t, alpha, theta, tol):
    """The Kerr forward map from its input ``s``: the routed network, the probes,
    the kept readout outcome, the rebalance, the pair eraser and the flips.  Its values are
    the eraser's P, minimum branch fidelity and P per port, then each quadrature readout's
    kept label and p (separate-qnd), or the kept p and every outcome's p (double-xpm)."""
    s = _kerr_forward_routed(s, t)
    if variant == "separate-qnd":
        s = add_register(s, "probe-1", alpha)
        s = add_register(s, "probe-2", alpha)
        s = apply_xpm(s, "probe-1", (Mode("1", H),), theta)
        s = apply_xpm(s, "probe-1", (Mode("5", H), Mode("6", V)), -theta)
        s = apply_xpm(s, "probe-2", (Mode("1l", V),), theta)
        s = apply_xpm(s, "probe-2", (Mode("7", V),), -theta)
        values = ()
        for reg in ("probe-1", "probe-2"):
            kept = _quadrature_group(project_quadrature_x(s, reg, mode=meas_mode), reg, alpha)
            values += (kept.label, kept.probability)
            s = kept.state
    else:
        # After the coupler every wanted component leaves probe-1 in vacuum,
        # while single-route components imprint +/- theta on it.
        probe1 = (Mode("1", H), Mode("7", V))
        probe2 = (Mode("1l", V), Mode("5", H), Mode("6", V))
        s = _probe_pair(s, "probe", alpha, theta, probe1, probe2)
        dist = project_photon_number(s, "probe-1", mode=meas_mode)
        kept = dist.get("0")
        values, s = (kept.probability, *(o.probability for o in dist.outcomes)), kept.state

    # Rebalance path 5, erase the left-arm pair and post-select.
    s = apply_beam_splitter(s, "5", None, "5", "tap5", _FIFTY)
    s = route_pbs(s, ("1", "1l"), ("m", "mjunk"))
    s = route_pbs(s, ("m", None), ("dp", "dm"), basis="diag")
    p_det, merged, min_fid, p_ports = erase_and_merge(
        s, _PAIR_ERASER_PORTS, _PAIR_ERASER_RULE, keep=_KERR_KEEP, tol=tol
    )
    merged = apply_sigma_x(merged, "6")
    merged = apply_sigma_x(merged, "7")
    if merged.registers:  # probe-2 stays where it is correlated with the photons
        merged = _dropped(merged, "probe-2") or merged
    return (p_det, min_fid, *p_ports.values(), *values), merged


_PAIR_ERASER_PORTS = {"dp": "dp", "dm": "dm"}
_KERR_KEEP = path_modes("5") + path_modes("6") + path_modes("7")
_PAIR_ERASER_RULE = FeedForwardRule(
    {"dp": (), "dm": (Correction("phase", "7", math.pi),)}
)
_KERR_TARGET, _PAIR_ERASER = ("spatial", _KERR_OUT), ("pair-eraser", "dp|dm")
_KERR_FORWARD_KEYS = ("eraser_dp_probability", "eraser_dm_probability",
                      "eraser_min_branch_fidelity")
_PROBE_NUMBER_REPORT = ((("probe-number", "n=0"), _PAIR_ERASER),
                        ("probe_total_probability", *_KERR_FORWARD_KEYS))


def scheme_kerr_forward(c, t: float | None = None, variant: str = "double-xpm",
                        meas_mode: str = "ideal", qubus_alpha: float = DEFAULT_QUBUS_ALPHA,
                        theta: float = DEFAULT_THETA) -> SchemeReport:
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
    parts, kept = _coeffs(c, "biphotonic")
    params = _kerr_forward_args(t, variant, meas_mode, qubus_alpha, theta)
    run = _bound(_targeted, _bound(_kerr_forward_run, variant, meas_mode), _KERR_TARGET, _IN)
    (*values, fid), s = _segment(("kerr-forward", variant, meas_mode, kept), run, _SOURCE, *params,
                                 free=parts)
    t, alpha, theta, _ = params
    return _report("kerr-forward", s, fid, {"t": t, "t_squared": t * t, "qubus_alpha": alpha,
                                            "theta": theta}, *_kerr_forward_read(values, variant))


def _kerr_forward_args(t, variant, meas_mode, qubus_alpha, theta, probe=_check_probe):
    """The Kerr forward map's t, probe amplitude and angle (``probe`` checks them) and tolerance."""
    t = _unit_interval("t", T_KERR_FORWARD if t is None else t)
    alpha, theta = probe(qubus_alpha, theta)
    tol = _merge_tol(meas_mode)
    if variant not in ("separate-qnd", "double-xpm"):
        raise InvalidInput(f"unknown variant {variant!r}")
    return t, alpha, theta, tol


def _kerr_forward_read(values, variant="double-xpm"):
    """The Kerr forward map's report template, log probabilities and check values from its run's."""
    p_det, min_fid, p_dp, p_dm, *read = values
    if variant == "separate-qnd":  # each probe's kept label and p; else the kept p, every p
        steps = ("quadrature-probe-1", read[0]), ("quadrature-probe-2", read[2]), _PAIR_ERASER
        return (steps, _KERR_FORWARD_KEYS), (read[1], read[3], p_det), (p_dp, p_dm, min_fid)
    return _PROBE_NUMBER_REPORT, (read[0], p_det), (_summed(read[1:]), p_dp, p_dm, min_fid)


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
    of the ancilla superposition and undoing its 1/sqrt(2) weight.  Which
    terms match, and the checks on the input, are worked out once per shape.
    """
    paths = tuple(paths)

    def plan(shape):
        kept = []
        for k, (occ, _) in enumerate(shape.keys):
            qutrit = [m.pol for m, n in occ if m.path in paths for _ in range(n)]
            anc = [m.pol for m, n in occ if m.path == ancilla for _ in range(n)]
            if len(qutrit) != 1:
                raise WiringError("entangler input must hold exactly one photon "
                                  "across the qutrit paths")
            if len(anc) != 1:
                raise WiringError("entangler ancilla must hold exactly one photon")
            if anc == qutrit:
                kept.append(k)
        return _merge_plan([shape.keys[k] for k in kept], [f"A[{k}] * C[0]" for k in kept],
                           ["def kernel(A, C, E, P):"], (math.sqrt(2.0),))

    return _step(state, _site("reference", (paths, ancilla), plan))[1]


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
        st = _dropped(st, f"{register_prefix}-2")
        if st is None:  # correlated with the photons
            return corrected
        dropped.append((label, p, st))
    return dropped


def scheme_entangler(c, pattern: str = "reflected", qubus_alpha: float = DEFAULT_QUBUS_ALPHA,
                     theta: float = DEFAULT_THETA, meas_mode: str = "ideal") -> SchemeReport:
    """Entangling block on a freshly prepared spatial qutrit and |+> ancilla.

    Prepares the polarization pattern the block expects: paths carrying H
    where the block couples H, V where it couples V.  Deterministic: the
    branch probabilities sum to one and every corrected branch matches the
    ideal output, so the merged state is reported with a single
    full-probability log entry.  Per-branch probabilities and fidelities
    land in ``checks``.
    """
    (parts, kept), flips = _coeffs(c, "spatial"), _entangler_paths(_ENTANGLER_PATHS, pattern)[1]
    alpha, theta = _check_probe(qubus_alpha, theta)
    tol = _merge_tol(meas_mode)
    (template, p_all, *values), merged = _segment(
        ("entangler", pattern, meas_mode, kept), _bound(_entangler_run, flips, pattern, meas_mode),
        _SOURCE, alpha, theta, tol, free=parts)
    mean_fid = 0.0
    for p, f in zip(values[::2], values[1::2]):  # each branch's p and fidelity
        mean_fid += p * f
    return _report("entangler", merged, mean_fid / p_all, {"qubus_alpha": alpha, "theta": theta},
                   template, (p_all,), values)


def _entangler_run(flips, pattern, meas_mode, s, alpha, theta, tol, *parts):
    """The entangler scheme from fock._SOURCE; its values are its report template (branches
    named by label), the merged P, each branch's p and fidelity, then the merged fidelity."""
    s = _built(("spatial", _ENTANGLER_PATHS), *parts, source=s)
    for path in flips:
        s = apply_sigma_x(s, path)
    s = tensor(s, ancilla_plus("a"))
    reference = _entangler_reference(s, _ENTANGLER_PATHS, "a")
    branches = entangler_branches(s, _ENTANGLER_PATHS, "a", pattern, alpha, theta, meas_mode)
    values = [x for _, p, st in branches for x in (p, traced_fidelity(st, reference))]
    keys = [f"branch_n{label}_{x}" for label, _, _ in branches for x in ("probability", "fidelity")]
    p_all, merged, min_fid = merge_branches([(p, st) for _, p, st in branches], tol=tol)
    template = (("probe-number", "all n merged"),), (*keys, "merge_min_fidelity")
    return (template, p_all, *values, min_fid), merged


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
_TAPS_DARK = ((path_modes("tapA"), "no-click"), (path_modes("tapB"), "no-click"))
_M1, _OUT = path_modes("m1"), path_modes("out")
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
_KERR_INVERSE_REPORT = (
    (("entangler-1", "all n merged"), ("entangler-2", "all n merged"), ("path-eraser", "5|6|7|8"),
     ("rebalance-taps", "vacuum"), ("bunched-merge", "m1|m2")),
    ("entangler1_merge_fidelity", "entangler2_merge_fidelity",
     *(f"eraser_{k}_probability" for k in _PATH_ERASER_PORTS), "eraser_merge_fidelity",
     "bunched_m1_probability", "bunched_m2_probability", "split_discard_probability",
     "bunched_merge_fidelity"))


def _entangling_block(s, alpha, theta, tol, paths, ancilla, pattern, flips, meas_mode, prefix):
    """Part of the Kerr inverse map's segment: the polarization flips on ``flips``, one
    entangling block and the merge of its branches; its values are P and the fidelity."""
    for path in flips:
        s = apply_sigma_x(s, path)
    branches = entangler_branches(s, paths, ancilla, pattern, alpha, theta, meas_mode, prefix)
    p, s, fid = merge_branches([(q, st) for _, q, st in branches], tol=tol)
    return (p, fid), s


def _path_eraser(s, tol, paths):
    """Part of the Kerr inverse map's segment: the network that erases which-path information
    of the single photon, and its eraser; its values are P, the merge fidelity and each
    port's P."""
    s = route_pbs(s, (paths[1], paths[2]), ("merge12", "junk12"))
    s = apply_beam_splitter(s, paths[0], "merge12", "e3", "e4", _FIFTY)
    s = route_pbs(s, ("e3", None), ("5", "6"), basis="diag")
    s = route_pbs(s, ("e4", None), ("7", "8"), basis="diag")
    p, s, fid, p_ports = erase_and_merge(s, _PATH_ERASER_PORTS, _PATH_ERASER_RULE, tol=tol)
    return (p, fid, *p_ports.values()), s


def _rebalanced(s, alpha, theta, tol):
    """Part of the Kerr inverse map's segment: rebalance the two-H and two-V components, then
    merge the ancilla pair into one path, heralded by a probe that only sees the first
    output.  Its values are the taps' P, the bunched merge's P and fidelity, each kept
    probe group's P of two photons on ``out``, then every probe outcome's p."""
    s = _attenuate_mode(s, "a", H, "tapA")
    s = _attenuate_mode(s, "b", V, "tapB")
    p_tap, s = post_select_coincidence(s, _TAPS_DARK)
    s = apply_beam_splitter(s, "a", "b", "m1", "m2", _FIFTY)
    s = add_register(s, "merge-probe", alpha)
    s = apply_xpm(s, "merge-probe", _M1, theta)
    dist = project_quadrature_x(s, "merge-probe", mode="ideal")
    bunched, ps = [], []
    for value, out_path in ((alpha * math.cos(2.0 * theta), "m1"), (alpha, "m2")):
        kept = _quadrature_group(dist, "merge-probe", value)
        st = relabel_paths(kept.state, {out_path: "out"})
        q, st = project_total_photons(st, _OUT, 2)
        ps.append(_run(operator.mul, kept.probability, q))
        if ps[-1] > 0.0:
            bunched.append((ps[-1], st))
    p_bunch, s, fid_bunch = merge_branches(bunched, tol=tol)
    return (p_tap, p_bunch, fid_bunch, *ps, *(o.probability for o in dist.outcomes)), s


def _kerr_inverse_blocks(meas_mode, s, alpha, theta, tol):
    """The Kerr inverse map from its spatial qutrit ``s``; its values are each entangling
    block's, the path eraser's and the rebalance's, in that order."""
    s = tensor(tensor(s, ancilla_plus("a")), ancilla_plus("b"))
    values = ()
    for k, ancilla, pattern, flips in ((1, "a", "reflected", _SPATIAL[1:]),
                                       (2, "b", "transmitted", _SPATIAL[1:2])):
        block, s = _entangling_block(s, alpha, theta, tol, _SPATIAL, ancilla, pattern, flips,
                                     meas_mode, f"ent{k}")
        values += block
    erased, s = _path_eraser(s, tol, _SPATIAL)
    rebalanced, s = _rebalanced(s, alpha, theta, tol)
    return (*values, *erased, *rebalanced), s


def _kerr_inverse_read(values):
    """The Kerr inverse map's report template, log probabilities and check values from its run's."""
    p1, fid1, p2, fid2, p_eraser, fid_eraser, *ps = values
    ps, (p_tap, p_bunch, fid_bunch, *ps_bunch) = ps[:4], ps[4:]
    split = _summed(ps_bunch[2:]) - _summed(ps_bunch[:2])  # the readout's total less what bunched
    return _KERR_INVERSE_REPORT, (p1, p2, p_eraser, p_tap, p_bunch), (
        fid1, fid2, *ps, fid_eraser, *ps_bunch[:2], split, fid_bunch)


def scheme_kerr_inverse(c, qubus_alpha: float = DEFAULT_QUBUS_ALPHA, theta: float = DEFAULT_THETA,
                        meas_mode: str = "ideal") -> SchemeReport:
    """Convert a spatial qutrit to the two-photon encoding via two
    entangling blocks.

    The blocks copy the path information onto two ancilla photons, a
    four-port eraser removes the original photon, tapped attenuators
    rebalance the outer components, and a probe-heralded 50:50 merge bunches
    the ancilla pair onto path ``out``.  Succeeds with probability 1/2.
    """
    parts, kept = _coeffs(c, "spatial")
    alpha, theta = _check_merge_probe(qubus_alpha, theta)
    tol = _merge_tol(meas_mode)
    run = _bound(_targeted, _bound(_kerr_inverse_blocks, meas_mode), _OUT_PAIR, _SPATIAL_IN)
    (*values, fid), s = _segment(("kerr-inverse", meas_mode, kept), run, _SOURCE, alpha, theta,
                                 tol, free=parts)
    return _report("kerr-inverse", s, fid, {"qubus_alpha": alpha, "theta": theta},
                   *_kerr_inverse_read(values))


# ---------------------------------------------------------------------------
# arbitrary unitary on the two-photon encoding


def u3_biphotonic(c, u, backend: str = "linear", t: float | None = None, t1: float | None = None,
                  t2: float | None = None, t3: float | None = None,
                  qubus_alpha: float = DEFAULT_QUBUS_ALPHA, theta: float = DEFAULT_THETA,
                  meas_mode: str = "ideal") -> SchemeReport:
    """Apply a 3x3 unitary to a two-photon qutrit by round-tripping through
    the spatial encoding.

    The forward map produces a single photon over three paths, a triangular
    mesh of two-path rotations realizes ``u`` on those paths, and the
    matching inverse map restores the two-photon encoding on path ``out``.
    ``backend`` picks the linear-optics pair (success 1.17e-4) or the
    probe-based pair (success 1/12).
    """
    parts, kept = _coeffs(c, "biphotonic")
    try:
        u = np.asarray(u, dtype=complex)
    except (TypeError, ValueError):
        raise InvalidInput(f"expected a 3x3 complex matrix, got {u!r}") from None
    if u.shape != (3, 3):
        raise InvalidInput(f"expected a 3x3 matrix, got shape {u.shape}")
    mesh = reck_decompose(u)  # checks that u is unitary before any optics run
    if backend == "linear":
        keyed, params = (_linear_forward_t(t),), default_linear_inverse_params(t1, t2, t3)
        keyed += tuple(params.values())
        maps = _linear_forward_run, _linear_inverse_run
    elif backend == "kerr":
        keyed = _kerr_forward_args(t, "double-xpm", meas_mode, qubus_alpha, theta,
                                   _check_merge_probe)
        params = {"qubus_alpha": keyed[1], "theta": keyed[2]}
        maps = (_bound(_kerr_forward_run, "double-xpm", meas_mode),
                _bound(_kerr_inverse_blocks, meas_mode))
    else:
        raise InvalidInput(f"unknown backend {backend!r}")
    name, outputs, reads, template = _U3[backend]
    pairs = tuple((p, q) for p, q, _, _ in mesh.rotations)
    aim = QutritCoefficients.normalize(*(u @ np.array(parts).view(complex)))
    angles = [x for *_, a, b in mesh.rotations for x in (a, b)] + list(mesh.phases)
    wiring = pairs, tuple(phi == 0.0 for phi in mesh.phases)  # which are left out
    (k, *values), s = _segment((name, meas_mode, wiring, kept),
                               _bound(_u3_run, *maps, outputs, pairs), _SOURCE, *keyed,
                               free=(*parts, *aim.parts(), *angles))
    (out, fwd_fid, *inverted, fid), (_, ps, checks) = values[k:], reads[0](values[:k])
    _, inverse_ps, inverse_checks = reads[1](inverted)
    return _report(name, s, fid, {"t": keyed[0], **params}, template, (*ps, *inverse_ps),
                   (*checks, out.born_weight, fwd_fid, *inverse_checks))


def _u3_run(forward, inverse, outputs, pairs, s, *args):
    """u3_biphotonic's segment from fock._SOURCE: the ``forward`` map onto ``outputs``, the mesh
    on ``pairs``, the ``inverse`` map; ``args``: 4 keyed parameters, c's parts, aim's, angles."""
    (*fwd, fid), out = _targeted(forward, ("spatial", outputs), _IN, s, *args[:10])
    s, angles = relabel_paths(out, dict(zip(outputs, _SPATIAL))), args[16:]
    rotations = tuple((*pq, a, b) for pq, a, b in zip(pairs, angles[::2], angles[1::2]))
    s = apply_lomi(s, ReckDecomposition(rotations, angles[2 * len(pairs):]), _SPATIAL)
    inverted, s = _targeted(inverse, _OUT_PAIR, None, s, *args[1:4], *args[10:16])
    return (len(fwd), *fwd, out, fid, *inverted), s  # the forward map's state: its weight


def _u3_template(forward, inverse):
    """A u3 gate's report template from its forward and inverse maps', its checks prefixed."""
    return forward[0] + inverse[0], (*(f"forward_{k}" for k in (
        *forward[1], "output_born_weight", "fidelity")), *(f"inverse_{k}" for k in inverse[1]))


# per backend: its name, the forward map's outputs, the maps' reads and the report template
_U3 = {"linear": ("u3-linear", _FORWARD_OUT, (_linear_forward_read, lambda v: (None, v, ())),
                  _u3_template(_FORWARD_REPORT, (_INVERSE_STEPS, ()))),
       "kerr": ("u3-kerr", _KERR_OUT, (_kerr_forward_read, _kerr_inverse_read),
                _u3_template(_PROBE_NUMBER_REPORT, _KERR_INVERSE_REPORT))}


def _u3_linear(c, u, t=None, t1=None, t2=None, t3=None) -> SchemeReport:
    return u3_biphotonic(c, u, "linear", t, t1, t2, t3)


def _u3_kerr(c, u, t=None, qubus_alpha=DEFAULT_QUBUS_ALPHA, theta=DEFAULT_THETA,
             meas_mode="ideal") -> SchemeReport:
    return u3_biphotonic(c, u, "kerr", t, qubus_alpha=qubus_alpha, theta=theta, meas_mode=meas_mode)


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
