"""Coherent probe registers: cross phase modulation and bus measurements.

Registers ride along as pure coherent labels.  Cross phase modulation with
``n`` photons maps ``|alpha> -> |alpha e^{i n theta}>`` exactly; probe-side
linear optics rewrite the labels, and the two destructive readouts
(photon counting and an x-quadrature homodyne) turn label structure into
measurement branches.
"""

from __future__ import annotations

import cmath
import math

from .fock import (
    COHERENT_MERGE_EPS,
    FockTerm,
    InvalidInput,
    Mode,
    PhotonicState,
    UnsupportedMode,
    WiringError,
    _grouped_state,
    _grouping,
    build_state,
    inner_product,
    norm_sq,
    sorted_state,
)
from .measurement import PROB_EPS, BranchDistribution, Outcome, _branch, _norm_in


def add_register(state: PhotonicState, register: str, alpha0: complex) -> PhotonicState:
    """Attach a register at ``alpha0`` to every term of a canonical state."""
    if register in state.registers:
        raise WiringError(f"register {register!r} already attached")
    terms = tuple(
        FockTerm(t.occ, t.coherent + (complex(alpha0),), t.amplitude)
        for t in state.terms
    )
    return PhotonicState(state.registers + (register,), terms, state.born_weight)


def _register_index(state: PhotonicState, register: str) -> int:
    try:
        return state.registers.index(register)
    except ValueError:
        raise InvalidInput(f"no register {register!r} attached") from None


def _without_register(state, idx, rewrite):
    """Rebuild terms with register ``idx`` removed and amplitudes rewritten."""
    regs = state.registers[:idx] + state.registers[idx + 1 :]
    terms = []
    for t in state.terms:
        amp = rewrite(t)
        if amp is None:
            continue
        coh = t.coherent[:idx] + t.coherent[idx + 1 :]
        terms.append(FockTerm(t.occ, coh, amp))
    return regs, terms


def apply_xpm(
    state: PhotonicState, register: str, modes: tuple[Mode, ...], theta: float
) -> PhotonicState:
    """Photons in ``modes`` rotate ``register``'s label by theta each; canonical input."""
    idx = _register_index(state, register)
    watched = frozenset(modes)
    terms = []
    for t in state.terms:
        n = sum(k for m, k in t.occ if m in watched)
        coh = list(t.coherent)
        coh[idx] = coh[idx] * cmath.exp(1j * n * theta)
        terms.append(FockTerm(t.occ, tuple(coh), t.amplitude))
    return sorted_state(state, terms)


def coherent_phase(state: PhotonicState, register: str, phi: float) -> PhotonicState:
    """Rotate one register's label by ``phi``; canonical input."""
    idx = _register_index(state, register)
    terms = []
    for t in state.terms:
        coh = list(t.coherent)
        coh[idx] = coh[idx] * cmath.exp(1j * phi)
        terms.append(FockTerm(t.occ, tuple(coh), t.amplitude))
    return sorted_state(state, terms)


def coherent_bs50(state: PhotonicState, reg_a: str, reg_b: str) -> PhotonicState:
    """Interfere two probes of a canonical state: (a, b) -> ((a-b), (a+b))/sqrt2."""
    ia = _register_index(state, reg_a)
    ib = _register_index(state, reg_b)
    if ia == ib:
        raise WiringError("cannot interfere a register with itself")
    s = 1.0 / math.sqrt(2)
    terms = []
    for t in state.terms:
        coh = list(t.coherent)
        a, b = coh[ia], coh[ib]
        coh[ia] = (a - b) * s
        coh[ib] = (a + b) * s
        terms.append(FockTerm(t.occ, tuple(coh), t.amplitude))
    return sorted_state(state, terms)


def _rescaled(terms, idx: int, factor) -> list[FockTerm]:
    """``terms`` with each amplitude times ``factor(|b|^2)``, b its label in ``idx``."""
    return [t._replace(amplitude=t.amplitude * factor(abs(t.coherent[idx]) ** 2)) for t in terms]


def project_photon_number(
    state: PhotonicState, register: str, mode: str = "ideal"
) -> BranchDistribution:
    """Count photons in a probe register, destroying it, by outcome class.

    Feed-forward tells apart only ``"0"``, ``"odd"`` and ``"even"`` (n >= 2),
    so each class is summed over all of its n in closed form, untruncated:
    with z = b* b' and m = (|b|^2 + |b'|^2)/2, the class sums of <b|n><n|b'>
    are e^{-m}, (e^{z-m} - e^{-z-m})/2 and (e^{z-m} + e^{-z-m})/2 - e^{-m}.
    ``physical`` uses them as they are, so a displaced register leaks weight
    into "0".  ``ideal`` treats any |beta| above the merge tolerance as
    reliably flagged: undisplaced terms feed "0" unchanged, displaced terms
    feed "odd" and "even" rescaled by 1/sqrt(1 - e^{-|beta|^2}).

    "0" is pure, and so are "odd" and "even" when every displaced label is
    +beta or -beta of one beta (term t then reads a_t s_t^p, s_t its label's
    sign, p = 1 for odd and 0 for even).  Otherwise that class is a mixture,
    which is not modelled: its outcome has the exact probability and state None.
    """
    if mode not in ("ideal", "physical"):
        raise InvalidInput(f"unknown measurement mode {mode!r}")
    idx = _register_index(state, register)
    norm_in = _norm_in(state, "measure")
    regs = state.registers[:idx] + state.registers[idx + 1 :]
    lit = [t for t in state.terms if abs(t.coherent[idx]) > COHERENT_MERGE_EPS]
    if mode == "ideal":
        zero = [t for t in state.terms if abs(t.coherent[idx]) <= COHERENT_MERGE_EPS]
        lit = _rescaled(lit, idx, lambda x: 1.0 / math.sqrt(-math.expm1(-x)))
    else:
        zero = _rescaled(state.terms, idx, lambda x: math.exp(-0.5 * x))  # times <0|b>
    # Merges and order do not depend on amplitudes: one grouping serves "0", one
    # serves both "odd" and "even".
    zero_groups, lit_groups = (
        _grouping((t.occ, t.coherent[:idx] + t.coherent[idx + 1 :]) for t in terms)
        for terms in (zero, lit)
    )

    def merged(groups, amplitudes) -> PhotonicState:
        return _grouped_state(regs, groups, amplitudes, state.born_weight)

    classes = [("0", *_branch(merged(zero_groups, [t.amplitude for t in zero]), norm_in))]
    betas = [t.coherent[idx] for t in lit]
    signs = [1.0 if abs(b - betas[0]) <= COHERENT_MERGE_EPS else -1.0 for b in betas]
    if lit and all(abs(b - s * betas[0]) <= COHERENT_MERGE_EPS for b, s in zip(betas, signs)):
        m = abs(betas[0]) ** 2
        k_odd, k_even = math.sqrt(-0.5 * math.expm1(-2.0 * m)), -math.expm1(-m) / math.sqrt(2.0)
        odd = [t.amplitude * s * k_odd for t, s in zip(lit, signs)]
        classes.append(("odd", *_branch(merged(lit_groups, odd), norm_in)))
        even = [t.amplitude * k_even for t in lit]
        classes.append(("even", *_branch(merged(lit_groups, even), norm_in)))
    elif lit:
        vacuum = _rescaled(lit, idx, lambda x: math.exp(-0.5 * x))
        vac = norm_sq(merged(lit_groups, [t.amplitude for t in vacuum]))
        for label, mass in _mixed_masses(state.registers, lit, idx, vac):
            classes.append((label, mass / norm_in, None))
    outcomes = [Outcome(label, None, p, branch) for label, p, branch in classes if p > PROB_EPS]
    return BranchDistribution(tuple(outcomes))


def _mixed_masses(registers, lit, idx, vac):
    """``(label, mass)`` of "odd" and "even" from the class Gram of ``lit``.

    e^{z-m} = <b|b'> and e^{-z-m} = <b|-b'>, so with P the parity b -> -b the
    odd mass is (<psi|psi> - <psi|P psi>)/2 and the even mass is
    (<psi|psi> + <psi|P psi>)/2 less ``vac``, the norm of psi's vacuum part.
    """
    flipped = [t._replace(coherent=t.coherent[:idx] + (-t.coherent[idx],) + t.coherent[idx + 1 :])
               for t in lit]
    psi = PhotonicState(registers, tuple(lit))
    n2 = inner_product(psi, psi).real
    flip = inner_product(psi, PhotonicState(registers, tuple(flipped))).real
    return [("odd", 0.5 * (n2 - flip)), ("even", 0.5 * (n2 + flip) - vac)]


def project_quadrature_x(
    state: PhotonicState, register: str, mode: str = "ideal"
) -> BranchDistribution:
    """Homodyne the x quadrature of a register, destroying it.

    Ideal readout assumes the distinct Re(beta) values present are spaced
    far enough to be resolved with certainty: terms are grouped by Re(beta)
    within the merge tolerance and each group keeps its amplitudes verbatim.
    A finite-resolution model is not implemented.
    """
    if mode == "physical":
        raise UnsupportedMode("finite-resolution homodyne is not modelled")
    if mode != "ideal":
        raise InvalidInput(f"unknown measurement mode {mode!r}")
    idx = _register_index(state, register)
    norm_in = _norm_in(state, "measure")
    centers: list[float] = []
    for t in state.terms:
        x = t.coherent[idx].real
        if not any(abs(x - c) <= COHERENT_MERGE_EPS for c in centers):
            centers.append(x)
    outcomes = []
    for x0 in sorted(centers):
        def keep(term, x0=x0):
            if abs(term.coherent[idx].real - x0) <= COHERENT_MERGE_EPS:
                return term.amplitude
            return None

        # dropping the register can bring terms together: rebuild
        regs, terms = _without_register(state, idx, keep)
        p, branch = _branch(build_state(regs, terms, state.born_weight), norm_in)
        if p > 0.0:
            outcomes.append(Outcome(f"x={x0:.9g}", float(x0), p, branch))
    return BranchDistribution(tuple(outcomes))


def drop_register(state: PhotonicState, register: str) -> PhotonicState:
    """Detach a register that is in a product with the photonic part."""
    idx = _register_index(state, register)
    values = [t.coherent[idx] for t in state.terms]
    if not values:
        raise InvalidInput("cannot drop a register from a zero state")
    ref = values[0]
    if any(abs(v - ref) > COHERENT_MERGE_EPS for v in values):
        raise WiringError(
            f"register {register!r} is correlated with the photons; measure it instead"
        )
    regs, terms = _without_register(state, idx, lambda t: t.amplitude)
    return build_state(regs, terms, state.born_weight)
