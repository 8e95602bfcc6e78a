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
    InvalidInput,
    Mode,
    PhotonicState,
    UnsupportedMode,
    WiringError,
    _interned,
    _new_term,
    _recall,
    _regrouped,
    _shape,
    _shaped,
    _sort_key,
    inner_product,
    norm_sq,
)
from .measurement import PROB_EPS, BranchDistribution, Outcome, _branch, _norm_in


def add_register(state: PhotonicState, register: str, alpha0: complex) -> PhotonicState:
    """Attach a register at ``alpha0`` to every term of a canonical state."""
    if register in state.registers:
        raise WiringError(f"register {register!r} already attached")
    label = complex(alpha0)
    labels = [t[1] + (label,) for t in state.terms]
    return _relabeled(state, ("register", label), labels, state.registers + (register,))


def _register_index(state: PhotonicState, register: str) -> int:
    try:
        return state.registers.index(register)
    except ValueError:
        raise InvalidInput(f"no register {register!r} attached") from None


def _dropped(state, idx: int, members: tuple[int, ...], amplitudes) -> PhotonicState:
    """The canonical state of the terms at ``members``, register ``idx`` removed,
    that carry ``amplitudes``; dropping the register can bring terms together."""
    regs = state.registers[:idx] + state.registers[idx + 1 :]

    def rekey(_, key):
        return key[0], key[1][:idx] + key[1][idx + 1 :]

    return _regrouped(state, ("drop", idx, members), members, rekey, amplitudes, regs)


def _relabeled(state: PhotonicState, op: tuple, labels: list[tuple], registers) -> PhotonicState:
    """``state`` on ``registers`` with term k's labels ``labels[k]``: a one-to-one rewrite,
    fixed by ``op``, that keeps labels COHERENT_MERGE_EPS apart, so nothing merges.
    The new order and shape follow from the keys and are built once per shape."""
    terms = state.terms

    def plan():
        keys = [(t[0], coh) for t, coh in zip(terms, labels)]
        order = sorted(range(len(keys)), key=lambda k: _sort_key(keys[k]))
        return order, _interned(tuple(keys[k] for k in order))

    order, shape = _recall(_shape(state), op, plan)
    out = tuple(_new_term((terms[k][0], labels[k], terms[k][2])) for k in order)
    return _shaped(registers, out, state.born_weight, shape)


def apply_xpm(
    state: PhotonicState, register: str, modes: tuple[Mode, ...], theta: float
) -> PhotonicState:
    """Photons in ``modes`` rotate ``register``'s label by theta each; canonical input."""
    idx = _register_index(state, register)
    watched = frozenset(modes)
    counts = _shape(state).photons(watched)
    turn = {n: cmath.exp(1j * n * theta) for n in set(counts)}
    labels = [c[:idx] + (c[idx] * turn[n],) + c[idx + 1 :]
              for (_, c, _), n in zip(state.terms, counts)]
    return _relabeled(state, ("xpm", idx, watched, theta), labels, state.registers)


def coherent_phase(state: PhotonicState, register: str, phi: float) -> PhotonicState:
    """Rotate one register's label by ``phi``; canonical input."""
    idx, turn = _register_index(state, register), cmath.exp(1j * phi)
    labels = [c[:idx] + (c[idx] * turn,) + c[idx + 1 :] for _, c, _ in state.terms]
    return _relabeled(state, ("phase", idx, phi), labels, state.registers)


def coherent_bs50(state: PhotonicState, reg_a: str, reg_b: str) -> PhotonicState:
    """Interfere two probes of a canonical state: (a, b) -> ((a-b), (a+b))/sqrt2."""
    ia = _register_index(state, reg_a)
    ib = _register_index(state, reg_b)
    if ia == ib:
        raise WiringError("cannot interfere a register with itself")
    s = 1.0 / math.sqrt(2)
    labels = []
    for t in state.terms:
        coh = list(t.coherent)
        coh[ia], coh[ib] = (coh[ia] - coh[ib]) * s, (coh[ia] + coh[ib]) * s
        labels.append(tuple(coh))
    return _relabeled(state, ("bs50", ia, ib), labels, state.registers)


def couple_probes(state: PhotonicState, reg_a: str, reg_b: str, alpha: float, theta: float,
                  modes_a: tuple[Mode, ...], modes_b: tuple[Mode, ...]) -> PhotonicState:
    """Couple two probes at ``alpha`` and interfere them: each picks up theta per
    photon in its modes and is turned back by theta, so a probe that saw one
    photon returns to alpha, and the 50:50 coupler's first port then holds 0 or
    +/- sqrt(2) alpha sin(theta).  Bit for bit, in one pass: :func:`add_register`
    ``reg_a`` and ``reg_b``, :func:`apply_xpm` on each with its modes,
    :func:`coherent_phase` by -theta on each, then :func:`coherent_bs50`."""
    regs = state.registers + (reg_a, reg_b)
    for reg in (reg_a, reg_b):
        if regs.count(reg) > 1:
            raise WiringError(f"register {reg!r} already attached")
    label, s, back = complex(alpha), 1.0 / math.sqrt(2), cmath.exp(1j * -theta)
    watched = frozenset(modes_a), frozenset(modes_b)
    counts = list(zip(*(_shape(state).photons(w) for w in watched)))
    new = {}
    for n_a, n_b in set(counts):
        a = label * cmath.exp(1j * n_a * theta) * back
        b = label * cmath.exp(1j * n_b * theta) * back
        new[n_a, n_b] = (a - b) * s, (a + b) * s
    labels = [t[1] + new[n] for t, n in zip(state.terms, counts)]
    # Terms of one occupation get the same new labels, so the one sort of
    # _relabeled orders the terms as each of the chain's five does.
    return _relabeled(state, ("probes", *watched, label, theta), labels, regs)


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
    terms = state.terms
    quiet = [abs(t[1][idx]) <= COHERENT_MERGE_EPS for t in terms]
    lit = tuple(k for k, q in enumerate(quiet) if not q)
    zero = tuple(k for k, q in enumerate(quiet) if q or mode == "physical")

    def rescaled(members, factor):  # each amplitude times factor(|b|^2), b its label
        return [terms[k][2] * factor(abs(terms[k][1][idx]) ** 2) for k in members]

    if mode == "ideal":
        zero_amps = [terms[k][2] for k in zero]
        lit_amps = rescaled(lit, lambda x: 1.0 / math.sqrt(-math.expm1(-x)))
    else:
        zero_amps = rescaled(zero, lambda x: math.exp(-0.5 * x))  # times <0|b>
        lit_amps = [terms[k][2] for k in lit]
    # Merges and order do not depend on amplitudes: one grouping serves "0", one
    # serves both "odd" and "even".
    classes = [("0", *_branch(_dropped(state, idx, zero, zero_amps), norm_in))]
    betas = [terms[k][1][idx] for k in lit]
    signs = [1.0 if abs(b - betas[0]) <= COHERENT_MERGE_EPS else -1.0 for b in betas]
    if lit and all(abs(b - s * betas[0]) <= COHERENT_MERGE_EPS for b, s in zip(betas, signs)):
        m = abs(betas[0]) ** 2
        k_odd, k_even = math.sqrt(-0.5 * math.expm1(-2.0 * m)), -math.expm1(-m) / math.sqrt(2.0)
        odd = [a * s * k_odd for a, s in zip(lit_amps, signs)]
        classes.append(("odd", *_branch(_dropped(state, idx, lit, odd), norm_in)))
        even = [a * k_even for a in lit_amps]
        classes.append(("even", *_branch(_dropped(state, idx, lit, even), norm_in)))
    elif lit:
        vacuum = [a * math.exp(-0.5 * abs(b) ** 2) for a, b in zip(lit_amps, betas)]
        vac = norm_sq(_dropped(state, idx, lit, vacuum))
        psi = [_new_term((terms[k][0], terms[k][1], a)) for k, a in zip(lit, lit_amps)]
        for label, mass in _mixed_masses(state.registers, psi, idx, vac):
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
        kept = tuple(
            k for k, t in enumerate(state.terms)
            if abs(t.coherent[idx].real - x0) <= COHERENT_MERGE_EPS
        )
        amps = [state.terms[k][2] for k in kept]
        p, branch = _branch(_dropped(state, idx, kept, amps), norm_in)
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
    everyone = tuple(range(len(state.terms)))
    return _dropped(state, idx, everyone, [t.amplitude for t in state.terms])
