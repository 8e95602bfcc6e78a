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
    _bits,
    _columns,
    _interned,
    _photons,
    _recall,
    _regrouped,
    _sort_key,
    inner_product,
    norm_sq,
)
from .measurement import PROB_EPS, BranchDistribution, Outcome, _norm_in, _outcome, _outcome_plan


def add_register(state: PhotonicState, register: str, alpha0: complex) -> PhotonicState:
    """Attach a register at ``alpha0`` to every term of a canonical state."""
    if register in state.registers:
        raise WiringError(f"register {register!r} already attached")
    label = complex(alpha0)
    op = ("register", _bits(label.real, label.imag))
    return _relabeled(state, op, state.registers + (register,), lambda _, c: c + (label,))


def _register_index(state: PhotonicState, register: str) -> int:
    try:
        return state.registers.index(register)
    except ValueError:
        raise InvalidInput(f"no register {register!r} attached") from None


def _dropped(state, idx: int, members: tuple[int, ...], amplitudes, prune=True):
    """The canonical state of the terms at ``members``, register ``idx`` removed,
    that carry ``amplitudes``; dropping the register can bring terms together."""
    regs = state.registers[:idx] + state.registers[idx + 1 :]
    return _regrouped(state, ("drop", idx, members), members, amplitudes, regs, prune=prune,
                      rekeyed=lambda keys: [(occ, c[:idx] + c[idx + 1 :]) for occ, c in keys])


def _read(state, idx: int, op: tuple, norm_in: float, members, chains):
    """``(p, branch)`` of readout outcome ``op`` of register ``idx``: the terms at
    ``members``, each times its ``chains`` of factors, merged without the register."""
    shape = state.shape

    def plan():
        keys = [(occ, c[:idx] + c[idx + 1 :]) for occ, c in map(shape.keys.__getitem__, members)]
        parts, values = [], []
        for k, chain in zip(members, chains):
            refs = range(len(values), len(values) + len(chain))
            parts.append(f"A[{k}]" + "".join(f" * V[{v}]" for v in refs))
            values += chain
        return _outcome_plan(keys, parts, values, grouped=True)

    registers = state.registers[:idx] + state.registers[idx + 1 :]
    return _outcome(state, op, plan, norm_in, registers, float(state.born_weight))


def _relabeled(state: PhotonicState, op: tuple, registers, relabel) -> PhotonicState:
    """``state`` on ``registers`` with each term's labels rewritten by ``relabel(occ,
    labels)``: a one-to-one rewrite, fixed by ``op``, that keeps labels
    COHERENT_MERGE_EPS apart, so nothing merges.  The new labels, order and shape
    are built once per shape."""
    shape = state.shape

    def plan():
        keys = [(occ, relabel(occ, coh)) for occ, coh in shape.keys]
        order = sorted(range(len(keys)), key=lambda k: _sort_key(keys[k]))
        return order, _interned(tuple(keys[k] for k in order))

    order, out_shape = _recall(shape, op, plan)
    amps = list(map(state.amplitudes.__getitem__, order))
    return _columns(registers, amps, state.born_weight, out_shape)


def apply_xpm(
    state: PhotonicState, register: str, modes: tuple[Mode, ...], theta: float
) -> PhotonicState:
    """Photons in ``modes`` rotate ``register``'s label by theta each; canonical input."""
    idx = _register_index(state, register)
    watched = frozenset(modes)

    def relabel(occ, c):
        return c[:idx] + (c[idx] * cmath.exp(1j * _photons(occ, watched) * theta),) + c[idx + 1 :]

    return _relabeled(state, ("xpm", idx, watched, _bits(theta)), state.registers, relabel)


def coherent_phase(state: PhotonicState, register: str, phi: float) -> PhotonicState:
    """Rotate one register's label by ``phi``; canonical input."""
    idx = _register_index(state, register)
    return _relabeled(state, ("phase", idx, _bits(phi)), state.registers,
                      lambda _, c: c[:idx] + (c[idx] * cmath.exp(1j * phi),) + c[idx + 1 :])


def coherent_bs50(state: PhotonicState, reg_a: str, reg_b: str) -> PhotonicState:
    """Interfere two probes of a canonical state: (a, b) -> ((a-b), (a+b))/sqrt2."""
    ia = _register_index(state, reg_a)
    ib = _register_index(state, reg_b)
    if ia == ib:
        raise WiringError("cannot interfere a register with itself")

    def relabel(_, c):
        coh, s = list(c), 1.0 / math.sqrt(2)
        coh[ia], coh[ib] = (c[ia] - c[ib]) * s, (c[ia] + c[ib]) * s
        return tuple(coh)

    return _relabeled(state, ("bs50", ia, ib), state.registers, relabel)


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
    label = complex(alpha)
    watched = frozenset(modes_a), frozenset(modes_b)

    def relabel(occ, c):
        s, back = 1.0 / math.sqrt(2), cmath.exp(1j * -theta)
        a, b = (label * cmath.exp(1j * _photons(occ, w) * theta) * back for w in watched)
        return c + ((a - b) * s, (a + b) * s)

    # Terms of one occupation get the same new labels, so the one sort of
    # _relabeled orders the terms as each of the chain's five does.
    op = ("probes", *watched, _bits(label.real, label.imag, theta))
    return _relabeled(state, op, regs, relabel)


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
    shape = state.shape
    pure, mixed = _recall(shape, ("readout", idx, mode), lambda: _readout_plan(shape, idx, mode))
    classes = [(label, *_read(state, idx, ("readout", idx, mode, label), norm_in, *terms))
               for label, *terms in pure]
    if mixed is not None:
        # From the class Gram of psi, the lit terms: e^{z-m} = <b|b'>, e^{-z-m} = <b|-b'>;
        # with P the parity b -> -b, the odd mass is (<psi|psi> - <psi|P psi>)/2 and the
        # even (<psi|psi> + <psi|P psi>)/2 less vac, the unpruned norm of psi's vacuum part.
        lit, factors, vacuum = mixed
        amps = [state.amplitudes[k] for k in lit]
        lit_amps = [a * f for a, f in zip(amps, factors)] if factors else amps
        vac = norm_sq(_dropped(state, idx, lit, [a * f for a, f in zip(lit_amps, vacuum)], False))
        lit_shape = shape.subset(lit)
        mirror_shape = _recall(lit_shape, ("mirror", idx), lambda: _interned(tuple(
            (occ, c[:idx] + (-c[idx],) + c[idx + 1 :]) for occ, c in lit_shape.keys)))
        psi, mirror = (_columns(state.registers, lit_amps, 1.0, s)
                       for s in (lit_shape, mirror_shape))
        n2, flip = inner_product(psi, psi).real, inner_product(psi, mirror).real
        classes += [("odd", 0.5 * (n2 - flip) / norm_in, None),
                    ("even", (0.5 * (n2 + flip) - vac) / norm_in, None)]
    outcomes = [Outcome(label, None, p, branch) for label, p, branch in classes if p > PROB_EPS]
    return BranchDistribution(tuple(outcomes))


def _readout_plan(shape, idx: int, mode: str):
    """What :func:`project_photon_number` reads from labels ``idx``: per pure class, label,
    members and their chains of factors ("0": undisplaced terms, or all times <0|b> if
    physical; "odd", "even" if lit labels are +beta or -beta of one beta: lit terms, rescaled
    if ideal, times sign and k_odd or times k_even); else any lit terms, rescales, <0|b>."""
    betas = [coh[idx] for _, coh in shape.keys]
    quiet = [abs(b) <= COHERENT_MERGE_EPS for b in betas]
    lit = tuple(k for k, q in enumerate(quiet) if not q)
    if mode == "ideal":
        factors = tuple(1.0 / math.sqrt(-math.expm1(-abs(betas[k]) ** 2)) for k in lit)
        zero = tuple(k for k, q in enumerate(quiet) if q)
        pure = [("0", zero, [()] * len(zero))]
    else:
        factors = ()
        pure = [("0", tuple(range(len(betas))), [(math.exp(-0.5 * abs(b) ** 2),) for b in betas])]
    heads = [(f,) for f in factors] or [()] * len(lit)
    lit_betas = [betas[k] for k in lit]
    signs = tuple(1.0 if abs(b - lit_betas[0]) <= COHERENT_MERGE_EPS else -1.0 for b in lit_betas)
    if lit and all(abs(b - s * lit_betas[0]) <= COHERENT_MERGE_EPS
                   for b, s in zip(lit_betas, signs)):
        m = abs(lit_betas[0]) ** 2
        k_odd, k_even = math.sqrt(-0.5 * math.expm1(-2.0 * m)), -math.expm1(-m) / math.sqrt(2.0)
        pure.append(("odd", lit, [h + (s, k_odd) for h, s in zip(heads, signs)]))
        pure.append(("even", lit, [h + (k_even,) for h in heads]))
    elif lit:
        return pure, (lit, factors, tuple(math.exp(-0.5 * abs(b) ** 2) for b in lit_betas))
    return pure, None


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
    shape = state.shape

    def groups():  # per resolved Re(beta): outcome label, value and terms
        xs = [c[idx].real for _, c in shape.keys]
        centers: list[float] = []
        for x in xs:
            if not any(abs(x - c) <= COHERENT_MERGE_EPS for c in centers):
                centers.append(x)
        return [(f"x={x0:.9g}", float(x0),
                 tuple(k for k, x in enumerate(xs) if abs(x - x0) <= COHERENT_MERGE_EPS))
                for x0 in sorted(centers)]

    outcomes = []
    for label, x0, kept in _recall(shape, ("quadrature", idx), groups):
        p, branch = _read(state, idx, ("quadrature", idx, kept), norm_in, kept, [()] * len(kept))
        if p > 0.0:
            outcomes.append(Outcome(label, x0, p, branch))
    return BranchDistribution(tuple(outcomes))


def drop_register(state: PhotonicState, register: str) -> PhotonicState:
    """Detach a register that is in a product with the photonic part."""
    idx = _register_index(state, register)
    shape = state.shape
    if not shape.keys:
        raise InvalidInput("cannot drop a register from a zero state")

    def uniform():
        ref = shape.keys[0][1][idx]
        return not any(abs(c[idx] - ref) > COHERENT_MERGE_EPS for _, c in shape.keys)

    if not _recall(shape, ("uniform", idx), uniform):
        raise WiringError(
            f"register {register!r} is correlated with the photons; measure it instead"
        )
    return _dropped(state, idx, tuple(range(len(shape.keys))), state.amplitudes)
