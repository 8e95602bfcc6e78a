"""Coherent probe registers: cross phase modulation and bus measurements.

Registers ride along as pure coherent labels.  Cross phase modulation with
``n`` photons maps ``|alpha> -> |alpha e^{i n theta}>`` exactly; probe-side
linear optics rewrite the labels, and the two destructive readouts
(photon counting and an x-quadrature homodyne) turn label structure into
measurement branches.
"""

from __future__ import annotations

import cmath
import functools
import math

from .fock import (
    COHERENT_MERGE_EPS,
    InvalidInput,
    Mode,
    PhotonicState,
    UnsupportedMode,
    WiringError,
    _Site,
    _bits,
    _group_lines,
    _interned,
    _kernel,
    _merge_plan,
    _merged,
    _norm_lines,
    _pair_lines,
    _photons,
    _recall,
    _run,
    _site,
    _sort_key,
    _step,
)
from .measurement import PROB_EPS, BranchDistribution, Outcome, _norm_in


def add_register(state: PhotonicState, register: str, alpha0: complex) -> PhotonicState:
    """Attach a register at ``alpha0`` to every term of a canonical state."""
    if register in state.registers:
        raise WiringError(f"register {register!r} already attached")
    label = complex(alpha0)
    op = ("register", _bits(label.real, label.imag))
    return _relabeled(state, op, state.registers + (register,), lambda _, c: c + (label,),
                      alpha0=label)


def _register_index(state: PhotonicState, register: str) -> int:
    try:
        return state.registers.index(register)
    except ValueError:
        raise InvalidInput(f"no register {register!r} attached") from None


def _read_plan(shape, idx: int, members, chains):
    """The :func:`fock._step` plan of a readout outcome of register ``idx``: the terms at
    ``members``, each times its ``chains`` of factors, merged without the register."""
    keys = [(occ, c[:idx] + c[idx + 1 :]) for occ, c in map(shape.keys.__getitem__, members)]
    parts, values = [], []
    for k, chain in zip(members, chains):
        refs = range(len(values), len(values) + len(chain))
        parts.append(f"A[{k}]" + "".join(f" * V[{v}]" for v in refs))
        values += chain
    return _merge_plan(keys, parts, ["def kernel(A, n, C, E, P):", "    V, o = C"], tuple(values),
                       measured=True)


def _relabeled(state: PhotonicState, op: tuple, registers, relabel, **finite) -> PhotonicState:
    """``state`` on ``registers`` with each term's labels rewritten by ``relabel(occ,
    labels)``: a one-to-one rewrite, keyed by ``op``, that keeps labels COHERENT_MERGE_EPS
    apart, so nothing merges; the new labels and order are built once per shape, after
    checking that each of the ``finite`` parameters, whose bits ``op`` holds, is finite."""

    def plan(shape):
        for name, value in finite.items():
            if not cmath.isfinite(value):
                raise InvalidInput(f"{name} = {value!r} is not finite")
        keys = [(occ, relabel(occ, coh)) for occ, coh in shape.keys]
        order = sorted(range(len(keys)), key=lambda k: _sort_key(keys[k]))
        return _merge_plan([keys[k] for k in order], [f"A[{k}]" for k in order],
                           ["def kernel(A, C, E, P):"], grouped=False)

    return _step(state, _site(op[0], op[1:], plan), registers=registers)[1]


def apply_xpm(
    state: PhotonicState, register: str, modes: tuple[Mode, ...], theta: float
) -> PhotonicState:
    """Photons in ``modes`` rotate ``register``'s label by theta each; canonical input."""
    idx = _register_index(state, register)
    watched = frozenset(modes)

    def relabel(occ, c):
        return c[:idx] + (c[idx] * cmath.exp(1j * _photons(occ, watched) * theta),) + c[idx + 1 :]

    return _relabeled(state, ("xpm", idx, watched, _bits(theta)), state.registers, relabel,
                      theta=theta)


def coherent_phase(state: PhotonicState, register: str, phi: float) -> PhotonicState:
    """Rotate one register's label by ``phi``; canonical input."""
    idx = _register_index(state, register)
    return _relabeled(state, ("phase", idx, _bits(phi)), state.registers,
                      lambda _, c: c[:idx] + (c[idx] * cmath.exp(1j * phi),) + c[idx + 1 :],
                      phi=phi)


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
    return _relabeled(state, op, regs, relabel, alpha=label, theta=theta)


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
    return _measured(state, register, "readout", _readout_table, mode)


def _measured(state, register: str, kind: str, table, *args) -> BranchDistribution:
    """The outcomes above PROB_EPS of a readout of ``register``, which it destroys.

    Per input shape the readout's site (``kind`` on the register and ``args``) holds its
    outcome table, ``table(shape, idx, *args)``: per outcome its label, value and
    :func:`fock._step` site, and ``mixed``, empty or ``(labels, kernel, consts)`` whose
    ``kernel(A, n, consts)`` returns the exact p of each mixed class, which has no state.
    """
    idx = _register_index(state, register)
    norm_in = _norm_in(state, "measure")
    registers = state.registers[:idx] + state.registers[idx + 1 :]
    site = _site(kind, (idx, *args), lambda shape: table(shape, idx, *args))
    pure, mixed = _recall(state.shape, site, lambda: site.plan(state.shape))
    outcomes = [Outcome(label, value, *_step(state, sub, norm_in, registers=registers))
                for label, value, sub in pure]
    if mixed:
        labels, kernel, consts = mixed
        _, *ps = _run(_mixed, state, norm_in, kernel, consts, decided=True)
        outcomes += [Outcome(label, None, p, None) for label, p in zip(labels, ps)]
    return BranchDistribution(tuple(o for o in outcomes if o.probability > PROB_EPS))


def _mixed(state, norm_in: float, kernel, consts):
    """Which mixed classes occur (p above PROB_EPS), then each one's p, from their kernel on a
    state's parts."""
    ps = kernel(state[0], norm_in, consts)
    return (tuple(p > PROB_EPS for p in ps), *ps)


_mixed.reads = True  # fock._run hands it the state's parts


def _readout_table(shape, idx: int, mode: str):
    """:func:`project_photon_number`'s outcome table for labels ``idx``.  A pure class
    reads members and chains of factors ("0": undisplaced terms, or all times <0|b> if
    physical; "odd", "even" if lit labels are +beta or -beta of one beta: lit terms,
    rescaled if ideal, times sign and k_odd or times k_even); else odd and even are mixed,
    or, with no lit label, never occur."""
    betas = [coh[idx] for _, coh in shape.keys]
    quiet = [abs(b) <= COHERENT_MERGE_EPS for b in betas]
    lit = tuple(k for k, q in enumerate(quiet) if not q)
    if mode == "ideal":
        factors = tuple(1.0 / math.sqrt(-math.expm1(-abs(betas[k]) ** 2)) for k in lit)
        zero = tuple(k for k, q in enumerate(quiet) if q)
        pure = {"0": (zero, [()] * len(zero))}
    else:
        factors = ()
        pure = {"0": (tuple(range(len(betas))), [(math.exp(-0.5 * abs(b) ** 2),) for b in betas])}
    heads = [(f,) for f in factors] or [()] * len(lit)
    lit_betas = [betas[k] for k in lit]
    signs = tuple(1.0 if abs(b - lit_betas[0]) <= COHERENT_MERGE_EPS else -1.0 for b in lit_betas)
    mixed = ()
    if lit and all(abs(b - s * lit_betas[0]) <= COHERENT_MERGE_EPS
                   for b, s in zip(lit_betas, signs)):
        m = abs(lit_betas[0]) ** 2
        k_odd, k_even = math.sqrt(-0.5 * math.expm1(-2.0 * m)), -math.expm1(-m) / math.sqrt(2.0)
        pure["odd"] = lit, [h + (s, k_odd) for h, s in zip(heads, signs)]
        pure["even"] = lit, [h + (k_even,) for h in heads]
    elif lit:
        mixed = ("odd", "even"), *_mixed_plan(shape, idx, lit, factors)
    return tuple(
        (label, None, _Site("readout", functools.partial(_read_plan, idx=idx, members=m, chains=c)))
        for label, (m, c) in pure.items()), mixed


def _mixed_plan(shape, idx: int, lit, factors):
    """``(kernel, consts)`` of the mixed odd and even classes: the exact p of each, from
    one class Gram of psi, lit terms times ``factors``: e^{z-m} = <b|b'>, e^{-z-m} =
    <b|-b'>; with P the parity b -> -b, the odd mass is (<psi|psi> - <psi|P psi>)/2 and the
    even (<psi|psi> + <psi|P psi>)/2 less the unpruned norm of psi times <0|b>."""
    lines = ["def kernel(A, n, C):", "    V, W, o, u, w = C"]
    names = [f"L{i}" for i in range(len(lit))]
    lines += [f"    L{i} = A[{k}]" + (f" * V[{i}]" if factors else "") for i, k in enumerate(lit)]
    keys = [shape.keys[k] for k in lit]
    mirror = [(occ, c[:idx] + (-c[idx],) + c[idx + 1 :]) for occ, c in keys]
    o = _pair_lines(keys, keys, names, names, lines)
    lines.append("    s = t.real")
    u = _pair_lines(keys, mirror, names, names, lines, "u")
    lines.append("    q = t.real")
    dropped = [(occ, c[:idx] + c[idx + 1 :]) for occ, c in keys]
    sums, grouped = _group_lines(dropped, [f"L{i} * W[{i}]" for i in range(len(lit))], lines)
    total, w = _norm_lines(grouped.keys, sums, lines, "w")
    vacuum = tuple(math.exp(-0.5 * abs(c[idx]) ** 2) for _, c in keys)
    kernel = _kernel(lines, f"(s - q) / 2 / n, ((s + q) / 2 - {total}) / n")
    return kernel, (factors, vacuum, o, u, w)


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
    return _measured(state, register, "quadrature", _quadrature_groups)


def _quadrature_groups(shape, idx: int):
    """:func:`project_quadrature_x`'s outcome table for labels ``idx``: per resolved
    Re(beta), its label, value and the site of its terms; nothing is mixed."""
    xs = [c[idx].real for _, c in shape.keys]
    centers: list[float] = []
    for x in xs:
        if not any(abs(x - c) <= COHERENT_MERGE_EPS for c in centers):
            centers.append(x)
    groups = []
    for x0 in sorted(centers):
        kept = tuple(k for k, x in enumerate(xs) if abs(x - x0) <= COHERENT_MERGE_EPS)
        plan = functools.partial(_read_plan, idx=idx, members=kept, chains=[()] * len(kept))
        groups.append((f"x={x0:.9g}", float(x0), _Site("quadrature", plan)))
    return tuple(groups), ()


def drop_register(state: PhotonicState, register: str) -> PhotonicState:
    """Detach a register that is in a product with the photonic part; raises
    :class:`WiringError` on every call where it is correlated with the photons."""
    dropped = _dropped(state, register)
    if dropped is None:
        raise WiringError(
            f"register {register!r} is correlated with the photons; measure it instead"
        )
    return dropped


def _dropped(state: PhotonicState, register: str) -> PhotonicState | None:
    """``state`` without ``register``, or None where the register is correlated with the
    photons: that shape's plan is a stored refusal, whose kernel returns nothing."""
    idx = _register_index(state, register)

    def plan(shape):
        if not shape.keys:
            raise InvalidInput("cannot drop a register from a zero state")
        ref = shape.keys[0][1][idx]
        if any(abs(c[idx] - ref) > COHERENT_MERGE_EPS for _, c in shape.keys):
            return _kernel(["def kernel(A, C, E, P):"], ""), (), _interned(())
        return _merged([(occ, c[:idx] + c[idx + 1 :]) for occ, c in shape.keys])

    p, dropped = _step(state, _site("drop", (idx,), plan),
                       registers=state.registers[:idx] + state.registers[idx + 1 :])
    return dropped if p else None
