"""Linear optical elements as exact substitutions on creation operators.

Every element here rewrites ``a_in^dag -> sum_k c_k a_out_k^dag``
simultaneously over the mapped modes, expanding powers with multinomial
coefficients, so photon-number statistics stay exact.  Elements act on
both polarizations of a path unless stated otherwise.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .fock import (
    InvalidInput,
    Mode,
    PhotonicState,
    POLS,
    PRUNE_EPS,
    Shape,
    WiringError,
    _columns,
    _grouped_state,
    _merge_plan,
    _recall,
    path_modes,
)


class BsConvention(enum.Enum):
    """Sign placement for a real beam splitter matrix.

    SYMMETRIC puts the minus sign on the second input's transmission,
    ``[[t, r], [r, -t]]``; ROTATION puts it on the first input's
    reflection, ``[[t, r], [-r, t]]``.
    """

    SYMMETRIC = "symmetric-minus-on-second"
    ROTATION = "minus-on-reflected-ancilla"


@dataclass(frozen=True)
class BeamSplitterSpec:
    t: float
    r: float
    convention: BsConvention = BsConvention.SYMMETRIC

    def __post_init__(self):
        if not (0.0 <= self.t <= 1.0 and 0.0 <= self.r <= 1.0):
            raise InvalidInput(f"t={self.t}, r={self.r} must lie in [0, 1]")
        if abs(self.t**2 + self.r**2 - 1.0) > 1e-9:
            raise InvalidInput(f"t^2 + r^2 = {self.t**2 + self.r**2} != 1")

    @classmethod
    def fifty_fifty(cls, convention: BsConvention = BsConvention.SYMMETRIC):
        s = 1.0 / math.sqrt(2)
        return cls(s, s, convention)

    @classmethod
    def from_t(cls, t: float, convention: BsConvention = BsConvention.SYMMETRIC):
        return cls(t, math.sqrt(max(0.0, 1.0 - t * t)), convention)

    def matrix(self) -> tuple[tuple[float, float], tuple[float, float]]:
        if self.convention is BsConvention.SYMMETRIC:
            return ((self.t, self.r), (self.r, -self.t))
        return ((self.t, self.r), (-self.r, self.t))


def _substitution_plan(shape: Shape, op: tuple):
    """What :func:`substitute_modes` computes that depends on no value.

    ``shape`` is the input's and ``op`` the ``(mode, target modes)`` of the
    mapping.  Returns ``kernel(A, T)`` and the output's shape before any prune,
    whose merged groups (``fock._grouping``) carry their first member's
    labels.  From the input amplitudes ``A`` and the mapping's coefficients
    ``T`` (per mapped mode, one per target), the kernel computes each
    multinomial coefficient n!/k1!*c1**k1/k2!*c2**k2... of a mapped (mode, n)
    into ``C``, then each group's amplitude: its members ``A[src] * C[j0] *
    C[j1] ...`` (one coefficient per mapped mode) added left to right.
    """
    slot_of = {mode: slot for slot, (mode, _) in enumerate(op)}
    coeffs, expansion_of = [], {}
    raw, raw_keys = [], []
    for src, (occ_in, coh) in enumerate(shape.keys):
        partials: list[tuple[dict[Mode, int], str]] = [({}, f"A[{src}]")]
        for mode, n in occ_in:
            slot = slot_of.get(mode)
            if slot is None:
                for occ, _ in partials:
                    occ[mode] = occ.get(mode, 0) + n
                continue
            targets = op[slot][1]
            if (slot, n) not in expansion_of:
                combos = itertools.combinations_with_replacement(range(len(targets)), n)
                picks = [{i: pick.count(i) for i in pick} for pick in combos]  # target: count
                expansion_of[slot, n] = len(coeffs), picks
                coeffs += [str(math.factorial(n)) + "".join(
                    f" / {math.factorial(k)} * T[{slot}][{i}] ** {k}" for i, k in pick.items()
                ) for pick in picks]
            base, picks = expansion_of[slot, n]
            grown = []
            for occ, product in partials:
                for j, pick in enumerate(picks):
                    merged = dict(occ)
                    for i, k in pick.items():
                        merged[targets[i]] = merged.get(targets[i], 0) + k
                    grown.append((merged, f"{product} * C[{base + j}]"))
            partials = grown
        for occ, product in partials:
            raw.append(product)
            raw_keys.append((tuple(sorted(occ.items())), coh))
    lines = ["def kernel(A, T, E):", f"    C = [{', '.join(coeffs)}]"]
    return _merge_plan(raw_keys, raw, lines)


def substitute_modes(
    state: PhotonicState,
    mapping: Mapping[Mode, Sequence[tuple[Mode, complex]]],
) -> PhotonicState:
    """Simultaneously rewrite each mapped mode as a linear combination.

    ``(sum_i c_i b_i^dag)^n`` is expanded with multinomial coefficients;
    contributions landing on the same output mode accumulate occupation.
    Which terms arise, merge and in what order depends only on the input's
    shape and the mapped and target modes (:func:`_substitution_plan`, built
    once per pair through ``fock._recall``); each call runs the plan's kernel
    on the coefficients and the input amplitudes.
    """
    return _substituted(state, *_wiring(mapping))


def _wiring(mapping) -> tuple[tuple, list]:
    """A mapping's ``(mode, target modes)`` and, per mapped mode, its coefficients."""
    targets = tuple(mapping.values())
    op = tuple((mode, tuple(m for m, _ in t)) for mode, t in zip(mapping, targets))
    return op, [[c for _, c in t] for t in targets]


def _substituted(state: PhotonicState, op: tuple, coefficients) -> PhotonicState:
    """:func:`substitute_modes` of the mapping that :func:`_wiring` splits in two."""
    shape = state.shape
    kernel, out_shape = _recall(shape, op, lambda: _substitution_plan(shape, op))
    merged = kernel(state.amplitudes, coefficients, PRUNE_EPS)
    return _grouped_state(state.registers, merged, float(state.born_weight), out_shape)


def _check_outputs(state, inputs, outputs):
    """Refuse repeated ports, and outputs onto occupied paths that are not inputs."""
    shape = state.shape

    def check():
        ins = [p for p in inputs if p is not None]
        if len(set(ins)) != len(ins):
            raise WiringError(f"duplicate input paths {inputs}")
        if len(set(outputs)) != len(outputs):
            raise WiringError(f"duplicate output paths {outputs}")
        present = shape.paths()
        for out in outputs:
            if out in present and out not in ins:
                msg = f"output path {out!r} already carries photons and is not an input"
                raise WiringError(msg)
        return True  # remembered per (shape, inputs, outputs): a failure never is

    _recall(shape, ("outputs", inputs, outputs), check)


def _paths_substituted(state, inputs, outputs, matrix) -> PhotonicState:
    """Send input path j, both polarizations, to ``sum_k matrix[k][j]`` output path k.

    A ``None`` input is a vacuum port.  The substitution's modes are built once
    per ``(inputs, outputs)``: each input mode with its target modes, and the
    matrix column it reads.
    """
    inputs, outputs = tuple(inputs), tuple(outputs)
    _check_outputs(state, inputs, outputs)

    def wiring():
        rows = [((Mode(pj, pol), tuple(Mode(pk, pol) for pk in outputs)), j)
                for pol in POLS for j, pj in enumerate(inputs) if pj is not None]
        return tuple(r for r, _ in rows), tuple(j for _, j in rows)

    op, js = _recall(None, ("paths", inputs, outputs), wiring)
    columns = list(zip(*matrix))
    return _substituted(state, op, [columns[j] for j in js])


def apply_beam_splitter(
    state: PhotonicState,
    in_a: str,
    in_b: str | None,
    out_c: str,
    out_d: str,
    spec: BeamSplitterSpec,
) -> PhotonicState:
    """Polarization-independent beam splitter; ``in_b=None`` means a vacuum port."""
    return _paths_substituted(state, (in_a, in_b), (out_c, out_d), spec.matrix())


def apply_phase_shift(state: PhotonicState, target: str | Mode, phi: float) -> PhotonicState:
    """Multiply a canonical state by exp(i*n*phi); a path targets both pols."""
    watched = _recall(None, ("watched", target), lambda: frozenset(
        (target,) if isinstance(target, Mode) else path_modes(target)))
    shape = state.shape
    counts = shape.photons(watched)
    factor = {n: cmath.exp(1j * n * phi) for n in set(counts)}
    amps = list(map(operator.mul, state.amplitudes, map(factor.__getitem__, counts)))
    return _columns(state.registers, amps, state.born_weight, shape)


def apply_sigma_x(state: PhotonicState, path: str) -> PhotonicState:
    """Swap H and V on one path (half-wave plate at 45 deg)."""

    def mapping():
        h, v = Mode(path, "H"), Mode(path, "V")
        return _wiring({h: ((v, 1.0),), v: ((h, 1.0),)})

    return _substituted(state, *_recall(None, ("sigma_x", path), mapping))


def route_pbs(
    state: PhotonicState,
    in_paths: tuple[str, str | None],
    out_paths: tuple[str, str],
    basis: str = "HV",
) -> PhotonicState:
    """Polarizing beam splitter.

    In the ``HV`` basis H transmits and V reflects, polarization intact.
    In the ``diag`` basis (|H>+|V>)/sqrt(2) transmits and (|H>-|V>)/sqrt(2)
    reflects, so each H or V photon splits over both outputs.
    """
    in_paths, out_paths = tuple(in_paths), tuple(out_paths)
    _check_outputs(state, in_paths, out_paths)

    def mapping():  # no value enters it: built once per wiring
        if basis not in ("HV", "diag"):
            raise InvalidInput(f"unknown PBS basis {basis!r}")
        out = {}
        for src, (trans, refl) in zip(in_paths, (out_paths, out_paths[::-1])):
            for pol, s in (("H", 0.5), ("V", -0.5)):  # diag: H+V transmits, H-V reflects
                if src is not None and basis == "HV":
                    out[Mode(src, pol)] = [(Mode(trans if pol == "H" else refl, pol), 1.0)]
                elif src is not None:
                    out[Mode(src, pol)] = [(Mode(trans, "H"), 0.5), (Mode(trans, "V"), 0.5),
                                           (Mode(refl, "H"), s), (Mode(refl, "V"), -s)]
        return _wiring(out)

    return _substituted(state, *_recall(None, ("pbs", in_paths, out_paths, basis), mapping))


def apply_qft(state: PhotonicState, paths: Sequence[str]) -> PhotonicState:
    """Discrete Fourier transform over spatial paths, both polarizations.

    ``a_j^dag -> (1/sqrt(d)) sum_k exp(+2*pi*i*j*k/d) a_k^dag``.
    """
    d = len(paths)
    if d == 0:
        raise WiringError("QFT needs at least one path")
    scale = 1.0 / math.sqrt(d)
    matrix = [[scale * cmath.exp(2j * math.pi * j * k / d) for j in range(d)] for k in range(d)]
    return _paths_substituted(state, paths, paths, matrix)


def assert_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise InvalidInput(f"matrix must be square, got shape {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) > 1e-9:
        raise InvalidInput("matrix is not unitary")
    return u


def apply_path_unitary(
    state: PhotonicState, u: np.ndarray, paths: Sequence[str]
) -> PhotonicState:
    """Directly substitute a unitary over spatial paths (both polarizations)."""
    u = assert_unitary(u)
    if len(paths) != u.shape[0]:
        raise WiringError("paths must match the matrix dimension")
    return _paths_substituted(state, paths, paths, u.tolist())


@dataclass(frozen=True)
class ReckDecomposition:
    """Triangular mesh: ``u = D * T_K * ... * T_1``.

    ``rotations`` stores ``(p, q, theta, phi)`` for the two-path blocks
    ``[[e^{i phi} cos, -sin], [e^{i phi} sin, cos]]`` in left-to-right
    matrix order (T_K first); ``phases`` is the output phase screen D.
    """

    rotations: tuple[tuple[int, int, float, float], ...]
    phases: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.phases)


def _block(n: int, p: int, q: int, theta: float, phi: float) -> np.ndarray:
    t = np.eye(n, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    e = cmath.exp(1j * phi)
    t[p, p] = e * c
    t[p, q] = -s
    t[q, p] = e * s
    t[q, q] = c
    return t


def reck_decompose(u: np.ndarray) -> ReckDecomposition:
    """Factor a unitary into nearest-neighbour two-path rotations plus phases.

    Eliminates the lower triangle column by column with blocks acting on
    adjacent path pairs, leaving a diagonal phase screen.
    """
    w = assert_unitary(u).copy()
    n = w.shape[0]
    elim: list[tuple[int, int, float, float]] = []
    for row in range(n - 1, 0, -1):
        for col in range(row):
            p, q = col, col + 1
            a = w[row, p]
            if abs(a) < 1e-14:
                continue
            b = w[row, q]
            theta = math.atan2(abs(a), abs(b))
            phi = cmath.phase(a) - cmath.phase(b) if abs(b) > 1e-14 else cmath.phase(a)
            elim.append((p, q, theta, phi))
            w = w @ _block(n, p, q, theta, phi).conj().T
    off = w - np.diag(np.diagonal(w))
    if np.max(np.abs(off)) > 1e-8:
        raise InvalidInput("decomposition failed to reach a diagonal")
    phases = tuple(float(x) for x in np.angle(np.diagonal(w)))
    return ReckDecomposition(tuple(reversed(elim)), phases)


def reck_recompose(decomp: ReckDecomposition) -> np.ndarray:
    n = decomp.dim
    m = np.diag(np.exp(1j * np.array(decomp.phases)))
    for p, q, theta, phi in decomp.rotations:
        m = m @ _block(n, p, q, theta, phi)
    return m


def apply_lomi(
    state: PhotonicState, decomp: ReckDecomposition, paths: Sequence[str]
) -> PhotonicState:
    """Run the decomposed interferometer element by element.

    Each block becomes a phase shifter on ``paths[p]`` followed by a
    ROTATION-convention beam splitter on the pair; the phase screen is
    applied last.  Deliberately not a matrix shortcut, so tests can compare
    against :func:`apply_path_unitary`.
    """
    if len(paths) != decomp.dim or len(set(paths)) != len(paths):
        raise WiringError("paths must be distinct and match the decomposition")
    s = state
    for p, q, theta, phi in reversed(decomp.rotations):
        s = apply_phase_shift(s, paths[p], phi)
        spec = BeamSplitterSpec(math.cos(theta), math.sin(theta), BsConvention.ROTATION)
        s = apply_beam_splitter(s, paths[q], paths[p], paths[q], paths[p], spec)
    for k, phi in enumerate(decomp.phases):
        if phi != 0.0:
            s = apply_phase_shift(s, paths[k], phi)
    return s
