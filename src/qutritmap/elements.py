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
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .fock import (
    InvalidInput,
    Mode,
    PhotonicState,
    POLS,
    Shape,
    WiringError,
    _Site,
    _kernel,
    _merge_plan,
    _photons,
    _recall,
    _run,
    _segment,
    _site,
    _step,
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
    """The :func:`fock._step` plan of :func:`substitute_modes` on an input of ``shape``
    and the ``(mode, target modes)`` ``op`` of the mapping.  From the input amplitudes
    ``A`` and the mapping's coefficients ``T`` (per mapped mode, one per target), its
    kernel computes each multinomial coefficient n!/k1!*c1**k1/k2!*c2**k2... of a mapped
    (mode, n) into ``M``, then each merged group's amplitude: its members ``A[src] *
    M[j0] * M[j1] ...`` (one coefficient per mapped mode) added left to right.
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
                    grown.append((merged, f"{product} * M[{base + j}]"))
            partials = grown
        for occ, product in partials:
            raw.append(product)
            raw_keys.append((tuple(sorted(occ.items())), coh))
    lines = ["def kernel(A, T, C, E, P):", f"    M = [{', '.join(coeffs)}]"]
    return _merge_plan(raw_keys, raw, lines)


def substitute_modes(
    state: PhotonicState,
    mapping: Mapping[Mode, Sequence[tuple[Mode, complex]]],
) -> PhotonicState:
    """Simultaneously rewrite each mapped mode as a linear combination.

    ``(sum_i c_i b_i^dag)^n`` is expanded with multinomial coefficients;
    contributions landing on the same output mode accumulate occupation.
    The plan (:func:`_substitution_plan`) is built once per input shape and
    mapped and target modes; a call runs its kernel on the coefficients.
    """
    targets = tuple(mapping.values())
    op = tuple((mode, tuple(m for m, _ in t)) for mode, t in zip(mapping, targets))
    site = _site("substitute", (op,), lambda shape: _substitution_plan(shape, op))
    return _step(state, site, [[c for _, c in t] for t in targets])[1]


def _substitution(kind: str, op: tuple, inputs: tuple = (), outputs: tuple = ()) -> _Site:
    """The site of the substitution of ``(mode, target modes)`` ``op``, from ``inputs`` to
    ``outputs``: it refuses repeated ports and, once per shape, outputs onto occupied
    paths that are not inputs."""
    ins = [p for p in inputs if p is not None]
    if len(set(ins)) != len(ins):
        raise WiringError(f"duplicate input paths {inputs}")
    if len(set(outputs)) != len(outputs):
        raise WiringError(f"duplicate output paths {outputs}")

    def plan(shape):
        for out in outputs:
            if out in shape.paths() and out not in ins:
                msg = f"output path {out!r} already carries photons and is not an input"
                raise WiringError(msg)
        return _substitution_plan(shape, op)

    return _Site(kind, plan)


def _paths_substituted(state, inputs, outputs, matrix) -> PhotonicState:
    """Send input path j, both polarizations, to ``sum_k matrix[k][j]`` output path k;
    a ``None`` input is a vacuum port.  The site holds each input mode's target modes
    and the matrix column it reads, picked in a :func:`fock._run` call (``matrix`` may be
    a value of a recording segment)."""
    inputs, outputs = tuple(inputs), tuple(outputs)

    def build():
        rows = [((Mode(pj, pol), tuple(Mode(pk, pol) for pk in outputs)), j)
                for pol in POLS for j, pj in enumerate(inputs) if pj is not None]
        op = tuple(r for r, _ in rows)
        return _substitution("paths", op, inputs, outputs), [j for _, j in rows]

    site, js = _recall(None, ("paths", inputs, outputs), build)
    return _step(state, site, _run(_picked, matrix, js))[1]


def _picked(matrix, js) -> list:
    """The columns ``js`` of ``matrix``, one per substituted mode."""
    columns = list(zip(*matrix))
    return [columns[j] for j in js]


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
    _check_finite(phi)
    return _step(state, _site("shift", (target,), lambda shape: _shift_plan(shape, target)), phi)[1]


def _check_finite(phi: float):
    if not math.isfinite(phi):
        raise InvalidInput(f"phi = {phi!r} is not finite")


def _shift_plan(shape: Shape, target: str | Mode):
    """:func:`apply_phase_shift`'s plan: each term times exp(i n phi), n its photon
    count in the ``target``'s modes, one exponential per count."""
    watched = frozenset((target,) if isinstance(target, Mode) else path_modes(target))
    counts = [_photons(occ, watched) for occ, _ in shape.keys]
    lines = ["def kernel(A, phi, C, E, P):"]
    lines += [f"    f{n} = exp(complex(0, {n}) * phi)" for n in sorted(set(counts))]
    column = ", ".join(f"A[{k}] * f{n}" for k, n in enumerate(counts))
    return _kernel(lines, f"1, [{column}], ()"), (), shape


def apply_sigma_x(state: PhotonicState, path: str) -> PhotonicState:
    """Swap H and V on one path (half-wave plate at 45 deg)."""

    def build():
        h, v = Mode(path, "H"), Mode(path, "V")
        return _substitution("sigma_x", ((h, (v,)), (v, (h,)))), [[1.0], [1.0]]

    return _step(state, *_recall(None, ("sigma_x", path), build))[1]


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

    def build():  # no value enters it: built once per wiring
        if basis not in ("HV", "diag"):
            raise InvalidInput(f"unknown PBS basis {basis!r}")
        op, coefficients = [], []
        for src, (trans, refl) in zip(in_paths, (out_paths, out_paths[::-1])):
            for pol, s in (("H", 0.5), ("V", -0.5)):  # diag: H+V transmits, H-V reflects
                if src is None:
                    continue
                if basis == "HV":
                    out = [(Mode(trans if pol == "H" else refl, pol), 1.0)]
                else:
                    out = [(Mode(trans, "H"), 0.5), (Mode(trans, "V"), 0.5),
                           (Mode(refl, "H"), s), (Mode(refl, "V"), -s)]
                op.append((Mode(src, pol), tuple(m for m, _ in out)))
                coefficients.append([c for _, c in out])
        return _substitution("pbs", tuple(op), in_paths, out_paths), coefficients

    return _step(state, *_recall(None, ("pbs", in_paths, out_paths, basis), build))[1]


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
    if not np.isfinite(u).all():  # a NaN passes every norm test
        i, j = np.argwhere(~np.isfinite(u))[0]
        raise InvalidInput(f"matrix entry ({i}, {j}) = {u[i, j]} is not finite")
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > 1e-9:
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


class ReckDecomposition(NamedTuple):
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
    if np.abs(off).max() > 1e-8:
        raise InvalidInput("decomposition failed to reach a diagonal")
    phases = tuple(float(x) for x in np.angle(np.diagonal(w)))
    return ReckDecomposition(tuple(reversed(elim)), phases)


def apply_lomi(
    state: PhotonicState, decomp: ReckDecomposition, paths: Sequence[str]
) -> PhotonicState:
    """Run the decomposed interferometer element by element.

    Each block becomes a phase shifter on ``paths[p]`` followed by a
    ROTATION-convention beam splitter on the pair; the phase screen is
    applied last.  Deliberately not a matrix shortcut, so tests can compare
    against :func:`apply_path_unitary`.  One segment, keyed by its wiring (the
    blocks, the screen phases not exactly 0), whose angles are free parameters.
    """
    if len(paths) != decomp.dim or len(set(paths)) != len(paths):
        raise WiringError("paths must be distinct and match the decomposition")
    rotations = tuple(reversed(decomp.rotations))
    screen = [(path, phi) for path, phi in zip(paths, decomp.phases) if phi != 0.0]
    for phi in [phi for *_, phi in rotations] + [phi for _, phi in screen]:
        _check_finite(phi)
    wiring = tuple((paths[q], paths[p]) for p, q, _, _ in rotations), tuple(p for p, _ in screen)
    angles = [x for *_, theta, phi in rotations for x in (phi, theta)] + [phi for _, phi in screen]
    return _segment(("mesh", wiring), lambda s, *a: _mesh(s, wiring, *a), state, free=angles)[1]


def _mesh(s, wiring, *angles):
    """:func:`apply_lomi`'s segment: per block (paths ``b``, ``a``) the phase on ``a`` and the
    splitter, whose matrix a :func:`fock._run` call makes from its angle; then the screen."""
    blocks, screen = wiring
    for (b, a), phi, theta in zip(blocks, angles[::2], angles[1::2]):
        s = apply_phase_shift(s, a, phi)
        s = _paths_substituted(s, (b, a), (b, a), _run(_rotation, theta))
    for path, phi in zip(screen, angles[2 * len(blocks):]):
        s = apply_phase_shift(s, path, phi)
    return (), s


def _rotation(theta: float) -> list:
    """The rows of the ROTATION-convention splitter at angle ``theta``, checked."""
    return list(BeamSplitterSpec(math.cos(theta), math.sin(theta), BsConvention.ROTATION).matrix())
