"""Sparse symbolic Fock states for few-photon interferometry.

A state is a sum of creation-operator monomials acting on the vacuum,
optionally tensored with labelled coherent-state registers.  Each term
keeps an exact complex amplitude, an occupation signature over
``Mode(path, pol)`` slots and one complex label per register, so overlaps
and measurement statistics come out in closed form instead of from a
truncated numeric Hilbert space.

Conventions:

* a term with occupation ``{m: n}`` represents ``amplitude * (a_m^dag)^n``
  applied to vacuum, i.e. an *unnormalized* monomial whose squared norm is
  ``|amplitude|^2 * prod(n!)``;
* coherent registers are pure labels: elements act on them by rewriting
  the complex amplitude, never by expanding in number states.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import struct
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

H = "H"
V = "V"
POLS = (H, V)

PRUNE_EPS = 1e-12
COHERENT_MERGE_EPS = 1e-9
NORM_EPS = 1e-9
PHOTON_CAP = 4


class SimulationError(Exception):
    """Base class for everything raised by this package on purpose."""


class InvalidInput(SimulationError):
    pass


class WiringError(SimulationError):
    """Raised when circuit plumbing is inconsistent (reused paths, bad maps)."""


class PhotonCapExceeded(SimulationError):
    pass


class UnsupportedMode(SimulationError):
    """Requested behaviour exists physically but is not modelled."""


class Mode(tuple):
    """A bosonic slot as a ``(path, pol)`` tuple: hashing and ordering run in C."""

    __slots__ = ()
    path = property(operator.itemgetter(0))
    pol = property(operator.itemgetter(1))

    def __new__(cls, path: str, pol: str):
        if pol not in POLS:
            raise InvalidInput(f"unknown polarization {pol!r}")
        return tuple.__new__(cls, (path, pol))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"Mode(path={self.path!r}, pol={self.pol!r})"


class FockTerm(NamedTuple):
    """One monomial: amplitude * prod (a_m^dag)^n |vac>, times register labels."""

    occ: tuple[tuple[Mode, int], ...]
    coherent: tuple[complex, ...]
    amplitude: complex

    @classmethod
    def from_occupations(
        cls,
        occupations: Mapping[Mode, int],
        coherent: Iterable[complex] = (),
        amplitude: complex = 1.0,
    ) -> "FockTerm":
        occ = []
        total = 0
        for mode, n in occupations.items():
            if n < 0 or int(n) != n:
                raise InvalidInput(f"occupation must be a non-negative int, got {n!r}")
            if n == 0:
                continue
            occ.append((mode, int(n)))
            total += int(n)
        if total > PHOTON_CAP:
            raise PhotonCapExceeded(
                f"term holds {total} photons, cap is {PHOTON_CAP}"
            )
        occ.sort()
        return cls(tuple(occ), tuple(complex(c) for c in coherent), complex(amplitude))

    @property
    def total_photons(self) -> int:
        return sum(n for _, n in self.occ)

    def occupations(self) -> dict[Mode, int]:
        return dict(self.occ)


# FockTerm((occ, coherent, amplitude)) without NamedTuple's Python-level __new__
_new_term = functools.partial(tuple.__new__, FockTerm)
_occupation, _labels, _amplitude = map(operator.itemgetter, range(3))


def _new_terms(occs, labels, amplitudes) -> tuple[FockTerm, ...]:
    """The FockTerms of three columns, built in C."""
    return tuple(map(tuple.__new__, itertools.repeat(FockTerm), zip(occs, labels, amplitudes)))


@dataclass(frozen=True)
class PhotonicState:
    """Canonical (merged, pruned, sorted) terms, register labels and a Born weight.

    ``born_weight`` tracks the probability of the measurement record that led
    to this (renormalized) branch; it never enters overlaps.
    """

    registers: tuple[str, ...]
    terms: tuple[FockTerm, ...]
    born_weight: float = 1.0
    # the Shape of ``terms``: interned on first use, or passed on by its producer
    shape: Shape | None = field(default=None, init=False, repr=False, compare=False)

    @functools.cached_property
    def _norm_sq(self) -> float:  # frozen, with immutable terms: computed once
        return _shape(self).norm_sq(self.terms)


def _shaped(registers, terms, born_weight, shape: Shape | None) -> PhotonicState:
    """A state whose ``terms`` have ``shape`` (None: interned on first use)."""
    state = PhotonicState(registers, terms, born_weight)
    object.__setattr__(state, "shape", shape)
    return state


# What an operation derives from a state's keys alone, keyed by (Shape, operation
# shape); interned keys are keyed by (None, keys) and compiled kernels by (None,
# source).  Reaching the bound drops every entry, and an entry holds at most two
# shapes, so at most 2 * _RETAINED shapes outlive the states that carry them.
# After 10,000 benchmark evaluations (about one 36 s run, no drop) the memo holds
# 245 entries in 0.56 MB (linear optics), 960 in 0.67 MB (ideal qubus) and 1127
# in 1.62 MB (physical qubus).  Of these, interned keys take 0.26, 0.29 and 0.69
# MB and kernels (37, 77 and 92 of them) 0.23, 0.17 and 0.50 MB; the plans that
# index them hold the rest.  run_all()'s random circuits make one-off shapes,
# which the bound drops instead of keeping.
_RETAINED = 2048
_MEMO: dict[tuple, object] = {}


def _recall(shape: Shape | None, op, build):
    """What ``op`` derives from ``shape``'s keys alone: ``build()`` on a miss."""
    key = shape, op
    value = _MEMO.get(key)
    if value is None:
        value = build()
        if len(_MEMO) >= _RETAINED:
            _MEMO.clear()
        _MEMO[key] = value
    return value


def _kernel(source: str):
    """The ``kernel`` that ``source`` defines, compiled once: a plan's per-call arithmetic
    as straight-line code, with integer indices and weights only in the source."""

    def build():
        namespace: dict = {}
        exec(compile(source, "<kernel>", "exec"), namespace)
        return namespace["kernel"]

    return _recall(None, source, build)


_CHUNK = 256  # parts per expression: the compiler recurses once per operator


def _sum_source(parts: list[str], name: str, lines: list[str]) -> str:
    """The left-to-right sum of ``parts``, built up in ``name`` by ``lines`` if long."""
    if len(parts) <= _CHUNK:
        return " + ".join(parts)
    lines.append(f"    {name} = {' + '.join(parts[:_CHUNK])}")
    for at in range(_CHUNK, len(parts), _CHUNK):
        lines.append(f"    {name} = {name} + {' + '.join(parts[at:at + _CHUNK])}")
    return name


def _interned(keys: tuple) -> Shape:
    return _recall(None, keys, lambda: Shape(keys))


def _shape(state: PhotonicState) -> Shape:
    if state.shape is None:
        object.__setattr__(state, "shape", _interned(tuple((t[0], t[1]) for t in state.terms)))
    return state.shape


class Shape:
    """What the ``(occ, coherent)`` keys of a state fix, whatever its amplitudes.

    Interned by its keys, which compare with ``==``: labels 2+0j and 2-0j share
    a shape, so labels are always read from the state's own terms, never from
    ``keys``.  Shapes hash by identity, so :func:`_recall` never rehashes keys.
    """

    __slots__ = ("keys",)

    def __init__(self, keys: tuple):
        self.keys = keys

    def subset(self, kept: tuple[int, ...]) -> Shape:
        """The shape of the terms at the indices ``kept``."""
        return _recall(self, ("subset", kept), lambda: _interned(tuple(self.keys[i] for i in kept)))

    def photons(self, watched: frozenset) -> tuple[int, ...]:
        """Each term's photon count in the ``watched`` modes."""
        return _recall(
            self,
            ("photons", watched),
            lambda: tuple(sum(n for m, n in occ if m in watched) for occ, _ in self.keys),
        )

    def norm_sq(self, terms) -> float:
        """``inner_product(s, s).real``, bit for bit, for a state ``s`` of these ``terms``.

        Terms without labels and with distinct occupations are orthogonal: the
        norm is the sum of each |a|^2 times its occupation weight, in term order.
        """
        kernel, reps = _recall(self, "norm", self._norm_plan)
        if reps is None:
            return kernel(terms)
        return _paired(terms, terms, (kernel, reps)).real

    def _norm_plan(self):
        """:func:`_pairs` of the shape with itself, or ``(kernel, None)`` for orthogonal
        terms, which sums from the first term: a sum of squares, never -0.0, so 0.0 + it."""
        occs = [occ for occ, _ in self.keys]
        if not occs or any(coh for _, coh in self.keys) or len(set(occs)) < len(occs):
            return _pairs(self, self)
        lines = ["def kernel(T):"]
        for k, occ in enumerate(occs):
            add = "+=" if k else "="
            lines += [f"    a = T[{k}][2]",
                      f"    t {add} (a.real * a.real + a.imag * a.imag) * {_occ_norm(occ)}"]
        return _kernel("\n".join(lines + ["    return t"])), None


def _sort_key(item) -> tuple:
    # canonical order of a FockTerm or a group entry: occupation, then rounded labels
    return item[0], tuple((round(c.real, 9), round(c.imag, 9)) for c in item[1])


def _grouping(keys) -> tuple[tuple[tuple, tuple, int, tuple[int, ...]], ...]:
    """Which of ``keys`` merge and in what order the merged terms stand.

    ``keys`` are ``(occ, coherent)`` pairs, or FockTerms.  A key joins the
    first group of its occupation whose first key has every label within
    COHERENT_MERGE_EPS of its own, so float jitter cannot split a branch in
    two.  Returns, in canonical order, each group's key (its first member's)
    and member indices as ``(occ, coherent, first, rest)``.
    """
    buckets: dict[tuple, list[list]] = {}
    for i, key in enumerate(keys):
        occ, coh = key[0], key[1]
        bucket = buckets.setdefault(occ, [])
        for entry in bucket:
            if all(abs(x - y) <= COHERENT_MERGE_EPS for x, y in zip(entry[1], coh)):
                entry[3] += (i,)
                break
        else:
            bucket.append([occ, coh, i, ()])
    entries = [tuple(e) for bucket in buckets.values() for e in bucket]
    entries.sort(key=_sort_key)
    return tuple(entries)


def build_state(
    registers: Iterable[str],
    terms: Iterable[FockTerm],
    born_weight: float = 1.0,
) -> PhotonicState:
    """The canonical state of ``terms``: equal monomials merged, the merged
    amplitudes at or below PRUNE_EPS pruned, the rest sorted."""
    regs = tuple(registers)
    terms = tuple(terms)
    for t in terms:
        if len(t.coherent) != len(regs):
            raise InvalidInput(
                f"term carries {len(t.coherent)} coherent labels, "
                f"state declares {len(regs)} registers"
            )
    state, amplitudes = PhotonicState(regs, terms, born_weight), list(map(_amplitude, terms))
    return _regrouped(state, "merge", range(len(terms)), lambda _, key: key, amplitudes, regs)


def _grouped_state(registers, occs, labels, sums, born_weight, shape=None) -> PhotonicState:
    """The state of terms ``occs[k], labels[k], sums[k]``, the sums at or below
    PRUNE_EPS pruned; ``shape``, if given, is that of all the terms."""
    keep = list(map(PRUNE_EPS.__lt__, map(abs, sums)))
    terms = _new_terms(occs, labels, sums)
    if all(keep):
        return _shaped(registers, terms, born_weight, shape)
    kept = tuple(itertools.compress(range(len(keep)), keep))
    shape = None if shape is None else shape.subset(kept)
    return _shaped(registers, tuple(itertools.compress(terms, keep)), born_weight, shape)


def _regrouped(state, op, members, rekey, amplitudes, registers) -> PhotonicState:
    """The canonical state of the terms at ``members``, the p-th key rewritten
    as ``rekey(p, key)``, that carry ``amplitudes``.  Merges, order and shape
    come from the memo under ``op``, which fixes ``members`` and ``rekey``."""
    shape, terms = _shape(state), state.terms

    def plan():
        groups = _grouping([rekey(p, shape.keys[k]) for p, k in enumerate(members)])
        lines = ["def kernel(A):"]
        sums = [_sum_source([f"A[{m}]" for m in (first, *rest)], f"g{k}", lines)
                for k, (_, _, first, rest) in enumerate(groups)]
        kernel = _kernel("\n".join(lines + [f"    return [{', '.join(sums)}]"]))
        occs = tuple(occ for occ, _, _, _ in groups)
        return groups, kernel, occs, _interned(tuple((occ, coh) for occ, coh, _, _ in groups))

    groups, kernel, occs, out_shape = _recall(shape, op, plan)
    # labels from the state's own terms: equal labels can differ in a zero's sign
    labels = [rekey(g[2], terms[members[g[2]]])[1] for g in groups]
    born_weight = float(state.born_weight)
    return _grouped_state(registers, occs, labels, kernel(amplitudes), born_weight, out_shape)


def coherent_overlap(beta: complex, gamma: complex) -> complex:
    """<beta|gamma> for coherent states, exact closed form."""
    return cmath.exp(
        -0.5 * abs(beta) ** 2 - 0.5 * abs(gamma) ** 2 + beta.conjugate() * gamma
    )


def _occ_norm(occ: tuple[tuple[Mode, int], ...]) -> int:
    return math.prod(math.factorial(n) for _, n in occ)


# A label pair's exact bits: 2+0j and 2-0j are equal, but not the same bits.
_pair_bits = struct.Struct("4d").pack


def _overlaps(pairs, bra_labels, ket_labels):
    """Per ``(bra, ket)`` pair of ``pairs`` its entry in ``combos``, the tuple of
    its overlap slots.  Each distinct label pair, by exact bits, is one slot,
    computed from the ``(bra, ket, register)`` of its entry in ``reps``."""
    slot_of, reps, combo_of, cells = {}, [], {}, []
    for i, j in pairs:
        combo = []
        for k, (x, y) in enumerate(zip(bra_labels[i], ket_labels[j])):
            slot = slot_of.setdefault(_pair_bits(x.real, x.imag, y.real, y.imag), len(reps))
            if slot == len(reps):
                reps.append((i, j, k))
            combo.append(slot)
        cells.append(combo_of.setdefault(tuple(combo), len(combo_of)))
    return array("i", cells), tuple(combo_of), tuple(reps)


def _pairs(bra: Shape, ket: Shape):
    """:func:`inner_product`'s plan for two shapes: ``(kernel, reps)``.  ``kernel(c, a, o)``
    adds from 0j, per pair of terms of one occupation, conjugated bra amplitude c[i]
    times ket amplitude a[j], occupation weight and overlap slots o[s] (from ``reps``)."""

    def plan():
        by_occ: dict[tuple, list[int]] = {}
        for j, (occ, _) in enumerate(ket.keys):
            by_occ.setdefault(occ, []).append(j)
        pairs = [(i, j) for i, (occ, _) in enumerate(bra.keys) for j in by_occ.get(occ, ())]
        cells, combos, reps = _overlaps(pairs, *([coh for _, coh in s.keys] for s in (bra, ket)))
        lines = ["def kernel(c, a, o):", "    t = 0j"]
        for (i, j), cell in zip(pairs, cells):
            slots = "".join(f" * o[{s}]" for s in combos[cell])
            lines.append(f"    t += c[{i}] * a[{j}] * {_occ_norm(bra.keys[i][0])}{slots}")
        lines.append("    return t")
        return _kernel("\n".join(lines)), reps

    return _recall(bra, ("pairs", ket), plan)


def _paired(bra_terms, ket_terms, plan) -> complex:
    """The sum of :func:`_pairs`' ``plan``: each label-pair overlap taken once."""
    kernel, reps = plan
    overlaps = [coherent_overlap(bra_terms[i][1][k], ket_terms[j][1][k]) for i, j, k in reps]
    conj = [t[2].conjugate() for t in bra_terms]
    return kernel(conj, list(map(_amplitude, ket_terms)), overlaps)


def inner_product(bra: PhotonicState, ket: PhotonicState) -> complex:
    """<bra|ket> including register overlaps; born weights are ignored."""
    if bra.registers != ket.registers:
        raise InvalidInput(
            f"register mismatch: {bra.registers} vs {ket.registers}"
        )
    return _paired(bra.terms, ket.terms, _pairs(_shape(bra), _shape(ket)))


def norm_sq(state: PhotonicState) -> float:
    return state._norm_sq


def scaled(state: PhotonicState, factor: complex) -> PhotonicState:
    terms = state.terms
    amps = map(operator.mul, map(_amplitude, terms), itertools.repeat(factor))
    out = _new_terms(map(_occupation, terms), map(_labels, terms), amps)
    return _shaped(state.registers, out, state.born_weight, state.shape)


def normalized(state: PhotonicState) -> PhotonicState:
    n2 = norm_sq(state)
    if n2 <= NORM_EPS**2:
        raise InvalidInput("cannot normalize a (near-)zero state")
    return scaled(state, 1.0 / math.sqrt(n2))


def fidelity(state: PhotonicState, target: PhotonicState) -> float:
    """|<target|state>|^2 for normalized views of both arguments."""
    denom = norm_sq(state) * norm_sq(target)
    if denom <= 0.0:
        raise InvalidInput("fidelity of a zero state is undefined")
    val = abs(inner_product(target, state)) ** 2 / denom
    return min(max(val, 0.0), 1.0)


def _traced_plan(shape: Shape, target: Shape):
    """:func:`traced_fidelity`'s plan: ``(matched, cells, combos, reps)``.

    ``matched`` holds, per term with an occupation of the target, its index,
    the target terms of that occupation and its occupation weight; ``cells``
    is :func:`_overlaps` of every ordered pair of matched terms.
    """
    by_occ: dict[tuple, list[int]] = {}
    for j, (occ, _) in enumerate(target.keys):
        by_occ.setdefault(occ, []).append(j)
    labels = [coh for _, coh in shape.keys]
    matched = tuple(
        (i, tuple(by_occ[occ]), _occ_norm(occ))
        for i, (occ, _) in enumerate(shape.keys)
        if occ in by_occ
    )
    pairs = [(j, i) for i, _, _ in matched for j, _, _ in matched]
    return (matched, *_overlaps(pairs, labels, labels))


def traced_fidelity(state: PhotonicState, target: PhotonicState) -> float:
    """Fidelity against a register-free target after tracing out registers.

    Computes <T| Tr_regs(|s><s|) |T> / (norm(s)^2 norm(T)^2).  Coincides with
    :func:`fidelity` when ``state`` has no registers attached.
    """
    if target.registers:
        raise InvalidInput("target must not carry coherent registers")
    if not state.registers:
        return fidelity(state, target)
    shape, target_shape = _shape(state), _shape(target)
    matched, cells, combos, reps = _recall(
        shape, ("traced", target_shape), lambda: _traced_plan(shape, target_shape)
    )
    terms = state.terms
    overlaps = [coherent_overlap(terms[i][1][k], terms[j][1][k]) for i, j, k in reps]
    grams = [math.prod([overlaps[s] for s in combo], start=1.0 + 0j) for combo in combos]
    weights = []
    for i, targets, w in matched:
        amp_t = 0j
        for j in targets:
            amp_t += target.terms[j][2]
        weights.append(amp_t.conjugate() * terms[i][2] * w)
    conj = [w.conjugate() for w in weights]
    num = 0j
    cells = iter(cells)
    for wi in weights:
        for wj, c in zip(conj, cells):
            num += wi * wj * grams[c]
    denom = norm_sq(state) * norm_sq(target)
    if denom <= 0.0:
        raise InvalidInput("fidelity of a zero state is undefined")
    val = num.real / denom
    return min(max(val, 0.0), 1.0)


def amplitude_of(state: PhotonicState, occupations: Mapping[Mode, int]) -> complex:
    """Summed amplitude of all terms with the given occupation signature."""
    key = FockTerm.from_occupations(occupations).occ
    return sum((t.amplitude for t in state.terms if t.occ == key), 0j)


def state_paths(state: PhotonicState) -> set[str]:
    return {m.path for t in state.terms for m, _ in t.occ}


@dataclass(frozen=True)
class QutritCoefficients:
    """Normalized (alpha, beta, gamma) for the three logical qutrit levels."""

    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self):
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2 + abs(self.gamma) ** 2
        if abs(n - 1.0) > NORM_EPS:
            raise InvalidInput(f"coefficients are not normalized: |c|^2 = {n}")

    @classmethod
    def normalize(cls, alpha: complex, beta: complex, gamma: complex) -> "QutritCoefficients":
        n = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2 + abs(gamma) ** 2)
        if n == 0.0:
            raise InvalidInput("cannot normalize the zero vector")
        return cls(complex(alpha) / n, complex(beta) / n, complex(gamma) / n)

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (complex(self.alpha), complex(self.beta), complex(self.gamma))


def make_biphotonic_qutrit(coeffs: QutritCoefficients, path: str = "in") -> PhotonicState:
    """Two photons in one path: levels |HH>, |HV>, |VV> with unit norm.

    The double-occupation levels carry 1/sqrt(2) so that the monomial norm
    (2! per doubly occupied slot) works out to |alpha|^2+|beta|^2+|gamma|^2.
    """
    h = Mode(path, H)
    v = Mode(path, V)
    a, b, g = coeffs.as_tuple()
    terms = [
        FockTerm.from_occupations({h: 2}, (), a / math.sqrt(2)),
        FockTerm.from_occupations({h: 1, v: 1}, (), b),
        FockTerm.from_occupations({v: 2}, (), g / math.sqrt(2)),
    ]
    return build_state((), terms)


def make_spatial_qutrit(
    coeffs: QutritCoefficients,
    paths: tuple[str, str, str],
) -> PhotonicState:
    """One photon spread over three paths, horizontally polarized."""
    if len(set(paths)) != 3:
        raise WiringError(f"spatial qutrit needs three distinct paths, got {paths}")
    terms = [
        FockTerm.from_occupations({Mode(p, H): 1}, (), c)
        for p, c in zip(paths, coeffs.as_tuple())
    ]
    return build_state((), terms)


def single_photon(path: str, pol: str = H) -> PhotonicState:
    return build_state((), [FockTerm.from_occupations({Mode(path, pol): 1})])


def ancilla_plus(path: str) -> PhotonicState:
    """One photon in (|H> + |V>)/sqrt(2) on the given path."""
    s = 1.0 / math.sqrt(2)
    terms = [
        FockTerm.from_occupations({Mode(path, H): 1}, (), s),
        FockTerm.from_occupations({Mode(path, V): 1}, (), s),
    ]
    return build_state((), terms)


def vacuum_state() -> PhotonicState:
    return build_state((), [FockTerm.from_occupations({})])


def tensor(a: PhotonicState, b: PhotonicState) -> PhotonicState:
    """Tensor product of states living on disjoint paths and registers."""
    shared = state_paths(a) & state_paths(b)
    if shared:
        raise WiringError(f"tensor factors share paths {sorted(shared)}")
    if set(a.registers) & set(b.registers):
        raise WiringError("tensor factors share register labels")
    terms = []
    for ta in a.terms:
        for tb in b.terms:
            occ = ta.occupations()
            occ.update(tb.occupations())
            terms.append(
                FockTerm.from_occupations(
                    occ, ta.coherent + tb.coherent, ta.amplitude * tb.amplitude
                )
            )
    return build_state(
        a.registers + b.registers, terms, a.born_weight * b.born_weight
    )


def relabel_paths(state: PhotonicState, mapping: Mapping[str, str]) -> PhotonicState:
    """Rename spatial paths; refuses renames that would merge distinct paths."""
    present = state_paths(state)
    image: dict[str, str] = {}
    for p in sorted(present):
        q = mapping.get(p, p)
        if q in image:
            raise WiringError(f"paths {image[q]!r} and {p!r} both map to {q!r}")
        image[q] = p
    terms = []
    for t in state.terms:
        occ = {
            Mode(mapping.get(m.path, m.path), m.pol): n for m, n in t.occ
        }
        terms.append(FockTerm.from_occupations(occ, t.coherent, t.amplitude))
    return build_state(state.registers, terms, state.born_weight)
