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
# shape); the intern table's entries are keyed by (None, keys).  Reaching the
# bound drops every entry, and an entry holds at most two shapes, so at most
# 2 * _RETAINED shapes outlive the states that carry them.  36 s benchmark runs
# end with 164 entries in 0.54 MB (linear optics), 1035 in 1.0 MB (ideal qubus)
# and 1195 in 2.2 MB (physical qubus).  Of these, interned keys take 0.26, 0.47
# and 0.93 MB and substitution plans 0.22, 0.18 and 0.55 MB; pair plans for
# inner products and register norms (flat index arrays) take 0.09 and 0.25 MB on
# the qubus workloads.  Groupings for dropped registers and stripped modes,
# label-rewrite orders, photon counts and traced-fidelity plans hold the rest.
# run_all()'s random circuits make one-off shapes, which the bound drops instead
# of keeping (twice per run_all()).
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
        weights, pairs = _recall(self, "norm", self._norm_plan)
        if pairs is not None:
            return _paired(terms, terms, pairs).real
        total = 0.0
        for t, w in zip(terms, weights):
            a = t[2]
            total += (a.real * a.real + a.imag * a.imag) * w
        return total

    def _norm_plan(self):
        occs = [occ for occ, _ in self.keys]
        if any(coh for _, coh in self.keys) or len(set(occs)) < len(occs):
            return None, _pairs(self, self)
        return array("i", [_occ_norm(occ) for occ in occs]), None


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
    groups = _grouping(terms)
    labels = [g[1] for g in groups]
    return _grouped_state(regs, groups, labels, [t.amplitude for t in terms], float(born_weight))


def _grouped_state(registers, groups, labels, amplitudes, born_weight, shape=None) -> PhotonicState:
    """The state of :func:`_grouping`'s ``groups`` of keys that carry ``amplitudes``.

    Group k takes ``labels[k]`` and its summed amplitude; sums at or below
    PRUNE_EPS are pruned.  ``shape``, if given, is that of all the groups.
    """
    sums = []
    for _, _, first, rest in groups:  # in key order, from the first member
        amp = amplitudes[first]
        for i in rest:
            amp += amplitudes[i]
        sums.append(amp)
    terms = tuple(
        _new_term((g[0], coh, amp))
        for g, coh, amp in zip(groups, labels, sums)
        if abs(amp) > PRUNE_EPS
    )
    if shape is not None and len(terms) < len(sums):
        shape = shape.subset(tuple(k for k, amp in enumerate(sums) if abs(amp) > PRUNE_EPS))
    return _shaped(registers, terms, born_weight, shape)


def _regrouped(state, op, members, rekey, amplitudes, registers) -> PhotonicState:
    """The canonical state of the terms at ``members``, the p-th key rewritten
    as ``rekey(p, key)``, that carry ``amplitudes``.  Merges, order and shape
    come from the memo under ``op``, which fixes ``members`` and ``rekey``."""
    shape, terms = _shape(state), state.terms

    def plan():
        groups = _grouping([rekey(p, shape.keys[k]) for p, k in enumerate(members)])
        return groups, _interned(tuple((occ, coh) for occ, coh, _, _ in groups))

    groups, out_shape = _recall(shape, op, plan)
    # labels from the state's own terms: equal labels can differ in a zero's sign
    labels = [rekey(g[2], terms[members[g[2]]])[1] for g in groups]
    born_weight = float(state.born_weight)
    return _grouped_state(registers, groups, labels, amplitudes, born_weight, out_shape)


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
    """:func:`inner_product`'s plan for two shapes, built once: ``(rows, combos,
    reps)`` of :func:`_overlaps`, ``rows`` flat ``(bra, ket, occupation weight,
    combo)`` per pair of terms of one occupation, in its order."""

    def plan():
        by_occ: dict[tuple, list[int]] = {}
        for j, (occ, _) in enumerate(ket.keys):
            by_occ.setdefault(occ, []).append(j)
        pairs = [(i, j) for i, (occ, _) in enumerate(bra.keys) for j in by_occ.get(occ, ())]
        cells, combos, reps = _overlaps(pairs, *([coh for _, coh in s.keys] for s in (bra, ket)))
        rows = [x for (i, j), c in zip(pairs, cells) for x in (i, j, _occ_norm(bra.keys[i][0]), c)]
        return array("i", rows), combos, reps

    return _recall(bra, ("pairs", ket), plan)


def _paired(bra_terms, ket_terms, plan) -> complex:
    """The sum of :func:`_pairs`' ``plan``: each label-pair overlap taken once."""
    rows, combos, reps = plan
    conj = [t[2].conjugate() for t in bra_terms]
    overlaps = [coherent_overlap(bra_terms[i][1][k], ket_terms[j][1][k]) for i, j, k in reps]
    it = iter(rows)
    total = 0j
    if reps and len(combos[0]) == 1:  # one register: combo c is slot c
        for i, j, w, c in zip(it, it, it, it):
            total += conj[i] * ket_terms[j][2] * w * overlaps[c]
        return total
    for i, j, w, c in zip(it, it, it, it):
        val = conj[i] * ket_terms[j][2] * w
        for s in combos[c]:
            val *= overlaps[s]
        total += val
    return total


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
    terms = tuple(_new_term((t[0], t[1], t[2] * factor)) for t in state.terms)
    return _shaped(state.registers, terms, state.born_weight, state.shape)


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
