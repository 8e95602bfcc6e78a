"""Sparse symbolic Fock states for few-photon interferometry.

A state is a sum of creation-operator monomials acting on the vacuum,
optionally tensored with labelled coherent-state registers: an interned
:class:`Shape` of its terms' occupations and register labels plus a column of
exact complex amplitudes, so overlaps and measurement statistics come out in
closed form.  The README describes how steps, sites, plans and segments make
and replay states.

Conventions:

* a term with occupation ``{m: n}`` represents ``amplitude * (a_m^dag)^n``
  applied to vacuum, i.e. an *unnormalized* monomial whose squared norm is
  ``|amplitude|^2 * prod(n!)``;
* coherent registers are pure labels: elements act on them by rewriting
  the complex amplitude, never by expanding in number states.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import struct
import sys
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

H = "H"
V = "V"
POLS = (H, V)

PRUNE_EPS = 1e-12
PROB_EPS = 1e-15
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
        for mode, n in occupations.items():
            if n < 0 or int(n) != n:
                raise InvalidInput(f"occupation must be a non-negative int, got {n!r}")
            if n:
                occ.append((mode, int(n)))
        return cls(_capped(tuple(sorted(occ))), tuple(map(complex, coherent)), complex(amplitude))

    @property
    def total_photons(self) -> int:
        return sum(n for _, n in self.occ)

    def occupations(self) -> dict[Mode, int]:
        return dict(self.occ)


_occupation, _amplitude = operator.itemgetter(0), operator.itemgetter(2)


def _capped(occ: tuple) -> tuple:
    """``occ``, a term's occupation, after checking it against PHOTON_CAP."""
    total = sum(n for _, n in occ)
    if total > PHOTON_CAP:
        raise PhotonCapExceeded(f"term holds {total} photons, cap is {PHOTON_CAP}")
    return occ


@dataclass(frozen=True)
class PhotonicState:
    """A canonical (merged, pruned, sorted) state: its interned shape, which holds
    every term's occupation and register labels, and an amplitude column.

    ``terms``, one FockTerm per term, is a view built from the two on first read;
    a state built from terms derives its shape and column at construction.
    ``==``, ``hash``, ``repr`` and pickle see ``(registers, terms, born_weight)``.
    ``born_weight`` tracks the probability of the measurement record that led
    to this (renormalized) branch; it never enters overlaps.
    """

    registers: tuple[str, ...]
    terms: tuple[FockTerm, ...]
    born_weight: float = 1.0
    # the column is never mutated and may be shared
    shape: Shape = field(init=False, repr=False, compare=False)
    amplitudes: Sequence[complex] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vars(self).update(shape=_interned(tuple(t[:2] for t in self.terms)),
                          amplitudes=tuple(map(_amplitude, self.terms)))

    def __getattr__(self, name):
        # reached for a column-built state's terms (frozen, with an immutable column:
        # built once)
        if name != "terms":
            raise AttributeError(name)
        cells = vars(self)
        cells[name] = _view(self)
        return cells[name]

    def __reduce__(self):  # the value: shape, column and norm are derived again
        return PhotonicState, (self.registers, self.terms, self.born_weight)


def _columns(registers, amplitudes, born_weight, shape: Shape, norm=None) -> PhotonicState:
    """The state of ``shape`` whose amplitude column is ``amplitudes`` (and squared norm
    ``norm``, if given)."""
    state = object.__new__(PhotonicState)
    cells = vars(state)
    cells.update(registers=registers, amplitudes=amplitudes, born_weight=born_weight, shape=shape)
    if norm is not None:
        cells["_norm_sq"] = norm
    return state


def _parts(state: PhotonicState) -> tuple:
    """``(column, born weight, squared norm)``: ``state`` as a :func:`_run` function that
    ``reads`` takes it."""
    return state.amplitudes, state.born_weight, norm_sq(state)


def _reweighted(state: PhotonicState, born_weight: float) -> PhotonicState:
    """``state`` with born weight ``born_weight``, carrying its norm: a merge's output.  A
    compiled replay keeps it as the parts of ``state``, with ``born_weight``."""
    return _columns(state.registers, state.amplitudes, born_weight, state.shape, norm_sq(state))


def _view(state: PhotonicState) -> tuple[FockTerm, ...]:
    """A column-built state's ``terms``, built in C."""
    rows = map(operator.add, state.shape.keys, zip(state.amplitudes))
    return tuple(map(tuple.__new__, itertools.repeat(FockTerm), rows))


# Keyed by (Shape, site or constant), by (two shapes, constant) or, for interned keys,
# kernels and replays by source, and sites, by (None, key).  An entry holds at most two
# shapes, so at most 2 * _RETAINED shapes outlive the states that carry them.
_RETAINED = 2048
_MEMO: dict[tuple, object] = {}


def _recall(shape, op, build):
    """What ``op`` derives from ``shape`` alone: ``build()`` on a miss.  A failed build
    stores nothing, so a check that fails in it fails again on every call."""
    key = shape, op
    value = _MEMO.get(key)
    if value is None:
        value = build()
        if len(_MEMO) >= _RETAINED:
            _MEMO.clear()
        _MEMO[key] = value
    return value


class _Site:
    """One wiring of an operation that makes a state: its ``kind`` and ``plan(shape)``,
    the builder of its :func:`_step` plan for a state of ``shape`` (a strip's picks the
    site of its rank-1 merge, a readout's is its outcome table, a segment's is None: a
    run records its tape).  It holds no shape and hashes by identity, as a Shape does."""

    __slots__ = ("kind", "plan")

    def __init__(self, kind: str, plan):
        self.kind, self.plan = kind, plan


def _site(kind: str, args: tuple, plan) -> _Site:
    """The site of ``kind`` on the wiring ``args``, built once with its ``plan`` builder."""
    return _recall(None, (kind, *args), lambda: _Site(kind, plan))


def _step(state, site, *values, registers=None, weight=1.0):
    """``(p, output)`` of ``site`` on ``state``; p is 1 where nothing is measured.

    The plan, built once per ``(state.shape, site)``, is ``(kernel, consts, shape)``, and
    ``shape`` is the output's.  ``kernel(A, *values, consts, PRUNE_EPS, PROB_EPS)`` returns
    nothing for an outcome at p <= PROB_EPS or a stored refusal (p 0 and the empty state),
    else p, the output column and, if some prune, the mask of the terms that pass.  The
    output carries ``registers`` (default: the input's) and born weight ``weight`` times the
    input's times p.  A step on a value of a recording :func:`_segment` joins its tape.
    """
    shape = state.shape
    kernel, consts, out = _recall(shape, site, lambda: site.plan(shape))
    registers = state.registers if registers is None else registers
    result = kernel(state.amplitudes, *values, consts, PRUNE_EPS, PROB_EPS)
    if result is None:
        mask, p, output = False, 0.0, _columns(registers, (), 0.0, _VOID)
    else:
        p, column, mask = result
        if mask:
            keys = out.keys
            out = _recall((out, tuple(mask)), "subset",
                          lambda: _interned(tuple(itertools.compress(keys, mask))))
            column = list(itertools.compress(column, mask))
        output = _columns(registers, column, weight * float(state.born_weight) * p, out)
    if _tape is not None and id(state) in _tape.slot_of:
        args = kernel, weight, registers, state, *values, consts, PRUNE_EPS, PROB_EPS
        _, p, output = _tape.join(_step, args, (mask, p, output), True)
    return p, output


def _run(fn, *args, decided=False):
    """``fn(*args)``, a function of plan pieces, numbers and, if ``fn.reads``, states, which
    it takes as their :func:`_parts`; its first result is a decision if ``decided`` (a pivot,
    which branches are live).  Where an argument is a value of a recording :func:`_segment`,
    the call joins its tape."""
    given = args
    if getattr(fn, "reads", False):
        given = [_parts(a) if type(a) is PhotonicState else a for a in args]
    out = fn(*given)
    if _tape is not None and any(id(a) in _tape.slot_of for a in args):  # else a constant
        out = _tape.join(fn, args, out, decided)
    return out


class _Recording:
    """An open tape: its entries and, by id, the slot of each value the segment made or took
    as input (-1 for a constant, None where two entries returned one object); it holds them,
    so no id is reused."""

    def __init__(self, *inputs):
        self.slot_of, self.held = {id(x): k for k, x in enumerate(inputs)}, list(inputs)
        self.entries, self.broken, self.free = [], False, len(inputs) - 1

    def specs(self, args):
        """``args`` as a tape holds them: the constants, and ``(position, slot)`` per value
        of the segment."""
        slots = [self.slot_of.get(id(a), -1) for a in args]
        self.broken |= None in slots
        read = [slot is not None and slot >= 0 for slot in slots]
        return (tuple(None if r else a for a, r in zip(args, read)),
                tuple((at, slot) for at, (slot, r) in enumerate(zip(slots, read)) if r))

    def join(self, fn, args, out, decided):
        """Append the call ``fn(*args)`` as ``(fn, args, refs, decided, arity, decision)``.
        Its results after its decision take the next slots (arity: their count, None for
        one result that is no tuple); where the decision is False (a step's cut, which
        fixes its p and empty state), they are constants of the tape.  Returns ``out``, each
        float result a fresh copy: another entry may give the same object (a cached norm), or
        a constant be it (a clamped fidelity's literal 1.0 is also the default step weight)."""
        cut, made = decided and out[0] is False, out[decided:] if type(out) is tuple else (out,)
        if not cut and float in map(type, made):
            made = tuple(struct.unpack("d", _bits(v))[0] if type(v) is float else v for v in made)
            out = (*out[:decided], *made) if type(out) is tuple else made[0]
        arity = len(made) if type(out) is tuple else None
        kept, refs = self.specs(args)
        if getattr(fn, "reads", False):  # a state as its shape's norm plan (a value) or parts
            kept = tuple(k if type(a) is not PhotonicState else _parts(a) if k is a else
                         _norms(a.shape) for a, k in zip(args, kept))
        self.entries.append((fn, kept, refs, decided, arity, out[0] if decided else None))
        for value in made:
            slot = -1 if cut else len(self.held)
            self.slot_of[id(value)] = slot if self.slot_of.get(id(value), slot) == slot else None
            self.held.append(value)
        return out

    def tape(self, values, out):
        """The stored tape of a body that returned ``(values, out)``, or None; its compiled
        replay, the last item, is made on its first replay."""
        values, slot = self.specs(values), self.slot_of.get(id(out))
        if self.broken or slot is None or slot < 0:
            return None
        return tuple(self.entries), values, slot, out.shape, self.free, None


_tape = None  # the _Recording of the segment being recorded
_REPLAY = True  # a test hook: where False, every segment runs its body and records nothing


def _segment(name, body, state, *params, free=()):
    """``body(state, *params, *free)``, a block of steps from ``state`` (forking: a step joins
    on any state it made) that returns ``(values, output state)``.  Its values depend on
    ``params``, ``free`` and constants only, save those computed through :func:`_run`.  The
    first run per input shape and site (``name``, registers, bits of ``params``) records a
    tape of inputs ``state`` and ``free`` (see the README); the first replay compiles it
    (:func:`_compiled`), and every replay runs that, or ``body`` where a guard fails.
    Nested, or where ``_REPLAY`` is off, it runs ``body``."""
    global _tape
    if _tape is not None or not _REPLAY:
        return body(state, *params, *free)
    key = state.shape, _site("segment", (name, state.registers, _bits(*params)), None)
    tape = _MEMO.get(key)
    if tape is not None:
        if tape[-1] is None:
            tape = _MEMO[key] = (*tape[:-1], _compiled(*tape[:-1]))
        if done := _replayed(tape, state, free):
            return done
    free = struct.unpack(f"{len(free)}d", _bits(*free))  # fresh floats: no constant is one
    _tape = recording = _Recording(state, *free)
    try:
        values, out = body(state, *params, *free)
    finally:
        _tape = None
    if tape is None and (kept := recording.tape(values, out)):
        _recall(*key, lambda: kept)
    return values, out


def _replayed(tape, state, free):
    """:func:`_segment`'s result from the compiled replay of ``tape`` on ``state`` and the
    free parameters ``free``, or None where a guard fails (a step cuts an outcome it kept or
    keeps one it cut, prunes another subset, a call decides otherwise) or a call raises."""
    replay, consts = tape[-1]
    try:
        return replay(state, consts, free)
    except (SimulationError, ArithmeticError):
        return None


def _compiled(entries, values, slot, shape, free):
    """``(replay, consts)``: a tape as one straight-line kernel ``replay(S, K, F)`` of the
    input state S, the constants K (kernels, plan pieces, decisions, registers) and the
    ``free`` parameters F, which returns :func:`_segment`'s result, or nothing where a call
    decides otherwise.  Each entry is one call and its guard.  A step's or a merge's output
    (:func:`_reweighted`) stays its column and born weight, and its norm once a call that
    ``reads`` it computes that; it becomes a state, carrying the norm, only where a value,
    the output or a call that does not read parts takes it whole."""
    consts, index, lines = [], {}, ["def kernel(S, K, F):"]
    made = {k: f"F[{k - 1}]" if k else "S" for k in range(free + 1)}  # per slot its value's name
    cols, norms = {}, {}  # per step's or merge's state its parts, and its norm once computed

    def const(x):
        if id(x) not in index:
            index[id(x)] = len(consts)
            consts.append(x)
        return f"K[{index[id(x)]}]"

    def norm(s):
        return f", {norms[s]}" if s in norms else ""

    def read(s):  # the value in slot s; a step's or merge's state is built on its first read
        if s not in made:
            lines.append(f"    v{s} = columns({', '.join(cols[s])}, {const(None)}{norm(s)})")
            made[s] = f"v{s}"
        return made[s]

    def whole(s):  # the registers, column and born weight of the state in slot s
        return cols.get(s) or tuple(f"{read(s)}.{a}" for a in ("registers", "amplitudes",
                                                                "born_weight"))

    def part(s, plan):  # the state in slot s as its parts, its norm by ``plan`` once per slot
        _, column, born = whole(s)
        if s not in norms:
            lines.append(f"    n{s} = {const(plan[0])}({column}, {const(plan[1])})")
            norms[s] = f"n{s}"
        return f"({column}, {born}, {norms[s]})"

    def filled(args, refs, start=0, reads=False):  # a read state's recorded arg is its plan
        return [(part(refs[at], a) if reads and a is not None else read(refs[at])) if at in refs
                else const(a) for at, a in enumerate(args, start)]

    n = 1 + free  # the entry's first slot
    for fn, args, refs, decided, arity, decision in entries:
        refs = dict(refs)
        if fn is _reweighted and 0 in refs:
            s, (born,) = refs[0], filled(args[1:], refs, 1)
            cols[n] = *whole(s)[:2], born
            if s in norms:
                norms[n] = norms[s]
            n += 1
            continue
        if fn is not _step:
            call = f"{const(fn)}({', '.join(filled(args, refs, 0, getattr(fn, 'reads', False)))})"
            names = [f"v{k}" for k in range(n, n + (1 if arity is None else arity))]
            made.update(zip(range(n, n + len(names)), names))
            target = names[0] if arity is None else "".join(f"{v}, " for v in names)
            if decided:
                lines += [f"    o = {call}", f"    if o[0] != {const(decision)}: return"]
                target, call = "_, " + target, "o"
            if names or not decided:  # a call that returns only its decision is done
                lines.append(f"    {(target or '_').rstrip()} = {call}")
            n += len(names)
            continue
        s = refs.pop(3, None)  # the input state: a slot, or a constant
        (kernel, weight, registers), rest = filled(args[:3], refs), filled(args[4:], refs, 4)
        state = const(args[3]) if s is None else read(s) if s not in cols else None
        column, born = cols[s][1:] if state is None else (f"{state}.amplitudes",
                                                            f"float({state}.born_weight)")
        call = f"{kernel}({column}, {', '.join(rest)})"
        if decision is False:  # a cut: its p and empty state are constants
            lines.append(f"    if {call}: return")
        else:
            p, c = f"v{n}", f"c{n + 1}"
            lines += [f"    r = {call}", "    if not r: return", f"    {p}, {c}, m = r"]
            if decision:  # the prune keeps the recorded subset
                kept = ", ".join(f"{c}[{i}]" for i, x in enumerate(decision) if x)
                lines += [f"    if m != {const(decision)}: return", f"    {c} = [{kept}]"]
            else:
                lines.append("    if m: return")
            one = type(args[1]) is float and args[1] == 1.0  # 1.0 * x is x
            lines.append(f"    b{n + 1} = {'' if one else weight + ' * '}{born} * {p}")
            made[n], cols[n + 1] = p, (registers, c, f"b{n + 1}")
        n += 2
    returned = "({}), columns({}, {}{})".format("".join(x + ", " for x in filled(
        values[0], dict(values[1]))), ", ".join(whole(slot)), const(shape), norm(slot))
    return _kernel(lines, returned), tuple(consts)


def _kernel(lines: list[str], returned: str):
    """The ``kernel`` that ``lines`` begin, returning ``returned``, compiled once per
    source: a plan's per-call arithmetic, or a tape's replay, as straight-line code,
    with integer indices and weights only in the source."""
    source = "\n".join(lines + [f"    return {returned}"])

    def build():
        namespace = {"sqrt": math.sqrt, "exp": cmath.exp, "columns": _columns}
        exec(compile(source, f"<kernel {next(_COMPILED)}>", "exec"), namespace)
        return namespace["kernel"]

    return _recall(None, source, build)


_COMPILED = itertools.count()  # numbers each source's file name, so profiles tell them apart
_CHUNK = 256  # parts per expression: the compiler recurses once per operator


def _sum_lines(parts: list[str], name: str, lines: list[str]) -> str:
    """Append to ``lines`` the left-to-right sum of ``parts`` into ``name``; returns it."""
    lines.append(f"    {name} = {' + '.join(parts[:_CHUNK])}")
    for at in range(_CHUNK, len(parts), _CHUNK):
        lines.append(f"    {name} = {name} + {' + '.join(parts[at:at + _CHUNK])}")
    return name


def _bits(*parts: float) -> bytes:
    """The exact bits of ``parts``: 0.0 and -0.0 are equal, but not the same bits."""
    return struct.pack(f"{len(parts)}d", *parts)


def _interned(keys: tuple) -> Shape:
    """The shape of ``keys``, interned by them and the exact bits of their labels."""
    bits = _bits(*[x for _, coh in keys for c in coh for x in (c.real, c.imag)])
    return _recall(None, (keys, bits), lambda: Shape(keys, bits) if keys else _VOID)


class Shape:
    """What a state's ``(occ, coherent)`` keys fix, whatever its amplitudes.

    Interned by its keys and the exact ``bits`` of their labels: 2+0j and 2-0j
    compare equal but make two shapes, so ``keys`` hold every state's labels
    bit for bit and all label arithmetic runs once per shape, on them.  Shapes
    hash by identity, so :func:`_recall` never rehashes keys.
    """

    __slots__ = ("keys", "bits")

    def __init__(self, keys: tuple, bits: bytes):
        self.keys, self.bits = keys, bits

    def paths(self) -> frozenset[str]:
        """The paths that hold a photon in some term."""
        return frozenset(m.path for o, _ in self.keys for m, _ in o)

    def norm_sq(self, state: PhotonicState) -> float:
        """``inner_product(state, state).real``, bit for bit, for a ``state`` of this shape."""
        kernel, overlaps = _norms(self)
        return kernel(state.amplitudes, overlaps)

    def _norm_plan(self):
        """``(kernel, overlaps)``: :func:`_norm_lines` as a kernel of the amplitudes."""
        lines = ["def kernel(A, o):"]
        total, overlaps = _norm_lines(self.keys, [f"A[{k}]" for k in range(len(self.keys))], lines)
        return _kernel(lines, total), overlaps


_VOID = Shape((), b"")  # the empty state's shape, which outlives memo drops
_EMPTY = _columns((), (), 1.0, _VOID)
_SOURCE = _columns((), (), 1.0, _VOID)  # a segment's input that builds its own (_built uses _EMPTY)


def _norms(shape: Shape):
    """The norm plan ``(kernel, overlaps)`` of ``shape``'s states."""
    return _recall(shape, "norm", shape._norm_plan)


def _norm_lines(keys, amps: list[str], lines: list[str], o: str = "o"):
    """Append to ``lines`` ``inner_product(s, s).real`` of terms of ``keys``, whose
    amplitudes are the source expressions ``amps``; returns its expression and overlaps
    ``o``.  Terms without labels and of distinct occupations are orthogonal: each |a|^2
    times its occupation weight, in term order, from the first (never -0.0, so 0.0 + it)."""
    occs = [occ for occ, _ in keys]
    if not occs or any(coh for _, coh in keys) or len(set(occs)) < len(occs):
        return "t.real", _pair_lines(keys, keys, amps, amps, lines, o)
    for k, (occ, a) in enumerate(zip(occs, amps)):
        lines += [f"    x = {a}", f"    t {'+=' if k else '='} "
                  f"(x.real * x.real + x.imag * x.imag){_times(_occ_norm(occ))}"]
    return "t", None


def _times(weight: int) -> str:
    """`` * weight`` in a sum kernel's term, or nothing for 1 (it only flips signs of zeros)."""
    return "" if weight == 1 else f" * {weight}"


def _photons(occ: tuple, watched: frozenset) -> int:
    """A term's photon count in the ``watched`` modes, from its occupation ``occ``."""
    return sum(n for m, n in occ if m in watched)


def _sort_key(item) -> tuple:
    # canonical order of a key or a group entry: occupation, then rounded labels
    return item[0], tuple((round(c.real, 9), round(c.imag, 9)) for c in item[1])


def _grouping(keys) -> tuple[tuple[tuple, tuple, int, tuple[int, ...]], ...]:
    """Which of ``keys`` merge and in what order the merged terms stand.

    ``keys`` are ``(occ, coherent)`` pairs.  A key joins the
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


def build_state(registers: Iterable[str], terms: Iterable[FockTerm],
                born_weight: float = 1.0) -> PhotonicState:
    """The canonical state of ``terms``: equal monomials merged, the merged
    amplitudes at or below PRUNE_EPS pruned, the rest sorted."""
    regs, terms = tuple(registers), tuple(terms)
    for t in terms:
        if len(t.coherent) != len(regs):
            raise InvalidInput(f"term carries {len(t.coherent)} coherent labels, "
                               f"state declares {len(regs)} registers")
    return _step(PhotonicState(regs, terms, born_weight), _MERGE)[1]


def _built(key: tuple, *parts, source=None) -> PhotonicState:
    """The register-free state of the terms :func:`_occupations` of ``key``, checked once per
    key, of amplitudes complex(parts[2k], parts[2k + 1]) over the root of the occupation weight
    where not 1: one step whose values are ``parts``, from ``source`` (a segment's value: it
    joins the tape, its prune a guard; by default the empty state), whose column it ignores."""

    def plan(_):
        keys = [(_capped(occ), ()) for occ in _occupations(*key)]
        amps = [f"complex(x{2 * k}, x{2 * k + 1})" + (f" / sqrt({w})" if w != 1 else "")
                for k, w in enumerate(_occ_norm(occ) for occ, _ in keys)]
        xs = "".join(f"x{k}, " for k in range(2 * len(keys)))
        return _merge_plan(keys, amps, [f"def kernel(A, {xs}C, E, P):"])

    return _step(source or _EMPTY, _site("built", key, plan), *parts, registers=())[1]


def _occupations(kind: str, where) -> list:
    """The occupations of the terms of the ``kind`` state on ``where``, in order."""
    if kind == "biphotonic":
        h, v = path_modes(where)
        return [((h, 2),), ((h, 1), (v, 1)), ((v, 2),)]
    if kind == "spatial":  # one photon per path, horizontally polarized
        return [((path_modes(p)[0], 1),) for p in where]
    if kind == "plus":
        return [((mode, 1),) for mode in path_modes(where)]
    return [((where, 1),)] if kind == "photon" else [()]


def _group_lines(keys, parts, lines: list[str]):
    """Append to ``lines`` each merged group's left-to-right sum of its members' ``parts``
    into ``g0``, ``g1``, ...; returns the names and the shape of the groups' first keys."""
    groups = _grouping(keys)
    sums = [_sum_lines([parts[m] for m in (first, *rest)], f"g{k}", lines)
            for k, (_, _, first, rest) in enumerate(groups)]
    return sums, _interned(tuple((occ, coh) for occ, coh, _, _ in groups))


def _merge_plan(keys, parts, lines: list[str], consts=(), measured=False, grouped=True):
    """The :func:`_step` plan of terms of ``keys`` with amplitudes ``parts``, merged if
    ``grouped`` (:func:`_group_lines`); its kernel, which ``lines`` begin, returns p 1, the
    sums and, unless every sum's abs exceeds E (a NaN's does not), which of them do: the
    mask that prunes.  If ``measured``, its constants are ``(consts, overlaps)``: it sums
    the terms' norm m as their shape does and returns nothing if p = m / n <= P, else p
    and them over sqrt(m)."""
    if grouped:
        names, shape = _group_lines(keys, parts, lines)
    else:
        names, shape = parts, _interned(tuple(keys))
    column, p = names, "1"
    if measured:
        total, overlaps = _norm_lines(shape.keys, names, lines)
        lines += [f"    m = {total}", "    p = m / n", "    if p <= P:", "        return",
                  "    f = 1 / sqrt(m)"]
        column, p, consts = [f"{g} * f" for g in names], "p", (consts, overlaps)
    lines.append(f"    c = [{', '.join(column)}]")
    if grouped:
        lines += [f"    if not ({' and '.join(f'abs({g}) > E' for g in names) or 'E > 0'}):",
                  f"        return {p}, c, [{', '.join(f'abs({g}) > E' for g in names)}]"]
    return _kernel(lines, f"{p}, c, ()"), consts, shape


def _merged(keys):
    """The :func:`_step` plan that merges the terms of ``keys``, one per amplitude."""
    return _merge_plan(keys, [f"A[{k}]" for k in range(len(keys))], ["def kernel(A, C, E, P):"])


_MERGE = _Site("merge", lambda shape: _merged(shape.keys))
_SCALE = _Site("scale", lambda shape: (_kernel(["def kernel(A, f, C, E, P):"], "1, [{}], ()".format(
    ", ".join(f"A[{k}] * f" for k in range(len(shape.keys))))), (), shape))  # see scaled


def coherent_overlap(beta: complex, gamma: complex) -> complex:
    """<beta|gamma> for coherent states, exact closed form."""
    return cmath.exp(
        -0.5 * abs(beta) ** 2 - 0.5 * abs(gamma) ** 2 + beta.conjugate() * gamma
    )


def _occ_norm(occ: tuple[tuple[Mode, int], ...]) -> int:
    return math.prod(math.factorial(n) for _, n in occ)


def _overlaps(pairs, bra_labels, ket_labels):
    """Per ``(bra, ket)`` pair of ``pairs`` its entry in ``combos``, the tuple of its
    overlap slots, and per slot its overlap: one per distinct label pair, by exact bits.
    Returns ``(cells, combos, overlaps)``."""
    slot_of, overlaps, combo_of, cells = {}, [], {}, []
    for i, j in pairs:
        combo = []
        for x, y in zip(bra_labels[i], ket_labels[j]):
            slot = slot_of.setdefault(_bits(x.real, x.imag, y.real, y.imag), len(overlaps))
            if slot == len(overlaps):
                overlaps.append(coherent_overlap(x, y))
            combo.append(slot)
        cells.append(combo_of.setdefault(tuple(combo), len(combo_of)))
    return cells, tuple(combo_of), overlaps


def _pair_lines(bra, ket, bras: list[str], kets: list[str], lines: list[str], o: str = "o"):
    """Append to ``lines`` :func:`inner_product` into ``t`` of terms of keys ``bra`` and
    ``ket`` whose amplitudes are the source expressions ``bras`` and ``kets``: from 0j, per
    pair of terms of one occupation, the conjugated bra times the ket, occupation weight
    and overlaps ``o``; returns those."""
    by_occ: dict[tuple, list[int]] = {}
    for j, (occ, _) in enumerate(ket):
        by_occ.setdefault(occ, []).append(j)
    pairs = [(i, j) for i, (occ, _) in enumerate(bra) for j in by_occ.get(occ, ())]
    cells, combos, overlaps = _overlaps(pairs, *([coh for _, coh in s] for s in (bra, ket)))
    lines += [f"    c{i} = {bras[i]}.conjugate()" for i in sorted({i for i, _ in pairs})]
    lines.append("    t = 0j")
    for (i, j), cell in zip(pairs, cells):
        slots = "".join(f" * {o}[{s}]" for s in combos[cell])
        lines.append(f"    t += c{i} * {kets[j]}{_times(_occ_norm(bra[i][0]))}{slots}")
    return overlaps


def _pairs(bra: Shape, ket: Shape):
    """:func:`inner_product`'s plan for two shapes: ``(kernel(b, a, o), overlaps)``, the
    sum of :func:`_pair_lines` over bra amplitudes b and ket amplitudes a."""

    def plan():
        lines, kets = ["def kernel(b, a, o):"], [f"a[{j}]" for j in range(len(ket.keys))]
        overlaps = _pair_lines(bra.keys, ket.keys, [f"b[{i}]" for i in range(len(bra.keys))],
                               kets, lines)
        return _kernel(lines, "t"), overlaps

    return _recall((bra, ket), "pairs", plan)


def inner_product(bra: PhotonicState, ket: PhotonicState) -> complex:
    """<bra|ket> including register overlaps; born weights are ignored."""
    kernel, overlaps = _paired(bra, ket)
    return kernel(bra.amplitudes, ket.amplitudes, overlaps)


def _paired(bra: PhotonicState, ket: PhotonicState):
    """:func:`inner_product`'s plan of the shapes of ``bra`` and ``ket``, whose registers
    must agree (a replay skips the check: a tape's registers are constants)."""
    if bra.registers != ket.registers:
        raise InvalidInput(f"register mismatch: {bra.registers} vs {ket.registers}")
    return _pairs(bra.shape, ket.shape)


def norm_sq(state: PhotonicState) -> float:
    """``inner_product(state, state).real``, bit for bit, computed once per state (frozen,
    with an immutable column)."""
    cells = vars(state)
    if "_norm_sq" not in cells:
        cells["_norm_sq"] = state.shape.norm_sq(state)
    return cells["_norm_sq"]


def scaled(state: PhotonicState, factor: complex) -> PhotonicState:
    """Each amplitude times ``factor``: a step, so it joins a recording tape."""
    return _step(state, _SCALE, factor)[1]


def normalized(state: PhotonicState) -> PhotonicState:
    n2 = norm_sq(state)
    if n2 <= NORM_EPS**2:
        raise InvalidInput("cannot normalize a (near-)zero state")
    return scaled(state, 1.0 / math.sqrt(n2))


def fidelity(state: PhotonicState, target: PhotonicState) -> float:
    """|<target|state>|^2 for normalized views of both arguments."""
    return _run(_fidelity, state, target, _paired(target, state))


def _fidelity(state, target, pairs, traced=False) -> float:
    """:func:`fidelity` of two states' :func:`_parts` by the pair plan ``pairs`` of target and
    state (if ``traced``, :func:`traced_fidelity`'s plan of the two)."""
    (column, _, n2), (target_column, _, n2_target) = state, target
    denom = n2 * n2_target
    if denom <= 0.0:
        raise InvalidInput("fidelity of a zero state is undefined")
    kernel, consts = pairs
    if traced:
        val = kernel(column, target_column, consts).real / denom
    else:
        val = abs(kernel(target_column, column, consts)) ** 2 / denom
    return min(max(val, 0.0), 1.0)


_fidelity.reads = True  # _run hands it each state's parts


def _traced_plan(shape: Shape, target: Shape):
    """:func:`traced_fidelity`'s plan, ``(kernel(A, T, G), grams)``: a term of a target
    occupation weighs its amplitude, occupation weight and the conjugated sum of T there;
    the kernel sums each weight, conjugated weight and Gram product G, all from 0j."""
    by_occ: dict[tuple, list[int]] = {}
    for j, (occ, _) in enumerate(target.keys):
        by_occ.setdefault(occ, []).append(j)
    matched = [(i, by_occ[occ], _occ_norm(occ)) for i, (occ, _) in enumerate(shape.keys)
               if occ in by_occ]
    labels, n = [coh for _, coh in shape.keys], len(matched)
    pairs = [(j, i) for i, _, _ in matched for j, _, _ in matched]
    cells, combos, overlaps = _overlaps(pairs, labels, labels)
    products = [math.prod([overlaps[s] for s in combo], start=1.0 + 0j) for combo in combos]
    lines = ["def kernel(A, T, G):"]
    for k, (i, targets, w) in enumerate(matched):
        summed = "".join(f" + T[{j}]" for j in targets)
        lines.append(f"    w{k} = (0j{summed}).conjugate() * A[{i}]{_times(w)}")
    lines += [f"    v{k} = w{k}.conjugate()" for k in range(n)] + ["    t = 0j"]
    lines += [f"    t += w{a} * v{b} * G[{a * n + b}]" for a in range(n) for b in range(n)]
    return _kernel(lines, "t"), tuple(products[c] for c in cells)


def traced_fidelity(state: PhotonicState, target: PhotonicState) -> float:
    """Fidelity against a register-free target after tracing out registers.

    Computes <T| Tr_regs(|s><s|) |T> / (norm(s)^2 norm(T)^2).  Coincides with
    :func:`fidelity` when ``state`` has no registers attached.
    """
    if target.registers:
        raise InvalidInput("target must not carry coherent registers")
    if not state.registers:
        return fidelity(state, target)
    shapes = state.shape, target.shape
    traced = _recall(shapes, "traced", lambda: _traced_plan(*shapes))
    return _run(_fidelity, state, target, traced, True)


def amplitude_of(state: PhotonicState, occupations: Mapping[Mode, int]) -> complex:
    """Summed amplitude of all terms with the given occupation signature."""
    key = FockTerm.from_occupations(occupations).occ
    occs = map(_occupation, state.shape.keys)
    return sum((a for occ, a in zip(occs, state.amplitudes) if occ == key), 0j)


def state_paths(state: PhotonicState) -> set[str]:
    return set(state.shape.paths())


@dataclass(frozen=True)
class QutritCoefficients:
    """Normalized (alpha, beta, gamma) for the three logical qutrit levels."""

    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self):
        _unit((self.alpha, self.beta, self.gamma))

    @classmethod
    def normalize(cls, alpha: complex, beta: complex, gamma: complex) -> "QutritCoefficients":
        n2 = _squares(parts := _complexes((alpha, beta, gamma)))
        if not sys.float_info.min <= n2 < math.inf:  # a square under- or overflowed
            top = max(abs(x) for c in parts for x in (c.real, c.imag))
            if top == 0.0:
                raise InvalidInput("cannot normalize the zero vector")
            e = -math.frexp(top)[1]  # scaled by a power of two, the largest part in [0.5, 1)
            parts = [complex(math.ldexp(c.real, e), math.ldexp(c.imag, e)) for c in parts]
            n2 = _squares(parts)
        n = math.sqrt(n2)
        return cls(*(c / n for c in parts))

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (complex(self.alpha), complex(self.beta), complex(self.gamma))

    def parts(self) -> list[float]:
        """The real and imaginary parts of the coefficients, in order."""
        a, b, g = self.as_tuple()
        return [a.real, a.imag, b.real, b.imag, g.real, g.imag]


def _unit(c) -> list[complex]:
    """``c``, three numbers, as Python complex, refused as QutritCoefficients refuses them."""
    if abs((n := _squares(parts := _complexes(c))) - 1.0) > NORM_EPS:
        raise InvalidInput(f"coefficients are not normalized: |c|^2 = {n}")
    return parts


def _complexes(c) -> list[complex]:
    """``c``, three numbers, as Python complex, whose squares overflow silently where numpy
    scalars' warn; refuses a NaN or infinite one by name, as a NaN passes the norm test."""
    try:
        alpha, beta, gamma = c
        for name, value in zip(("alpha", "beta", "gamma"), (alpha, beta, gamma)):
            if not cmath.isfinite(value):
                raise InvalidInput(f"coefficient {name} = {value!r} is not finite")
        return [complex(alpha), complex(beta), complex(gamma)]
    except (TypeError, ValueError, OverflowError):  # no three numbers
        raise InvalidInput(f"expected three complex coefficients, got {c!r}") from None


def _squares(parts) -> float:
    """|alpha|^2 + |beta|^2 + |gamma|^2 of three Python complex, inf where a square overflows."""
    try:
        return abs(parts[0]) ** 2 + abs(parts[1]) ** 2 + abs(parts[2]) ** 2
    except OverflowError:
        return math.inf


def path_modes(path: str) -> tuple[Mode, Mode]:
    """A path's ``(H, V)`` modes, built once per path."""
    return _recall(None, ("modes", path), lambda: (Mode(path, H), Mode(path, V)))


def make_biphotonic_qutrit(coeffs: QutritCoefficients, path: str = "in") -> PhotonicState:
    """Two photons in one path: levels |HH>, |HV>, |VV> with unit norm.

    The double-occupation levels carry 1/sqrt(2) so that the monomial norm
    (2! per doubly occupied slot) works out to |alpha|^2+|beta|^2+|gamma|^2.
    """
    return _built(("biphotonic", path), *coeffs.parts())


def make_spatial_qutrit(coeffs: QutritCoefficients, paths: tuple[str, str, str]) -> PhotonicState:
    """One photon spread over three paths, horizontally polarized."""
    if len(set(paths)) != 3:
        raise WiringError(f"spatial qutrit needs three distinct paths, got {paths}")
    return _built(("spatial", tuple(paths)), *coeffs.parts())


def single_photon(path: str, pol: str = H) -> PhotonicState:
    mode = path_modes(path)[POLS.index(pol)] if pol in POLS else Mode(path, pol)  # refuses
    return _built(("photon", mode), 1.0, 0.0)


def ancilla_plus(path: str) -> PhotonicState:
    """One photon in (|H> + |V>)/sqrt(2) on the given path."""
    s = 1.0 / math.sqrt(2)
    return _built(("plus", path), s, 0.0, s, 0.0)


def vacuum_state() -> PhotonicState:
    return _built(("vacuum", None), 1.0, 0.0)


def tensor(a: PhotonicState, b: PhotonicState) -> PhotonicState:
    """Tensor product of states living on disjoint paths and registers.  The
    product's merges and order, and the checks on paths and PHOTON_CAP, are built
    once per ``a``'s shape and the site of ``b``'s shape (so the entry holds two
    shapes)."""
    keys_b = b.shape.keys

    def plan(shape):
        shared = shape.paths() & {m.path for occ, _ in keys_b for m, _ in occ}
        if shared:
            raise WiringError(f"tensor factors share paths {sorted(shared)}")
        pairs = list(itertools.product(enumerate(shape.keys), enumerate(keys_b)))
        keys = [(_capped(tuple(sorted(x[0] + y[0]))), x[1] + y[1]) for (_, x), (_, y) in pairs]
        parts = [f"A[{i}] * B[{j}]" for (i, _), (j, _) in pairs]
        return _merge_plan(keys, parts, ["def kernel(A, B, C, E, P):"])

    site = _recall(b.shape, "factor", lambda: _Site("tensor", plan))
    registers = a.registers + b.registers
    _, product = _step(a, site, b.amplitudes, registers=registers, weight=b.born_weight)
    if set(a.registers) & set(b.registers):
        raise WiringError("tensor factors share register labels")
    return product


def relabel_paths(state: PhotonicState, mapping: Mapping[str, str]) -> PhotonicState:
    """Rename spatial paths; refuses renames that would merge distinct paths.
    The check and the renamed keys' order are built once per shape and mapping."""
    items = tuple(mapping.items())

    def plan(shape):
        rename, image = dict(items), {}
        for p in sorted(shape.paths()):
            q = rename.get(p, p)
            if q in image:
                raise WiringError(f"paths {image[q]!r} and {p!r} both map to {q!r}")
            image[q] = p
        moved = {p: q for q, p in image.items()}
        return _merged([(_capped(tuple(sorted((Mode(moved[m.path], m.pol), n) for m, n in occ))),
                         coh) for occ, coh in shape.keys])

    return _step(state, _site("relabel", (items,), plan))[1]
