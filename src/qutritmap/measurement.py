"""Projective detection, post-selection and feed-forward bookkeeping.

Detectors here are non-photon-number-resolving: a click is the projector
``I - |vac><vac|`` over the watched modes.  Branches carry their own
probability both in ``Outcome.probability`` (relative to the input state)
and multiplied into ``born_weight`` of the renormalized branch state.

The measurements expect canonical input (merged, pruned, sorted terms), as
every function of this package returns it.  Any subset of canonical terms is
canonical, so a branch keeps the kept terms' amplitudes and the subset of
their shape as they stand instead of merging and sorting them again.  Each
outcome is a ``fock._step`` plan per input shape; strips are kernels too.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .elements import apply_phase_shift, apply_sigma_x
from .fock import (
    PROB_EPS,
    InvalidInput,
    Mode,
    PhotonicState,
    WiringError,
    _Site,
    _fidelity,
    _kernel,
    _merge_plan,
    _paired,
    _photons,
    _recall,
    _reweighted,
    _run,
    _segment,
    _site,
    _step,
    _sum_lines,
    path_modes,
    scaled,
)


def _summed(values) -> float:
    """Left to right from 0.0: from Python 3.12, builtin sum() compensates floats."""
    total = 0.0
    for value in values:
        total += value
    return total


class Outcome(NamedTuple):
    """One result and its renormalized branch; ``state`` is None where that
    branch is a mixture, which is not modelled (its probability is exact)."""

    label: str
    value: float | None
    probability: float
    state: PhotonicState | None


class BranchDistribution(NamedTuple):
    outcomes: tuple[Outcome, ...]

    @property
    def total_probability(self) -> float:
        return _summed(o.probability for o in self.outcomes)

    def labels(self) -> tuple[str, ...]:
        return tuple(o.label for o in self.outcomes)

    def get(self, label: str) -> Outcome:
        for o in self.outcomes:
            if o.label == label:
                return o
        raise InvalidInput(f"no outcome labelled {label!r}")

    def closest(self, value: float) -> Outcome:
        numbered = [o for o in self.outcomes if o.value is not None]
        if not numbered:
            raise InvalidInput("distribution has no numeric outcomes")
        return min(numbered, key=lambda o: abs(o.value - value))


def _norm_in(state: PhotonicState, action: str) -> float:
    """Squared norm of a state about to be measured; refuses a zero state and a norm
    that is not finite (a NaN passes every comparison with a bound)."""
    return _run(_measurable, state, action)


def _measurable(state, action: str) -> float:
    """:func:`_norm_in` of a state's parts: its squared norm, checked."""
    n2 = state[2]
    if n2 <= PROB_EPS:
        raise InvalidInput(f"cannot {action} a zero state")
    if not n2 < math.inf:
        raise InvalidInput(f"cannot {action} a state of squared norm {n2!r}")
    return n2


def _selected(state: PhotonicState, needs: tuple, norm_in: float) -> tuple[float, PhotonicState]:
    """The outcome of the terms of a canonical state that hold ``lo`` to ``hi``
    photons in the ``watched`` modes of every ``(watched, lo, hi)`` in ``needs``."""
    return _step(state, _recall(None, ("kept", needs), lambda: _selection(needs)), norm_in)


def _selection(needs: tuple) -> _Site:
    """The site of :func:`_selected`; refuses overlapping mode groups and a photon count
    that is not one."""
    if any(a & b for (a, _, _), (b, _, _) in itertools.combinations(needs, 2)):
        raise WiringError("post-selection mode groups overlap")
    for _, lo, _ in needs:
        if not (lo >= 0 and float(lo).is_integer()):
            raise InvalidInput(f"photon count must be a non-negative integer, got {lo!r}")

    def plan(shape):
        idx = [k for k, (occ, _) in enumerate(shape.keys)
               if all(lo <= _photons(occ, watched) <= hi for watched, lo, hi in needs)]
        return _merge_plan([shape.keys[k] for k in idx], [f"A[{k}]" for k in idx],
                           ["def kernel(A, n, C, E, P):", "    V, o = C"], (), True, False)

    return _Site("kept", plan)


def detect_non_resolving(state: PhotonicState, modes: Iterable[Mode]) -> BranchDistribution:
    """Split a canonical state into click / no-click branches over the watched modes."""
    watched = frozenset(modes)
    outcomes = (
        Outcome(label, None, *post_select_coincidence(state, [(watched, label)]))
        for label in ("click", "no-click")
    )
    return BranchDistribution(tuple(o for o in outcomes if o.probability > 0.0))


def post_select_coincidence(
    state: PhotonicState,
    pattern: Sequence[tuple[Iterable[Mode], str]],
) -> tuple[float, PhotonicState]:
    """Keep the branch of a canonical state that meets every requirement.

    Each requirement is ``(modes, "click" | "no-click")``.  Returns
    ``(probability, renormalized branch)``; a zero-probability pattern
    returns the empty state with born weight 0.
    """
    needs = []
    for modes, want in pattern:
        if want not in ("click", "no-click"):
            raise InvalidInput(f"unknown requirement {want!r}")
        needs.append((frozenset(modes), *((1, math.inf) if want == "click" else (0, 0))))
    return _selected(state, tuple(needs), _norm_in(state, "post-select"))


def project_total_photons(
    state: PhotonicState, modes: Iterable[Mode], n: int
) -> tuple[float, PhotonicState]:
    """Project a canonical state onto exactly ``n`` photons in the watched modes."""
    return _selected(state, ((frozenset(modes), n, n),), _norm_in(state, "project"))


def strip_modes(state: PhotonicState, modes: Iterable[Mode]) -> PhotonicState:
    """Remove watched modes whose content factors out of the state.

    Writes the state as ``sum_ij c_ij |d_i>|r_j>`` over detector signatures
    ``d_i`` (occupation restricted to the watched modes) and rest signatures
    ``r_j``; requires the coefficient matrix to be rank one, then returns the
    rest factor with the original norm.  Raises WiringError when the watched
    modes are still entangled with the rest.
    """
    watched = frozenset(modes)
    return _stripped(state, _site("strip", (watched,), lambda shape: _strip_plan(shape, watched)))


def _stripped(state: PhotonicState, site: _Site) -> PhotonicState:
    """:func:`strip_modes` at its ``site``: its split kernel picks the rank-1 merge."""
    shape = state.shape
    kernel, pivots = _recall(shape, site, lambda: site.plan(shape))
    h, entries, pivot = _run(_split, state, kernel, decided=True)
    factored, stripped = _step(state, pivots[h], entries, pivot)
    if not factored:
        raise WiringError("watched modes are entangled with the rest; cannot strip")
    return scaled(stripped, _run(_rescale, stripped, state))


def _split(state, kernel):
    """A strip's split ``kernel`` on a state's parts: its heaviest row, entries, pivot."""
    entries, pivot, h = kernel(state[0], 1e-9, 1.0)  # the rank-1 tolerance factors
    return h, entries, pivot


def _rescale(stripped, state) -> float:
    """The factor that takes a stripped state's squared norm to its source's (their parts)."""
    n2 = stripped[2]
    if n2 <= PROB_EPS:
        raise InvalidInput("stripped state vanished")
    return (state[2] / n2) ** 0.5


def _strip_plan(shape, watched: frozenset):
    """:func:`strip_modes`' plan ``(kernel, pivots)``.  Per detector signature (row) and rest
    signature (column), first seen first, ``rows`` holds column, entry, rest and first term.
    ``kernel(A, K, U)`` returns the entries, each summed from 0j, the pivot (tolerance K *
    max(U, max |entry|^2) and column j, the largest |entry| of row h; first of equals) and
    the heaviest row h (sum of |entry|^2), whose rank-1 merge (:func:`_rank1_plan`) has the
    site ``pivots[h]``."""
    if not shape.keys:
        raise InvalidInput("cannot strip modes from a zero state")
    columns, cells = {}, {}
    for i, (occ, coh) in enumerate(shape.keys):
        rest = (tuple((m, n) for m, n in occ if m not in watched), coh)
        cell = tuple((m, n) for m, n in occ if m in watched), columns.setdefault(rest, len(columns))
        cells.setdefault(cell, (rest[0], []))[1].append(i)
    lines, rows = ["def kernel(A, K, U):"], {}
    for e, ((det, j), (rest, members)) in enumerate(cells.items()):
        _sum_lines(["0j"] + [f"A[{i}]" for i in members], f"r{e}", lines)
        lines.append(f"    x{e} = abs(r{e})")
        rows.setdefault(det, []).append((j, e, rest, members[0]))
    rows = tuple(map(tuple, rows.values()))
    x = [[f"x{e}" for _, e, _, _ in row] for row in rows]
    lines += [f"    w{r} = {' + '.join(f'{a} ** 2' for a in row)}" for r, row in enumerate(x)]
    lines += ["    h, m = 0, w0"] + [f"    if w{r} > m: h, m = {r}, w{r}" for r in range(1, len(x))]
    for r, row in enumerate(x):
        lines += [f"    {'elif' if r else 'if'} h == {r}:", f"        j, b = 0, {row[0]}"]
        lines += [f"        if {a} > b: j, b = {at}, {a}" for at, a in enumerate(row[1:], 1)]
    top = f"max([{', '.join(a for row in x for a in row)}])"
    kernel = _kernel(lines, f"[{', '.join(f'r{e}' for e in range(len(cells)))}], "
                            f"(K * max(U, {top} ** 2), j), h")
    return kernel, tuple(_Site("rank1", functools.partial(_rank1_plan, rows=rows, h=h))
                         for h in range(len(rows)))


def _rank1_plan(shape, rows, h: int):
    """:func:`strip_modes`' rank-1 check for heaviest row ``h``: the merge plan of the row's
    entries on its columns' rest keys, whose ``kernel(A, R, D, C, E, P)``, D the pivot's
    tolerance T and column j, returns nothing if another row's entry times the pivot x is
    more than T from its pivot-column entry y times the heavy row's (0j where absent)."""

    def at(side, col):
        return f"R[{side[col]}]" if col in side else "0j"

    cols, kept, rest, sources = zip(*rows[h])
    ref, checks = dict(zip(cols, kept)), []
    lines = ["def kernel(A, R, D, C, E, P):", "    T, j = D",
             f"    x = ({''.join(f'R[{e}], ' for e in kept)})[j]"]
    for r, row in enumerate(dict((c, e) for c, e, _, _ in row) for row in rows[:h] + rows[h + 1 :]):
        lines.append(f"    y{r} = ({''.join(f'{at(row, c)}, ' for c in cols)})[j]")
        checks += [f"abs({at(row, c)} * x - y{r} * {at(ref, c)}) > T" for c in {**ref, **row}]
    lines += [f"    if {' or '.join(checks)}:", "        return"] if checks else []
    keys = [(occ, shape.keys[i][1]) for occ, i in zip(rest, sources)]
    return _merge_plan(keys, [f"R[{e}]" for e in kept], lines)


@dataclass(frozen=True)
class Correction:
    kind: str  # "phase" | "sigma_x"
    target: str | Mode
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("phase", "sigma_x"):
            raise InvalidInput(f"unknown correction kind {self.kind!r}")


class FeedForwardRule(NamedTuple):
    """Outcome label -> correction chain; every observed label needs an entry."""

    corrections: Mapping[str, tuple[Correction, ...]]

    def apply(self, label: str, state: PhotonicState) -> PhotonicState:
        """Run the correction chain of outcome ``label`` on ``state``."""
        if label not in self.corrections:
            raise WiringError(f"no feed-forward entry for outcome {label!r}")
        for corr in self.corrections[label]:
            if corr.kind == "phase":
                state = apply_phase_shift(state, corr.target, corr.value)
            else:
                state = apply_sigma_x(state, corr.target)
        return state


def merge_branches(
    branches: Sequence[tuple[float, PhotonicState]], tol: float = 1e-9
) -> tuple[float, PhotonicState, float]:
    """Incoherently combine branches that hold the same physical state.

    Probabilities add; the states must match up to a global phase (their
    pairwise fidelity is returned so callers can assert on it).  This is a
    classical mixture record, not an amplitude sum.
    """
    (alive,) = _run(_alive, *(p for p, _ in branches), decided=True)
    live = list(itertools.compress(branches, alive))
    if not live:
        raise InvalidInput("all branches have zero probability")
    first = live[0][1]
    pairs = [_paired(first, s) for _, s in live[1:]]
    total, born_weight, min_fid = _run(_merged, tol, pairs, *itertools.chain.from_iterable(live))
    return total, _run(_reweighted, first, born_weight), min_fid


def _alive(*ps) -> tuple[tuple[bool, ...]]:
    """Which of the branch probabilities ``ps`` exceed PROB_EPS."""
    return (tuple(p > PROB_EPS for p in ps),)


def _merged(tol: float, pairs, *live):
    """:func:`merge_branches` of its live branches, ``p0, s0, p1, s1, ...`` (each state's
    parts), by ``pairs``, per later branch the pair plan of the first's shape and its own.
    Returns P, the merged state's born weight and the minimum fidelity."""
    states = live[1::2]
    total = _summed(live[::2])
    first = states[0]
    min_fid = 1.0
    for s, plan in zip(states[1:], pairs):
        f = _fidelity(s, first, plan)
        min_fid = min(min_fid, f)
        if f < 1.0 - tol:
            raise WiringError(f"branches disagree: fidelity {f} below 1 - {tol}")
    return total, _summed(s[1] for s in states), min_fid


# fock._run hands each its states' parts
_measurable.reads = _split.reads = _rescale.reads = _merged.reads = True


def erase_and_merge(
    state: PhotonicState,
    ports: Mapping[str, str],
    rule: FeedForwardRule,
    keep: Iterable[Mode] | None = None,
    strip: Iterable[Mode] = (),
    tol: float = 1e-9,
) -> tuple[float, PhotonicState, float, dict[str, float]]:
    """Which-path eraser: keep each single-detector click, correct it, merge.

    ``ports`` maps every outcome label to the path its detector watches.  For
    each label the branch of the canonical ``state`` where that detector
    alone clicks is kept; with ``keep`` it is further projected onto exactly
    one photon (the output photon) in those modes.  The label's chain from
    ``rule`` is applied, the fired detector and the ``strip`` modes are
    factored out, and the branches are combined by :func:`merge_branches` at
    ``tol``.

    Returns ``(probability, merged state, minimum branch fidelity,
    probability of each label)``; a label that never occurs has probability 0
    and no branch.
    """
    keep, strip = None if keep is None else tuple(keep), tuple(strip)

    def wiring():  # per label the sites of its selection and strip, and the projection's
        labels = []
        for label, fired in ports.items():
            needs = tuple((frozenset(path_modes(p)), *((1, math.inf) if p == fired else (0, 0)))
                          for p in ports.values())
            watched = frozenset(path_modes(fired) + strip)
            stripping = _site("strip", (watched,), lambda shape, w=watched: _strip_plan(shape, w))
            labels.append((label, _selection(needs), stripping))
        return labels, None if keep is None else _selection(((frozenset(keep), 1, 1),))

    wired = ("eraser", tuple(ports.items()), keep, strip)
    labels, kept = _recall(None, wired, wiring)

    def body(state, tol):  # one segment: every label, correction and strip, and the merge
        norm_in = _norm_in(state, "post-select") if labels else None
        ps, branches = [], []
        for label, selection, stripping in labels:
            p, branch = _step(state, selection, norm_in)
            if p > 0.0 and kept is not None:
                q, branch = _step(branch, kept, _norm_in(branch, "project"))
                p = _run(operator.mul, p, q)
            ps.append(p)
            if p > 0.0:
                branches.append((p, _stripped(rule.apply(label, branch), stripping)))
        total, merged, min_fid = merge_branches(branches, tol=tol)
        return (total, min_fid, *ps), merged

    chains = tuple((label, tuple(chain)) for label, chain in rule.corrections.items())
    (total, min_fid, *ps), merged = _segment((wired, chains), body, state, tol)
    return total, merged, min_fid, dict(zip((label for label, _, _ in labels), ps))
