"""Projective detection, post-selection and feed-forward bookkeeping.

Detectors here are non-photon-number-resolving: a click is the projector
``I - |vac><vac|`` over the watched modes.  Branches carry their own
probability both in ``Outcome.probability`` (relative to the input state)
and multiplied into ``born_weight`` of the renormalized branch state.

The measurements expect canonical input (merged, pruned, sorted terms), as
every function of this package returns it.  Any subset of canonical terms is
canonical, so a branch keeps the kept terms' amplitudes and the subset of
their shape as they stand instead of merging and sorting them again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .elements import apply_phase_shift, apply_sigma_x
from .fock import (
    InvalidInput,
    Mode,
    PhotonicState,
    WiringError,
    _columns,
    _recall,
    _regrouped,
    fidelity,
    norm_sq,
    scaled,
)

PROB_EPS = 1e-15


def _summed(values) -> float:
    """Left to right from 0.0: from Python 3.12, builtin sum() compensates floats."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class Outcome:
    """One result and its renormalized branch; ``state`` is None where that
    branch is a mixture, which is not modelled (its probability is exact)."""

    label: str
    value: float | None
    probability: float
    state: PhotonicState | None


@dataclass(frozen=True)
class BranchDistribution:
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


def path_modes(path: str) -> tuple[Mode, Mode]:
    """A path's ``(H, V)`` modes, built once per path."""
    return _recall(None, ("modes", path), lambda: (Mode(path, "H"), Mode(path, "V")))


def _norm_in(state: PhotonicState, action: str) -> float:
    """Squared norm of a state about to be measured; refuses a zero state."""
    n2 = norm_sq(state)
    if n2 <= PROB_EPS:
        raise InvalidInput(f"cannot {action} a zero state")
    return n2


def _branch(kept: PhotonicState, norm_in: float) -> tuple[float, PhotonicState]:
    """Renormalize ``kept``, the kept part of a state whose squared norm is ``norm_in``.

    Returns ``(p, branch)``: ``p`` is the kept share of the norm and the
    branch's born weight is ``kept.born_weight * p``.  A share at or below
    ``PROB_EPS`` gives ``(0.0, empty state)``.
    """
    n2 = norm_sq(kept)
    p = n2 / norm_in
    if p <= PROB_EPS:
        return 0.0, PhotonicState(kept.registers, (), 0.0)
    factor = 1.0 / math.sqrt(n2)
    amps = [a * factor for a in kept.amplitudes]
    return p, _columns(kept.registers, amps, kept.born_weight * p, kept.shape)


def _selected(state: PhotonicState, needs: tuple, norm_in: float) -> tuple[float, PhotonicState]:
    """:func:`_branch` of the terms of a canonical state that hold ``lo`` to ``hi``
    photons in the ``watched`` modes of every ``(watched, lo, hi)`` in ``needs``."""
    shape = state.shape

    def kept():
        counts = [(shape.photons(watched), lo, hi) for watched, lo, hi in needs]
        idx = tuple(
            k for k in range(len(shape.keys)) if all(lo <= c[k] <= hi for c, lo, hi in counts)
        )
        return idx, shape.subset(idx)

    idx, kept_shape = _recall(shape, ("kept", needs), kept)
    amps = list(map(state.amplitudes.__getitem__, idx))
    return _branch(_columns(state.registers, amps, state.born_weight, kept_shape), norm_in)


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
    if any(a & b for (a, _, _), (b, _, _) in itertools.combinations(needs, 2)):
        raise WiringError("post-selection mode groups overlap")
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
    shape = state.shape

    def layout():
        # per detector signature: its (term, column) pairs and, per column, its
        # rest occupation and first term; a column is a rest signature
        column_of, rows = {}, {}
        for i, (occ, coh) in enumerate(shape.keys):
            rest = (tuple((m, n) for m, n in occ if m not in watched), coh)
            j = column_of.setdefault(rest, len(column_of))
            det = tuple((m, n) for m, n in occ if m in watched)
            members, firsts = rows.setdefault(det, ([], {}))
            members.append((i, j))
            firsts.setdefault(j, (rest[0], i))
        return tuple((tuple(members), tuple(firsts.values())) for members, firsts in rows.values())

    split = _recall(shape, ("strip", watched), layout)
    amps = state.amplitudes
    rows = []
    for members, _ in split:
        row: dict[int, complex] = {}
        for i, j in members:
            row[j] = row.get(j, 0j) + amps[i]
        rows.append(row)
    if not rows:
        raise InvalidInput("cannot strip modes from a zero state")
    # rank-1 check: every row must be proportional to the heaviest row
    tol = 1e-9 * max(1.0, max(abs(a) for row in rows for a in row.values()) ** 2)
    heaviest = max(range(len(rows)), key=lambda r: _summed(abs(a) ** 2 for a in rows[r].values()))
    ref = rows.pop(heaviest)  # proportional to itself
    j0 = max(ref, key=lambda k: abs(ref[k]))
    for row in rows:
        rj0 = row.get(j0, 0j)
        for key in set(ref) | set(row):
            lhs = row.get(key, 0j) * ref[j0]
            rhs = rj0 * ref.get(key, 0j)
            if abs(lhs - rhs) > tol:
                raise WiringError(
                    "watched modes are entangled with the rest; cannot strip"
                )
    rest, sources = zip(*split[heaviest][1])
    stripped = _regrouped(
        state, ("rest", watched, heaviest), sources, list(ref.values()), state.registers,
        rekeyed=lambda keys: [(occ, coh) for occ, (_, coh) in zip(rest, keys)],
    )
    n2 = norm_sq(stripped)
    if n2 <= PROB_EPS:
        raise InvalidInput("stripped state vanished")
    return scaled(stripped, (norm_sq(state) / n2) ** 0.5)


@dataclass(frozen=True)
class Correction:
    kind: str  # "phase" | "sigma_x"
    target: str | Mode
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("phase", "sigma_x"):
            raise InvalidInput(f"unknown correction kind {self.kind!r}")


@dataclass(frozen=True)
class FeedForwardRule:
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
    live = [(p, s) for p, s in branches if p > PROB_EPS]
    if not live:
        raise InvalidInput("all branches have zero probability")
    total = _summed(p for p, _ in live)
    first = live[0][1]
    min_fid = 1.0
    for _, s in live[1:]:
        f = fidelity(s, first)
        min_fid = min(min_fid, f)
        if f < 1.0 - tol:
            raise WiringError(f"branches disagree: fidelity {f} below 1 - {tol}")
    born_weight = _summed(s.born_weight for _, s in live)
    merged = _columns(first.registers, first.amplitudes, born_weight, first.shape)
    if "_norm_sq" in vars(first):  # computed for the same terms
        vars(merged)["_norm_sq"] = first._norm_sq
    return total, merged, min_fid


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
    strip = tuple(strip)
    probabilities: dict[str, float] = {}
    branches = []
    for label, fired in ports.items():
        pattern = [
            (path_modes(path), "click" if path == fired else "no-click")
            for path in ports.values()
        ]
        p, branch = post_select_coincidence(state, pattern)
        if p > 0.0 and keep is not None:
            q, branch = project_total_photons(branch, keep, 1)
            p *= q
        probabilities[label] = p
        if p == 0.0:
            continue
        branch = rule.apply(label, branch)
        branches.append((p, strip_modes(branch, path_modes(fired) + strip)))
    total, merged, min_fid = merge_branches(branches, tol=tol)
    return total, merged, min_fid, probabilities
