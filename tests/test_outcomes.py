"""Outcome, strip, traced-fidelity and merge-verdict kernels against the loops they replace.

A measurement outcome, ``strip_modes``' row sums and rank-1 check,
``traced_fidelity``'s weights and Gram sum, and each merge kernel's prune
verdict run as compiled kernels (``fock._kernel``).  The functions below are
the per-call loops those kernels replaced, kept as references; outputs must
agree bit for bit, so they are compared by ``float.hex``.  Each test runs on
a state and its zero-sign twin (every zero part of an amplitude or label
negated), with and without registers, on a memo cleared before the pair, so
the twin runs on the plans the first state built where their shapes agree.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qutritmap import fock, measurement
from qutritmap.fock import (
    PRUNE_EPS,
    FockTerm,
    InvalidInput,
    Mode,
    PhotonicState,
    SimulationError,
    WiringError,
    build_state,
    norm_sq,
    scaled,
    single_photon,
    tensor,
    traced_fidelity,
)
from qutritmap.measurement import PROB_EPS, path_modes, strip_modes
from qutritmap.qubus import project_quadrature_x
from test_columns import ref_quadrature
from test_shape import (
    PATHS,
    bits,
    canonical_state,
    flip_zeros,
    hexed,
    label,
    occupation,
    readout_bits,
    reference_readout,
    specs,
)


def twin_of(state):
    """``state`` with every zero part of its amplitudes and labels negated."""
    terms = tuple(FockTerm(t.occ, tuple(map(flip_zeros, t.coherent)), flip_zeros(t.amplitude))
                  for t in state.terms)
    return PhotonicState(state.registers, terms, state.born_weight)


def twins(state):
    """``state`` and its twin, built from their terms again on a cleared memo."""
    fock._MEMO.clear()
    return [PhotonicState(s.registers, s.terms, s.born_weight) for s in (state, twin_of(state))]


def outcome(f, *args):
    """``bits`` of ``f(*args)`` (with a probability's hex), or what it raises."""
    try:
        got = f(*args)
    except SimulationError as exc:
        return type(exc), str(exc)
    if isinstance(got, tuple):
        p, state = got
        return float(p).hex(), bits(state)
    return got.hex() if isinstance(got, float) else bits(got)


# ---------------------------------------------------------------------------
# the loops the kernels replaced


def branch_loop(kept, norm_in):
    """A branch as ``measurement._branch`` built it from ``kept``, the kept terms."""
    n2 = norm_sq(kept)
    p = n2 / norm_in
    if p <= PROB_EPS:
        return 0.0, PhotonicState(kept.registers, (), 0.0)
    factor = 1.0 / math.sqrt(n2)
    amps = [a * factor for a in kept.amplitudes]
    return p, fock._columns(kept.registers, amps, kept.born_weight * p, kept.shape)


def selected_loop(state, needs, norm_in):
    """``measurement._selected`` as it was: the kept subset, then :func:`branch_loop`."""
    shape = state.shape
    counts = [([fock._photons(occ, watched) for occ, _ in shape.keys], lo, hi)
              for watched, lo, hi in needs]
    idx = tuple(k for k in range(len(shape.keys)) if all(lo <= c[k] <= hi for c, lo, hi in counts))
    amps = list(map(state.amplitudes.__getitem__, idx))
    subset = fock._interned(tuple(shape.keys[k] for k in idx))
    kept = fock._columns(state.registers, amps, state.born_weight, subset)
    return branch_loop(kept, norm_in)


def summed(values):
    total = 0.0
    for value in values:
        total += value
    return total


def strip_loop(state, modes):
    """``strip_modes`` as it was: dict rows and a set-union rank-1 loop."""
    watched = frozenset(modes)
    column_of, split = {}, {}
    for i, (occ, coh) in enumerate(state.shape.keys):
        rest = (tuple((m, n) for m, n in occ if m not in watched), coh)
        j = column_of.setdefault(rest, len(column_of))
        det = tuple((m, n) for m, n in occ if m in watched)
        members, firsts = split.setdefault(det, ([], {}))
        members.append((i, j))
        firsts.setdefault(j, (rest[0], i))
    split = [(members, tuple(firsts.values())) for members, firsts in split.values()]
    amps = state.amplitudes
    rows = []
    for members, _ in split:
        row: dict[int, complex] = {}
        for i, j in members:
            row[j] = row.get(j, 0j) + amps[i]
        rows.append(row)
    if not rows:
        raise InvalidInput("cannot strip modes from a zero state")
    tol = 1e-9 * max(1.0, max(abs(a) for row in rows for a in row.values()) ** 2)
    heaviest = max(range(len(rows)), key=lambda r: summed(abs(a) ** 2 for a in rows[r].values()))
    ref = rows.pop(heaviest)
    j0 = max(ref, key=lambda k: abs(ref[k]))
    for row in rows:
        rj0 = row.get(j0, 0j)
        for key in set(ref) | set(row):
            lhs = row.get(key, 0j) * ref[j0]
            rhs = rj0 * ref.get(key, 0j)
            if abs(lhs - rhs) > tol:
                raise WiringError("watched modes are entangled with the rest; cannot strip")
    rest, sources = zip(*split[heaviest][1])
    # the heavy row's entries on its columns' rest occupations and first terms' labels,
    # merged, pruned and sorted
    stripped = build_state(state.registers, [
        FockTerm(occ, state.shape.keys[i][1], a) for occ, i, a in zip(rest, sources, ref.values())
    ], float(state.born_weight))
    n2 = norm_sq(stripped)
    if n2 <= PROB_EPS:
        raise InvalidInput("stripped state vanished")
    return scaled(stripped, (norm_sq(state) / n2) ** 0.5)


def traced_loop(state, target):
    """``traced_fidelity`` as it was: per-call weight and Gram loops."""
    if not state.registers:
        return fock.fidelity(state, target)
    by_occ = {}
    for j, (occ, _) in enumerate(target.shape.keys):
        by_occ.setdefault(occ, []).append(j)
    keys = state.shape.keys
    matched = [(i, by_occ[occ], fock._occ_norm(occ))
               for i, (occ, _) in enumerate(keys) if occ in by_occ]
    weights = []
    for i, targets, w in matched:
        amp_t = 0j
        for j in targets:
            amp_t += target.amplitudes[j]
        weights.append(amp_t.conjugate() * state.amplitudes[i] * w)
    conj = [w.conjugate() for w in weights]
    num = 0j
    for (i, _, _), wi in zip(matched, weights):
        for (j, _, _), wj in zip(matched, conj):
            gram = 1.0 + 0j
            for x, y in zip(keys[j][1], keys[i][1]):
                gram *= fock.coherent_overlap(x, y)
            num += wi * wj * gram
    denom = norm_sq(state) * norm_sq(target)
    if denom <= 0.0:
        raise InvalidInput("fidelity of a zero state is undefined")
    return min(max(num.real / denom, 0.0), 1.0)


def verdict_loop(sums):
    """The prune's keep list, whose all() the kernel's verdict replaced."""
    return all(list(map(PRUNE_EPS.__lt__, map(abs, sums))))


# ---------------------------------------------------------------------------
# the kernels against them

nregs = st.integers(0, 2)
labels = st.lists(label, min_size=1, max_size=3)
pattern = st.lists(st.sampled_from((None, "click", "no-click")), min_size=3, max_size=3)


@given(nregs=nregs, labels=labels, specs=specs, wants=pattern, n=st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_selection_outcome_kernel_matches_the_loop(nregs, labels, specs, wants, n):
    click = {"click": (1, math.inf), "no-click": (0, 0)}
    needs = [
        tuple((frozenset(path_modes(p)), *click[w]) for p, w in zip(PATHS, wants) if w),
        ((frozenset(path_modes("a")), n, n),),
    ]
    for state in twins(canonical_state(nregs, labels, specs)):
        # the state's own norm, and one so large that every p is at most PROB_EPS
        for norm_in in (norm_sq(state), 1e20):
            if norm_in <= PROB_EPS:  # measurements refuse a zero state first
                continue
            for need in needs:
                assert outcome(measurement._selected, state, need, norm_in) == outcome(
                    selected_loop, state, need, norm_in
                )
        assert all(measurement._selected(state, need, 1e20)[0] == 0.0 for need in needs)


@given(nregs=st.integers(1, 2), labels=labels, specs=specs)
@settings(max_examples=150, deadline=None)
def test_readout_outcome_kernels_match_the_loop(nregs, labels, specs):
    for state in twins(canonical_state(nregs, labels, specs)):
        if norm_sq(state) <= PROB_EPS:
            continue
        for mode in ("ideal", "physical"):
            assert readout_bits(state, "r0", mode) == reference_readout(state, "r0", mode)
        x = project_quadrature_x(state, "r0")
        assert [(o.label, o.probability.hex(), bits(o.state)) for o in x.outcomes] == (
            ref_quadrature(state, "r0")
        )


@given(
    nregs=nregs,
    labels=labels,
    specs=specs,
    detector=st.lists(st.tuples(occupation, st.complex_numbers(max_magnitude=2.0)),
                      min_size=1, max_size=3),
)
@example(nregs=0, labels=[0j], specs=[({Mode("a", "H"): 1}, 0, 1 + 0j)], detector=[({}, 1j)])
@settings(max_examples=150, deadline=None)
def test_strip_kernels_match_the_loop(nregs, labels, specs, detector):
    watched = path_modes("d")
    moved = [({Mode("d", m.pol): c for m, c in occ.items()}, a) for occ, a in detector]
    for state in twins(canonical_state(nregs, labels, specs)):
        # a state's own paths, whose rows are entangled; no photon in d (a single row);
        # one in d, H or V by term; and a product with a detector state, whose rows are
        # proportional
        cases = [
            lambda: (tensor(state, single_photon("d")), path_modes("a")),
            lambda: (state, watched),
            lambda: (build_state(state.registers, [
                t._replace(occ=tuple(sorted(t.occ + ((watched[k % 2], 1),))))
                for k, t in enumerate(state.terms)]), watched),
            lambda: (tensor(state, build_state(
                (), [FockTerm.from_occupations(occ, (), a) for occ, a in moved])), watched),
        ]
        for case in cases:
            try:
                s, modes = case()
            except fock.PhotonCapExceeded:
                continue
            assert outcome(strip_modes, s, modes) == outcome(strip_loop, s, modes)


def test_strip_kernels_raise_on_entangled_rows_every_call():
    h, v = path_modes("d")
    bell = build_state((), [
        FockTerm.from_occupations({h: 1, Mode("a", "H"): 1}, (), 0.6),
        FockTerm.from_occupations({v: 1, Mode("a", "V"): 1}, (), -0.8),
    ])
    fock._MEMO.clear()
    for _ in range(3):
        assert outcome(strip_modes, bell, (h, v)) == outcome(strip_loop, bell, (h, v))
        assert outcome(strip_modes, bell, (h, v))[0] is WiringError


@given(
    nregs=nregs,
    labels=labels,
    specs=specs,
    target=st.lists(st.tuples(occupation, st.complex_numbers(max_magnitude=2.0)),
                    min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_traced_fidelity_kernel_matches_the_loop(nregs, labels, specs, target):
    goal = build_state((), [FockTerm.from_occupations(occ, (), amp) for occ, amp in target])
    for state in twins(canonical_state(nregs, labels, specs)):
        for t in (goal, twin_of(goal)):
            if t.terms:
                assert outcome(traced_fidelity, state, t) == outcome(traced_loop, state, t)


# sums that land on the verdict's edges: NaN, exactly PRUNE_EPS, just above it, zero
edge = st.sampled_from((
    complex(math.nan, 0.0), complex(0.0, math.nan), complex(PRUNE_EPS, 0.0),
    complex(-0.0, -PRUNE_EPS), complex(0.5 * PRUNE_EPS, 0.0),
    complex(math.nextafter(PRUNE_EPS, 1.0), 0.0),
    0j, complex(-0.0, 0.0), 0.75 + 0.5j, -1.0 + 0j,
))


def sums_loop(state):
    """Each merged group's sum, from its first member's amplitude, left to right."""
    amps, groups = state.amplitudes, fock._grouping(state.shape.keys)
    return [sum((amps[m] for m in rest), amps[first]) for *_, first, rest in groups]


@given(
    nregs=nregs,
    labels=labels,
    terms=st.lists(st.tuples(st.integers(0, 2), edge, st.integers(0, 2)), min_size=1, max_size=8),
    factor=st.lists(edge, min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_merge_kernel_verdicts_match_the_keep_loop(nregs, labels, terms, factor):
    regs = tuple(f"r{k}" for k in range(nregs))
    raw = tuple(
        FockTerm.from_occupations({Mode(PATHS[o], "H"): 1},
                                  [labels[(pick + r) % len(labels)] for r in range(nregs)], a)
        for o, a, pick in terms
    )
    other = PhotonicState((), tuple(FockTerm(((mode, 1),), (), a)
                                    for mode, a in zip(path_modes("x"), factor)))
    for state in twins(PhotonicState(regs, raw)):
        built = build_state(regs, state.terms)
        assert fock._MERGE.kind == "merge"
        kernel, consts, _ = fock._MEMO[state.shape, fock._MERGE]
        p, sums, pruned = kernel(state.amplitudes, consts, PRUNE_EPS, PROB_EPS)
        assert p == 1
        assert [hexed(s) for s in sums] == [hexed(s) for s in sums_loop(state)]
        assert (not pruned) is verdict_loop(sums)
        assert list(pruned) in ([], [abs(s) > PRUNE_EPS for s in sums])
        kept = [hexed(s) for s in sums if abs(s) > PRUNE_EPS]
        assert [hexed(a) for a in built.amplitudes] == kept

        product = tensor(built, other)
        site = fock._MEMO[other.shape, "factor"]
        assert site.kind == "tensor"
        kernel, consts, _ = fock._MEMO[built.shape, site]
        p, sums, pruned = kernel(built.amplitudes, other.amplitudes, consts, PRUNE_EPS, PROB_EPS)
        assert p == 1
        assert (not pruned) is verdict_loop(sums)
        assert list(pruned) in ([], [abs(s) > PRUNE_EPS for s in sums])
        kept = [hexed(s) for s in sums if abs(s) > PRUNE_EPS]
        assert [hexed(a) for a in product.amplitudes] == kept
