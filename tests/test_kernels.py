"""Compiled plan kernels against the loops they replace, and their compile cache.

Substitutions, inner products, norms and phase shifts run each memoized plan
as one generated straight-line function (``fock._kernel``).  The references
below are the per-call loops written the direct way; outputs must agree bit
for bit, so they are compared by ``float.hex``, which tells -0.0 from 0.0.
The inputs lean on what can flip the sign of a zero: real amplitudes with
+0.0 or -0.0 imaginary parts, coefficients of 1, -1 and -0.5, and pairs of
single photons, whose occupation weight is 1.
"""

import ast
import collections
import cProfile
import math
import pstats
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritmap import elements, fock
from qutritmap.elements import (
    BeamSplitterSpec,
    apply_beam_splitter,
    apply_phase_shift,
    substitute_modes,
)
from qutritmap.fock import PHOTON_CAP, FockTerm, Mode, build_state, inner_product, norm_sq
from qutritmap.sampling import haar_unitary, random_qutrit
from qutritmap.schemes import SCHEMES
from test_shape import bits, hexed, reference_inner, reference_phase_shift
from test_substitution import reference_substitute_modes

MODES = tuple(Mode(p, pol) for p in "ab" for pol in "HV")
TARGETS = MODES + tuple(Mode("x", pol) for pol in "HV")

occupation = st.dictionaries(
    st.sampled_from(MODES), st.integers(1, 2), max_size=3
).filter(lambda occ: sum(occ.values()) <= PHOTON_CAP)
zero = st.sampled_from((0.0, -0.0))
real_part = st.one_of(zero, st.sampled_from((1.0, -1.0, 0.5, -0.25)), st.floats(-2.0, 2.0))
# real amplitudes with a signed zero imaginary part, or general ones
amplitude = st.one_of(
    st.builds(complex, real_part, zero),
    st.builds(complex, zero, real_part),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
)
coefficient = st.one_of(
    st.sampled_from((1.0, -1.0, -0.5, 0.5, 1j, -1j, complex(1.0, -0.0), complex(-0.0, 1.0))),
    st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False),
)
label = st.builds(complex, st.sampled_from((0.0, -0.0, 0.5, -1.0)), zero)
terms = st.lists(st.tuples(occupation, amplitude, st.integers(0, 2)), min_size=1, max_size=8)


def state_of(nregs, labels, specs):
    regs = tuple(f"r{k}" for k in range(nregs))
    return build_state(
        regs,
        [
            FockTerm.from_occupations(
                occ, [labels[(pick + r) % len(labels)] for r in range(nregs)], amp
            )
            for occ, amp, pick in specs
        ],
    )


@given(
    nregs=st.integers(0, 1),
    labels=st.lists(label, min_size=1, max_size=3),
    specs=terms,
    shape=st.dictionaries(
        st.sampled_from(MODES), st.lists(st.sampled_from(TARGETS), min_size=1, max_size=3),
        min_size=1, max_size=4,
    ),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_substitution_kernel_matches_the_loop_bit_for_bit(nregs, labels, specs, shape, data):
    state = state_of(nregs, labels, specs)
    for _ in range(2):  # a plan's first run, then a run that finds it
        mapping = {m: [(t, data.draw(coefficient)) for t in ts] for m, ts in shape.items()}
        assert bits(substitute_modes(state, mapping)) == bits(
            reference_substitute_modes(state, mapping)
        )


@given(
    nregs=st.integers(0, 2),
    labels=st.lists(label, min_size=1, max_size=3),
    bra=terms,
    ket=terms,
    target=st.one_of(st.sampled_from("ab"), st.sampled_from(MODES)),
    phi=st.one_of(st.sampled_from((0.0, -0.0, math.pi, -math.pi / 2)), st.floats(-7.0, 7.0)),
)
@settings(max_examples=300, deadline=None)
def test_pair_norm_and_phase_kernels_match_the_loops_bit_for_bit(
    nregs, labels, bra, ket, target, phi
):
    x, y = state_of(nregs, labels, bra), state_of(nregs, labels, ket)
    for s, t in ((x, y), (y, x), (x, x)):
        assert hexed(inner_product(s, t)) == hexed(reference_inner(s, t))
        assert norm_sq(fresh(s)).hex() == reference_inner(s, s).real.hex()
        shifted = apply_phase_shift(s, target, phi)
        assert bits(shifted) == bits(reference_phase_shift(s, target, phi))


def fresh(state):
    """The same terms with no computed norm."""
    return fock.PhotonicState(state.registers, state.terms, state.born_weight)


# ---------------------------------------------------------------------------
# the compile cache


@mock.patch.object(fock, "compile", create=True)
def compiled_sources(run, compile_):
    """The source of every kernel compiled while ``run()`` runs."""
    compile_.side_effect = compile
    run()
    return [c.args[0] for c in compile_.call_args_list]


def report_bits(name, seed, **params):
    rng = np.random.default_rng(seed)
    c = random_qutrit(rng)
    rep = SCHEMES[name](*((c, haar_unitary(rng)) if name.startswith("u3-") else (c,)), **params)
    return (
        rep.success_probability.hex(),
        float(rep.output_fidelity).hex(),
        [float(e.probability).hex() for e in rep.branch_log],
        {k: float(v).hex() for k, v in rep.checks.items()},
    )


RUNS = (
    ("linear-forward", {}),
    ("u3-linear", {}),
    ("kerr-forward", {"meas_mode": "physical", "qubus_alpha": 2.0}),
    ("entangler", {"qubus_alpha": 5.0}),
    ("u3-kerr", {"qubus_alpha": 5.0}),  # a quadrature readout
)


def test_each_source_compiles_once_and_a_cleared_memo_changes_no_bit():
    fock._MEMO.clear()

    def run():
        return [report_bits(name, seed, **params) for name, params in RUNS for seed in (0, 1)]

    first = []
    sources = compiled_sources(lambda: first.extend(run()))
    assert len(fock._MEMO) <= fock._RETAINED
    counts = collections.Counter(sources)
    assert sources and max(counts.values()) == 1
    assert compiled_sources(run) == []  # every plan and kernel is in the memo
    fock._MEMO.clear()
    again = []
    assert collections.Counter(compiled_sources(lambda: again.extend(run()))) == counts
    assert again == first


def test_kernel_sources_hold_integers_only():
    fock._MEMO.clear()

    def run():
        for name, params in RUNS:
            report_bits(name, 3, **params)

    sources = compiled_sources(run)
    assert sources
    for source in sources:
        tree = ast.parse(source)
        (kernel,) = tree.body
        assert isinstance(kernel, ast.FunctionDef) and kernel.name == "kernel"
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                # integer indices and weights, and the 0j a pair sum starts from
                assert type(node.value) is int or (type(node.value) is complex and node.value == 0j)


# the headers of norm, pair and traced-fidelity kernels, which sum their terms from 0 or 0j
SUMS = ("def kernel(A, o):", "def kernel(b, a, o):", "def kernel(A, T, G):")


def test_sum_kernels_leave_out_weights_of_one():
    fock._MEMO.clear()
    sources = compiled_sources(lambda: [report_bits(name, 4, **params) for name, params in RUNS])
    sums = [source for source in sources if source.startswith(SUMS)]
    assert {source.split("\n")[0] for source in sums} == set(SUMS)
    for source in sums:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                assert not any(isinstance(side, ast.Constant) and side.value == 1
                               for side in (node.left, node.right)), source


def test_a_profile_tells_kernels_apart():
    """Each source compiles under a file name of its own, so a profile keeps one entry per
    kernel and replay instead of merging them into one."""
    for _ in range(2):  # record, then compile each tape
        report_bits("kerr-forward", 0)
    profile = cProfile.Profile()
    profile.runcall(report_bits, "kerr-forward", 0)
    kernels = [key for key in pstats.Stats(profile).stats if key[2] == "kernel"]
    assert len(kernels) > 1 and len({filename for filename, _, _ in kernels}) == len(kernels)


def test_shapes_of_one_structure_share_a_kernel():
    fock._MEMO.clear()
    bs = BeamSplitterSpec.from_t(0.6)
    plans = []
    real = elements._substitution_plan

    def recorded(shape, op):
        plans.append(real(shape, op))
        return plans[-1]

    with mock.patch.object(elements, "_substitution_plan", recorded):
        for path in ("a", "b"):
            state = build_state(
                (), [FockTerm.from_occupations({Mode(path, "H"): 1, Mode(path, "V"): 1}, (), 0.6j)]
            )
            apply_beam_splitter(state, path, None, "c", "d", bs)
    (kernel_a, *_), (kernel_b, *_) = plans
    assert kernel_a is kernel_b


def test_a_sum_of_thousands_of_parts_compiles_in_chunks():
    # one expression of 3000 additions would exceed the compiler's recursion limit
    amp = 0.1 + 0.2j
    state = build_state((), [FockTerm.from_occupations({Mode("a", "H"): 1}, (), amp)] * 3000)
    total = amp
    for _ in range(2999):
        total += amp
    assert [hexed(t.amplitude) for t in state.terms] == [hexed(total)]
