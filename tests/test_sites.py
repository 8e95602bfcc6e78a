"""Warmed scheme runs key every plan by a site.

Each operation that makes a state runs through ``fock._step``: its wiring
(paths, modes, registers, counts) is a site, built once per wiring, and its
plan is found under ``(Shape, site)``.  So a second run on the same inputs
builds nothing and hashes no per-call tuple of wiring or member indices into
a plan key, and a site holds no shape, so the memo's bound of two shapes per
entry holds for the plans it keys.
"""

import functools
import sys
from unittest import mock

from qutritmap import fock, schemes
from qutritmap.fock import PhotonicState, QutritCoefficients, UnsupportedMode
from qutritmap.schemes import scheme_entangler, scheme_kerr_forward, scheme_kerr_inverse
from test_columns import scheme_runs


def run_all(runs):
    for _, run in runs:
        try:
            run()
        except UnsupportedMode:  # separate-qnd has no physical homodyne
            pass


def sites_in(obj, found):
    """Add to ``found`` every site in ``obj``, looking into containers."""
    if isinstance(obj, fock._Site):
        found[id(obj)] = obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            sites_in(item, found)
    elif isinstance(obj, dict):
        for item in obj.items():
            sites_in(item, found)
    return found


def holds_shape(obj, seen) -> bool:
    """Whether ``obj`` reaches a shape through its fields, closures, defaults, bound
    arguments and containers (module globals aside)."""
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, (fock.Shape, PhotonicState)):
        return True
    if isinstance(obj, fock._Site):
        parts = [obj.kind, obj.plan]
    elif isinstance(obj, functools.partial):
        parts = [obj.func, *obj.args, *obj.keywords.values()]
    elif callable(obj) and hasattr(obj, "__code__"):
        cells = [cell.cell_contents for cell in obj.__closure__ or ()]
        parts = [*cells, *(obj.__defaults__ or ()), *(obj.__kwdefaults__ or {}).values()]
    elif isinstance(obj, (tuple, list, set, frozenset)):
        parts = list(obj)
    elif isinstance(obj, dict):
        parts = [*obj.keys(), *obj.values()]
    else:
        return False
    return any(holds_shape(part, seen) for part in parts)


def test_warmed_runs_key_plans_by_sites():
    runs = list(scheme_runs())  # every scheme in both modes, on fixed inputs
    fock._MEMO.clear()
    run_all(runs)
    first = set(fock._MEMO)
    assert len(first) < fock._RETAINED  # no drop at the bound in between
    run_all(runs)
    added = set(fock._MEMO) - first  # each tape compiles its replay on its first replay
    assert added and all(key[0] is None and key[1].startswith("def kernel(S, K, F):")
                         for key in added)
    run_all(runs)
    assert set(fock._MEMO) == first | added  # the third run builds nothing

    kinds = set()
    for key in fock._MEMO:
        if isinstance(key[0], fock.Shape):
            op = key[1]
            assert isinstance(op, (fock._Site, str)), op
            kinds.add(op.kind if isinstance(op, fock._Site) else op)
    assert {"built", "paths", "pbs", "sigma_x", "shift", "tensor", "kept", "strip",
            "rank1", "readout", "quadrature", "drop", "reference", "probes", "norm"} <= kinds

    sites = sites_in(list(fock._MEMO.items()), {})
    assert sites
    for site in sites.values():
        assert isinstance(site.kind, str)
        assert not holds_shape(site, set()), site.kind


def test_the_site_walk_finds_a_shape_in_a_closure():
    state = fock.single_photon("a")
    site = fock._Site("probe", lambda shape: (state, shape))
    assert holds_shape(site, set())
    assert not holds_shape(fock._MERGE, set())


def test_a_warmed_physical_qubus_run_interns_no_shape_in_a_step():
    """A refused register drop returns the empty state on a shape interned once.  Replay is
    off, so every drop runs as a step."""
    c = QutritCoefficients.normalize(0.6, 0.3j, -0.5)

    def run():
        for alpha in (5.0, 10.0):
            kwargs = {"qubus_alpha": alpha, "theta": 0.1, "meas_mode": "physical"}
            for scheme in (scheme_kerr_forward, scheme_entangler, scheme_kerr_inverse):
                with mock.patch.object(fock, "_REPLAY", False):
                    scheme(c, **kwargs)

    run()
    real_interned, real_dropped, stepped, refused = fock._interned, schemes._dropped, [], []

    def interned(keys):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not fock._step.__code__:
            frame = frame.f_back
        stepped.append(frame is not None)
        return real_interned(keys)

    def dropped(state, register):
        kept = real_dropped(state, register)
        refused.append(kept is None)
        return kept

    with mock.patch.object(fock, "_interned", interned), \
            mock.patch.object(schemes, "_dropped", dropped):
        run()
    assert any(refused)
    assert not any(stepped)
