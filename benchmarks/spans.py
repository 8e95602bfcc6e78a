"""Span tracer that times qutritmap's layers from outside the package.

Every public function defined in a layer module (``fock``, ``elements``,
``measurement``, ``qubus``, ``schemes``) and ``FockTerm.from_occupations``
is replaced by a wrapper that records one span per call: name, start, end,
parent span and evaluation id.  The layers bind each other's names through
``from .fock import ...``, so a wrapper is installed at every module
attribute that holds the original function, and every binding is restored
by :meth:`Tracer.uninstall`.  The wrappers are built once, at the first
install, so install and uninstall only swap bindings.  Spans are kept in flat arrays in memory and
written out once, at the end of the run.

A few wrappers also observe arguments and results (term counts, readout
outcomes); that work runs after the span has closed.  Time spent in the
wrapper's own bookkeeping lands in the caller's self time.  An observer
that cannot read a call (say, after a signature change) is counted in
``observe_errors`` and never turns the call into a failure.

``fock.coherent_overlap`` is counted, not spanned: it is a closed-form
scalar called thousands of times per evaluation from ``inner_product`` and
``traced_fidelity``, a span would cost more than the call, and its time
stays in those callers' self time, which is the same layer.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "qutritmap"
LAYERS = ("fock", "elements", "measurement", "qubus", "schemes")
# Probe couplings: their self time is reported together as qubus.coupling.
COUPLINGS = ("add_register", "apply_xpm", "coherent_phase", "coherent_bs50", "drop_register")
COUNTED = ("fock.coherent_overlap",)


def _public_functions(module):
    for attr, value in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield attr, value


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.eval_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._current_eval = [-1]
        self._installed_bindings: list[tuple[object, str, object, object]] = []
        self.counts = {name: [0] for name in COUNTED}
        self.observe_errors = [0]
        self.stats = {
            "build_state.terms_in": 0,
            "build_state.terms_out": 0,
            "build_state.peak_terms": 0,
            "substitute_modes.terms_in": 0,
            "substitute_modes.terms_out": 0,
            "post_select.terms_in": 0,
            "post_select.terms_kept": 0,
            "photon_number.outcomes": 0,
            "photon_number.attempted": 0,
            "photon_number.mass_min": None,
        }

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, observe=None):
        nid = self._intern(name)
        name_ids, parents, evals = self.name_id, self.parent, self.eval_id
        starts, ends, stack, current = self.start, self.end, self._stack, self._current_eval
        observe_errors = self.observe_errors
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            evals.append(current[0])
            ends.append(0)
            stack.append(sid)
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = now()
                stack.pop()
            if observe is not None:
                try:
                    observe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    observe_errors[0] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, name):
        cell = self.counts[name]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def evaluation(self, eval_id: int, name: str):
        """Open the root span of one scheme evaluation; returns its closer."""
        nid = self._intern(name)
        sid = len(self.name_id)
        self._current_eval[0] = eval_id
        self.name_id.append(nid)
        self.parent.append(-1)
        self.eval_id.append(eval_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())

        def close():
            self.end[sid] = time.perf_counter_ns()
            self._stack.pop()
            self._current_eval[0] = -1

        return close

    # -- observers -------------------------------------------------------

    def _build_state_observe(self, args, kwargs, result):
        terms = args[1] if len(args) > 1 else kwargs["terms"]
        st = self.stats
        st["build_state.terms_in"] += len(terms)
        st["build_state.terms_out"] += len(result.terms)
        if len(result.terms) > st["build_state.peak_terms"]:
            st["build_state.peak_terms"] = len(result.terms)

    def _substitute_observe(self, args, kwargs, result):
        state = args[0] if args else kwargs["state"]
        self.stats["substitute_modes.terms_in"] += len(state.terms)
        self.stats["substitute_modes.terms_out"] += len(result.terms)

    def _post_select_observe(self, args, kwargs, result):
        state = args[0] if args else kwargs["state"]
        self.stats["post_select.terms_in"] += len(state.terms)
        self.stats["post_select.terms_kept"] += len(result[1].terms)

    def _photon_number_observer(self, fn):
        params = inspect.signature(fn).parameters
        default_cap = params["cap"].default if "cap" in params else None
        cap_pos = list(params).index("cap") if "cap" in params else None

        def observe(args, kwargs, result):
            st = self.stats
            cap = kwargs.get("cap", default_cap)
            if cap_pos is not None and len(args) > cap_pos:
                cap = args[cap_pos]
            if cap is not None:
                st["photon_number.attempted"] += cap + 1
                st["photon_number.outcomes"] += len(result.outcomes)
            mass = result.total_probability
            if st["photon_number.mass_min"] is None or mass < st["photon_number.mass_min"]:
                st["photon_number.mass_min"] = mass

        return observe

    # -- install / uninstall ---------------------------------------------

    def _bindings(self):
        """(owner, attribute, original, wrapper) for every binding to wrap."""
        package = sys.modules[PACKAGE]
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        observers = {
            "fock.build_state": self._build_state_observe,
            "elements.substitute_modes": self._substitute_observe,
            "measurement.post_select_coincidence": self._post_select_observe,
        }
        bindings = []
        for layer in LAYERS:
            for attr, fn in list(_public_functions(getattr(package, layer))):
                name = f"{layer}.{attr}"
                if name in COUNTED:
                    wrapper = self._count(fn, name)
                elif name == "qubus.project_photon_number":
                    wrapper = self._wrap(fn, name, self._photon_number_observer(fn))
                else:
                    wrapper = self._wrap(fn, name, observers.get(name))
                for mod in modules:
                    for key, value in vars(mod).items():
                        if value is fn:
                            bindings.append((mod, key, fn, wrapper))
        fock_term = package.fock.FockTerm
        original = fock_term.__dict__["from_occupations"]
        wrapper = classmethod(self._wrap(original.__func__, "fock.from_occupations"))
        bindings.append((fock_term, "from_occupations", original, wrapper))
        return bindings

    def install(self):
        if not self._installed_bindings:
            self._installed_bindings = self._bindings()
        for owner, key, _, wrapper in self._installed_bindings:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, _ in reversed(self._installed_bindings):
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "eval_id": np.array(self.eval_id, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self time (ns) per span name.

        Self time is a span's duration minus the durations of its child
        spans; children never overlap, since the run is single-threaded.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_ns = dur - child
        n = len(self.names)
        calls = np.bincount(a["name_id"], minlength=n)
        self_by_name = np.bincount(a["name_id"], weights=self_ns, minlength=n)
        roots = ~has_parent
        names = {
            name: {"calls": int(calls[i]), "self_ns": float(self_by_name[i])}
            for i, name in enumerate(self.names)
        }
        for name, cell in self.counts.items():
            names[name] = {"calls": cell[0], "self_ns": 0.0}
        return {
            "names": names,
            "root_ns": float(dur[roots].sum()),
            "roots": int(roots.sum()),
            "spans": len(dur),
        }
