"""Readouts and register drops are decided once per input shape.

A readout that destroys a register reads its outcomes from one table per
input shape: one ``fock._step`` site per pure outcome and, for mixed classes,
one kernel that returns each class's exact probability.  A register drop
stores its verdict, so a correlated register is refused from the memo, and
a scheme asks ``qubus._dropped`` instead of catching a raised error.
"""

import pytest

from qutritmap import fock
from qutritmap.fock import H, FockTerm, Mode, PhotonicState, WiringError, build_state
from qutritmap.qubus import _dropped, add_register, drop_register, project_photon_number
from test_columns import scheme_runs
from test_sites import run_all


def correlated_pair(labels=(1.0, 2.0)):
    """One photon on path a or b, with register r at the matching label."""
    return build_state(("r",), [FockTerm.from_occupations({Mode(p, H): 1}, (x,), amp)
                                for p, x, amp in zip("ab", labels, (0.6, 0.8))])


def test_warmed_scheme_runs_construct_no_wiring_error(monkeypatch):
    runs = list(scheme_runs())  # every scheme in both modes, on fixed inputs
    run_all(runs)
    made = []
    real_init = WiringError.__init__

    def counted(self, *args):
        made.append(args)
        real_init(self, *args)

    monkeypatch.setattr(WiringError, "__init__", counted)
    with pytest.raises(WiringError):
        drop_register(correlated_pair(), "r")
    assert len(made) == 1  # the hook does count
    made.clear()
    run_all(runs)
    assert made == []


def test_every_step_plan_names_its_output_shape():
    fock._MEMO.clear()
    run_all(list(scheme_runs()))
    plans = [value for (shape, op), value in fock._MEMO.items()
             if isinstance(shape, fock.Shape) and isinstance(op, fock._Site)
             and isinstance(value, tuple) and len(value) == 3]
    assert plans
    for plan in plans:
        assert isinstance(plan[2], fock.Shape), plan


def test_a_mixed_readout_computes_its_class_gram_once():
    # labels 0.3 and 0.7 are not +beta or -beta of one beta: odd and even are mixtures
    state = correlated_pair((0.3, 0.7))
    fock._MEMO.clear()
    dist = project_photon_number(state, "r", "physical")
    parity = [op for shape, op in fock._MEMO
              if shape is None and isinstance(op, str) and "* u[" in op]
    assert len(parity) == 1
    assert dist.labels() == ("0", "odd", "even")
    assert isinstance(dist.get("0").state, PhotonicState)
    assert [o.state for o in dist.outcomes[1:]] == [None, None]
    assert abs(dist.total_probability - 1.0) < 1e-12


def test_a_correlated_drop_raises_every_call_from_a_stored_verdict():
    state = correlated_pair()
    fock._MEMO.clear()
    for _ in range(3):
        with pytest.raises(WiringError, match="correlated"):
            drop_register(state, "r")
        verdicts = [key for key in fock._MEMO
                    if key[0] is state.shape and isinstance(key[1], fock._Site)
                    and key[1].kind == "drop"]
        assert len(verdicts) == 1
    assert _dropped(state, "r") is None
    product = add_register(fock.single_photon("a"), "s", 1.5)
    dropped = _dropped(product, "s")
    assert dropped.registers == () and dropped.amplitudes == product.amplitudes
