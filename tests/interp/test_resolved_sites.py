"""Setup and launch records resolved once per run.

A fault-free run resolves each setup and launch record against its
simulator the first time it executes it (``CoSimulator.setup_site`` and
``launch_site``) and then drives the simulator with the resolved site and
the record's checked values instead of a field dict.  The reference is
the field-dict path every record took before, which faulted runs still
take: with resolution switched off, every run must leave the same
results, trace, timeline, registers and memory, and every error must
carry the same message, raised in the same order.
"""

import pytest

from repro.backends import get_accelerator
from repro.dialects import accfg
from repro.engine import run_module_traced
from repro.interp import InterpreterError, run_module
from repro.ir import parse_module
from repro.sim import CoSimulator
from repro.sim.cosim import LaunchSite, SetupSite

ENGINES = [run_module_traced, run_module]

#: two modules whose setup and launch site numbers (0, 1, 2) collide, with
#: different accelerators, field sets and launch-carried fields
FIRST = """
func.func @main(%n : i64) -> () {
  %op = arith.constant 1 : i64
  %s = accfg.setup on "toyvec" ("n" = %n : i64, "op" = %op : i64) : !accfg.state<"toyvec">
  %t = accfg.launch %s : !accfg.token<"toyvec">
  accfg.await %t
  %s2 = accfg.setup on "toyvec" from %s ("op" = %n : i64) : !accfg.state<"toyvec">
  func.return
}
"""
SECOND = """
func.func @main(%n : i64) -> () {
  %c0 = arith.constant 0 : i64
  %s = accfg.setup on "toyvec-seq" ("op" = %c0 : i64) : !accfg.state<"toyvec-seq">
  %t = accfg.launch %s ("n" = %n : i64) : !accfg.token<"toyvec-seq">
  %g = accfg.setup on "gemmini" ("op" = %c0 : i64) : !accfg.state<"gemmini">
  accfg.await %t
  func.return
}
"""


@pytest.fixture
def dict_path(monkeypatch):
    """Switch resolution off: every record runs as a field dict."""

    def unresolved(self, accelerator, names):
        self.device(accelerator)  # an unknown accelerator still raises
        return None

    def switch_off():
        monkeypatch.setattr(CoSimulator, "setup_site", unresolved)
        monkeypatch.setattr(CoSimulator, "launch_site", unresolved)

    return switch_off


def _state(sim: CoSimulator) -> tuple:
    devices = {
        name: (dict(d.registers), dict(d.staged), d.launch_count, d.busy_until)
        for name, d in sim.devices.items()
    }
    return (
        repr(sim.host_time),
        list(sim.trace.instrs),
        sim.timeline.spans,
        devices,
        sim.trace.stats(),
    )


def _run_both_modules(engine, args=(4, 8)) -> tuple:
    sim = CoSimulator(functional=False)
    for text, arg in zip((FIRST, SECOND), args):
        engine(parse_module(text), sim, args=[arg])
    return _state(sim)


@pytest.mark.parametrize("engine", ENGINES)
def test_one_simulator_runs_two_modules_whose_sites_collide(engine, dict_path):
    kinds = []
    original = CoSimulator.exec_launch

    def spy(self, accelerator, launch_fields=None, site=None):
        kinds.append(type(site))
        return original(self, accelerator, launch_fields, site)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CoSimulator, "exec_launch", spy)
        resolved = _run_both_modules(engine)
    assert kinds == [LaunchSite, LaunchSite]
    dict_path()
    assert resolved == _run_both_modules(engine)
    # The registers hold what each module's setups and launches wrote.
    devices = resolved[3]
    assert devices["toyvec"][:2] == ({"n": 4, "op": 1}, {"op": 4})
    assert devices["toyvec-seq"][0] == {"op": 0, "n": 8}
    assert devices["gemmini"][0] == {"op": 0}


@pytest.mark.parametrize("engine", ENGINES)
def test_int_subclass_values_land_as_exact_ints(engine, dict_path):
    sims = []
    for switch in (lambda: None, dict_path):
        switch()
        sim = CoSimulator(functional=False)
        engine(parse_module(FIRST), sim, args=[True])
        sims.append(sim)
    registers = sims[0].device("toyvec").staged
    assert registers == {"op": 1} and type(registers["op"]) is int
    assert _state(sims[0]) == _state(sims[1])


def _unknown_accelerator_message(verb: str, loc: str) -> str:
    with pytest.raises(KeyError) as error:
        get_accelerator("warpcore")
    return f"{verb} on {error.value.args[0]} at {loc}"


def _errors(build, args) -> list[str]:
    """The error message of each engine on ``build()``."""
    messages = []
    for engine in ENGINES:
        with pytest.raises(InterpreterError) as error:
            engine(build(), CoSimulator(functional=False), args=list(args))
        messages.append(str(error.value))
    return messages


SETUP_ON_UNKNOWN = """
func.func @main(%n : i64) -> () {
  %s = accfg.setup on "warpcore" ("n" = %n : i64) : !accfg.state<"warpcore">
  func.return
}
"""


def _launch_on_unknown():
    module = parse_module(
        """
        func.func @main(%n : i64) -> () {
          %c0 = arith.constant 0 : i64
          %s = accfg.setup on "toyvec" ("op" = %c0 : i64) : !accfg.state<"toyvec">
          %t = accfg.launch %s ("n" = %n : i64) : !accfg.token<"toyvec">
          func.return
        }
        """,
        "prog.mlir",
    )
    # The launch reads its accelerator from the state type.
    launch = next(op for op in module.walk() if isinstance(op, accfg.LaunchOp))
    launch.state.type = accfg.StateType("warpcore")
    return module


@pytest.mark.parametrize("resolution", ["on", "off"])
def test_a_non_int_value_raises_before_an_unknown_accelerator(resolution, dict_path):
    if resolution == "off":
        dict_path()
    setup = lambda: parse_module(SETUP_ON_UNKNOWN, "prog.mlir")  # noqa: E731
    assert _errors(setup, [2.5]) == ["expected an integer value, found float"] * 2
    assert _errors(setup, [4]) == [
        _unknown_accelerator_message("setup", "prog.mlir:3:3")
    ] * 2
    # A launch on an unknown accelerator, after a valid setup on toyvec.
    assert _errors(_launch_on_unknown, [None]) == [
        "expected an integer value, found NoneType"
    ] * 2
    assert _errors(_launch_on_unknown, [4]) == [
        _unknown_accelerator_message("launch", "prog.mlir:5:11")
    ] * 2


@pytest.mark.parametrize("engine", ENGINES)
def test_an_unknown_field_raises_where_it_always_did(engine, dict_path):
    """A record naming a field its accelerator lacks runs as a field dict,
    so the error comes after the registers were written, as before."""
    text = """
    func.func @main(%n : i64) -> () {
      %s = accfg.setup on "toyvec" ("n" = %n : i64, "bogus" = %n : i64) : !accfg.state<"toyvec">
      func.return
    }
    """
    outcomes = []
    for switch in (lambda: None, dict_path):
        switch()
        sim = CoSimulator(functional=False)
        with pytest.raises(InterpreterError) as error:
            engine(parse_module(text), sim, args=[4])
        outcomes.append((str(error.value), _state(sim)))
    assert outcomes[0] == outcomes[1]
    assert "has no field 'bogus'" in outcomes[0][0]
    assert outcomes[0][1][3]["toyvec"][1] == {"n": 4, "bogus": 4}


def test_sites_resolve_against_their_own_simulator():
    """Sites are per simulator: a second simulator resolves its own, and
    a faulted one resolves none."""
    from repro.faults import FaultInjector, FaultRates

    first, second = CoSimulator(), CoSimulator()
    site = first.setup_site("toyvec", ("n", "op"))
    assert type(site) is SetupSite and site.device is first.device("toyvec")
    assert second.launch_site("toyvec", ()).device is second.device("toyvec")
    assert first.launch_site("toyvec", ("n", "n")) is None  # a repeated name
    faulted = CoSimulator(faults=FaultInjector(0, FaultRates.uniform(0.1)))
    assert faulted.setup_site("toyvec", ("n",)) is None
    assert faulted.launch_site("toyvec", ()) is None
    with pytest.raises(KeyError, match="warpcore"):
        first.launch_site("warpcore", ())
