"""The timeline's replay against an eager recording.

A simulator's timeline keeps a log over the instruction trace and builds
its spans on read (:class:`repro.sim.timeline.Timeline`).  The reference
here records them eagerly while the program runs, as the simulator once
did: one span per charged record at the moment it is charged (the
per-record definition of ``test_charging.py``) from a clock of its own,
one per stall and one per accelerator launch.  For every run, the replay
must equal it span for span, ``busy_time`` must equal the reference's for
every actor and kind, the simulator's running stall sum must equal
``busy_time("host", STALL)`` bit for bit, and the replay must end at the
simulator's host clock.
"""

import random

import pytest

from repro.backends import get_accelerator
from repro.engine import compile_module, run_module_traced
from repro.experiments import common, fault_recovery, fig10_gemmini, fig11_opengemm
from repro.experiments import fig2_timeline
from repro.faults import FaultInjector, FaultRates, RecoveryPolicy, ReliancePlan
from repro.interp import InterpreterError, run_module
from repro.isa import HostCostModel, Instr, InstrCategory
from repro.isa.instructions import CTRL_INSTR
from repro.passes import pipeline_by_name
from repro.sim import CoSimulator, Span, SpanKind, Timeline
from repro.testing.generator import PROFILES, build_spec, generate_spec

#: the span each category's host work is drawn as
SPAN_KIND = {
    InstrCategory.SETUP: SpanKind.SETUP,
    InstrCategory.LAUNCH: SpanKind.SETUP,
    InstrCategory.CALC: SpanKind.CALC,
    InstrCategory.COMPUTE: SpanKind.COMPUTE,
    InstrCategory.CONTROL: SpanKind.COMPUTE,
    InstrCategory.SYNC: SpanKind.STALL,
}

#: what the engines charge inline, without ``CoSimulator.charge``
INLINE_CATEGORIES = {InstrCategory.CALC, InstrCategory.COMPUTE, InstrCategory.CONTROL}


class _EagerTrace(list):
    """A trace list that hands each record appended to it to its
    simulator's eager recording, as it is charged."""

    def __init__(self, sim: "EagerSimulator") -> None:
        super().__init__()
        self._sim = sim

    def append(self, instr: Instr) -> None:
        super().append(instr)
        self._sim.record_eagerly((instr,))

    def extend(self, instrs) -> None:
        instrs = list(instrs)
        super().extend(instrs)
        self._sim.record_eagerly(instrs)


class EagerSimulator(CoSimulator):
    """A simulator that also records its timeline eagerly into
    :attr:`eager`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trace.instrs = _EagerTrace(self)
        self.timeline = Timeline(self.trace.instrs, self.cost_model)
        self.eager: list[Span] = []
        #: the reference's own host clock: one addition per record
        self.eager_clock = 0.0
        self._label = ""

    def record_eagerly(self, instrs) -> None:
        model = self.cost_model
        for instr in instrs:
            cycles = model.category_overrides.get(
                instr.category, model.cycles_per_instr
            )
            time = self.eager_clock
            if cycles > 0:
                kind = SPAN_KIND[instr.category]
                span = ("host", kind, time, time + cycles, self._label)
                self.eager.append(tuple.__new__(Span, span))
            self.eager_clock = time + cycles

    def charge(self, instrs, label: str = "") -> None:
        self._label = label
        try:
            super().charge(instrs, label)
        finally:
            self._label = ""

    def stall_until(self, when: float, label: str = "") -> None:
        now = self.host_time
        assert _bits(self.eager_clock) == _bits(now), "host clock drifted"
        if when > now:
            self.eager.append(Span("host", SpanKind.STALL, now, when, label))
            self.eager_clock = when
        super().stall_until(when, label)

    def exec_launch(self, accelerator, launch_fields=None, site=None):
        token = super().exec_launch(accelerator, launch_fields, site)
        if token.end > token.start:
            self.eager.append(
                Span(accelerator, SpanKind.ACCEL, token.start, token.end, "macro-op")
            )
        return token


def _bits(value) -> tuple:
    return type(value), repr(value)


def _reference_busy_times(spans: list[Span]) -> dict:
    """Busy time per (actor, kind), and per actor under kind None: the
    durations summed in span order from int 0, as ``sum`` adds them."""
    busy: dict = {}
    for actor, kind, start, end, _ in spans:
        for key in ((actor, kind), (actor, None)):
            busy[key] = busy.get(key, 0) + (end - start)
    return busy


def assert_replay_matches(sim: EagerSimulator) -> None:
    spans = sim.timeline.spans
    assert spans == sim.eager
    assert all(type(span) is Span for span in spans)
    # Every kind each actor has and its total; the host's stalls even
    # where there are none.
    expected = _reference_busy_times(sim.eager)
    pairs = {*expected, ("host", None), ("host", SpanKind.STALL)}
    busy = {pair: sim.timeline.busy_time(*pair) for pair in pairs}
    for pair, value in busy.items():
        assert _bits(value) == _bits(expected.get(pair, 0)), pair
    assert _bits(sim.host_stall_cycles) == _bits(busy["host", SpanKind.STALL])
    host_spans = [span for span in spans if span.actor == "host"]
    end = host_spans[-1].end if host_spans else 0.0
    assert _bits(end) == _bits(sim.host_time)
    assert _bits(sim.eager_clock) == _bits(sim.host_time)


def assert_no_inline_stalls(compiled) -> None:
    """The running stall sum counts only what ``CoSimulator.charge`` and
    ``stall_until`` see: no record the executor charges inline may be a
    stall."""
    assert CTRL_INSTR.category in INLINE_CATEGORIES
    for function in compiled.functions.values():
        for ins in function.code:
            for item in ins:
                if isinstance(item, Instr):
                    assert item.category in INLINE_CATEGORIES, ins


@pytest.fixture
def recorded(monkeypatch):
    """Every simulator the experiments build becomes an eager one."""
    sims: list[EagerSimulator] = []

    def make(*args, **kwargs):
        sim = EagerSimulator(*args, **kwargs)
        sims.append(sim)
        return sim

    for module in (common, fig2_timeline, fault_recovery):
        monkeypatch.setattr(module, "CoSimulator", make)
    return sims


def test_every_run_of_a_figure_sweep(recorded):
    for figure in (fig10_gemmini, fig11_opengemm):
        for size in (16, 32, 64, 128, 256):
            figure.run(sizes=(size,))
    assert len(recorded) == 30
    for sim in recorded:
        assert_replay_matches(sim)


def test_fig2_timeline(recorded):
    result = fig2_timeline.run()
    assert len(recorded) == len(fig2_timeline.VARIANTS)
    for sim, breakdown in zip(recorded, result.breakdowns.values()):
        assert_replay_matches(sim)
        assert breakdown.host_stall_cycles == sim.host_stall_cycles
        assert breakdown.timeline.render_ascii(96) == _reference_render(sim, 96)


def _reference_render(sim: EagerSimulator, width: int) -> str:
    reference = Timeline()
    for span in sim.eager:
        reference.record(*span)
    return reference.render_ascii(width)


def test_fault_recovery_runs(recorded):
    """Re-setups after state loss on the figure matmul: minimal and full,
    on the optimized program and on the baseline."""
    for _, pipeline, resetup in fault_recovery.CONFIGURATIONS:
        fault_recovery.run_one(16, pipeline, resetup, 0.5, resetup)
    assert recorded
    for sim in recorded:
        assert sim.recovery_stats.state_losses > 0
        assert_replay_matches(sim)


def _generated(count_per_backend: int):
    for backend in sorted(PROFILES):
        for seed in range(count_per_backend):
            spec = generate_spec(random.Random(1000 + seed), backend)
            pipeline = ("none", "baseline", "dedup", "overlap", "full")[seed % 5]
            yield backend, seed, spec, pipeline


def _build(spec, seed: int, pipeline: str):
    built = build_spec(spec, memory_seed=seed)
    pipeline_by_name(pipeline).run(built.module)
    return built


@pytest.mark.parametrize(
    "cost_model",
    [None, HostCostModel(1.1, {InstrCategory.SETUP: 0.3, InstrCategory.SYNC: 0})],
    ids=["default", "fractional"],
)
def test_generated_programs_on_both_engines(cost_model):
    programs = 0
    for backend, seed, spec, pipeline in _generated(34):
        for engine in (run_module_traced, run_module):
            built = _build(spec, seed, pipeline)
            sim = EagerSimulator(memory=built.memory, cost_model=cost_model)
            engine(built.module, sim, args=list(built.args))
            assert_replay_matches(sim)
        assert_no_inline_stalls(compile_module(built.module))
        programs += 1
    assert programs >= 100


def test_fault_injected_programs_on_both_engines():
    """Stalls, retry backoffs, verify reads, launch re-issues, watchdog
    polls and re-setups, including runs a fault ends early."""
    totals = dict.fromkeys(
        ("write_retries", "launch_rejects", "watchdog_polls", "state_losses"), 0
    )
    failed = 0
    for backend, seed, spec, pipeline in _generated(12):
        for engine in (run_module_traced, run_module):
            built = _build(spec, seed, pipeline)
            sim = EagerSimulator(
                memory=built.memory,
                faults=FaultInjector(seed, FaultRates.uniform(0.15)),
                recovery=RecoveryPolicy(max_retries=2),
                reliance=ReliancePlan(built.module),
            )
            try:
                engine(built.module, sim, args=list(built.args))
            except InterpreterError:
                failed += 1
            assert_replay_matches(sim)
            for name in totals:
                totals[name] += getattr(sim.recovery_stats, name)
    assert all(totals.values()), totals
    assert failed


def test_stalls_from_a_non_integral_start():
    """Charges and stalls interleaved by hand, so a stall lands between
    two labeled runs and between unlabeled records."""
    model = HostCostModel(1, {InstrCategory.SETUP: 0.1, InstrCategory.CALC: 1.7})
    sim = EagerSimulator(cost_model=model)
    spec = get_accelerator("toyvec")
    calc = Instr("addi", InstrCategory.CALC)

    def inline_charge():  # as the trace engine's dispatch loop does
        sim.host_time += model.cycles(calc)
        sim.trace.instrs.append(calc)

    sim.stall_until(0.3, "start")
    inline_charge()
    sim.charge(spec.setup_instrs_cached(tuple(spec.fields)), "setup")
    sim.stall_until(sim.host_time + 0.25)
    sim.charge(spec.setup_instrs_cached(tuple(spec.fields)), "setup")
    inline_charge()
    sim.charge(spec.sync_instrs_cached(), "await")
    sim.stall_until(sim.host_time)  # no time passes: no span
    sim.charge([], "empty")
    assert_replay_matches(sim)
    # Both waits and the sync record's cycle.
    assert sim.host_stall_cycles == pytest.approx(0.3 + 0.25 + 1)


def test_reads_between_steps_see_every_step():
    """Reads keep one replay until the trace or the log grows (an inline
    charge grows only the trace, a stall only the log), and the list
    ``spans`` returns is the caller's to change."""
    sim = EagerSimulator()
    spec = get_accelerator("toyvec")
    calc = Instr("addi", InstrCategory.CALC)

    def inline_charge():  # as the trace engine's dispatch loop does
        sim.host_time += sim.cost_model.cycles(calc)
        sim.trace.instrs.append(calc)

    steps = (
        lambda: sim.charge(spec.setup_instrs_cached(tuple(spec.fields)), "setup"),
        inline_charge,
        lambda: sim.stall_until(sim.host_time + 2, "wait"),
        lambda: sim.exec_launch("toyvec"),
        inline_charge,
        lambda: sim.charge(spec.sync_instrs_cached(), "await"),
    )
    for step in steps:
        step()
        assert sim.timeline.end_time == max(span.end for span in sim.eager)
        assert_replay_matches(sim)
        read = sim.timeline.spans
        read.clear()
        assert sim.timeline.spans == sim.eager
