"""Tests for instruction records, cost model, and trace statistics."""

import random
from collections import Counter

import pytest

from repro.backends import get_accelerator
from repro.engine import run_module_traced
from repro.experiments import fig10_gemmini, fig11_opengemm
from repro.faults import FaultInjector, FaultRates, RecoveryPolicy, ReliancePlan
from repro.interp import InterpreterError, run_module
from repro.isa import (
    HostCostModel,
    Instr,
    InstrCategory,
    Trace,
    alu,
    branch,
    config_write,
    launch_instr,
    sync_instr,
)
from repro.isa.trace import TraceStats
from repro.passes import pipeline_by_name
from repro.sim import CoSimulator
from repro.testing.generator import PROFILES, build_spec, generate_spec
from repro.workloads import build_gemmini_matmul, build_opengemm_matmul


class TestInstr:
    def test_categories(self):
        assert alu().category is InstrCategory.CALC
        assert branch().category is InstrCategory.CONTROL
        assert sync_instr("poll", "x").category is InstrCategory.SYNC

    def test_config_bytes_only_on_setup(self):
        with pytest.raises(ValueError):
            Instr("add", InstrCategory.CALC, config_bytes=8)

    def test_config_write_carries_bytes(self):
        instr = config_write("csrw", "opengemm", 4)
        assert instr.config_bytes == 4
        assert instr.accelerator == "opengemm"

    def test_launch_may_carry_bytes(self):
        instr = launch_instr("start", "x", 4)
        assert instr.config_bytes == 4


class TestHostCostModel:
    def test_default_three_cycles(self):
        model = HostCostModel()
        assert model.cycles(alu()) == 3.0

    def test_category_override(self):
        model = HostCostModel(
            1.0, category_overrides={InstrCategory.SETUP: 10.0}
        )
        assert model.cycles(config_write("mmio", "x", 8)) == 10.0
        assert model.cycles(alu()) == 1.0


class TestTrace:
    def make_trace(self):
        trace = Trace()
        trace.extend(
            [
                alu(),
                alu(),
                config_write("w", "x", 16),
                config_write("w", "x", 16),
                launch_instr("go", "x"),
                sync_instr("poll", "x"),
            ]
        )
        return trace

    def test_counts(self):
        trace = self.make_trace()
        assert len(trace) == 6
        assert trace.count(InstrCategory.CALC) == 2
        assert trace.count(InstrCategory.SETUP) == 2

    def test_config_bytes(self):
        trace = self.make_trace()
        assert trace.config_bytes() == 32
        assert trace.config_bytes("x") == 32
        assert trace.config_bytes("other") == 0

    def test_stats(self):
        stats = self.make_trace().stats(HostCostModel(3.0))
        assert stats.total_instrs == 6
        assert stats.setup_instrs == 2
        assert stats.calc_instrs == 2
        assert stats.config_bytes == 32
        assert stats.setup_cycles == 6.0
        assert stats.calc_cycles == 6.0

    def test_effective_bandwidth_eq4(self):
        stats = self.make_trace().stats(HostCostModel(3.0))
        # Eq. 4: 32 bytes / (6 + 6 cycles)
        assert stats.effective_config_bandwidth() == pytest.approx(32 / 12)
        assert stats.theoretical_config_bandwidth() == pytest.approx(32 / 6)

    def test_empty_trace_bandwidth_infinite(self):
        stats = Trace().stats()
        assert stats.effective_config_bandwidth() == float("inf")

    def test_paper_4_6_numbers(self):
        """160 RoCC writes + 775 calc instrs at 3 cycles -> BW_eff 0.913."""
        trace = Trace()
        for _ in range(160):
            trace.append(config_write("rocc", "gemmini", 16))
        for _ in range(775):
            trace.append(alu())
        stats = trace.stats(HostCostModel(3.0))
        assert stats.effective_config_bandwidth() == pytest.approx(0.913, abs=1e-3)


def _per_instruction_stats(trace, cost_model, accelerator=None):
    """The per-instruction definition of :meth:`Trace.stats`: visit every
    executed record, summing cycles in trace order."""
    instrs = [
        instr
        for instr in trace.instrs
        if accelerator is None
        or instr.accelerator is None
        or instr.accelerator == accelerator
    ]
    counts = {
        category: sum(1 for i in instrs if i.category is category)
        for category in InstrCategory
    }
    return TraceStats(
        total_instrs=len(instrs),
        setup_instrs=counts[InstrCategory.SETUP],
        calc_instrs=counts[InstrCategory.CALC],
        compute_instrs=counts[InstrCategory.COMPUTE],
        control_instrs=counts[InstrCategory.CONTROL],
        launch_instrs=counts[InstrCategory.LAUNCH],
        sync_instrs=counts[InstrCategory.SYNC],
        config_bytes=trace.config_bytes(accelerator),
        cycles_by_category={
            category: sum(
                cost_model.cycles(i) for i in instrs if i.category is category
            )
            for category in InstrCategory
        },
    )


def _mixed_trace(seed: int) -> Trace:
    """Shared records repeated many times (as the trace engine appends them)
    interleaved with fresh equal ones (as the tree interpreter does), over
    two accelerators plus unattributed host work."""
    rng = random.Random(seed)
    shared = [
        alu(),
        alu("li", InstrCategory.COMPUTE),
        branch(),
        config_write("csrw", "opengemm", 4),
        config_write("rocc", "gemmini", 16),
        launch_instr("start", "opengemm", 4),
        launch_instr("go", "gemmini"),
        sync_instr("poll", "gemmini"),
        Instr("mmio", InstrCategory.SETUP, 8),  # bytes, but no accelerator
    ]
    trace = Trace()
    for _ in range(400):
        record = rng.choice(shared)
        if rng.random() < 0.3:
            record = Instr(
                record.mnemonic,
                record.category,
                record.config_bytes,
                record.accelerator,
            )
        trace.append(record)
    return trace


class TestStatsDefinition:
    """One pass over distinct records must reproduce the per-instruction
    definition exactly: the same counts and bit-identical cycle sums."""

    COST_MODELS = [
        HostCostModel(3.0),
        HostCostModel(1, category_overrides={InstrCategory.SETUP: 2}),
        HostCostModel(
            0.1,
            category_overrides={
                InstrCategory.SETUP: 1.7,
                InstrCategory.SYNC: 0.3,
            },
        ),
    ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("model", range(len(COST_MODELS)))
    @pytest.mark.parametrize("accelerator", [None, "opengemm", "gemmini", "other"])
    def test_matches_per_instruction_definition(self, seed, model, accelerator):
        trace = _mixed_trace(seed)
        cost_model = self.COST_MODELS[model]
        stats = trace.stats(cost_model, accelerator)
        expected = _per_instruction_stats(trace, cost_model, accelerator)
        assert stats == expected
        for category, cycles in expected.cycles_by_category.items():
            got = stats.cycles_by_category[category]
            assert (type(got), repr(got)) == (type(cycles), repr(cycles))


def _assert_counted(trace: Trace) -> None:
    """The counts kept as the records were charged account for every record
    of the trace, one by one."""
    counted = trace.counted()
    assert counted is not None
    assert counted == Counter(map(id, trace.instrs))


def _assert_counted_stats(sim: CoSimulator, accelerator: str | None = None) -> None:
    _assert_counted(sim.trace)
    for owner in {None, accelerator}:
        assert sim.trace.stats(sim.cost_model, owner) == _per_instruction_stats(
            sim.trace, sim.cost_model, owner
        )


#: (build, pipeline) of the figure programs the counted statistics run
FIGURE_PROGRAMS = [
    (build_gemmini_matmul, fig10_gemmini.OPTIMIZED_PIPELINE),
    (build_gemmini_matmul, fig10_gemmini.BASELINE_PIPELINE),
    (build_opengemm_matmul, fig11_opengemm.VARIANTS[-1]),
    (build_opengemm_matmul, fig11_opengemm.VARIANTS[0]),
]


def _figure_sim(build, pipeline, size=32, **options):
    workload = build(size)
    pipeline_by_name(pipeline).run(workload.module)
    model = get_accelerator(workload.accelerator).host_cost_model()
    return workload, CoSimulator(memory=workload.memory, cost_model=model, **options)


def _counted_outside_table(trace: Trace) -> list[Instr]:
    return [instr for instr in trace.instrs if id(instr) not in trace.records]


class TestRecordTable:
    """The charging paths enter every record they charge into the trace's
    record table, so :meth:`Trace.stats` reads the counted records back
    from it instead of taking a second pass over the trace.

    They also count what they charge (a shared stream once per charge, a
    one-off list's records one by one, the trace engine's inline records
    when a run returns or raises), so :meth:`Trace.stats` takes no pass
    over the trace at all: the ``test_counts_*`` tests hold the counted
    statistics to the per-instruction definition, and a trace the counts
    do not cover takes the counting pass."""

    @staticmethod
    def _run(engine, built, sim):
        try:
            engine(built.module, sim, args=list(built.args))
        except InterpreterError:
            pass  # a run a fault ends early keeps what it charged

    @pytest.mark.parametrize("engine", [run_module_traced, run_module])
    @pytest.mark.parametrize(
        "build, pipeline",
        [
            (build_gemmini_matmul, fig10_gemmini.OPTIMIZED_PIPELINE),
            (build_gemmini_matmul, fig10_gemmini.BASELINE_PIPELINE),
            (build_opengemm_matmul, fig11_opengemm.VARIANTS[-1]),
        ],
    )
    def test_figure_program(self, engine, build, pipeline):
        workload = build(32)
        pipeline_by_name(pipeline).run(workload.module)
        model = get_accelerator(workload.accelerator).host_cost_model()
        sim = CoSimulator(memory=workload.memory, cost_model=model)
        engine(workload.module, sim, args=workload.main_args)
        assert workload.check()
        assert sim.trace.instrs
        assert _counted_outside_table(sim.trace) == []
        assert sim.trace.stats(model, workload.accelerator) == (
            _per_instruction_stats(sim.trace, model, workload.accelerator)
        )

    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulted"])
    @pytest.mark.parametrize("engine", [run_module_traced, run_module])
    def test_generated_programs(self, engine, faults):
        """Every backend; fault-injected runs add the one-off verify and
        epoch-check charges."""
        runs = 0
        for backend in sorted(PROFILES):
            for seed in range(10):
                spec = generate_spec(random.Random(7000 + seed), backend)
                built = build_spec(spec, memory_seed=seed)
                pipeline = ("none", "baseline", "dedup", "overlap", "full")[seed % 5]
                pipeline_by_name(pipeline).run(built.module)
                sim = CoSimulator(
                    memory=built.memory,
                    faults=FaultInjector(seed, FaultRates.uniform(0.15))
                    if faults
                    else None,
                    reliance=ReliancePlan(built.module) if faults else None,
                )
                self._run(engine, built, sim)
                assert _counted_outside_table(sim.trace) == [], (backend, seed)
                assert sim.trace.stats(sim.cost_model) == _per_instruction_stats(
                    sim.trace, sim.cost_model
                )
                runs += bool(sim.trace.instrs)
        assert runs >= 25

    def test_a_record_missing_from_the_table_takes_the_second_pass(self):
        sim = CoSimulator()
        spec = get_accelerator("toyvec")
        sim.charge(spec.setup_instrs_cached(tuple(spec.fields)))
        sim.trace.append(alu())  # appended by hand: never entered
        sim.trace.append(config_write("csrw", "toyvec", 4))
        assert len(_counted_outside_table(sim.trace)) == 2
        for accelerator in (None, "toyvec"):
            assert sim.trace.stats(sim.cost_model, accelerator) == (
                _per_instruction_stats(sim.trace, sim.cost_model, accelerator)
            )

    def test_the_table_is_not_part_of_equality(self):
        sim = CoSimulator()
        sim.charge_one(alu())
        assert sim.trace.records
        assert sim.trace == Trace(list(sim.trace.instrs))

    @pytest.mark.parametrize("engine", [run_module_traced, run_module])
    @pytest.mark.parametrize("case", range(len(FIGURE_PROGRAMS)))
    def test_counts_cover_figure_programs(self, engine, case):
        workload, sim = _figure_sim(*FIGURE_PROGRAMS[case])
        engine(workload.module, sim, args=workload.main_args)
        assert workload.check()
        _assert_counted_stats(sim, workload.accelerator)

    @pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulted"])
    @pytest.mark.parametrize("engine", [run_module_traced, run_module])
    def test_counts_cover_generated_programs(self, engine, faults):
        runs = 0
        for backend in sorted(PROFILES):
            for seed in range(8):
                spec = generate_spec(random.Random(7100 + seed), backend)
                built = build_spec(spec, memory_seed=seed)
                pipeline = ("none", "baseline", "dedup", "overlap", "full")[seed % 5]
                pipeline_by_name(pipeline).run(built.module)
                sim = CoSimulator(
                    memory=built.memory,
                    faults=FaultInjector(seed, FaultRates.uniform(0.15))
                    if faults
                    else None,
                    reliance=ReliancePlan(built.module) if faults else None,
                )
                self._run(engine, built, sim)
                _assert_counted_stats(sim, backend)
                runs += bool(sim.trace.instrs)
        assert runs >= 20

    @pytest.mark.parametrize("engine", [run_module_traced, run_module])
    def test_counts_cover_one_simulator_run_twice(self, engine):
        workload, sim = _figure_sim(*FIGURE_PROGRAMS[0])
        engine(workload.module, sim, args=workload.main_args)
        once = len(sim.trace.instrs)
        engine(workload.module, sim, args=workload.main_args)
        assert len(sim.trace.instrs) == 2 * once
        _assert_counted_stats(sim, workload.accelerator)

    def test_counts_cover_a_run_that_raises_midway(self):
        """An undetected fault ends the run at an op; what the trace engine
        charged inline before that is counted all the same."""
        workload, sim = _figure_sim(
            *FIGURE_PROGRAMS[2],
            faults=FaultInjector(1, FaultRates(state_loss=0.2)),
            recovery=RecoveryPolicy(enabled=False),
        )
        with pytest.raises(InterpreterError, match="state loss detected"):
            run_module_traced(workload.module, sim, args=workload.main_args)
        assert sim.trace.count(InstrCategory.CALC) > 0
        _assert_counted_stats(sim, workload.accelerator)

    def test_a_trace_extended_by_hand_takes_the_counting_pass(self):
        sim = CoSimulator()
        spec = get_accelerator("opengemm")
        for _ in range(3):
            sim.charge(spec.setup_instrs_cached(("M", "K")), "setup")
            sim.charge_one(alu())
        _assert_counted(sim.trace)
        sim.trace.extend([alu(), config_write("csrw", "opengemm", 4)])
        sim.trace.append(sync_instr("poll", "opengemm"))
        assert sim.trace.counted() is None
        for accelerator in (None, "opengemm", "gemmini"):
            assert sim.trace.stats(sim.cost_model, accelerator) == (
                _per_instruction_stats(sim.trace, sim.cost_model, accelerator)
            )
