"""Tests for instruction records, cost model, and trace statistics."""

import random

import pytest

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
