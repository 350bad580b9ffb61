"""The static configuration-cost engine (repro.analysis.cost).

The acceptance backbone: the symbolic prediction must *equal* what the
co-simulator charges on every program with concrete trip counts — pinned
here for the paper's Example 4.6 (``build_gemmini_matmul(64)``) and the
fig12 roofline workloads (``build_opengemm_matmul(32/128)``) — and *bound*
it on programs with parameters or branches.
"""

import pytest

from repro.analysis import AnalysisManager
from repro.analysis.cost import (
    CostAnalysis,
    CostRange,
    SymExpr,
    compare_with_simulation,
    format_cost_table,
)
from repro.dialects import func, scf
from repro.interp.interpreter import Interpreter
from repro.ir import FunctionType, parse_module
from repro.isa.instructions import InstrCategory
from repro.sim.cosim import CoSimulator
from repro.workloads.matmul import build_gemmini_matmul, build_opengemm_matmul


# ---------------------------------------------------------------------------
# Symbolic domain
# ---------------------------------------------------------------------------


class TestSymExpr:
    def test_constant_arithmetic(self):
        five = SymExpr.const(2) + SymExpr.const(3)
        assert five.constant_value() == 5
        assert (five * SymExpr.const(4)).constant_value() == 20
        assert SymExpr.const(0).is_zero

    def test_polynomial_product(self):
        n = SymExpr.param("n")
        m = SymExpr.param("m")
        poly = (n + SymExpr.const(2)) * m  # n*m + 2m
        assert poly.evaluate({"n": 3, "m": 4}) == 20
        assert poly.parameters() == {"n", "m"}
        assert poly.constant_value() is None

    def test_str_is_readable(self):
        n = SymExpr.param("n")
        assert str(n * n + n.scaled(2) + SymExpr.const(1)) == "1 + 2*n + n*n"

    def test_negative_constant_rejected(self):
        with pytest.raises(ValueError):
            SymExpr.const(-1)


class TestCostRange:
    def test_exact_addition_stays_exact(self):
        total = CostRange.exact(2) + CostRange.exact(3)
        assert total.is_exact
        assert total.lo.constant_value() == 5

    def test_join_is_interval_hull(self):
        hull = CostRange.exact(2).join(CostRange.exact(7))
        lo, hi = hull.evaluate({})
        assert (lo, hi) == (2, 7)
        assert not hull.is_exact

    def test_times_with_unbounded_side(self):
        unbounded = CostRange(SymExpr.const(0), None)
        product = unbounded.times(CostRange.exact(3))
        assert product.hi is None
        # ... except multiplying an unknown trip count by a free body.
        assert unbounded.times(CostRange.exact(0)).is_zero

    def test_substitute_parameter_with_interval(self):
        cost = CostRange.exact(SymExpr.param("arg0") * SymExpr.const(4))
        widened = cost.substitute({"arg0": CostRange(SymExpr.const(1), None)})
        assert widened.lo.constant_value() == 4
        assert widened.hi is None
        pinned = cost.substitute({"arg0": CostRange.exact(5)})
        assert pinned.is_exact and pinned.lo.constant_value() == 20

    def test_join_bounds_both_alternatives_symbolically(self):
        n = SymExpr.param("n")
        a = CostRange.exact(n.scaled(2))           # 2n
        b = CostRange.exact(n + SymExpr.const(5))  # n + 5
        hull = a.join(b)
        for value in (0, 1, 4, 10):
            lo, hi = hull.evaluate({"n": value})
            assert lo <= min(2 * value, value + 5)
            assert hi >= max(2 * value, value + 5)


# ---------------------------------------------------------------------------
# Trip counts
# ---------------------------------------------------------------------------


def _main_summary(text):
    module = parse_module(text)
    return module, CostAnalysis(module).summary("main")


LOOP_TEMPLATE = """builtin.module {{
  func.func @main({args}) -> () {{
    %c0 = arith.constant 0 : index
    %c1 = arith.constant 1 : index
    %lb = arith.constant {lb} : index
    %ub = arith.constant {ub} : index
    %step = arith.constant {step} : index
    %n = arith.constant 8 : i64
    scf.for %i = {frm} to {to} step {by} {{
      %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
      scf.yield
    }}
    func.return
  }}
}}
"""


def _setup_count(summary):
    return summary.total.instrs[("toyvec", InstrCategory.SETUP)]


class TestTripCounts:
    @pytest.mark.parametrize(
        "lb,ub,step,expected",
        [(0, 10, 1, 10), (0, 10, 3, 4), (2, 10, 2, 4), (10, 2, 1, 0)],
    )
    def test_constant_bounds_are_exact(self, lb, ub, step, expected):
        _, summary = _main_summary(
            LOOP_TEMPLATE.format(
                args="", lb=lb, ub=ub, step=step,
                frm="%lb", to="%ub", by="%step",
            )
        )
        count = _setup_count(summary) if expected else summary.total.instrs.get(
            ("toyvec", InstrCategory.SETUP)
        )
        if expected:
            assert count.is_exact
            assert count.lo.constant_value() == expected
        else:
            assert count is None  # zero-trip loop contributes nothing

    def test_argument_bound_is_an_exact_parameter(self):
        _, summary = _main_summary(
            LOOP_TEMPLATE.format(
                args="%m : index", lb=0, ub=1, step=1,
                frm="%c0", to="%m", by="%c1",
            )
        )
        count = _setup_count(summary)
        assert count.is_exact
        assert str(count.lo) == "arg0"

    def test_opaque_bound_widens_to_unbounded(self):
        _, summary = _main_summary(
            LOOP_TEMPLATE.format(
                args="%m : index", lb=0, ub=1, step=1,
                frm="%c1", to="%m", by="%c1",  # lb != 0: not the exact shape
            )
        )
        count = _setup_count(summary)
        assert count.hi is None
        assert count.lo.constant_value() == 0


# ---------------------------------------------------------------------------
# Predicted == simulated, pinned on the paper's workloads
# ---------------------------------------------------------------------------


def _run(workload, args):
    sim = CoSimulator(memory=workload.memory)
    Interpreter(workload.module, sim).run("main", args)
    return sim


class TestPinnedExactCosts:
    def test_example_4_6_gemmini_matmul(self):
        # Example 4.6: the fine-grained 64x64 Gemmini matmul.  The summary
        # is fully exact and matches the simulator to the instruction.
        workload = build_gemmini_matmul(64)
        summary = CostAnalysis(workload.module).summary("main")
        assert summary.is_modeled and summary.total.is_exact
        assert summary.config_instrs().lo.constant_value() == 431
        assert (
            summary.total.config_bytes["gemmini"].lo.constant_value() == 2896
        )
        assert summary.total.launches["gemmini"].lo.constant_value() == 176
        assert summary.total.ops["gemmini"].lo.constant_value() == 524288
        sim = _run(workload, [0])
        assert compare_with_simulation(workload.module, sim, [0]) == []

    @pytest.mark.parametrize(
        "size,config_instrs,config_bytes,launches",
        [(32, 432, 1664, 16), (128, 6912, 26624, 256)],
    )
    def test_fig12_opengemm_workloads(
        self, size, config_instrs, config_bytes, launches
    ):
        workload = build_opengemm_matmul(size)
        summary = CostAnalysis(workload.module).summary("main")
        assert summary.is_modeled and summary.total.is_exact
        assert summary.config_instrs().lo.constant_value() == config_instrs
        assert (
            summary.total.config_bytes["opengemm"].lo.constant_value()
            == config_bytes
        )
        assert summary.total.launches["opengemm"].lo.constant_value() == launches
        sim = _run(workload, [])
        assert compare_with_simulation(workload.module, sim, []) == []

    def test_optimized_pipelines_stay_exact(self):
        # The engine is not tied to the unoptimized idiom: after dedup or
        # the full pipeline rewrites the configuration stream, prediction
        # and measurement still agree exactly.
        from repro.passes import pipeline_by_name

        for pipeline in ("dedup", "full"):
            workload = build_opengemm_matmul(32)
            pipeline_by_name(pipeline).run(workload.module)
            sim = _run(workload, [])
            assert (
                compare_with_simulation(workload.module, sim, []) == []
            ), pipeline


MISMATCH_PROBE = """builtin.module {
  func.func @main() -> () {
    %n = arith.constant 8 : i64
    %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    func.return
  }
}
"""


class TestOracleSensitivity:
    def test_detects_a_drifting_model(self):
        # Feed the checker a simulation of a *different* program: every
        # mismatch class (instrs, bytes) must be reported, proving the
        # oracle cannot silently pass on drift.
        module = parse_module(MISMATCH_PROBE)
        other = parse_module(
            MISMATCH_PROBE.replace(
                '"n" = %n : i64', '"n" = %n : i64, "op" = %n : i64'
            )
        )
        sim = CoSimulator()
        Interpreter(other, sim).run("main", [])
        problems = compare_with_simulation(module, sim, [])
        assert problems
        assert any("config bytes" in p for p in problems)

    def test_branch_interval_bounds_both_arms(self):
        text = """builtin.module {
  func.func @main(%cond : i1) -> () {
    %n = arith.constant 8 : i64
    scf.if %cond {
      %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
    }
    func.return
  }
}
"""
        for cond in (0, 1):
            module = parse_module(text)
            sim = CoSimulator()
            Interpreter(module, sim).run("main", [cond])
            assert compare_with_simulation(module, sim, [cond]) == []


# ---------------------------------------------------------------------------
# Caching, unmodeled ops, and the report
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_analysis_manager_caches_per_module(self):
        module = build_opengemm_matmul(32).module
        manager = AnalysisManager()
        first = manager.cost(module)
        assert manager.cost(module) is first
        manager.invalidate([module])
        assert manager.cost(module) is not first

    def test_unknown_accelerator_is_unmodeled_not_wrong(self):
        module = parse_module(
            MISMATCH_PROBE.replace('"toyvec"', '"mystery9000"')
        )
        summary = CostAnalysis(module).summary("main")
        assert not summary.is_modeled
        # The oracle makes no claim: an empty report, not a false alarm.
        sim = CoSimulator()
        assert compare_with_simulation(module, sim, []) == []

    def test_format_cost_table_flags_config_bound(self):
        table = format_cost_table(
            CostAnalysis(build_opengemm_matmul(32).module)
        )
        assert "@main" in table
        assert "opengemm" in table
        assert "CONFIG-BOUND" in table

    def test_functions_are_the_module_top_level(self):
        # A func.func nested in a loop no longer verifies; built by hand, it
        # is not a function of the module, for the cost engine as for the
        # trace compiler.
        module, _ = _main_summary(
            LOOP_TEMPLATE.format(
                args="", lb=0, ub=2, step=1, frm="%lb", to="%ub", by="%step",
            )
        )
        loop = next(op for op in module.walk() if isinstance(op, scf.ForOp))
        nested = func.FuncOp.create("nested", FunctionType.from_lists([], []))
        nested.body.add_op(func.ReturnOp.create())
        loop.body.insert_op_before(loop.body.terminator, nested)
        analysis = CostAnalysis(module)
        assert [fn.sym_name for fn in analysis.functions()] == ["main"]
        assert analysis.summary("nested") is None

