"""Trace executor vs. tree interpreter on concrete programs.

The hypothesis sweep in ``tests/properties/test_engine_props.py`` covers
generated programs; these pin down hand-written shapes (loops, branches,
accelerator protocol, ops that trap, lowered MLPs) with exact observables.
"""

import pytest

from repro.engine import (
    PersistentStore,
    TraceExecutor,
    compile_module,
    run_module_traced,
)
from repro.interp import run_module
from repro.ir import parse_module
from repro.passes import ConvertLinalgToAccfgPass, pipeline_by_name
from repro.sim import CoSimulator
from repro.testing.oracles import _engine_divergences
from repro.workloads.network import build_mlp


def assert_engines_agree(text: str, args: list[int] | None = None):
    args = args or []
    tree_sim = CoSimulator(functional=False)
    tree_results = run_module(parse_module(text), tree_sim, args=list(args))[0]
    trace_sim = CoSimulator(functional=False)
    trace_results, _ = run_module_traced(
        parse_module(text), trace_sim, args=list(args), cache=False
    )
    problems = _engine_divergences(
        trace_results,
        trace_sim,
        trace_sim.memory,
        tree_results,
        tree_sim,
        tree_sim.memory,
    )
    assert not problems, "; ".join(problems)
    return trace_results


class TestEquivalence:
    def test_arithmetic_and_return(self):
        results = assert_engines_agree(
            """
            func.func @main(%x : i64) -> (i64) {
              %c = arith.constant 3 : i64
              %y = arith.muli %x, %c : i64
              func.return %y : i64
            }
            """,
            args=[7],
        )
        assert results == [21]

    def test_accelerator_protocol(self):
        assert_engines_agree(
            """
            func.func @main() -> () {
              %n = arith.constant 4 : i64
              %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
              %t = accfg.launch %s : !accfg.token<"toyvec">
              accfg.await %t
              func.return
            }
            """
        )

    def test_loop_with_setup_inside(self):
        assert_engines_agree(
            """
            func.func @main() -> () {
              %lb = arith.constant 0 : index
              %ub = arith.constant 3 : index
              %st = arith.constant 1 : index
              %n = arith.constant 4 : i64
              scf.for %i = %lb to %ub step %st {
                %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
                %t = accfg.launch %s : !accfg.token<"toyvec">
                accfg.await %t
              }
              func.return
            }
            """
        )

    def test_branch_selects_result(self):
        results = assert_engines_agree(
            """
            func.func @main(%flag : i64) -> (i64) {
              %zero = arith.constant 0 : i64
              %cond = arith.cmpi ne, %flag, %zero : i64
              %a = arith.constant 10 : i64
              %b = arith.constant 20 : i64
              %r = scf.if %cond -> (i64) {
                scf.yield %a : i64
              } else {
                scf.yield %b : i64
              }
              func.return %r : i64
            }
            """,
            args=[1],
        )
        assert results == [10]

    def test_protocol_errors_match_the_tree_interpreter(self):
        text = """
        func.func @main() -> () {
          %n = arith.constant 4 : i64
          %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
          %t = accfg.launch %s : !accfg.token<"toyvec">
          accfg.await %t
          accfg.await %t
          func.return
        }
        """
        from repro.interp.interpreter import InterpreterError

        with pytest.raises(InterpreterError, match="double await") as tree_error:
            run_module(parse_module(text), CoSimulator(functional=False))
        with pytest.raises(InterpreterError, match="double await") as trace_error:
            run_module_traced(
                parse_module(text), CoSimulator(functional=False), cache=False
            )
        assert str(trace_error.value) == str(tree_error.value)


class TestTrap:
    def test_unknown_op_in_an_untaken_arm_runs(self):
        # An op with no semantics compiles to a trap that fires only when
        # reached, so the module runs, with the tree interpreter's result.
        results = assert_engines_agree(
            """
            func.func @main(%flag : i64) -> (i64) {
              %zero = arith.constant 0 : i64
              %cond = arith.cmpi ne, %flag, %zero : i64
              %r = scf.if %cond -> (i64) {
                %v = "mystery.op"() : () -> (i64)
                scf.yield %v : i64
              } else {
                scf.yield %zero : i64
              }
              func.return %r : i64
            }
            """,
            args=[0],
        )
        assert results == [0]


def lowered_mlp(layers, pipeline: str, seed: int):
    workload = build_mlp(layers, batch=8, seed=seed)
    ConvertLinalgToAccfgPass().apply(workload.module)
    pipeline_by_name(pipeline).run(workload.module)
    return workload


class TestMlp:
    """Lowered MLPs carry ``net.requantize`` host ops between layers."""

    @pytest.mark.parametrize("layers", [[16, 32, 16], [16, 24, 32, 8]])
    @pytest.mark.parametrize("pipeline", ["baseline", "dedup", "overlap", "full"])
    def test_trace_matches_tree(self, layers, pipeline, tmp_path):
        tree = lowered_mlp(layers, pipeline, seed=len(layers))
        tree_sim = CoSimulator(memory=tree.memory)
        tree_results = run_module(tree.module, tree_sim)[0]
        assert tree.check()

        # The compiled module goes through the disk tier and back, so the
        # requantize data move must survive a pickle round trip.
        trace = lowered_mlp(layers, pipeline, seed=len(layers))
        store = PersistentStore(str(tmp_path))
        store.save_trace("mlp", compile_module(trace.module))
        compiled = store.load_trace("mlp")
        assert compiled is not None
        trace_sim = CoSimulator(memory=trace.memory)
        trace_results = TraceExecutor(compiled, trace_sim).run()
        problems = _engine_divergences(
            trace_results,
            trace_sim,
            trace.memory,
            tree_results,
            tree_sim,
            tree.memory,
        )
        assert not problems, "; ".join(problems)
