"""Tests for the timed functional IR interpreter."""

import numpy as np
import pytest

from repro.dialects.accfg import config_feeding_ops
from repro.interp import Interpreter, InterpreterError, run_module
from repro.ir import parse_module
from repro.isa import HostCostModel, InstrCategory
from repro.sim import CoSimulator, Memory


def interpret(text, args=None, memory=None):
    module = parse_module(text)
    sim = CoSimulator(memory=memory, cost_model=HostCostModel(1.0))
    results = Interpreter(module, sim).run("main", args or [])
    return results, sim


class TestScalarExecution:
    def test_arith(self):
        results, _ = interpret(
            """
            func.func @main(%a : i64, %b : i64) -> (i64) {
              %s = arith.addi %a, %b : i64
              %m = arith.muli %s, %s : i64
              func.return %m : i64
            }
            """,
            args=[3, 4],
        )
        assert results == [49]

    def test_wrapping_semantics(self):
        results, _ = interpret(
            """
            func.func @main(%a : i8) -> (i8) {
              %c1 = arith.constant 1 : i8
              %s = arith.addi %a, %c1 : i8
              func.return %s : i8
            }
            """,
            args=[255],
        )
        assert results == [0]

    def test_cmp_and_select(self):
        results, _ = interpret(
            """
            func.func @main(%a : i64, %b : i64) -> (i64) {
              %c = arith.cmpi ult, %a, %b : i64
              %r = arith.select %c, %a, %b : i64
              func.return %r : i64
            }
            """,
            args=[9, 5],
        )
        assert results == [5]

    def test_division(self):
        results, _ = interpret(
            """
            func.func @main(%a : i64) -> (i64, i64) {
              %c3 = arith.constant 3 : i64
              %d = arith.divui %a, %c3 : i64
              %r = arith.remui %a, %c3 : i64
              func.return %d, %r : i64, i64
            }
            """,
            args=[10],
        )
        assert results == [3, 1]


class TestControlFlow:
    def test_loop_accumulation(self):
        results, _ = interpret(
            """
            func.func @main() -> (index) {
              %c0 = arith.constant 0 : index
              %c1 = arith.constant 1 : index
              %c5 = arith.constant 5 : index
              %sum = scf.for %i = %c0 to %c5 step %c1 iter_args(%acc = %c0) -> (index) {
                %n = arith.addi %acc, %i : index
                scf.yield %n : index
              }
              func.return %sum : index
            }
            """
        )
        assert results == [10]

    def test_zero_trip_loop(self):
        results, _ = interpret(
            """
            func.func @main() -> (index) {
              %c0 = arith.constant 0 : index
              %c1 = arith.constant 1 : index
              %c9 = arith.constant 9 : index
              %r = scf.for %i = %c9 to %c0 step %c1 iter_args(%acc = %c1) -> (index) {
                %n = arith.addi %acc, %acc : index
                scf.yield %n : index
              }
              func.return %r : index
            }
            """
        )
        assert results == [1]

    def test_if_branches(self):
        text = """
        func.func @main(%c : i1) -> (i64) {
          %r = scf.if %c -> (i64) {
            %a = arith.constant 10 : i64
            scf.yield %a : i64
          } else {
            %b = arith.constant 20 : i64
            scf.yield %b : i64
          }
          func.return %r : i64
        }
        """
        assert interpret(text, args=[1])[0] == [10]
        assert interpret(text, args=[0])[0] == [20]

    def test_nonpositive_step_rejected(self):
        with pytest.raises(InterpreterError, match="positive step"):
            interpret(
                """
                func.func @main() -> () {
                  %c0 = arith.constant 0 : index
                  %c9 = arith.constant 9 : index
                  scf.for %i = %c0 to %c9 step %c0 {
                    scf.yield
                  }
                  func.return
                }
                """
            )

    def test_function_calls(self):
        results, _ = interpret(
            """
            func.func @double(%x : i64) -> (i64) {
              %r = arith.addi %x, %x : i64
              func.return %r : i64
            }
            func.func @main(%a : i64) -> (i64) {
              %r = func.call @double(%a) : (i64) -> (i64)
              %s = func.call @double(%r) : (i64) -> (i64)
              func.return %s : i64
            }
            """,
            args=[3],
        )
        assert results == [12]

    def test_call_to_declaration_rejected(self):
        with pytest.raises(InterpreterError, match="unknown/declared"):
            interpret(
                """
                func.func @ext(i64) -> (i64)
                func.func @main(%a : i64) -> (i64) {
                  %r = func.call @ext(%a) : (i64) -> (i64)
                  func.return %r : i64
                }
                """,
                args=[1],
            )


class TestAccfgExecution:
    def make_memory(self):
        memory = Memory()
        x = memory.place(np.arange(16, dtype=np.int32))
        y = memory.place(np.arange(16, dtype=np.int32) * 3)
        out = memory.alloc(16, np.int32)
        return memory, x, y, out

    def test_setup_launch_await(self):
        memory, x, y, out = self.make_memory()
        _, sim = interpret(
            f"""
            func.func @main() -> () {{
              %px = arith.constant {x.addr} : i64
              %py = arith.constant {y.addr} : i64
              %po = arith.constant {out.addr} : i64
              %n = arith.constant 16 : i64
              %op = arith.constant 0 : i64
              %s = accfg.setup on "toyvec" ("ptr_x" = %px : i64, "ptr_y" = %py : i64, "ptr_out" = %po : i64, "n" = %n : i64, "op" = %op : i64) : !accfg.state<"toyvec">
              %t = accfg.launch %s : !accfg.token<"toyvec">
              accfg.await %t
              func.return
            }}
            """,
            memory=memory,
        )
        assert (out.array == x.array + y.array).all()
        assert sim.device("toyvec").launch_count == 1

    def test_await_non_token_rejected(self):
        # Craft IR where the token env entry is missing by awaiting a token
        # twice through manual interpretation (covered via unknown op below).
        with pytest.raises(InterpreterError):
            interpret(
                """
                func.func @main() -> () {
                  "foreign.op"() : () -> ()
                  func.return
                }
                """
            )


class TestInstructionCategorization:
    def test_config_feeding_ops_marked_calc(self):
        module = parse_module(
            """
            func.func @main(%x : i64) -> (i64) {
              %a = arith.addi %x, %x : i64
              %s = accfg.setup on "toyvec" ("n" = %a : i64) : !accfg.state<"toyvec">
              %b = arith.muli %x, %x : i64
              func.return %b : i64
            }
            """
        )
        feeding = config_feeding_ops(module)
        names = {op.name for op in feeding}
        assert "arith.addi" in names
        assert "arith.muli" not in names

    def test_calc_vs_compute_charging(self):
        _, sim = interpret(
            """
            func.func @main(%x : i64) -> (i64) {
              %a = arith.addi %x, %x : i64
              %s = accfg.setup on "toyvec" ("n" = %a : i64) : !accfg.state<"toyvec">
              %b = arith.muli %x, %x : i64
              func.return %b : i64
            }
            """,
            args=[2],
        )
        stats = sim.trace.stats(sim.cost_model)
        assert stats.calc_instrs == 1  # the addi feeding the setup
        assert stats.compute_instrs == 1  # the muli

    def test_loop_control_charged(self):
        _, sim = interpret(
            """
            func.func @main() -> () {
              %c0 = arith.constant 0 : index
              %c1 = arith.constant 1 : index
              %c4 = arith.constant 4 : index
              scf.for %i = %c0 to %c4 step %c1 {
                scf.yield
              }
              func.return
            }
            """
        )
        stats = sim.trace.stats(sim.cost_model)
        assert stats.control_instrs == 8  # 2 per iteration


class TestErrors:
    def test_missing_function(self):
        module = parse_module("func.func @other() -> () { func.return }")
        with pytest.raises(InterpreterError, match="no function"):
            Interpreter(module, CoSimulator()).run("main")

    def test_wrong_arg_count(self):
        module = parse_module("func.func @main(%a : i64) -> () { func.return }")
        with pytest.raises(InterpreterError, match="arguments"):
            Interpreter(module, CoSimulator()).run("main", [])

    def test_run_module_helper(self):
        module = parse_module(
            """
            func.func @main() -> (i64) {
              %c = arith.constant 11 : i64
              func.return %c : i64
            }
            """
        )
        results, sim = run_module(module)
        assert results == [11]
        assert sim.host_time > 0
