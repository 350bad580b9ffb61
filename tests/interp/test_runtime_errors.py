"""Tests for runtime error propagation through both execution engines.

Every case runs on the tree interpreter and on the trace engine: both must
raise the same error with the same message, or agree bit for bit.
"""

import pytest

from repro.engine import TraceExecutor, compile_module
from repro.interp import InterpreterError, run_module
from repro.ir import parse_module
from repro.sim import CoSimulator
from repro.sim.memory import MemoryError_
from repro.testing.oracles import _engine_divergences


def run_traced(module, sim, args):
    return TraceExecutor(compile_module(module), sim).run("main", args)


def run_tree(module, sim, args):
    return run_module(module, sim, args=args)[0]


def run_both(build, args=(), functional: bool = True):
    """Run the module ``build()`` returns on both engines, each on a fresh
    module and simulator; returns the tree's results or raises its error
    once the trace engine is checked to match."""
    outcomes = []
    for engine in (run_tree, run_traced):
        sim = CoSimulator(functional=functional)
        try:
            outcomes.append((engine(build(), sim, list(args)), sim))
        except Exception as error:  # noqa: BLE001 - compared below
            outcomes.append(error)
    tree, trace = outcomes
    if isinstance(tree, Exception):
        assert type(trace) is type(tree), (tree, trace)
        assert str(trace) == str(tree)
        raise tree
    assert not isinstance(trace, Exception), trace
    (tree_results, tree_sim), (trace_results, trace_sim) = tree, trace
    problems = _engine_divergences(
        trace_results,
        trace_sim,
        trace_sim.memory,
        tree_results,
        tree_sim,
        tree_sim.memory,
    )
    assert not problems, "; ".join(problems)
    return tree_results, tree_sim


def run_timing(text: str, filename: str = "prog.mlir"):
    """Run in timing-only mode (no memory image needed)."""
    return run_both(lambda: parse_module(text, filename), functional=False)


class TestArithmeticTraps:
    def test_division_by_zero_surfaces(self):
        module = parse_module(
            """
            func.func @main(%a : i64) -> (i64) {
              %c0 = arith.constant 0 : i64
              %r = arith.divui %a, %c0 : i64
              func.return %r : i64
            }
            """
        )
        with pytest.raises(ZeroDivisionError):
            run_both(module.clone, args=[5])

    def test_remainder_by_zero_surfaces(self):
        module = parse_module(
            """
            func.func @main(%a : i64) -> (i64) {
              %c0 = arith.constant 0 : i64
              %r = arith.remui %a, %c0 : i64
              func.return %r : i64
            }
            """
        )
        with pytest.raises(ZeroDivisionError):
            run_both(module.clone, args=[5])


TWO_OPERANDS = """
func.func @main(%a : {t}, %c : {t}) -> ({t}) {{
  %r = {op} %a, %c : {t}
  func.return %r : {t}
}}
"""

TWO_CONSTANTS = """
func.func @main() -> ({t}) {{
  %a = arith.constant 3 : {t}
  %c = arith.constant {count} : {t}
  %r = {op} %a, %c : {t}
  func.return %r : {t}
}}
"""


def fold_constants(op: str, type_text: str, count: int):
    module = parse_module(TWO_CONSTANTS.format(op=op, t=type_text, count=count))
    (fn,) = module.body_block.ops
    return fn.body.ops[2].fold()


class TestTrapsAreProgramErrors:
    """A trap is the program's error: an ``InterpreterError`` with one
    message from both engines, which ``fold`` declines to fold."""

    @pytest.mark.parametrize(
        "op,message",
        [
            ("arith.divui", "arith.divui by zero"),
            ("arith.remui", "arith.remui by zero"),
        ],
    )
    def test_division_by_zero(self, op, message):
        module = parse_module(TWO_OPERANDS.format(op=op, t="i64"))
        with pytest.raises(InterpreterError, match=f"^{message}$"):
            run_both(module.clone, args=[5, 0])
        assert fold_constants(op, "i64", 0) is None

    @pytest.mark.parametrize("op", ["arith.shli", "arith.shrui"])
    def test_negative_shift_count(self, op):
        module = parse_module(TWO_OPERANDS.format(op=op, t="index"))
        with pytest.raises(InterpreterError, match=f"^{op} by a negative count$"):
            run_both(module.clone, args=[5, -1])
        assert fold_constants(op, "index", -1) is None


class TestShiftCounts:
    """A shift count past the width never builds the wide value."""

    @pytest.mark.parametrize(
        "type_text,count",
        [
            ("i8", 8),
            ("i8", 255),
            ("i32", 32),
            ("i64", 64),
            ("i64", 2**63 - 1),
            ("i64", 2**64 - 1),
        ],
    )
    def test_count_at_or_past_the_width_gives_zero(self, type_text, count):
        module = parse_module(TWO_OPERANDS.format(op="arith.shli", t=type_text))
        results, _ = run_both(module.clone, args=[3, count], functional=False)
        assert results == [0]
        folded = fold_constants("arith.shli", type_text, count)
        assert folded is not None and folded[0].value == 0

    def test_index_count_past_the_host_word_traps(self):
        module = parse_module(TWO_OPERANDS.format(op="arith.shli", t="index"))
        assert run_both(module.clone, args=[3, 63], functional=False)[0] == [
            3 << 63
        ]
        with pytest.raises(
            InterpreterError, match="^arith.shli of an index by 64 or more bits$"
        ):
            run_both(module.clone, args=[3, 64], functional=False)
        assert fold_constants("arith.shli", "index", 64) is None


class TestMemoryFaults:
    def test_wild_pointer_faults_at_launch(self):
        module = parse_module(
            """
            func.func @main() -> () {
              %bad = arith.constant 3 : i64
              %n = arith.constant 8 : i64
              %op = arith.constant 0 : i64
              %s = accfg.setup on "toyvec" ("ptr_x" = %bad : i64, "ptr_y" = %bad : i64, "ptr_out" = %bad : i64, "n" = %n : i64, "op" = %op : i64) : !accfg.state<"toyvec">
              %t = accfg.launch %s : !accfg.token<"toyvec">
              func.return
            }
            """
        )
        with pytest.raises(MemoryError_):
            run_both(module.clone)

    def test_timing_only_mode_skips_memory_faults(self):
        """functional=False runs pure timing: bad addresses never touch the
        memory model (how the large sweeps run)."""
        module = parse_module(
            """
            func.func @main() -> () {
              %bad = arith.constant 3 : i64
              %n = arith.constant 8 : i64
              %op = arith.constant 0 : i64
              %s = accfg.setup on "toyvec" ("ptr_x" = %bad : i64, "ptr_y" = %bad : i64, "ptr_out" = %bad : i64, "n" = %n : i64, "op" = %op : i64) : !accfg.state<"toyvec">
              %t = accfg.launch %s : !accfg.token<"toyvec">
              func.return
            }
            """
        )
        _, sim = run_both(module.clone, functional=False)
        assert sim.device("toyvec").launch_count == 1


class TestUnseenOpDiagnostics:
    """Unseen ops fail with the op's source location in the message — these
    are the executable counterparts of the static ACCFG lints, so the error
    text must be precise enough to triage a fuzz reproducer."""

    def test_unregistered_op_reports_location(self):
        with pytest.raises(
            InterpreterError,
            match=r"cannot interpret unregistered op 'mystery\.op' "
            r"at prog\.mlir:3:3",
        ):
            run_timing(
                """
                func.func @main() -> () {
                  %x = "mystery.op"() : () -> (i64)
                  func.return
                }
                """.replace("\n                ", "\n")
            )

    def test_location_falls_back_to_input_for_unnamed_source(self):
        module = parse_module(
            """
            func.func @main() -> () {
              %x = "mystery.op"() : () -> (i64)
              func.return
            }
            """
        )
        with pytest.raises(InterpreterError, match=r"at <input>:\d+:\d+"):
            run_both(module.clone, functional=False)

    def test_programmatic_ir_errors_without_location_suffix(self):
        """Ops built via the API have no loc; the message must not carry a
        dangling 'at' clause."""
        from repro.dialects import func as func_dialect
        from repro.dialects.builtin import ModuleOp
        from repro.ir.attributes import FunctionType
        from repro.ir.operation import UnregisteredOp

        def build():
            fn = func_dialect.FuncOp.create("main", FunctionType((), ()))
            fn.body.add_op(UnregisteredOp("mystery.op"))
            fn.body.add_op(func_dialect.ReturnOp.create())
            return ModuleOp.create([fn])

        with pytest.raises(InterpreterError) as excinfo:
            run_both(build, functional=False)
        assert " at " not in str(excinfo.value)


class TestAccfgProtocolErrors:
    """Runtime counterparts of the ACCFG002/ACCFG003/ACCFG009 static lints:
    programs that slip past linting still fail loudly, with locations."""

    def test_double_await_raises(self):
        with pytest.raises(
            InterpreterError, match=r"double await .* at prog\.mlir:7:3"
        ):
            run_timing(
                """
                func.func @main() -> () {
                  %n = arith.constant 4 : i64
                  %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
                  %t = accfg.launch %s : !accfg.token<"toyvec">
                  accfg.await %t
                  accfg.await %t
                  func.return
                }
                """.replace("\n                ", "\n")
            )

    def test_setup_after_reset_raises(self):
        with pytest.raises(InterpreterError, match="state that was reset"):
            run_timing(
                """
                func.func @main() -> () {
                  %n = arith.constant 4 : i64
                  %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
                  accfg.reset %s
                  %s2 = accfg.setup on "toyvec" from %s ("n" = %n : i64) : !accfg.state<"toyvec">
                  func.return
                }
                """
            )

    def test_launch_after_reset_raises(self):
        with pytest.raises(
            InterpreterError, match="launch on 'toyvec' uses a state that was reset"
        ):
            run_timing(
                """
                func.func @main() -> () {
                  %n = arith.constant 4 : i64
                  %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
                  accfg.reset %s
                  %t = accfg.launch %s : !accfg.token<"toyvec">
                  func.return
                }
                """
            )

    def test_await_of_launch_discarded_by_reset_raises(self):
        with pytest.raises(InterpreterError, match="discarded by accfg.reset"):
            run_timing(
                """
                func.func @main() -> () {
                  %n = arith.constant 4 : i64
                  %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
                  %t = accfg.launch %s : !accfg.token<"toyvec">
                  accfg.reset %s
                  accfg.await %t
                  func.return
                }
                """
            )

    def test_reset_then_full_reconfiguration_is_fine(self):
        """Reset only poisons the old state chain: a fresh setup (no
        ``from``) reconfigures from scratch legally."""
        run_timing(
            """
            func.func @main() -> () {
              %n = arith.constant 4 : i64
              %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
              %t = accfg.launch %s : !accfg.token<"toyvec">
              accfg.await %t
              accfg.reset %s
              %s2 = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
              %t2 = accfg.launch %s2 : !accfg.token<"toyvec">
              accfg.await %t2
              func.return
            }
            """
        )

    def test_setup_on_unregistered_accelerator_at_runtime(self):
        with pytest.raises(
            InterpreterError, match="unknown accelerator 'warpcore'"
        ):
            run_timing(
                """
                func.func @main() -> () {
                  %n = arith.constant 4 : i64
                  %s = accfg.setup on "warpcore" ("n" = %n : i64) : !accfg.state<"warpcore">
                  func.return
                }
                """
            )

    def test_launch_on_unregistered_accelerator_at_runtime(self):
        from repro.dialects import accfg

        def build():
            module = parse_module(
                """
                func.func @main() -> () {
                  %n = arith.constant 4 : i64
                  %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
                  %t = accfg.launch %s : !accfg.token<"toyvec">
                  func.return
                }
                """
            )
            # Retarget the launch behind the registry's back: the launch
            # reads its accelerator from the state *type*, while the setup
            # keeps its own name attribute (models a buggy cross-accelerator
            # rewrite).
            launch = next(
                op for op in module.walk() if isinstance(op, accfg.LaunchOp)
            )
            launch.state.type = accfg.StateType("warpcore")
            return module

        with pytest.raises(
            InterpreterError, match="launch on unknown accelerator 'warpcore'"
        ):
            run_both(build, functional=False)

    def test_await_of_non_token_value(self):
        """The await operand must hold a runtime token.  The verifier
        rejects this IR, so only the tree interpreter is held to it."""
        module = parse_module(
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
        from repro.dialects import accfg

        await_op = next(
            op for op in module.walk() if isinstance(op, accfg.AwaitOp)
        )
        launch = next(
            op for op in module.walk() if isinstance(op, accfg.LaunchOp)
        )
        await_op.set_operand(0, launch.state)  # a state, not a token
        with pytest.raises(InterpreterError, match="not a token"):
            run_module(module, CoSimulator(functional=False))


class TestRecursionGuard:
    def test_unbounded_recursion_detected(self):
        module = parse_module(
            """
            func.func @spin(%x : i64) -> (i64) {
              %r = func.call @spin(%x) : (i64) -> (i64)
              func.return %r : i64
            }
            func.func @main(%x : i64) -> (i64) {
              %r = func.call @spin(%x) : (i64) -> (i64)
              func.return %r : i64
            }
            """
        )
        with pytest.raises(InterpreterError, match="call depth"):
            run_both(module.clone, args=[1])

    def test_deep_but_bounded_calls_fine(self):
        module = parse_module(
            """
            func.func @leaf(%x : i64) -> (i64) {
              func.return %x : i64
            }
            func.func @mid(%x : i64) -> (i64) {
              %r = func.call @leaf(%x) : (i64) -> (i64)
              func.return %r : i64
            }
            func.func @main(%x : i64) -> (i64) {
              %r = func.call @mid(%x) : (i64) -> (i64)
              func.return %r : i64
            }
            """
        )
        results, _ = run_both(module.clone, args=[7])
        assert results == [7]
