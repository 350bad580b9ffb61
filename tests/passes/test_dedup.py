"""Tests for configuration deduplication (paper, Section 5.4)."""

from repro.analysis.dataflow import KnownFieldsAnalysis
from repro.dialects import accfg, scf
from repro.ir import parse_module, verify_operation
from repro.passes import DedupPass, TraceStatesPass
from repro.passes.dedup import (
    hoist_setups_into_branches,
    merge_consecutive_setups,
)


def optimized(text: str):
    module = parse_module(text)
    TraceStatesPass().apply(module)
    DedupPass().apply(module)
    verify_operation(module)
    return module


def setups(module):
    return [op for op in module.walk() if isinstance(op, accfg.SetupOp)]


def total_field_writes(module):
    return sum(len(op.fields) for op in setups(module))


class TestRedundantFieldElimination:
    def test_same_value_rewrite_removed(self):
        module = optimized(
            """
            func.func @f(%x : i64, %y : i64) -> () {
              %s1 = accfg.setup on "toyvec" ("n" = %x : i64, "op" = %y : i64) : !accfg.state<"toyvec">
              %t1 = accfg.launch %s1 : !accfg.token<"toyvec">
              accfg.await %t1
              %s2 = accfg.setup on "toyvec" ("n" = %x : i64, "op" = %y : i64) : !accfg.state<"toyvec">
              %t2 = accfg.launch %s2 : !accfg.token<"toyvec">
              accfg.await %t2
              func.return
            }
            """
        )
        # The second setup is fully redundant; only the first remains.
        assert total_field_writes(module) == 2
        launches = [op for op in module.walk() if isinstance(op, accfg.LaunchOp)]
        assert len(launches) == 2

    def test_partial_redundancy(self):
        module = optimized(
            """
            func.func @f(%x : i64, %y : i64, %z : i64) -> () {
              %s1 = accfg.setup on "toyvec" ("n" = %x : i64, "op" = %y : i64) : !accfg.state<"toyvec">
              %t1 = accfg.launch %s1 : !accfg.token<"toyvec">
              %s2 = accfg.setup on "toyvec" ("n" = %x : i64, "op" = %z : i64) : !accfg.state<"toyvec">
              %t2 = accfg.launch %s2 : !accfg.token<"toyvec">
              func.return
            }
            """
        )
        all_setups = setups(module)
        assert len(all_setups) == 2
        # "n" removed from the second setup, "op" kept (different value).
        assert all_setups[1].field_names == ("op",)

    def test_different_values_kept(self):
        module = optimized(
            """
            func.func @f(%x : i64, %y : i64) -> () {
              %s1 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              %t1 = accfg.launch %s1 : !accfg.token<"toyvec">
              %s2 = accfg.setup on "toyvec" ("n" = %y : i64) : !accfg.state<"toyvec">
              %t2 = accfg.launch %s2 : !accfg.token<"toyvec">
              func.return
            }
            """
        )
        assert total_field_writes(module) == 2

    def test_clobber_between_prevents_dedup(self):
        module = optimized(
            """
            func.func @f(%x : i64) -> () {
              %s1 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              %t1 = accfg.launch %s1 : !accfg.token<"toyvec">
              "foreign.mystery"() : () -> ()
              %s2 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              %t2 = accfg.launch %s2 : !accfg.token<"toyvec">
              func.return
            }
            """
        )
        assert total_field_writes(module) == 2


class TestLoopFieldHoisting:
    def test_invariant_fields_hoisted(self):
        module = optimized(
            """
            func.func @f(%ptr : i64) -> () {
              %c0 = arith.constant 0 : index
              %c1 = arith.constant 1 : index
              %c8 = arith.constant 8 : index
              scf.for %i = %c0 to %c8 step %c1 {
                %s = accfg.setup on "toyvec" ("ptr_x" = %ptr : i64, "n" = %i : index) : !accfg.state<"toyvec">
                %t = accfg.launch %s : !accfg.token<"toyvec">
                accfg.await %t
                scf.yield
              }
              func.return
            }
            """
        )
        loop = next(op for op in module.walk() if isinstance(op, scf.ForOp))
        in_loop = [op for op in loop.body.ops if isinstance(op, accfg.SetupOp)]
        assert len(in_loop) == 1
        assert in_loop[0].field_names == ("n",)
        pre_loop = [s for s in setups(module) if s.parent is not loop.body]
        assert len(pre_loop) == 1
        assert pre_loop[0].field_names == ("ptr_x",)

    def test_fully_invariant_setup_leaves_empty_loop_setup(self):
        module = optimized(
            """
            func.func @f(%ptr : i64) -> () {
              %c0 = arith.constant 0 : index
              %c1 = arith.constant 1 : index
              %c8 = arith.constant 8 : index
              scf.for %i = %c0 to %c8 step %c1 {
                %s = accfg.setup on "toyvec" ("ptr_x" = %ptr : i64) : !accfg.state<"toyvec">
                %t = accfg.launch %s : !accfg.token<"toyvec">
                accfg.await %t
                scf.yield
              }
              func.return
            }
            """
        )
        loop = next(op for op in module.walk() if isinstance(op, scf.ForOp))
        in_loop = [op for op in loop.body.ops if isinstance(op, accfg.SetupOp)]
        # The in-loop setup became empty and was removed entirely.
        assert in_loop == []

    def test_two_writers_of_field_not_hoisted(self):
        module = optimized(
            """
            func.func @f(%a : i64, %b : i64) -> () {
              %c0 = arith.constant 0 : index
              %c1 = arith.constant 1 : index
              %c8 = arith.constant 8 : index
              scf.for %i = %c0 to %c8 step %c1 {
                %s1 = accfg.setup on "toyvec" ("n" = %a : i64) : !accfg.state<"toyvec">
                %t1 = accfg.launch %s1 : !accfg.token<"toyvec">
                accfg.await %t1
                %s2 = accfg.setup on "toyvec" ("n" = %b : i64) : !accfg.state<"toyvec">
                %t2 = accfg.launch %s2 : !accfg.token<"toyvec">
                accfg.await %t2
                scf.yield
              }
              func.return
            }
            """
        )
        loop = next(op for op in module.walk() if isinstance(op, scf.ForOp))
        in_loop = [op for op in loop.body.ops if isinstance(op, accfg.SetupOp)]
        # Neither write of "n" may leave the loop (two launches with
        # different parameters, Section 5.4.1)... but dedup may still drop
        # second-iteration rewrites; both setups must remain with "n".
        assert len(in_loop) == 2
        assert all(s.field_names == ("n",) for s in in_loop)


    def test_post_launch_writer_not_hoisted(self):
        """Regression (found by fuzzing): a loop-invariant field written
        *after* the launch supplies the next iteration — iteration 0's
        launch must keep seeing the pre-loop register contents, so the
        write must not move in front of the loop."""
        module = optimized(
            """
            func.func @f(%a : i64, %b : i64) -> () {
              %c0 = arith.constant 0 : index
              %c1 = arith.constant 1 : index
              %c2 = arith.constant 2 : index
              %s0 = accfg.setup on "toyvec" ("op" = %a : i64) : !accfg.state<"toyvec">
              scf.for %i = %c0 to %c2 step %c1 {
                %s1 = accfg.setup on "toyvec" () : !accfg.state<"toyvec">
                %t = accfg.launch %s1 : !accfg.token<"toyvec">
                accfg.await %t
                %s2 = accfg.setup on "toyvec" ("op" = %b : i64) : !accfg.state<"toyvec">
                scf.yield
              }
              func.return
            }
            """
        )
        loop = next(op for op in module.walk() if isinstance(op, scf.ForOp))
        fn = module.regions[0].block.ops[0]
        b = fn.body.args[1]
        writers = [
            s
            for s in setups(module)
            if any(name == "op" and value is b for name, value in s.fields)
        ]
        assert writers, "the op=%b write disappeared entirely"
        for writer in writers:
            assert writer.parent is loop.body
            launch = next(
                op for op in loop.body.ops if isinstance(op, accfg.LaunchOp)
            )
            assert launch.is_before_in_block(writer)


class TestBranchHoisting:
    def test_setup_after_if_hoisted_into_branches(self):
        module = parse_module(
            """
            func.func @f(%c : i1, %x : i64, %y : i64) -> () {
              %s0 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              scf.if %c {
                %s1 = accfg.setup on "toyvec" ("op" = %y : i64) : !accfg.state<"toyvec">
                scf.yield
              } else {
                scf.yield
              }
              %s2 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              %t = accfg.launch %s2 : !accfg.token<"toyvec">
              func.return
            }
            """
        )
        TraceStatesPass().apply(module)
        changed = hoist_setups_into_branches(module)
        assert changed
        verify_operation(module)
        if_op = next(op for op in module.walk() if isinstance(op, scf.IfOp))
        then_setups = [
            op for op in if_op.then_block.ops if isinstance(op, accfg.SetupOp)
        ]
        else_setups = [
            op for op in if_op.else_block.ops if isinstance(op, accfg.SetupOp)
        ]
        assert len(then_setups) == 2  # original + hoisted clone
        assert len(else_setups) == 1  # hoisted clone

    def test_full_dedup_through_branches(self):
        """After hoisting, the redundant "n" write disappears from the path
        that did not change it."""
        module = optimized(
            """
            func.func @f(%c : i1, %x : i64, %y : i64) -> () {
              %s0 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              %t0 = accfg.launch %s0 : !accfg.token<"toyvec">
              scf.if %c {
                %s1 = accfg.setup on "toyvec" ("n" = %y : i64) : !accfg.state<"toyvec">
                %t1 = accfg.launch %s1 : !accfg.token<"toyvec">
                scf.yield
              } else {
                scf.yield
              }
              %s2 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              %t2 = accfg.launch %s2 : !accfg.token<"toyvec">
              func.return
            }
            """
        )
        if_op = next(op for op in module.walk() if isinstance(op, scf.IfOp))
        else_setups = [
            op for op in if_op.else_block.ops if isinstance(op, accfg.SetupOp)
        ]
        # In the else branch the register still holds %x: clone deduped away.
        assert sum(len(s.fields) for s in else_setups) == 0


class TestMergeAndCleanup:
    def test_consecutive_setups_merged(self):
        module = parse_module(
            """
            func.func @f(%x : i64, %y : i64) -> () {
              %s1 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              %s2 = accfg.setup on "toyvec" from %s1 ("op" = %y : i64) : !accfg.state<"toyvec">
              %t = accfg.launch %s2 : !accfg.token<"toyvec">
              func.return
            }
            """
        )
        changed = merge_consecutive_setups(module)
        assert changed
        verify_operation(module)
        all_setups = setups(module)
        assert len(all_setups) == 1
        assert set(all_setups[0].field_names) == {"n", "op"}

    def test_merge_override_keeps_later_value(self):
        module = parse_module(
            """
            func.func @f(%x : i64, %y : i64) -> () {
              %s1 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              %s2 = accfg.setup on "toyvec" from %s1 ("n" = %y : i64) : !accfg.state<"toyvec">
              %t = accfg.launch %s2 : !accfg.token<"toyvec">
              func.return
            }
            """
        )
        merge_consecutive_setups(module)
        merged = setups(module)[0]
        assert len(merged.fields) == 1
        assert merged.field_value("n").name_hint == "y"

    def test_observed_intermediate_state_not_merged(self):
        module = parse_module(
            """
            func.func @f(%x : i64, %y : i64) -> () {
              %s1 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              %t1 = accfg.launch %s1 : !accfg.token<"toyvec">
              %s2 = accfg.setup on "toyvec" from %s1 ("n" = %y : i64) : !accfg.state<"toyvec">
              %t2 = accfg.launch %s2 : !accfg.token<"toyvec">
              func.return
            }
            """
        )
        assert not merge_consecutive_setups(module)
        assert len(setups(module)) == 2


class TestKnownFieldsAnalysis:
    def test_chain_accumulates(self):
        module = parse_module(
            """
            func.func @f(%x : i64, %y : i64) -> () {
              %s1 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              %s2 = accfg.setup on "toyvec" from %s1 ("op" = %y : i64) : !accfg.state<"toyvec">
              func.return
            }
            """
        )
        s1, s2 = setups(module)
        analysis = KnownFieldsAnalysis("toyvec")
        known = analysis.known(s2.out_state)
        assert set(known.fields) == {"n", "op"}

    def test_loop_carried_intersection(self):
        module = parse_module(
            """
            func.func @f(%x : i64) -> () {
              %c0 = arith.constant 0 : index
              %c1 = arith.constant 1 : index
              %c8 = arith.constant 8 : index
              %s0 = accfg.setup on "toyvec" ("ptr_x" = %x : i64, "n" = %x : i64) : !accfg.state<"toyvec">
              %r = scf.for %i = %c0 to %c8 step %c1 iter_args(%st = %s0) -> (!accfg.state<"toyvec">) {
                %s = accfg.setup on "toyvec" from %st ("n" = %i : index) : !accfg.state<"toyvec">
                scf.yield %s : !accfg.state<"toyvec">
              }
              func.return
            }
            """
        )
        loop = next(op for op in module.walk() if isinstance(op, scf.ForOp))
        analysis = KnownFieldsAnalysis("toyvec")
        known = analysis.known(loop.iter_args[0])
        # ptr_x survives the back edge; n is overwritten with a body value.
        assert "ptr_x" in known.fields
        assert "n" not in known.fields

    def test_query_order_does_not_poison_cache(self):
        """Regression (found by fuzzing): resolving a nested loop-carried
        state first must not cache the optimistic partial results of its
        cycle — a later query for the outer loop's result would then claim
        the body's ``ptr_y`` overwrite never happened."""
        module = parse_module(
            """
            func.func @f(%x : i64, %y : i64) -> () {
              %c0 = arith.constant 0 : index
              %c1 = arith.constant 1 : index
              %s0 = accfg.setup on "toyvec" ("ptr_y" = %x : i64) : !accfg.state<"toyvec">
              %r = scf.for %i = %c0 to %c1 step %c1 iter_args(%st = %s0) -> (!accfg.state<"toyvec">) {
                %s1 = accfg.setup on "toyvec" from %st ("ptr_y" = %y : i64) : !accfg.state<"toyvec">
                %r2 = scf.for %j = %c0 to %c1 step %c1 iter_args(%st2 = %s1) -> (!accfg.state<"toyvec">) {
                  %s2 = accfg.setup on "toyvec" from %st2 ("op" = %j : index) : !accfg.state<"toyvec">
                  scf.yield %s2 : !accfg.state<"toyvec">
                }
                scf.yield %r2 : !accfg.state<"toyvec">
              }
              func.return
            }
            """
        )
        loops = [op for op in module.walk() if isinstance(op, scf.ForOp)]
        outer = next(loop for loop in loops if loop.parent_op.name == "func.func")
        inner = next(loop for loop in loops if loop is not outer)
        fresh = KnownFieldsAnalysis("toyvec")
        expected = fresh.known(outer.results[0])
        assert "ptr_y" not in expected.fields  # %x vs %y disagree
        primed = KnownFieldsAnalysis("toyvec")
        primed.known(inner.iter_args[0])  # the poisoning query order
        assert primed.known(outer.results[0]).fields == expected.fields
