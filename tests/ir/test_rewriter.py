"""Tests for structural rewriting and the greedy pattern driver."""

import pytest

from repro.dialects import arith, scf
from repro.ir import (
    Block,
    IRError,
    Operation,
    PatternRewriter,
    RewritePattern,
    Rewriter,
    drive_patterns,
    i64,
)


def block_with_chain():
    block = Block()
    c1 = arith.ConstantOp.create(1, i64)
    c2 = arith.ConstantOp.create(2, i64)
    add = arith.AddiOp.create(c1.result, c2.result)
    mul = arith.MuliOp.create(add.result, add.result)
    block.add_ops([c1, c2, add, mul])
    return block, c1, c2, add, mul


class TestReplaceOp:
    def test_replace_with_new_op(self):
        block, c1, c2, add, mul = block_with_chain()
        sub = arith.SubiOp.create(c1.result, c2.result)
        Rewriter.replace_op(add, sub)
        assert mul.operands == (sub.result, sub.result)
        assert add.parent is None

    def test_replace_values_reroutes(self):
        block, c1, c2, add, mul = block_with_chain()
        Rewriter.replace_values(add, [c1.result])
        assert mul.operands == (c1.result, c1.result)

    def test_result_count_checked(self):
        block, c1, c2, add, mul = block_with_chain()
        with pytest.raises(IRError, match="results"):
            Rewriter.replace_op(add, [], new_results=[c1.result, c2.result])

    def test_none_result_requires_unused(self):
        block, c1, c2, add, mul = block_with_chain()
        with pytest.raises(IRError):
            Rewriter.replace_op(add, [], new_results=[None])


class TestMove:
    def test_move_before(self):
        block, c1, c2, add, mul = block_with_chain()
        Rewriter.move_op_before(c2, c1)
        assert block.index_of(c2) == 0

    def test_move_after(self):
        block, c1, c2, add, mul = block_with_chain()
        Rewriter.move_op_after(c1, add)
        # dominance now broken, but the structural move itself works
        assert block.index_of(c1) == block.index_of(add) + 1


class TestInlineBlock:
    def test_inline_substitutes_args(self):
        inner = Block(arg_types=[i64])
        double = arith.AddiOp.create(inner.args[0], inner.args[0])
        inner.add_op(double)

        outer = Block()
        c = arith.ConstantOp.create(21, i64)
        anchor = arith.MuliOp.create(c.result, c.result)
        outer.add_ops([c, anchor])
        Rewriter.inline_block_before(inner, anchor, [c.result])
        assert double.parent is outer
        assert double.operands == (c.result, c.result)

    def test_arg_count_checked(self):
        inner = Block(arg_types=[i64])
        outer = Block()
        anchor = arith.ConstantOp.create(1, i64)
        outer.add_op(anchor)
        with pytest.raises(IRError):
            Rewriter.inline_block_before(inner, anchor, [])


class ReplaceAddWithSub(RewritePattern):
    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not isinstance(op, arith.AddiOp):
            return False
        sub = arith.SubiOp.create(op.lhs, op.rhs)
        rewriter.replace_op(op, sub)
        return True


class TestGreedyDriver:
    def test_applies_to_fixpoint(self):
        block, *_ = block_with_chain()
        wrapper = _wrap(block)
        changed = drive_patterns(wrapper, [ReplaceAddWithSub()]).changed
        assert changed
        names = [op.name for op in block.ops]
        assert "arith.addi" not in names
        assert "arith.subi" in names

    def test_no_change_returns_false(self):
        block = Block([arith.ConstantOp.create(1, i64)])
        wrapper = _wrap(block)
        assert not drive_patterns(wrapper, [ReplaceAddWithSub()]).changed

    def test_max_iterations_bounds_runaway(self):
        class Flipper(RewritePattern):
            """Alternates addi <-> subi forever."""

            def match_and_rewrite(self, op, rewriter):
                if isinstance(op, arith.AddiOp):
                    rewriter.replace_op(op, arith.SubiOp.create(op.lhs, op.rhs))
                    return True
                if isinstance(op, arith.SubiOp):
                    rewriter.replace_op(op, arith.AddiOp.create(op.lhs, op.rhs))
                    return True
                return False

        block, *_ = block_with_chain()
        wrapper = _wrap(block)
        # Terminates despite the non-converging pattern.
        assert drive_patterns(wrapper, [Flipper()], max_iterations=5).changed


def _wrap(block: Block) -> Operation:
    from repro.ir import Region, UnregisteredOp

    return UnregisteredOp("test.wrapper", regions=[Region([block])])


# ---------------------------------------------------------------------------
# Worklist driver: indexing, incrementality, and driver selection
# ---------------------------------------------------------------------------

from repro.ir import (  # noqa: E402 - grouped with the tests that use them
    GreedyPatternDriver,
    PatternDriverWarning,
    Region,
    UnregisteredOp,
    i1,
    print_operation,
)
from repro.ir.rewriter import MAX_PATTERN_ITERATIONS  # noqa: E402
from repro.passes.canonicalize import (  # noqa: E402
    DEFAULT_PATTERNS,
    DeadPureOpPattern,
    FoldPattern,
    SimplifyConstantIfPattern,
)
from tests.properties.sweep_reference import _sweep_patterns  # noqa: E402


class AddToSub(RewritePattern):
    root_ops = (arith.AddiOp,)

    def match_and_rewrite(self, op, rewriter):
        if not isinstance(op, arith.AddiOp) or op.parent is None:
            return False
        rewriter.replace_op(op, arith.SubiOp.create(op.lhs, op.rhs))
        return True


class MulOfSubsToLhs(RewritePattern):
    """mul(a, b) -> a, but only once both operands come from subi ops."""

    root_ops = (arith.MuliOp,)

    def match_and_rewrite(self, op, rewriter):
        if not isinstance(op, arith.MuliOp) or op.parent is None:
            return False
        if not all(
            isinstance(v.owner, arith.SubiOp) for v in op.operands
        ):
            return False
        rewriter.replace_values(op, [op.lhs])
        return True


class RecordingAddPattern(RewritePattern):
    """Never rewrites; records every addi the driver offers it."""

    root_ops = (arith.AddiOp,)

    def __init__(self):
        self.seen = []

    def match_and_rewrite(self, op, rewriter):
        self.seen.append(op)
        return False


class TestPatternIndex:
    def test_root_ops_limits_candidates(self):
        pattern = SimplifyConstantIfPattern()
        driver = GreedyPatternDriver([pattern])
        add = arith.AddiOp.create(
            arith.ConstantOp.create(1, i64).result,
            arith.ConstantOp.create(2, i64).result,
        )
        cond = arith.ConstantOp.create(1, i1)
        if_op = scf.IfOp.create(cond.result)
        assert driver._patterns_for(add) == ()
        assert driver._patterns_for(if_op) == (pattern,)

    def test_applies_to_filters_by_class(self):
        driver = GreedyPatternDriver([FoldPattern()])
        # scf.yield has no fold override, so FoldPattern never indexes it.
        assert driver._patterns_for(scf.YieldOp.create()) == ()

    def test_index_entries_are_cached(self):
        driver = GreedyPatternDriver([AddToSub()])
        add = arith.AddiOp.create(
            arith.ConstantOp.create(1, i64).result,
            arith.ConstantOp.create(2, i64).result,
        )
        first = driver._patterns_for(add)
        assert driver._patterns_for(add) is first
        assert arith.AddiOp in driver._index

    def test_unregistered_roots_are_keyed_by_name(self):
        class NamedRoot(RewritePattern):
            root_ops = ("test.target",)

            def match_and_rewrite(self, op, rewriter):
                return False

        driver = GreedyPatternDriver([NamedRoot()])
        target = UnregisteredOp("test.target")
        other = UnregisteredOp("test.other")
        assert len(driver._patterns_for(target)) == 1
        assert driver._patterns_for(other) == ()


class TestWorklistIncrementality:
    def test_replace_reenqueues_users(self):
        # Seed mul *before* add: mul fails its first match, and can only
        # succeed if replacing add re-enqueues its users.
        block, c1, c2, add, mul = block_with_chain()
        wrapper = _wrap(block)
        driver = GreedyPatternDriver([AddToSub(), MulOfSubsToLhs()])
        result = driver.run(wrapper, seeds=[mul, add])
        assert result.changed
        names = [op.name for op in block.ops]
        assert "arith.muli" not in names
        assert "arith.subi" in names

    def test_erase_reenqueues_operand_definers(self):
        # Erasing the unused mul makes add dead, which makes the constants
        # dead: the cascade only happens if erasure re-enqueues definers.
        block, *_ = block_with_chain()
        wrapper = _wrap(block)
        assert drive_patterns(wrapper, [DeadPureOpPattern()]).changed
        assert list(block.ops) == []

    def test_inserted_ops_are_processed(self):
        class MulToAdd(RewritePattern):
            root_ops = (arith.MuliOp,)

            def match_and_rewrite(self, op, rewriter):
                if not isinstance(op, arith.MuliOp) or op.parent is None:
                    return False
                rewriter.replace_op(op, arith.AddiOp.create(op.lhs, op.rhs))
                return True

        block = Block()
        c2 = arith.ConstantOp.create(2, i64)
        mul = arith.MuliOp.create(c2.result, c2.result)
        sink = scf.YieldOp.create([mul.result])
        block.add_ops([c2, mul, sink])
        wrapper = _wrap(block)
        # MulToAdd inserts a fresh addi; FoldPattern must still see it.
        assert drive_patterns(wrapper, [MulToAdd(), FoldPattern()]).changed
        names = [op.name for op in block.ops]
        assert "arith.addi" not in names and "arith.muli" not in names
        assert isinstance(sink.operands[0].owner, arith.ConstantOp)
        assert sink.operands[0].owner.value == 4

    def test_in_place_rewrite_reenqueues_the_op(self):
        class SwapConstantLhs(RewritePattern):
            """c + x -> x + c, in place and without notify_changed: only
            the driver's re-push of the rewritten op can revisit it."""

            root_ops = (arith.AddiOp,)

            def match_and_rewrite(self, op, rewriter):
                if not isinstance(op, arith.AddiOp):
                    return False
                lhs, rhs = op.lhs, op.rhs
                if arith.constant_value(lhs) is None:
                    return False
                if arith.constant_value(rhs) is not None:
                    return False
                op.set_operand(0, rhs)
                op.set_operand(1, lhs)
                return True

        class AddZeroRhs(RewritePattern):
            root_ops = (arith.AddiOp,)

            def match_and_rewrite(self, op, rewriter):
                if not isinstance(op, arith.AddiOp):
                    return False
                if arith.constant_value(op.rhs) != 0:
                    return False
                rewriter.replace_values(op, [op.lhs])
                return True

        def normal_form(driver):
            block = Block(arg_types=[i64])
            zero = arith.ConstantOp.create(0, i64)
            add = arith.AddiOp.create(zero.result, block.args[0])
            block.add_ops([zero, add, scf.YieldOp.create([add.result])])
            wrapper = _wrap(block)
            driver(wrapper, [SwapConstantLhs(), AddZeroRhs()], 10)
            return print_operation(wrapper)

        worklist = normal_form(drive_patterns)
        assert worklist == normal_form(_sweep_patterns)
        assert "arith.addi" not in worklist

    def test_inserted_region_ops_are_enqueued(self):
        class MarkerToIf(RewritePattern):
            """Replace a marker with an scf.if whose branch adds two
            constants: the nested addi is only reachable through the
            walk of the inserted op's regions."""

            root_ops = ("test.marker",)

            def match_and_rewrite(self, op, rewriter):
                if getattr(op, "op_name", None) != "test.marker":
                    return False
                then = Block()
                c1 = arith.ConstantOp.create(1, i64)
                c2 = arith.ConstantOp.create(2, i64)
                add = arith.AddiOp.create(c1.result, c2.result)
                sink = UnregisteredOp("test.sink", operands=[add.result])
                then.add_ops([c1, c2, add, sink, scf.YieldOp.create()])
                cond = op.operands[0]
                rewriter.replace_op(op, scf.IfOp.create(cond, then_block=then))
                return True

        def normal_form(driver):
            block = Block(arg_types=[i1])
            block.add_op(UnregisteredOp("test.marker", operands=[block.args[0]]))
            wrapper = _wrap(block)
            driver(wrapper, [MarkerToIf(), FoldPattern()], 10)
            return print_operation(wrapper)

        worklist = normal_form(drive_patterns)
        assert worklist == normal_form(_sweep_patterns)
        assert "arith.addi" not in worklist

    def test_erased_subtree_ops_are_skipped(self):
        recorder = RecordingAddPattern()
        then = Block()
        t1 = arith.ConstantOp.create(1, i64)
        t2 = arith.ConstantOp.create(2, i64)
        inner_add = arith.AddiOp.create(t1.result, t2.result)
        then.add_ops([t1, t2, inner_add, scf.YieldOp.create()])
        block = Block()
        cond = arith.ConstantOp.create(0, i1)
        if_op = scf.IfOp.create(cond.result, then_block=then)
        block.add_ops([cond, if_op])
        wrapper = _wrap(block)
        # The if is popped first (walk order) and erased wholesale; the
        # already-queued inner addi must be skipped, not offered to patterns.
        drive_patterns(wrapper, [SimplifyConstantIfPattern(), recorder])
        assert inner_add not in recorder.seen

    def test_nonconvergence_warns(self):
        class Flipper(RewritePattern):
            def match_and_rewrite(self, op, rewriter):
                if isinstance(op, arith.AddiOp):
                    rewriter.replace_op(op, arith.SubiOp.create(op.lhs, op.rhs))
                    return True
                if isinstance(op, arith.SubiOp):
                    rewriter.replace_op(op, arith.AddiOp.create(op.lhs, op.rhs))
                    return True
                return False

        for driver in (drive_patterns, _sweep_patterns):
            block, *_ = block_with_chain()
            wrapper = _wrap(block)
            with pytest.warns(PatternDriverWarning):
                driver(wrapper, [Flipper()], 3)

    def test_report_names_changed_scopes_only(self):
        fn_blocks = [Block(), Block()]
        functions = [
            UnregisteredOp(f"test.fn{i}", regions=[Region([b])])
            for i, b in enumerate(fn_blocks)
        ]
        touched_block = fn_blocks[0]
        c1 = arith.ConstantOp.create(1, i64)
        c2 = arith.ConstantOp.create(2, i64)
        add = arith.AddiOp.create(c1.result, c2.result)
        touched_block.add_ops([c1, c2, add])
        fn_blocks[1].add_op(arith.ConstantOp.create(3, i64))
        outer = Block(functions)
        root = UnregisteredOp("test.module", regions=[Region([outer])])
        result = GreedyPatternDriver([AddToSub()]).run(root)
        assert result.report() == [functions[0]]


class TestDriverSelection:
    def test_drivers_agree_on_default_patterns(self):
        def canonicalized(driver):
            block, *_ = block_with_chain()
            sink = scf.YieldOp.create([block.ops[-1].results[0]])
            block.add_op(sink)
            wrapper = _wrap(block)
            driver(wrapper, DEFAULT_PATTERNS, MAX_PATTERN_ITERATIONS)
            return print_operation(wrapper)

        assert canonicalized(drive_patterns) == canonicalized(_sweep_patterns)

    def test_driver_instances_are_cached(self):
        from repro.ir.rewriter import _cached_driver

        patterns = (FoldPattern(),)
        assert _cached_driver(patterns, 10) is _cached_driver(patterns, 10)
