"""Tests for the scf dialect: for/if/yield structure and helpers."""

import pytest

from repro.dialects import arith, scf
from repro.ir import Block, VerifyError, i1, i64, index


def bounds():
    lb = arith.ConstantOp.create(0, index)
    ub = arith.ConstantOp.create(8, index)
    step = arith.ConstantOp.create(1, index)
    return lb, ub, step


class TestForOp:
    def test_create_default_body(self):
        lb, ub, step = bounds()
        loop = scf.ForOp.create(lb.result, ub.result, step.result)
        assert loop.induction_var.type == index
        assert loop.iter_args == ()
        assert loop.results == ()

    def test_iter_args_threading(self):
        lb, ub, step = bounds()
        init = arith.ConstantOp.create(0, i64)
        loop = scf.ForOp.create(lb.result, ub.result, step.result, [init.result])
        assert len(loop.iter_args) == 1
        assert loop.iter_args[0].type == i64
        assert loop.results[0].type == i64
        assert loop.iter_inits == (init.result,)

    def test_accessors(self):
        lb, ub, step = bounds()
        loop = scf.ForOp.create(lb.result, ub.result, step.result)
        assert loop.lb is lb.result
        assert loop.ub is ub.result
        assert loop.step is step.result

    def test_yield_op_accessor(self):
        lb, ub, step = bounds()
        loop = scf.ForOp.create(lb.result, ub.result, step.result)
        loop.body.add_op(scf.YieldOp.create())
        assert isinstance(loop.yield_op, scf.YieldOp)

    def test_yield_missing_raises(self):
        lb, ub, step = bounds()
        loop = scf.ForOp.create(lb.result, ub.result, step.result)
        with pytest.raises(VerifyError):
            loop.yield_op

    def test_add_iter_arg(self):
        lb, ub, step = bounds()
        loop = scf.ForOp.create(lb.result, ub.result, step.result)
        inner = arith.ConstantOp.create(3, i64)
        loop.body.add_ops([inner, scf.YieldOp.create()])
        init = arith.ConstantOp.create(0, i64)
        arg, result = loop.add_iter_arg(init.result, yielded=inner.result, name_hint="x")
        assert arg.type == i64 and result.type == i64
        assert loop.yield_op.operands == (inner.result,)
        loop.verify_()

    def test_verify_iter_mismatch(self):
        lb, ub, step = bounds()
        init = arith.ConstantOp.create(0, i64)
        loop = scf.ForOp.create(lb.result, ub.result, step.result, [init.result])
        loop.body.add_op(scf.YieldOp.create())  # yields nothing, expects 1
        with pytest.raises(VerifyError):
            loop.verify_()

    def test_verify_iv_type(self):
        lb, ub, step = bounds()
        body = Block(arg_types=[i64])  # wrong iv type
        body.add_op(scf.YieldOp.create())
        loop = scf.ForOp(
            operands=[lb.result, ub.result, step.result],
            result_types=[],
            regions=[__import__("repro.ir", fromlist=["Region"]).Region([body])],
        )
        with pytest.raises(VerifyError):
            loop.verify_()


class TestConstantTripCount:
    """One rule for a loop's constant trip count: ``ceil((ub - lb) / step)``
    clamped at zero, for constant bounds and a positive constant step."""

    def loop(self, lb, ub, step):
        consts = [arith.ConstantOp.create(v, index) for v in (lb, ub, step)]
        return scf.ForOp.create(*(c.result for c in consts))

    @pytest.mark.parametrize("step", [1, 2, 3, 7])
    @pytest.mark.parametrize("lb", [-4, 0, 3])
    def test_counts_match_the_floor_division_form(self, lb, step):
        for ub in range(-6, 12):
            expected = max(0, -((lb - ub) // step))
            assert scf.constant_trip_count(self.loop(lb, ub, step)) == expected

    @pytest.mark.parametrize("step", [0, -1])
    def test_nonpositive_step_has_no_count(self, step):
        assert scf.constant_trip_count(self.loop(0, 8, step)) is None

    def test_runtime_bound_has_no_count(self):
        lb, _, step = bounds()
        ub = Block(arg_types=[index]).args[0]
        loop = scf.ForOp.create(lb.result, ub, step.result)
        assert scf.constant_trip_count(loop) is None


class TestIfOp:
    def cond(self):
        return arith.ConstantOp.create(1, i1)

    def test_result_free_if_without_else(self):
        op = scf.IfOp.create(self.cond().result)
        op.then_block.add_op(scf.YieldOp.create())
        assert not op.has_else
        op.verify_()

    def test_if_with_results_requires_else(self):
        op = scf.IfOp.create(self.cond().result, [i64])
        a = arith.ConstantOp.create(1, i64)
        b = arith.ConstantOp.create(2, i64)
        op.then_block.add_ops([a, scf.YieldOp.create([a.result])])
        op.else_block.add_ops([b, scf.YieldOp.create([b.result])])
        op.verify_()

    def test_yield_arity_checked(self):
        op = scf.IfOp.create(self.cond().result, [i64])
        op.then_block.add_op(scf.YieldOp.create())
        op.else_block.add_op(scf.YieldOp.create())
        with pytest.raises(VerifyError):
            op.verify_()

    def test_yield_type_checked(self):
        op = scf.IfOp.create(self.cond().result, [i64])
        a = arith.ConstantOp.create(1, index)
        op.then_block.add_ops([a, scf.YieldOp.create([a.result])])
        b = arith.ConstantOp.create(1, index)
        op.else_block.add_ops([b, scf.YieldOp.create([b.result])])
        with pytest.raises(VerifyError):
            op.verify_()

    def test_condition_type_checked(self):
        c = arith.ConstantOp.create(1, i64)
        op = scf.IfOp.create(c.result)
        op.then_block.add_op(scf.YieldOp.create())
        with pytest.raises(VerifyError):
            op.verify_()


class TestYield:
    def test_is_terminator(self):
        assert scf.YieldOp.create().is_terminator

    def test_carries_values(self):
        c = arith.ConstantOp.create(1, i64)
        y = scf.YieldOp.create([c.result])
        assert y.operands == (c.result,)
