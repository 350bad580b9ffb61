"""Tests for IR verification: dominance, terminators, structure."""

import pytest

from repro.dialects import arith, func, scf
from repro.dialects.builtin import ModuleOp
from repro.ir import (
    Block,
    FunctionType,
    VerifyError,
    i64,
    index,
    parse_module,
    verify_operation,
)


def make_func(body_ops, results=()):
    block = Block(body_ops)
    fn = func.FuncOp.create("f", FunctionType.from_lists([], list(results)), block)
    return ModuleOp.create([fn])


class TestDominance:
    def test_use_before_def_rejected(self):
        c = arith.ConstantOp.create(1, i64)
        add = arith.AddiOp.create(c.result, c.result)
        # add placed before c: dominance violation.
        module = make_func([add, c, func.ReturnOp.create()])
        with pytest.raises(VerifyError, match="dominance"):
            verify_operation(module)

    def test_use_after_def_accepted(self):
        c = arith.ConstantOp.create(1, i64)
        add = arith.AddiOp.create(c.result, c.result)
        module = make_func([c, add, func.ReturnOp.create()])
        verify_operation(module)

    def test_region_use_of_enclosing_value(self):
        module = parse_module(
            """
            func.func @f() -> () {
              %c0 = arith.constant 0 : index
              %c1 = arith.constant 1 : index
              %c9 = arith.constant 9 : index
              scf.for %i = %c0 to %c9 step %c1 {
                %x = arith.addi %c1, %i : index
                scf.yield
              }
              func.return
            }
            """
        )
        verify_operation(module)

    def test_value_escaping_region_rejected(self):
        lb = arith.ConstantOp.create(0, index)
        ub = arith.ConstantOp.create(2, index)
        step = arith.ConstantOp.create(1, index)
        loop = scf.ForOp.create(lb.result, ub.result, step.result)
        inner = arith.ConstantOp.create(5, index)
        loop.body.add_ops([inner, scf.YieldOp.create()])
        # Use the loop-internal value outside the loop.
        escape = arith.AddiOp.create(inner.result, inner.result)
        module = make_func(
            [lb, ub, step, loop, escape, func.ReturnOp.create()]
        )
        with pytest.raises(VerifyError, match="dominance"):
            verify_operation(module)

    def test_isolated_from_above_blocks_capture(self):
        c = arith.ConstantOp.create(1, i64)
        # A function body using a value from outside the function.
        ret = func.ReturnOp.create([c.result])
        inner = func.FuncOp.create(
            "inner", FunctionType.from_lists([], [i64]), Block([ret])
        )
        module = ModuleOp.create([c, inner])
        with pytest.raises(VerifyError):
            verify_operation(module)


class TestTerminators:
    def test_terminator_must_be_last(self):
        c = arith.ConstantOp.create(1, i64)
        module = make_func([func.ReturnOp.create(), c])
        with pytest.raises(VerifyError, match="terminator"):
            verify_operation(module)

    def test_missing_return_rejected(self):
        module = make_func([arith.ConstantOp.create(1, i64)])
        with pytest.raises(VerifyError, match="func.return"):
            verify_operation(module)


class TestOpSpecificVerification:
    def test_for_yield_arity_checked(self):
        module = parse_module(
            """
            func.func @f() -> () {
              %c0 = arith.constant 0 : index
              %c1 = arith.constant 1 : index
              scf.for %i = %c0 to %c1 step %c1 {
                scf.yield
              }
              func.return
            }
            """
        )
        loop = next(o for o in module.walk() if isinstance(o, scf.ForOp))
        loop.yield_op.set_operands([loop.induction_var])
        with pytest.raises(VerifyError):
            verify_operation(module)

    def test_return_type_mismatch(self):
        c = arith.ConstantOp.create(1, i64)
        module = make_func([c, func.ReturnOp.create([c.result])], results=[index])
        with pytest.raises(VerifyError):
            verify_operation(module)

    def test_def_use_consistency_checked(self):
        c = arith.ConstantOp.create(1, i64)
        add = arith.AddiOp.create(c.result, c.result)
        module = make_func([c, add, func.ReturnOp.create()])
        # Corrupt the use list directly.
        from repro.ir import Use

        c.result.remove_use(Use(add, 0))
        with pytest.raises(VerifyError, match="def-use"):
            verify_operation(module)

    def test_requantize_addresses_must_be_integers(self):
        import repro.workloads.network  # noqa: F401 - registers net.requantize

        module = parse_module(
            """
            func.func @f() -> () {
              %n = arith.constant 4 : i64
              %s = accfg.setup on "toyvec" ("n" = %n : i64) : !accfg.state<"toyvec">
              net.requantize %s -> %n n(8)
              func.return
            }
            """
        )
        with pytest.raises(VerifyError, match="addresses must be integers"):
            verify_operation(module)

    def test_requantize_accepts_integer_and_index_addresses(self):
        import repro.workloads.network  # noqa: F401 - registers net.requantize

        verify_operation(
            parse_module(
                """
                func.func @f() -> () {
                  %a = arith.constant 64 : i64
                  %b = arith.constant 128 : index
                  net.requantize %a -> %b n(8)
                  func.return
                }
                """
            )
        )
