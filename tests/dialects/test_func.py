"""Tests for the func dialect."""

import pytest

from repro.dialects import arith, func
from repro.ir import Block, FunctionType, VerifyError, i64, parse_module


class TestFuncOp:
    def test_create_with_default_body(self):
        fn = func.FuncOp.create("f", FunctionType.from_lists([i64], [i64]))
        assert not fn.is_declaration
        assert fn.sym_name == "f"
        assert [a.type for a in fn.args] == [i64]

    def test_declaration(self):
        fn = func.FuncOp.declaration("ext", FunctionType.from_lists([i64], []))
        assert fn.is_declaration

    def test_verify_checks_signature(self):
        body = Block(arg_types=[i64])
        body.add_op(func.ReturnOp.create())
        fn = func.FuncOp.create("f", FunctionType.from_lists([i64], []), body)
        fn.verify_()

    def test_verify_arg_mismatch(self):
        body = Block()  # no args, signature says one
        body.add_op(func.ReturnOp.create())
        fn = func.FuncOp.create("f", FunctionType.from_lists([], []), body)
        fn.attributes["function_type"] = FunctionType.from_lists([i64], [])
        with pytest.raises(VerifyError):
            fn.verify_()

    def test_verify_return_types(self):
        c = arith.ConstantOp.create(1, i64)
        body = Block([c, func.ReturnOp.create([c.result])])
        fn = func.FuncOp.create("f", FunctionType.from_lists([], [i64]), body)
        fn.verify_()

    def test_verify_wrong_return_types(self):
        body = Block([func.ReturnOp.create()])
        fn = func.FuncOp.create("f", FunctionType.from_lists([], [i64]), body)
        with pytest.raises(VerifyError):
            fn.verify_()


class TestFuncPlacement:
    """A function verifies only directly inside a module (or detached)."""

    def test_detached_function_verifies(self):
        body = Block([func.ReturnOp.create()])
        func.FuncOp.create("f", FunctionType.from_lists([], []), body).verify()

    def test_module_level_functions_verify(self):
        parse_module(
            """
            func.func @g() -> () {
              func.return
            }
            func.func @main() -> () {
              func.call @g() : () -> ()
              func.return
            }
            """
        ).verify()

    def test_function_in_a_loop_body_is_rejected(self):
        module = parse_module(
            """
            func.func @main() -> () {
              %c0 = arith.constant 0 : index
              %c1 = arith.constant 1 : index
              scf.for %i = %c0 to %c1 step %c1 {
                func.func @inner() -> () {
                  func.return
                }
                scf.yield
              }
              func.return
            }
            """
        )
        with pytest.raises(VerifyError, match="inside builtin.module, not 'scf.for'"):
            module.verify()

    def test_function_in_a_function_is_rejected(self):
        inner = func.FuncOp.create(
            "inner", FunctionType.from_lists([], []), Block([func.ReturnOp.create()])
        )
        body = Block([inner, func.ReturnOp.create()])
        outer = func.FuncOp.create("outer", FunctionType.from_lists([], []), body)
        with pytest.raises(VerifyError, match="not 'func.func'"):
            outer.verify()


class TestCallOp:
    def test_callee_accessor(self):
        call = func.CallOp.create("target", [], [i64])
        assert call.callee == "target"
        assert call.results[0].type == i64
        call.verify_()

    def test_missing_callee_rejected(self):
        call = func.CallOp(result_types=[i64])
        with pytest.raises(VerifyError):
            call.verify_()


class TestReturnOp:
    def test_terminator(self):
        assert func.ReturnOp.create().is_terminator
