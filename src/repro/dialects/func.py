"""The func dialect: functions, calls, and returns.

Function calls are optimization barriers for accelerator state unless
annotated with ``#accfg.effects<none>`` (paper, Section 5.1): the callee may
reconfigure the accelerator, so state tracing must assume the configuration
registers are clobbered.
"""

from __future__ import annotations

from ..ir.attributes import FunctionType, StringAttr, SymbolRefAttr, TypeAttribute
from ..ir.block import Block, Region
from ..ir.operation import Operation, VerifyError
from ..ir.printer import Printer
from ..ir.registry import register_custom_parser, register_op
from ..ir.ssa import BlockArgument, SSAValue
from ..ir.traits import IsolatedFromAbove, IsTerminator
from .builtin import ModuleOp


@register_op
class FuncOp(Operation):
    """A function definition (or declaration when the body is empty)."""

    name = "func.func"
    traits = frozenset([IsolatedFromAbove()])
    custom_printed_attrs = frozenset(["sym_name", "function_type"])

    @staticmethod
    def create(
        sym_name: str,
        function_type: FunctionType,
        body: Block | None = None,
    ) -> "FuncOp":
        if body is None:
            body = Block(arg_types=list(function_type.inputs))
        op = FuncOp(regions=[Region([body])])
        op.attributes["sym_name"] = StringAttr(sym_name)
        op.attributes["function_type"] = function_type
        return op

    @staticmethod
    def declaration(sym_name: str, function_type: FunctionType) -> "FuncOp":
        op = FuncOp(regions=[Region([])])
        op.attributes["sym_name"] = StringAttr(sym_name)
        op.attributes["function_type"] = function_type
        return op

    @property
    def sym_name(self) -> str:
        attr = self.attributes["sym_name"]
        assert isinstance(attr, StringAttr)
        return attr.value

    @property
    def function_type(self) -> FunctionType:
        attr = self.attributes["function_type"]
        assert isinstance(attr, FunctionType)
        return attr

    @property
    def is_declaration(self) -> bool:
        return not self.regions[0].blocks

    @property
    def body(self) -> Block:
        return self.regions[0].block

    @property
    def args(self) -> tuple[BlockArgument, ...]:
        return tuple(self.body.args)

    def verify_(self) -> None:
        if "sym_name" not in self.attributes:
            raise VerifyError("func.func needs a 'sym_name' attribute")
        parent = self.parent_op
        if parent is not None and not isinstance(parent, ModuleOp):
            # Only a module's functions are callable or executable; a
            # detached function still verifies on its own.
            raise VerifyError(
                f"func.func must be directly inside builtin.module, "
                f"not '{parent.name}'"
            )
        if not isinstance(self.attributes.get("function_type"), FunctionType):
            raise VerifyError("func.func needs a 'function_type' attribute")
        if self.is_declaration:
            return
        body = self.body
        if [a.type for a in body.args] != list(self.function_type.inputs):
            raise VerifyError("func.func body arguments must match function type")
        terminator = body.terminator
        if not isinstance(terminator, ReturnOp):
            raise VerifyError("func.func body must end with func.return")
        if [o.type for o in terminator.operands] != list(self.function_type.results):
            raise VerifyError("func.return types must match function results")

    def print_custom(self, printer: Printer) -> None:
        printer.emit(f"func.func @{self.sym_name}(")
        if self.is_declaration:
            printer.emit(", ".join(str(t) for t in self.function_type.inputs))
            printer.emit(") -> (")
            printer.emit(", ".join(str(t) for t in self.function_type.results))
            printer.emit(")")
            return
        for i, arg in enumerate(self.args):
            if i:
                printer.emit(", ")
            printer.print_value(arg)
            printer.emit(f" : {arg.type}")
        printer.emit(") -> (")
        printer.emit(", ".join(str(t) for t in self.function_type.results))
        printer.emit(") ")
        self._print_body(printer)

    def _print_body(self, printer: Printer) -> None:
        printer.emit("{")
        printer._indent += 1
        for op in self.body.ops:
            printer.newline()
            printer.print_op(op)
        printer._indent -= 1
        printer.newline()
        printer.emit("}")


@register_custom_parser("func.func")
def _parse_func(parser) -> FuncOp:
    name_token = parser.expect_kind("AT")
    sym_name = name_token[1][1:]
    parser.expect("(")
    arg_entries: list[tuple[str, TypeAttribute]] = []
    input_types: list[TypeAttribute] = []
    is_declaration = False
    if not parser.accept(")"):
        if parser.current[0] == "PERCENT":
            while True:
                arg_token = parser.expect_kind("PERCENT")
                parser.expect(":")
                arg_type = parser.parse_type()
                arg_entries.append((arg_token[1][1:], arg_type))
                input_types.append(arg_type)
                if not parser.accept(","):
                    break
        else:
            is_declaration = True
            input_types.append(parser.parse_type())
            while parser.accept(","):
                input_types.append(parser.parse_type())
        parser.expect(")")
    parser.expect("->")
    result_types = parser.parse_type_list()
    function_type = FunctionType(tuple(input_types), tuple(result_types))
    if is_declaration or parser.current[1] != "{":
        return FuncOp.declaration(sym_name, function_type)
    region = parser.parse_region(entry_args=arg_entries)
    op = FuncOp(regions=[region])
    op.attributes["sym_name"] = StringAttr(sym_name)
    op.attributes["function_type"] = function_type
    return op


@register_op
class ReturnOp(Operation):
    """Terminator returning values from a function."""

    name = "func.return"
    traits = frozenset([IsTerminator()])

    @staticmethod
    def create(values: list[SSAValue] | tuple[SSAValue, ...] = ()) -> "ReturnOp":
        return ReturnOp(operands=list(values))

    def print_custom(self, printer: Printer) -> None:
        printer.emit("func.return")
        if self.operands:
            printer.emit(" ")
            printer.print_value_list(self.operands)
            printer.emit(" : ")
            printer.emit(", ".join(str(o.type) for o in self.operands))


@register_custom_parser("func.return")
def _parse_return(parser) -> ReturnOp:
    values = []
    if parser.current[0] == "PERCENT":
        values.append(parser.parse_value_use())
        while parser.accept(","):
            values.append(parser.parse_value_use())
        parser.expect(":")
        parser.parse_type()
        while parser.accept(","):
            parser.parse_type()
    return ReturnOp.create(values)


@register_op
class CallOp(Operation):
    """A direct call to a function symbol."""

    name = "func.call"
    custom_printed_attrs = frozenset(["callee"])

    @staticmethod
    def create(
        callee: str,
        arguments: list[SSAValue] | tuple[SSAValue, ...],
        result_types: list[TypeAttribute] | tuple[TypeAttribute, ...],
    ) -> "CallOp":
        op = CallOp(operands=list(arguments), result_types=list(result_types))
        op.attributes["callee"] = SymbolRefAttr(callee)
        return op

    @property
    def callee(self) -> str:
        attr = self.attributes["callee"]
        assert isinstance(attr, SymbolRefAttr)
        return attr.name

    def verify_(self) -> None:
        if not isinstance(self.attributes.get("callee"), SymbolRefAttr):
            raise VerifyError("func.call needs a 'callee' symbol attribute")

    def print_custom(self, printer: Printer) -> None:
        printer.emit(f"func.call @{self.callee}(")
        printer.print_value_list(self.operands)
        printer.emit(") : (")
        printer.emit(", ".join(str(o.type) for o in self.operands))
        printer.emit(") -> (")
        printer.emit(", ".join(str(r.type) for r in self.results))
        printer.emit(")")


@register_custom_parser("func.call")
def _parse_call(parser) -> CallOp:
    callee_token = parser.expect_kind("AT")
    parser.expect("(")
    arguments = parser.parse_value_use_list(")")
    parser.expect(")")
    parser.expect(":")
    function_type = parser.parse_function_type()
    return CallOp.create(callee_token[1][1:], arguments, list(function_type.results))
