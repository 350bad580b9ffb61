"""The scf dialect: structured control flow (``for``, ``if``, ``yield``).

The accfg state-tracing pass threads accelerator configuration state through
these ops: ``scf.for`` carries state as an ``iter_args`` entry and ``scf.if``
yields the state of each branch (paper, Section 5.3 and Figure 9).
"""

from __future__ import annotations

from ..ir.attributes import TypeAttribute, i1
from . import arith
from ..ir.block import Block, Region
from ..ir.operation import Operation, VerifyError
from ..ir.printer import Printer
from ..ir.registry import register_custom_parser, register_op
from ..ir.ssa import BlockArgument, OpResult, SSAValue
from ..ir.traits import IsTerminator, Pure


@register_op
class YieldOp(Operation):
    """Terminator of scf regions, forwarding values to the parent op."""

    name = "scf.yield"
    traits = frozenset([IsTerminator(), Pure()])

    @staticmethod
    def create(values: list[SSAValue] | tuple[SSAValue, ...] = ()) -> "YieldOp":
        return YieldOp(operands=list(values))

    def print_custom(self, printer: Printer) -> None:
        printer.emit("scf.yield")
        if self.operands:
            printer.emit(" ")
            printer.print_value_list(self.operands)
            printer.emit(" : ")
            printer.emit(", ".join(str(o.type) for o in self.operands))


@register_custom_parser("scf.yield")
def _parse_yield(parser) -> YieldOp:
    values = []
    if parser.current[0] == "PERCENT":
        values.append(parser.parse_value_use())
        while parser.accept(","):
            values.append(parser.parse_value_use())
        parser.expect(":")
        parser.parse_type()
        while parser.accept(","):
            parser.parse_type()
    return YieldOp.create(values)


@register_op
class ForOp(Operation):
    """A counted loop with loop-carried values.

    Operands: ``lb, ub, step, *iter_inits``.  The single body block has
    arguments ``iv, *iter_args``; the body's ``scf.yield`` forwards the next
    iteration's values, which also become the op's results after the final
    iteration.
    """

    name = "scf.for"

    @staticmethod
    def create(
        lb: SSAValue,
        ub: SSAValue,
        step: SSAValue,
        iter_inits: list[SSAValue] | tuple[SSAValue, ...] = (),
        body: Block | None = None,
    ) -> "ForOp":
        if body is None:
            body = Block(
                arg_types=[lb.type] + [v.type for v in iter_inits],
            )
            body.args[0].name_hint = "i"
        return ForOp(
            operands=[lb, ub, step, *iter_inits],
            result_types=[v.type for v in iter_inits],
            regions=[Region([body])],
        )

    # -- accessors ---------------------------------------------------------

    @property
    def lb(self) -> SSAValue:
        return self.operands[0]

    @property
    def ub(self) -> SSAValue:
        return self.operands[1]

    @property
    def step(self) -> SSAValue:
        return self.operands[2]

    @property
    def iter_inits(self) -> tuple[SSAValue, ...]:
        return self.operands[3:]

    @property
    def body(self) -> Block:
        return self.regions[0].block

    @property
    def induction_var(self) -> BlockArgument:
        return self.body.args[0]

    @property
    def iter_args(self) -> tuple[BlockArgument, ...]:
        return tuple(self.body.args[1:])

    @property
    def yield_op(self) -> YieldOp:
        terminator = self.body.terminator
        if not isinstance(terminator, YieldOp):
            raise VerifyError("scf.for body must end with scf.yield")
        return terminator

    def add_iter_arg(
        self, init: SSAValue, yielded: SSAValue | None = None, name_hint: str | None = None
    ) -> tuple[BlockArgument, OpResult]:
        """Append a loop-carried value in place.

        Adds an operand, a body block argument, a result, and (when
        ``yielded`` is given) an operand on the body's yield.  Returns the new
        block argument and the new op result.
        """
        self.set_operands([*self.operands, init])
        arg = self.body.add_arg(init.type, name_hint)
        result = OpResult(init.type, self, len(self.results), name_hint)
        self.results = (*self.results, result)
        if yielded is not None:
            self.yield_op.set_operands([*self.yield_op.operands, yielded])
        return arg, result

    def verify_(self) -> None:
        if len(self.operands) < 3:
            raise VerifyError("scf.for needs at least lb, ub, step")
        if len(self.regions) != 1 or len(self.regions[0].blocks) != 1:
            raise VerifyError("scf.for needs exactly one body block")
        inits = self.iter_inits
        if len(self.results) != len(inits):
            raise VerifyError("scf.for result count must match iter_args count")
        if len(self.body.args) != 1 + len(inits):
            raise VerifyError("scf.for body needs iv plus one arg per iter_arg")
        if self.body.args[0].type != self.lb.type:
            raise VerifyError("scf.for induction variable type must match bounds")
        for init, arg, result in zip(inits, self.iter_args, self.results):
            if not (init.type == arg.type == result.type):
                raise VerifyError("scf.for iter_arg types must be consistent")
        terminator = self.body.terminator
        if not isinstance(terminator, YieldOp):
            raise VerifyError("scf.for body must end with scf.yield")
        if len(terminator.operands) != len(inits):
            raise VerifyError("scf.for yield operand count must match iter_args")
        for yielded, result in zip(terminator.operands, self.results):
            if yielded.type != result.type:
                raise VerifyError("scf.for yield types must match results")

    def print_custom(self, printer: Printer) -> None:
        printer.emit("scf.for ")
        printer.print_value(self.induction_var)
        printer.emit(" = ")
        printer.print_value(self.lb)
        printer.emit(" to ")
        printer.print_value(self.ub)
        printer.emit(" step ")
        printer.print_value(self.step)
        if self.iter_inits:
            printer.emit(" iter_args(")
            for i, (arg, init) in enumerate(zip(self.iter_args, self.iter_inits)):
                if i:
                    printer.emit(", ")
                printer.print_value(arg)
                printer.emit(" = ")
                printer.print_value(init)
            printer.emit(") -> (")
            printer.emit(", ".join(str(r.type) for r in self.results))
            printer.emit(")")
        printer.emit(" ")
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


def constant_trip_count(loop: ForOp) -> int | None:
    """How many times ``loop`` runs when its bounds and step are constants
    and the step is positive (0 when ``ub <= lb``); None otherwise."""
    lb = arith.constant_value(loop.lb)
    ub = arith.constant_value(loop.ub)
    step = arith.constant_value(loop.step)
    if lb is None or ub is None or step is None or step <= 0:
        return None
    if ub <= lb:
        return 0
    return -(-(ub - lb) // step)


def certainly_runs(loop: ForOp) -> bool:
    """True when ``loop`` provably executes at least one iteration
    (constant bounds with ``lb < ub``)."""
    lb = arith.constant_value(loop.lb)
    ub = arith.constant_value(loop.ub)
    return lb is not None and ub is not None and lb < ub


@register_custom_parser("scf.for")
def _parse_for(parser) -> ForOp:
    iv_token = parser.expect_kind("PERCENT")
    parser.expect("=")
    lb = parser.parse_value_use()
    parser.expect("to")
    ub = parser.parse_value_use()
    parser.expect("step")
    step = parser.parse_value_use()
    iter_names: list[str] = []
    iter_inits: list[SSAValue] = []
    if parser.accept("iter_args"):
        parser.expect("(")
        while True:
            name_token = parser.expect_kind("PERCENT")
            parser.expect("=")
            init = parser.parse_value_use()
            iter_names.append(name_token[1][1:])
            iter_inits.append(init)
            if not parser.accept(","):
                break
        parser.expect(")")
        parser.expect("->")
        parser.parse_type_list()
    entry_args = [(iv_token[1][1:], lb.type)] + [
        (name, init.type) for name, init in zip(iter_names, iter_inits)
    ]
    region = parser.parse_region(entry_args=entry_args)
    return ForOp(
        operands=[lb, ub, step, *iter_inits],
        result_types=[v.type for v in iter_inits],
        regions=[region],
    )


@register_op
class IfOp(Operation):
    """Two-armed conditional.  Both regions end in ``scf.yield``; when the op
    produces results, both regions are mandatory and must yield matching
    types.  A result-free ``if`` may have an empty else region."""

    name = "scf.if"

    @staticmethod
    def create(
        cond: SSAValue,
        result_types: list[TypeAttribute] | tuple[TypeAttribute, ...] = (),
        then_block: Block | None = None,
        else_block: Block | None = None,
    ) -> "IfOp":
        then_region = Region([then_block or Block()])
        else_region = Region([else_block] if else_block is not None else [])
        if result_types and else_block is None:
            else_region = Region([Block()])
        return IfOp(
            operands=[cond],
            result_types=list(result_types),
            regions=[then_region, else_region],
        )

    @property
    def condition(self) -> SSAValue:
        return self.operands[0]

    @property
    def then_block(self) -> Block:
        return self.regions[0].block

    @property
    def has_else(self) -> bool:
        return bool(self.regions[1].blocks)

    @property
    def else_block(self) -> Block:
        return self.regions[1].block

    def verify_(self) -> None:
        if len(self.operands) != 1 or self.operands[0].type != i1:
            raise VerifyError("scf.if needs a single i1 condition")
        if len(self.regions) != 2:
            raise VerifyError("scf.if needs then and else regions")
        if self.results and not self.has_else:
            raise VerifyError("scf.if with results requires an else region")
        for region in self.regions:
            if not region.blocks:
                continue
            terminator = region.block.terminator
            if not isinstance(terminator, YieldOp):
                raise VerifyError("scf.if regions must end with scf.yield")
            if len(terminator.operands) != len(self.results):
                raise VerifyError("scf.if yield operand count must match results")
            for yielded, result in zip(terminator.operands, self.results):
                if yielded.type != result.type:
                    raise VerifyError("scf.if yield types must match results")

    def print_custom(self, printer: Printer) -> None:
        printer.emit("scf.if ")
        printer.print_value(self.condition)
        if self.results:
            printer.emit(" -> (")
            printer.emit(", ".join(str(r.type) for r in self.results))
            printer.emit(")")
        printer.emit(" ")
        printer.print_region(self.regions[0])
        if self.has_else:
            printer.emit(" else ")
            printer.print_region(self.regions[1])


@register_custom_parser("scf.if")
def _parse_if(parser) -> IfOp:
    cond = parser.parse_value_use()
    result_types: list[TypeAttribute] = []
    if parser.accept("->"):
        result_types = parser.parse_type_list()
    then_region = parser.parse_region()
    regions = [then_region]
    if parser.accept("else"):
        regions.append(parser.parse_region())
    else:
        regions.append(Region([]))
    return IfOp(operands=[cond], result_types=result_types, regions=regions)
