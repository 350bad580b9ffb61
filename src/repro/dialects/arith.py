"""The arith dialect: integer constants, arithmetic, bitwise ops, compares.

These ops model the host-side scalar computation that accelerator
configuration code performs — loop-bound arithmetic, address computation, and
the bit-packing of configuration fields (paper, Listing 1 and Section 4.4).
Each op provides a ``fold`` hook used by the canonicalization pass; constant
folding of bit-packing is one of the "free" optimizations accfg unlocks
(Section 5.2).

Every op here is a :class:`ScalarOp` and declares once what executing it
means: the host record it charges (``mnemonic``, see :func:`charged_instr`)
and, for a two-operand op, its value ``evaluate(lhs, rhs)`` and whether
that can trap (``traps``, see :func:`cannot_trap`).  Both execution
engines and the static cost engine read these declarations, and ``fold``
and the passes that speculate an op read the same function, so none of
them can drift.
"""

from __future__ import annotations

import operator
from functools import cache, partial
from typing import Callable, Collection

from ..ir.attributes import (
    Attribute,
    IntegerAttr,
    IntegerType,
    StringAttr,
    TypeAttribute,
    i1,
)
from ..ir.operation import InterpreterError, Operation, VerifyError
from ..ir.printer import Printer
from ..ir.registry import register_custom_parser, register_op
from ..ir.ssa import SSAValue
from ..ir.traits import Pure
from ..isa.instructions import Instr, InstrCategory, scalar_instr

#: bits of an ``index`` value on the RV64 host: what signed compares read
#: and how far a shift may go (index arithmetic itself is unbounded)
INDEX_BITS = 64


def width_mask(type: TypeAttribute) -> int | None:
    """The wrap-around mask of ``type`` (None for ``index``, which is
    modelled as an unbounded Python int)."""
    if isinstance(type, IntegerType):
        return (1 << type.width) - 1
    return None


def truncate_to_type(value: int, type: TypeAttribute) -> int:
    """Wrap ``value`` to the unsigned range of ``type`` (two's complement)."""
    mask = width_mask(type)
    return value if mask is None else value & mask


class DivisionByZero(InterpreterError, ZeroDivisionError):
    """Division or remainder by zero: a program error, and a
    ``ZeroDivisionError`` like Python's own."""


class ScalarOp(Operation):
    """A host scalar op.

    ``mnemonic`` names the record one execution charges
    (:func:`charged_instr`).  A two-operand op also declares its value:
    ``op.evaluate(lhs, rhs)`` of the two operand ints, before wrapping to
    the result type (:func:`width_mask`).  It raises
    :class:`~repro.ir.operation.InterpreterError` for a trap, and it must
    pickle, because compiled traces hold it.
    """

    traits = frozenset([Pure()])
    mnemonic: str


def charged_instr(op: ScalarOp, config_feeding: Collection[Operation]) -> Instr:
    """The record one execution of ``op`` charges: configuration-parameter
    calculation when its result feeds a setup or launch field (an op in
    ``config_feeding``, see :func:`repro.dialects.accfg.config_feeding_ops`),
    host compute otherwise."""
    return scalar_instr(
        op.mnemonic,
        InstrCategory.CALC if op in config_feeding else InstrCategory.COMPUTE,
    )


#: interned ``value`` attributes — constants repeat heavily (loop bounds,
#: field values), and reusing the attribute object skips a dataclass
#: construction per constant and makes later attribute hashing/equality hit
#: the identity fast path.  Keyed by the type *attribute* (not its id), so
#: entries keep their type alive and can never alias a recycled object.
_INTERNED_VALUES: dict[tuple[int, TypeAttribute], IntegerAttr] = {}


@register_op
class ConstantOp(ScalarOp):
    """An integer constant: ``%c = arith.constant 5 : i64``."""

    name = "arith.constant"
    mnemonic = "li"
    custom_printed_attrs = frozenset(["value"])

    @staticmethod
    def create(value: int, type: TypeAttribute) -> "ConstantOp":
        op = ConstantOp(result_types=[type])
        key = (value, type)
        attr = _INTERNED_VALUES.get(key)
        if attr is None:
            attr = IntegerAttr(truncate_to_type(value, type), type)
            if len(_INTERNED_VALUES) < 4096:
                _INTERNED_VALUES[key] = attr
        op.attributes["value"] = attr
        return op

    @property
    def value(self) -> int:
        attr = self.attributes["value"]
        assert isinstance(attr, IntegerAttr)
        return attr.value

    def verify_(self) -> None:
        attr = self.attributes.get("value")
        if not isinstance(attr, IntegerAttr):
            raise VerifyError("arith.constant needs an integer 'value' attribute")
        if attr.type != self.result.type:
            raise VerifyError("arith.constant value type must match result type")

    def print_custom(self, printer: Printer) -> None:
        printer.emit(f"arith.constant {self.value} : {self.result.type}")


@register_custom_parser("arith.constant")
def _parse_constant(parser) -> ConstantOp:
    value = parser.parse_int()
    parser.expect(":")
    type = parser.parse_type()
    return ConstantOp.create(value, type)


class BinaryOp(ScalarOp):
    """Base for two-operand, one-result integer ops of uniform type.

    Defining a subclass registers its parser, and its mnemonic is the
    op-name suffix (``arith.addi`` charges ``addi``).
    """

    commutative: bool = False
    #: whether ``evaluate`` can trap; a trap depends on the right operand
    #: alone (a zero divisor, a shift count out of range), see
    #: :func:`cannot_trap`
    traps: bool = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.mnemonic = cls.name.split(".")[-1]
        register_custom_parser(cls.name)(_binary_parser(cls))

    @classmethod
    def create(cls, lhs: SSAValue, rhs: SSAValue) -> "BinaryOp":
        if lhs.type != rhs.type:
            raise VerifyError(
                f"{cls.name}: operand types differ ({lhs.type} vs {rhs.type})"
            )
        return cls(operands=[lhs, rhs], result_types=[lhs.type])

    @property
    def lhs(self) -> SSAValue:
        return self.operands[0]

    @property
    def rhs(self) -> SSAValue:
        return self.operands[1]

    def verify_(self) -> None:
        if len(self.operands) != 2 or len(self.results) != 1:
            raise VerifyError(f"{self.name} must have 2 operands and 1 result")
        if self.operands[0].type != self.operands[1].type:
            raise VerifyError(f"{self.name}: operand types differ")
        if self.operands[0].type != self.results[0].type:
            raise VerifyError(f"{self.name}: result type must match operands")

    def print_custom(self, printer: Printer) -> None:
        printer.emit(f"{self.name} ")
        printer.print_value(self.lhs)
        printer.emit(", ")
        printer.print_value(self.rhs)
        printer.emit(f" : {self.result.type}")

    # -- folding -------------------------------------------------------------

    @staticmethod
    def evaluate(lhs: int, rhs: int) -> int:
        raise NotImplementedError

    def fold(self):
        lhs_const, rhs_const = constant_value(self.lhs), constant_value(self.rhs)
        if lhs_const is not None and rhs_const is not None:
            try:
                value = self.evaluate(lhs_const, rhs_const)
            except InterpreterError:
                return None  # do not fold a trap
            return [IntegerAttr(truncate_to_type(value, self.result.type), self.result.type)]
        return self.fold_identities(lhs_const, rhs_const)

    def fold_identities(self, lhs_const: int | None, rhs_const: int | None):
        """Algebraic identities (x+0, x*1, ...); subclasses extend."""
        return None


def cannot_trap(op: Operation) -> bool:
    """Whether no execution of ``op`` can trap, so that a pass may run it
    where the source program might not (hoist it out of a loop that may
    not run, compute it for an iteration that never happens).

    True of every scalar op except a trapping binary op whose right
    operand is not a constant its ``evaluate`` accepts.
    """
    if not (isinstance(op, BinaryOp) and op.traps):
        return isinstance(op, ScalarOp)
    rhs = constant_value(op.rhs)
    if rhs is None:
        return False
    try:
        op.evaluate(0, rhs)
    except InterpreterError:
        return False
    return True


def _binary_parser(cls):
    def parse(parser) -> BinaryOp:
        lhs = parser.parse_value_use()
        parser.expect(",")
        rhs = parser.parse_value_use()
        parser.expect(":")
        parser.parse_type()
        return cls.create(lhs, rhs)

    return parse


@register_op
class AddiOp(BinaryOp):
    """Integer addition (wrapping)."""

    name = "arith.addi"
    commutative = True
    evaluate = operator.add

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 0:
            return [self.lhs]
        if lhs_const == 0:
            return [self.rhs]
        return None


@register_op
class SubiOp(BinaryOp):
    """Integer subtraction (wrapping)."""

    name = "arith.subi"
    evaluate = operator.sub

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 0:
            return [self.lhs]
        if self.lhs is self.rhs:
            return [IntegerAttr(0, self.result.type)]
        return None


@register_op
class MuliOp(BinaryOp):
    """Integer multiplication (wrapping)."""

    name = "arith.muli"
    commutative = True
    evaluate = operator.mul

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 1:
            return [self.lhs]
        if lhs_const == 1:
            return [self.rhs]
        if rhs_const == 0 or lhs_const == 0:
            return [IntegerAttr(0, self.result.type)]
        return None


@register_op
class DivuiOp(BinaryOp):
    """Unsigned integer division (traps on zero)."""

    name = "arith.divui"
    traps = True

    @staticmethod
    def evaluate(lhs: int, rhs: int) -> int:
        if rhs == 0:
            raise DivisionByZero("arith.divui by zero")
        return lhs // rhs

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 1:
            return [self.lhs]
        return None


@register_op
class RemuiOp(BinaryOp):
    """Unsigned integer remainder (traps on zero)."""

    name = "arith.remui"
    traps = True

    @staticmethod
    def evaluate(lhs: int, rhs: int) -> int:
        if rhs == 0:
            raise DivisionByZero("arith.remui by zero")
        return lhs % rhs

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 1:
            return [IntegerAttr(0, self.result.type)]
        return None


@register_op
class AndiOp(BinaryOp):
    """Bitwise AND."""

    name = "arith.andi"
    commutative = True
    evaluate = operator.and_

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 0 or lhs_const == 0:
            return [IntegerAttr(0, self.result.type)]
        if self.lhs is self.rhs:
            return [self.lhs]
        return None


@register_op
class OriOp(BinaryOp):
    """Bitwise OR (the packing ladder's combiner, Listing 1)."""

    name = "arith.ori"
    commutative = True
    evaluate = operator.or_

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 0:
            return [self.lhs]
        if lhs_const == 0:
            return [self.rhs]
        if self.lhs is self.rhs:
            return [self.lhs]
        return None


@register_op
class XoriOp(BinaryOp):
    """Bitwise XOR."""

    name = "arith.xori"
    commutative = True
    evaluate = operator.xor

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 0:
            return [self.lhs]
        if lhs_const == 0:
            return [self.rhs]
        if self.lhs is self.rhs:
            return [IntegerAttr(0, self.result.type)]
        return None


def _shift_left(width: int | None, lhs: int, rhs: int) -> int:
    """``lhs << rhs`` for a result of ``width`` bits (None: ``index``).

    A count at or past the width gives 0, which is what wrapping the wide
    value gives, without building it.  On ``index`` a count past the host
    word traps.
    """
    if rhs < 0:
        raise InterpreterError("arith.shli by a negative count")
    if width is None:
        if rhs >= INDEX_BITS:
            raise InterpreterError(
                f"arith.shli of an index by {INDEX_BITS} or more bits"
            )
    elif rhs >= width:
        return 0
    return lhs << rhs


@register_op
class ShliOp(BinaryOp):
    """Left shift (the packing ladder's positioner, Listing 1)."""

    name = "arith.shli"
    traps = True

    @property
    def evaluate(self) -> Callable[[int, int], int]:
        """``lhs << rhs`` at the result type's width: see :func:`_shift_left`."""
        type = self.result.type
        return partial(
            _shift_left, type.width if isinstance(type, IntegerType) else None
        )

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 0:
            return [self.lhs]
        if lhs_const == 0:
            return [IntegerAttr(0, self.result.type)]
        return None


@register_op
class ShruiOp(BinaryOp):
    """Logical right shift."""

    name = "arith.shrui"
    traps = True

    @staticmethod
    def evaluate(lhs: int, rhs: int) -> int:
        if rhs < 0:
            raise InterpreterError("arith.shrui by a negative count")
        return lhs >> rhs

    def fold_identities(self, lhs_const, rhs_const):
        if rhs_const == 0:
            return [self.lhs]
        if lhs_const == 0:
            return [IntegerAttr(0, self.result.type)]
        return None


@register_op
class MinUIOp(BinaryOp):
    """Unsigned minimum (bounds clipping in tiled code)."""

    name = "arith.minui"
    commutative = True
    evaluate = min

    def fold_identities(self, lhs_const, rhs_const):
        if self.lhs is self.rhs:
            return [self.lhs]
        return None


@register_op
class MaxUIOp(BinaryOp):
    """Unsigned maximum."""

    name = "arith.maxui"
    commutative = True
    evaluate = max

    def fold_identities(self, lhs_const, rhs_const):
        if self.lhs is self.rhs:
            return [self.lhs]
        return None


def _signed(compare, width: int, lhs: int, rhs: int) -> bool:
    """``compare`` of the two's-complement readings of ``width``-bit values."""
    sign_bit = 1 << (width - 1)
    return compare(
        (lhs & (sign_bit - 1)) - (lhs & sign_bit),
        (rhs & (sign_bit - 1)) - (rhs & sign_bit),
    )


#: each cmpi predicate: its comparison, and whether it reads the operands
#: as signed (unsigned predicates compare the values as they are)
_PREDICATES = {
    "eq": (operator.eq, False),
    "ne": (operator.ne, False),
    "slt": (operator.lt, True),
    "sle": (operator.le, True),
    "sgt": (operator.gt, True),
    "sge": (operator.ge, True),
    "ult": (operator.lt, False),
    "ule": (operator.le, False),
    "ugt": (operator.gt, False),
    "uge": (operator.ge, False),
}
CMP_PREDICATES = tuple(_PREDICATES)


@cache
def _comparison(predicate: str, width: int) -> Callable[[int, int], bool]:
    """One predicate as a function of two ints, the width bound in."""
    compare, signed = _PREDICATES[predicate]
    return partial(_signed, compare, width) if signed else compare


@register_op
class CmpiOp(ScalarOp):
    """Integer comparison producing an ``i1``."""

    name = "arith.cmpi"
    mnemonic = "cmp"
    custom_printed_attrs = frozenset(["predicate"])

    @staticmethod
    def create(predicate: str, lhs: SSAValue, rhs: SSAValue) -> "CmpiOp":
        if predicate not in CMP_PREDICATES:
            raise VerifyError(f"unknown cmpi predicate '{predicate}'")
        op = CmpiOp(operands=[lhs, rhs], result_types=[i1])
        op.attributes["predicate"] = StringAttr(predicate)
        return op

    @property
    def predicate(self) -> str:
        attr = self.attributes["predicate"]
        assert isinstance(attr, StringAttr)
        return attr.value

    @property
    def lhs(self) -> SSAValue:
        return self.operands[0]

    @property
    def rhs(self) -> SSAValue:
        return self.operands[1]

    def verify_(self) -> None:
        attr = self.attributes.get("predicate")
        if not isinstance(attr, StringAttr) or attr.value not in CMP_PREDICATES:
            raise VerifyError("arith.cmpi needs a valid 'predicate' attribute")
        if len(self.operands) != 2 or self.operands[0].type != self.operands[1].type:
            raise VerifyError("arith.cmpi operands must have matching types")
        if self.results[0].type != i1:
            raise VerifyError("arith.cmpi must return i1")

    @staticmethod
    def evaluate_predicate(predicate: str, lhs: int, rhs: int, width: int) -> bool:
        """Evaluate on unsigned representations of the given bit-width."""
        return _comparison(predicate, width)(lhs, rhs)

    @property
    def evaluate(self) -> Callable[[int, int], bool]:
        """The predicate as a function of the two operand ints; signed
        predicates read them at the operand width (the host word for
        ``index``)."""
        type = self.lhs.type
        return _comparison(
            self.predicate,
            type.width if isinstance(type, IntegerType) else INDEX_BITS,
        )

    def fold(self):
        lhs_owner = self.lhs.owner
        rhs_owner = self.rhs.owner
        if isinstance(lhs_owner, ConstantOp) and isinstance(rhs_owner, ConstantOp):
            result = self.evaluate(lhs_owner.value, rhs_owner.value)
            return [IntegerAttr(int(result), i1)]
        if self.lhs is self.rhs:
            # x against itself: the predicate holds or fails for every x
            return [IntegerAttr(int(self.evaluate(0, 0)), i1)]
        return None

    def print_custom(self, printer: Printer) -> None:
        printer.emit(f"arith.cmpi {self.predicate}, ")
        printer.print_value(self.lhs)
        printer.emit(", ")
        printer.print_value(self.rhs)
        printer.emit(f" : {self.lhs.type}")


@register_custom_parser("arith.cmpi")
def _parse_cmpi(parser) -> CmpiOp:
    predicate = parser.expect_kind("ID")[1]
    parser.expect(",")
    lhs = parser.parse_value_use()
    parser.expect(",")
    rhs = parser.parse_value_use()
    parser.expect(":")
    parser.parse_type()
    return CmpiOp.create(predicate, lhs, rhs)


@register_op
class SelectOp(ScalarOp):
    """``%r = arith.select %cond, %true_value, %false_value : type``."""

    name = "arith.select"
    mnemonic = "select"

    @staticmethod
    def create(cond: SSAValue, true_value: SSAValue, false_value: SSAValue) -> "SelectOp":
        if true_value.type != false_value.type:
            raise VerifyError("arith.select branch types differ")
        return SelectOp(
            operands=[cond, true_value, false_value], result_types=[true_value.type]
        )

    @property
    def condition(self) -> SSAValue:
        return self.operands[0]

    @property
    def true_value(self) -> SSAValue:
        return self.operands[1]

    @property
    def false_value(self) -> SSAValue:
        return self.operands[2]

    def verify_(self) -> None:
        if len(self.operands) != 3:
            raise VerifyError("arith.select needs 3 operands")
        if self.operands[0].type != i1:
            raise VerifyError("arith.select condition must be i1")
        if self.operands[1].type != self.operands[2].type:
            raise VerifyError("arith.select branch types differ")

    def fold(self):
        owner = self.condition.owner
        if isinstance(owner, ConstantOp):
            return [self.true_value if owner.value else self.false_value]
        if self.true_value is self.false_value:
            return [self.true_value]
        return None

    def print_custom(self, printer: Printer) -> None:
        printer.emit("arith.select ")
        printer.print_value_list(self.operands)
        printer.emit(f" : {self.result.type}")


@register_custom_parser("arith.select")
def _parse_select(parser) -> SelectOp:
    cond = parser.parse_value_use()
    parser.expect(",")
    true_value = parser.parse_value_use()
    parser.expect(",")
    false_value = parser.parse_value_use()
    parser.expect(":")
    parser.parse_type()
    return SelectOp.create(cond, true_value, false_value)


def constant_value(value: SSAValue) -> int | None:
    """The compile-time integer of ``value`` if it comes from a constant."""
    owner = value.owner
    if isinstance(owner, ConstantOp):
        return owner.value
    return None


def materialize_attr(attr: Attribute) -> ConstantOp:
    """Create a constant op for a folded :class:`IntegerAttr` result."""
    if not isinstance(attr, IntegerAttr):
        raise VerifyError(f"cannot materialize attribute {attr} as a constant")
    return ConstantOp.create(attr.value, attr.type)
