"""A miniature linalg-style dialect: named high-level tensor computations.

This is the level the paper's compilation flow *starts* from (Figure 8: the
accfg clusters are produced by lowering a high-level program, step 1).
Operations reference flat buffers by base address and carry static shapes as
attributes; the ``convert-linalg-to-accfg`` pass tiles them into
setup/launch/await clusters for a chosen accelerator.
"""

from __future__ import annotations

from ..ir.attributes import IntegerAttr, StringAttr
from ..ir.operation import Operation, VerifyError
from ..ir.printer import Printer, quote_string
from ..ir.registry import register_custom_parser, register_op
from ..ir.ssa import SSAValue


@register_op
class MatmulOp(Operation):
    """``C[m x n] = A[m x k] @ B[k x n]`` over int8 inputs / int32 output.

    Operands are byte base addresses of the three buffers; ``m``, ``k``,
    ``n`` are static shape attributes.  Row strides equal the row lengths
    (dense layout).
    """

    name = "linalg.matmul"
    custom_printed_attrs = frozenset(["m", "k", "n", "target", "tile_m", "tile_n"])

    @staticmethod
    def create(
        a: SSAValue,
        b: SSAValue,
        c: SSAValue,
        m: int,
        k: int,
        n: int,
        target: str | None = None,
        tile_m: int | None = None,
        tile_n: int | None = None,
    ) -> "MatmulOp":
        op = MatmulOp(operands=[a, b, c])
        op.attributes["m"] = IntegerAttr(m)
        op.attributes["k"] = IntegerAttr(k)
        op.attributes["n"] = IntegerAttr(n)
        if target is not None:
            op.attributes["target"] = StringAttr(target)
        if tile_m is not None:
            op.attributes["tile_m"] = IntegerAttr(tile_m)
        if tile_n is not None:
            op.attributes["tile_n"] = IntegerAttr(tile_n)
        return op

    @property
    def a(self) -> SSAValue:
        return self.operands[0]

    @property
    def b(self) -> SSAValue:
        return self.operands[1]

    @property
    def c(self) -> SSAValue:
        return self.operands[2]

    def dim(self, name: str) -> int:
        attr = self.attributes[name]
        assert isinstance(attr, IntegerAttr)
        return attr.value

    @property
    def target(self) -> str | None:
        """Per-op accelerator override for the lowering pass, if any."""
        attr = self.attributes.get("target")
        return attr.value if isinstance(attr, StringAttr) else None

    def tile(self, name: str) -> int | None:
        """Per-op lowering tile-shape hint (``tile_m``/``tile_n``), if any."""
        attr = self.attributes.get(name)
        return attr.value if isinstance(attr, IntegerAttr) else None

    def verify_(self) -> None:
        if len(self.operands) != 3:
            raise VerifyError("linalg.matmul needs A, B and C addresses")
        for name in ("m", "k", "n"):
            attr = self.attributes.get(name)
            if not isinstance(attr, IntegerAttr) or attr.value <= 0:
                raise VerifyError(f"linalg.matmul needs a positive '{name}'")
        for name in ("tile_m", "tile_n"):
            attr = self.attributes.get(name)
            if attr is not None and (
                not isinstance(attr, IntegerAttr) or attr.value <= 0
            ):
                raise VerifyError(f"linalg.matmul '{name}' must be positive")

    def print_custom(self, printer: Printer) -> None:
        printer.emit("linalg.matmul ins(")
        printer.print_value(self.a)
        printer.emit(", ")
        printer.print_value(self.b)
        printer.emit(") outs(")
        printer.print_value(self.c)
        printer.emit(
            f") dims({self.dim('m')} x {self.dim('k')} x {self.dim('n')})"
        )
        if self.target is not None:
            printer.emit(f" target({quote_string(self.target)})")
        tile_m, tile_n = self.tile("tile_m"), self.tile("tile_n")
        if tile_m is not None or tile_n is not None:
            printer.emit(f" tile({tile_m or 0} x {tile_n or 0})")


@register_custom_parser("linalg.matmul")
def _parse_matmul(parser) -> MatmulOp:
    parser.expect("ins")
    parser.expect("(")
    a = parser.parse_value_use()
    parser.expect(",")
    b = parser.parse_value_use()
    parser.expect(")")
    parser.expect("outs")
    parser.expect("(")
    c = parser.parse_value_use()
    parser.expect(")")
    parser.expect("dims")
    parser.expect("(")
    m = parser.parse_int()
    parser.expect("x")
    k = parser.parse_int()
    parser.expect("x")
    n = parser.parse_int()
    parser.expect(")")
    target: str | None = None
    tile_m: int | None = None
    tile_n: int | None = None
    if parser.accept("target"):
        parser.expect("(")
        target = parser.parse_string()
        parser.expect(")")
    if parser.accept("tile"):
        parser.expect("(")
        tile_m = parser.parse_int() or None
        parser.expect("x")
        tile_n = parser.parse_int() or None
        parser.expect(")")
    return MatmulOp.create(a, b, c, m, k, n, target, tile_m, tile_n)


ELEMENTWISE_KINDS = ("add", "mul", "max")


@register_op
class ElementwiseOp(Operation):
    """``out[i] = x[i] <kind> y[i]`` over ``n`` int32 elements."""

    name = "linalg.elementwise"
    custom_printed_attrs = frozenset(["n", "kind"])

    @staticmethod
    def create(
        x: SSAValue, y: SSAValue, out: SSAValue, n: int, kind: str = "add"
    ) -> "ElementwiseOp":
        if kind not in ELEMENTWISE_KINDS:
            raise VerifyError(f"unknown elementwise kind '{kind}'")
        op = ElementwiseOp(operands=[x, y, out])
        op.attributes["n"] = IntegerAttr(n)
        op.attributes["kind"] = StringAttr(kind)
        return op

    @property
    def x(self) -> SSAValue:
        return self.operands[0]

    @property
    def y(self) -> SSAValue:
        return self.operands[1]

    @property
    def out(self) -> SSAValue:
        return self.operands[2]

    @property
    def n(self) -> int:
        attr = self.attributes["n"]
        assert isinstance(attr, IntegerAttr)
        return attr.value

    @property
    def kind(self) -> str:
        attr = self.attributes["kind"]
        assert isinstance(attr, StringAttr)
        return attr.value

    def verify_(self) -> None:
        if len(self.operands) != 3:
            raise VerifyError("linalg.elementwise needs x, y and out addresses")
        attr = self.attributes.get("n")
        if not isinstance(attr, IntegerAttr) or attr.value <= 0:
            raise VerifyError("linalg.elementwise needs a positive 'n'")
        kind = self.attributes.get("kind")
        if not isinstance(kind, StringAttr) or kind.value not in ELEMENTWISE_KINDS:
            raise VerifyError("linalg.elementwise needs a valid 'kind'")

    def print_custom(self, printer: Printer) -> None:
        printer.emit(f"linalg.elementwise {quote_string(self.kind)} ins(")
        printer.print_value(self.x)
        printer.emit(", ")
        printer.print_value(self.y)
        printer.emit(") outs(")
        printer.print_value(self.out)
        printer.emit(f") n({self.n})")


@register_custom_parser("linalg.elementwise")
def _parse_elementwise(parser) -> ElementwiseOp:
    kind = parser.parse_string()
    parser.expect("ins")
    parser.expect("(")
    x = parser.parse_value_use()
    parser.expect(",")
    y = parser.parse_value_use()
    parser.expect(")")
    parser.expect("outs")
    parser.expect("(")
    out = parser.parse_value_use()
    parser.expect(")")
    parser.expect("n")
    parser.expect("(")
    n = parser.parse_int()
    parser.expect(")")
    return ElementwiseOp.create(x, y, out, n, kind)
