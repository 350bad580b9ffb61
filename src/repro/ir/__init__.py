"""repro.ir — a compact MLIR-like SSA IR framework.

This package provides the compiler substrate the paper's ``accfg`` dialect
and optimization passes are built on: attributes and types, SSA values with
def-use chains, operations with nested regions, a builder, a verifier, a
textual printer/parser pair, and pattern-rewriting infrastructure.
"""

from .attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    DictAttr,
    FunctionType,
    IndexType,
    IntegerAttr,
    IntegerType,
    StringAttr,
    SymbolRefAttr,
    TypeAttribute,
    UnitAttr,
    i1,
    i8,
    i16,
    i32,
    i64,
    index,
)
from .block import Block, Region, values_defined_above
from .builder import Builder, InsertPoint
from .location import SourceLoc
from .operation import IRError, Operation, UnregisteredOp, VerifyError
from .parser import ParseError, Parser, parse_module, parse_operation
from .printer import (
    Printer,
    format_attribute,
    print_operation,
    structural_key,
)
from .registry import (
    OP_REGISTRY,
    register_custom_parser,
    register_op,
    register_type_parser,
)
from .rewriter import (
    DriverResult,
    GreedyPatternDriver,
    PatternDriverWarning,
    PatternRewriter,
    RewritePattern,
    Rewriter,
    drive_patterns,
)
from .ssa import BlockArgument, OpResult, SSAValue, Use
from .traits import IsolatedFromAbove, IsTerminator, OpTrait, Pure
from .verifier import verify_operation

__all__ = [
    "ArrayAttr",
    "Attribute",
    "BoolAttr",
    "DictAttr",
    "FunctionType",
    "IndexType",
    "IntegerAttr",
    "IntegerType",
    "StringAttr",
    "SymbolRefAttr",
    "TypeAttribute",
    "UnitAttr",
    "i1",
    "i8",
    "i16",
    "i32",
    "i64",
    "index",
    "Block",
    "Region",
    "values_defined_above",
    "Builder",
    "InsertPoint",
    "SourceLoc",
    "IRError",
    "Operation",
    "UnregisteredOp",
    "VerifyError",
    "ParseError",
    "Parser",
    "parse_module",
    "parse_operation",
    "Printer",
    "format_attribute",
    "print_operation",
    "structural_key",
    "OP_REGISTRY",
    "register_custom_parser",
    "register_op",
    "register_type_parser",
    "DriverResult",
    "GreedyPatternDriver",
    "PatternDriverWarning",
    "PatternRewriter",
    "RewritePattern",
    "Rewriter",
    "drive_patterns",
    "BlockArgument",
    "OpResult",
    "SSAValue",
    "Use",
    "IsolatedFromAbove",
    "IsTerminator",
    "OpTrait",
    "Pure",
    "verify_operation",
]
