"""Textual IR printer.

Produces an MLIR-flavoured textual form that the companion parser
(:mod:`repro.ir.parser`) reads back, enabling lossless round-trips for every
registered operation.  Ops may define ``print_custom(printer)`` for pretty
syntax; anything else is printed in the generic form::

    %0, %1 = "dialect.op"(%a, %b) {attr = value} : (i64, i64) -> (i64, i64) { ...regions... }
"""

from __future__ import annotations

import re
from sys import intern

from .attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    DictAttr,
    FunctionType,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttribute,
    UnitAttr,
)
from .block import Block, Region
from .operation import Operation, UnregisteredOp
from .ssa import SSAValue

_VALID_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
#: an identifier: the parser's ``ID`` token, and the attribute keys printed bare
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_.$]*"
_BARE_KEY = re.compile(IDENTIFIER)


def quote_string(text: str) -> str:
    """``text`` as a string literal the parser reads back unchanged."""
    if "\\" in text or '"' in text or "\n" in text:
        text = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{text}"'


def _format_key(key: str) -> str:
    """An attribute key: bare when it is an identifier, else quoted."""
    return key if _BARE_KEY.fullmatch(key) else quote_string(key)


class Printer:
    """Stateful printer assigning stable ``%`` names to SSA values."""

    def __init__(self, indent_width: int = 2) -> None:
        self._parts: list[str] = []
        self._indent = 0
        self._indent_width = indent_width
        self._names: dict[SSAValue, str] = {}
        self._used_names: set[str] = set()
        self._counter = 0

    # -- low-level emission ----------------------------------------------

    def emit(self, text: str) -> None:
        self._parts.append(text)

    def newline(self) -> None:
        self._parts.append("\n" + " " * (self._indent * self._indent_width))

    def result(self) -> str:
        return "".join(self._parts)

    # -- value naming --------------------------------------------------------

    def assign_name(self, value: SSAValue) -> str:
        if value in self._names:
            return self._names[value]
        hint = value.name_hint
        if hint and _VALID_NAME.match(hint):
            name = hint
            suffix = 0
            while name in self._used_names:
                suffix += 1
                name = f"{hint}_{suffix}"
        else:
            name = str(self._counter)
            self._counter += 1
        self._names[value] = name
        self._used_names.add(name)
        return name

    def print_value(self, value: SSAValue) -> None:
        self.emit(f"%{self.assign_name(value)}")

    def print_value_list(self, values) -> None:
        for i, value in enumerate(values):
            if i:
                self.emit(", ")
            self.print_value(value)

    # -- attributes ------------------------------------------------------

    def print_attr_dict(self, attrs: dict[str, Attribute]) -> None:
        if not attrs:
            return
        entries = []
        for key, value in attrs.items():
            if isinstance(value, UnitAttr):
                entries.append(_format_key(key))
            else:
                entries.append(f"{_format_key(key)} = {format_attribute(value)}")
        self.emit(" {" + ", ".join(entries) + "}")

    # -- operations ------------------------------------------------------

    def print_op(self, op: Operation) -> None:
        if op.results:
            self.print_value_list(op.results)
            self.emit(" = ")
        custom = getattr(op, "print_custom", None)
        if custom is not None:
            custom(self)
            extras = {
                key: value
                for key, value in op.attributes.items()
                if key not in op.custom_printed_attrs
            }
            self.print_attr_dict(extras)
        else:
            self._print_generic(op)

    def _print_generic(self, op: Operation) -> None:
        name = op.op_name if isinstance(op, UnregisteredOp) else op.name
        self.emit(quote_string(name) + "(")
        self.print_value_list(op.operands)
        self.emit(")")
        self.print_attr_dict(op.attributes)
        self.emit(" : (")
        self.emit(", ".join(str(o.type) for o in op.operands))
        self.emit(") -> (")
        self.emit(", ".join(str(r.type) for r in op.results))
        self.emit(")")
        for region in op.regions:
            self.emit(" ")
            self.print_region(region)

    def print_region(self, region: Region) -> None:
        self.emit("{")
        self._indent += 1
        for block in region.blocks:
            self.print_block(block, explicit_header=len(region.blocks) > 1 or bool(block.args))
        self._indent -= 1
        self.newline()
        self.emit("}")

    def print_block(self, block: Block, explicit_header: bool) -> None:
        if explicit_header:
            self.newline()
            self.emit("^bb(")
            for i, arg in enumerate(block.args):
                if i:
                    self.emit(", ")
                self.print_value(arg)
                self.emit(f" : {arg.type}")
            self.emit("):")
        for op in block.ops:
            self.newline()
            self.print_op(op)


def format_attribute(attr: Attribute) -> str:
    """Render an attribute to its textual form."""
    if isinstance(attr, IntegerAttr):
        return f"{attr.value} : {attr.type}"
    if isinstance(attr, BoolAttr):
        return "true" if attr.value else "false"
    if isinstance(attr, StringAttr):
        return quote_string(attr.value)
    if isinstance(attr, SymbolRefAttr):
        return f"@{attr.name}"
    if isinstance(attr, ArrayAttr):
        return "[" + ", ".join(format_attribute(e) for e in attr.elements) + "]"
    if isinstance(attr, DictAttr):
        inner = ", ".join(f"{k} = {format_attribute(v)}" for k, v in attr.entries)
        return "{" + inner + "}"
    if isinstance(attr, UnitAttr):
        return "unit"
    if isinstance(attr, FunctionType):
        return str(attr)
    if isinstance(attr, TypeAttribute):
        return str(attr)
    return str(attr)


def print_operation(op: Operation) -> str:
    """Print a single operation (with nested regions) to a string."""
    printer = Printer()
    printer.print_op(op)
    return printer.result()


def structural_key(root: Operation) -> tuple:
    """The identity of ``root``: a flat tuple of ints and strings.

    Two operations get equal keys iff they have the same op structure, SSA
    wiring, attributes, types and region nesting; value names come from a
    visit counter.  Attributes and types enter as their
    :func:`format_attribute` text, so a key depends on neither the process
    nor ``PYTHONHASHSEED``, and :func:`repro.engine.cache.module_fingerprint`
    digests it into the stable content hash.  Keys are exact (dict
    equality compares the whole tuple), not lossy hashes: this is the
    in-process key of the differential oracles and the compiled-trace cache.
    """
    parts: list = []
    append = parts.append
    # A value is numbered at first sight by the count of values seen before.
    names: dict[SSAValue, int] = {}
    number = names.setdefault
    # Each attribute keeps its text: attributes are frozen, and clones and
    # modules built alike share them, so an attribute is formatted once
    # for every key it enters.  A kept text is read inline,
    # ``attr._key_text or formatted(attr)``, which saves a call per atom.

    def formatted(attr: Attribute) -> str:
        # Interned: keys held side by side (the trace cache keeps hundreds)
        # then share one string per distinct text.
        atom = intern(format_attribute(attr))
        object.__setattr__(attr, "_key_text", atom)
        return atom

    def emit(op: Operation) -> None:
        for result in op.results:
            append(number(result, len(names)))
        append(op.op_name if isinstance(op, UnregisteredOp) else op.name)
        for operand in op._operands:
            append(number(operand, len(names)))
            type_ = operand.type
            append(type_._key_text or formatted(type_))
        append(-1)
        if op.attributes:
            for key, value in op.attributes.items():
                append(key)
                append(value._key_text or formatted(value))
        append(-2)
        for result in op.results:
            type_ = result.type
            append(type_._key_text or formatted(type_))
        for region in op.regions:
            append(-3)
            for block in region.blocks:
                append(-4)
                for arg in block.args:
                    append(number(arg, len(names)))
                    type_ = arg.type
                    append(type_._key_text or formatted(type_))
                append(-5)
                for nested in block.ops:
                    emit(nested)
            append(-6)

    emit(root)
    return tuple(parts)
