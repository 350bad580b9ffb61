"""Attributes and types for the IR.

Attributes are immutable compile-time values attached to operations (constants,
names, flags).  Types are a subclass of attributes, mirroring MLIR's design
where types and attributes share the same uniquing machinery.  All attributes
are hashable and compare by value, which the optimization passes rely on (for
example, configuration deduplication compares attribute-equality of setup
field names).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Attribute:
    """Base class for every attribute and type."""

    #: the attribute's interned :func:`repro.ir.printer.format_attribute`
    #: text, kept by :func:`repro.ir.printer.structural_key` on the instance
    #: at its first key (not a field: equality and hashing ignore it)
    _key_text = None

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        return repr(self)


@dataclass(frozen=True)
class TypeAttribute(Attribute):
    """Base class for types.  A type describes the shape of an SSA value."""


@dataclass(frozen=True)
class IntegerType(TypeAttribute):
    """A fixed-width integer type such as ``i32`` or ``i64``."""

    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"integer width must be positive, got {self.width}")

    def __str__(self) -> str:
        return f"i{self.width}"


@dataclass(frozen=True)
class IndexType(TypeAttribute):
    """Platform-sized integer used for loop bounds and indexing."""

    def __str__(self) -> str:
        return "index"


# Commonly used type singletons.
i1 = IntegerType(1)
i8 = IntegerType(8)
i16 = IntegerType(16)
i32 = IntegerType(32)
i64 = IntegerType(64)
index = IndexType()


@dataclass(frozen=True)
class FunctionType(TypeAttribute):
    """The type of a function: input types and result types."""

    inputs: tuple[TypeAttribute, ...]
    results: tuple[TypeAttribute, ...]

    @staticmethod
    def from_lists(
        inputs: list[TypeAttribute] | tuple[TypeAttribute, ...],
        results: list[TypeAttribute] | tuple[TypeAttribute, ...],
    ) -> "FunctionType":
        return FunctionType(tuple(inputs), tuple(results))

    def __str__(self) -> str:
        ins = ", ".join(str(t) for t in self.inputs)
        outs = ", ".join(str(t) for t in self.results)
        if len(self.results) == 1:
            return f"({ins}) -> {outs}"
        return f"({ins}) -> ({outs})"


@dataclass(frozen=True)
class IntegerAttr(Attribute):
    """An integer constant with an associated type."""

    value: int
    type: TypeAttribute = field(default=i64)

    def __str__(self) -> str:
        return f"{self.value} : {self.type}"


@dataclass(frozen=True)
class BoolAttr(Attribute):
    """A boolean flag attribute."""

    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class StringAttr(Attribute):
    """A string attribute, e.g. a symbol or accelerator name."""

    value: str

    def __str__(self) -> str:
        from .printer import quote_string

        return quote_string(self.value)


@dataclass(frozen=True)
class SymbolRefAttr(Attribute):
    """A reference to a symbol (function name) by ``@name``."""

    name: str

    def __str__(self) -> str:
        return f"@{self.name}"


@dataclass(frozen=True)
class ArrayAttr(Attribute):
    """An ordered list of attributes."""

    elements: tuple[Attribute, ...]

    @staticmethod
    def from_list(elements: list[Attribute] | tuple[Attribute, ...]) -> "ArrayAttr":
        return ArrayAttr(tuple(elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i: int) -> Attribute:
        return self.elements[i]

    def __str__(self) -> str:
        return "[" + ", ".join(str(e) for e in self.elements) + "]"


@dataclass(frozen=True)
class DictAttr(Attribute):
    """An ordered string-keyed dictionary of attributes."""

    entries: tuple[tuple[str, Attribute], ...]

    @staticmethod
    def from_dict(d: dict[str, Attribute]) -> "DictAttr":
        return DictAttr(tuple(d.items()))

    def as_dict(self) -> dict[str, Attribute]:
        return dict(self.entries)

    def __str__(self) -> str:
        inner = ", ".join(f"{k} = {v}" for k, v in self.entries)
        return "{" + inner + "}"


@dataclass(frozen=True)
class UnitAttr(Attribute):
    """An attribute whose presence alone carries meaning."""

    def __str__(self) -> str:
        return "unit"
