"""SSA values and their def-use chains.

Every value in the IR is defined exactly once — either as a result of an
operation (:class:`OpResult`) or as a block argument (:class:`BlockArgument`).
Each value tracks the set of operand slots that read it, which gives the
rewriting infrastructure constant-time ``replace_all_uses_with`` and lets
passes such as configuration deduplication reason about SSA-value identity as
a proxy for runtime-value identity (paper, Section 5.4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .attributes import TypeAttribute

if TYPE_CHECKING:  # pragma: no cover - import cycle breakers for typing only
    from .block import Block
    from .operation import Operation


class Use:
    """A single read of an SSA value: ``operation.operands[index]``.

    A plain ``__slots__`` class rather than a frozen dataclass: one ``Use``
    is built for every operand link/unlink, and the frozen-dataclass
    ``object.__setattr__`` constructor is several times slower than direct
    slot assignment.
    """

    __slots__ = ("operation", "index")

    def __init__(self, operation: "Operation", index: int) -> None:
        self.operation = operation
        self.index = index

    def __repr__(self) -> str:
        return f"Use({self.operation!r}, {self.index})"

    def __hash__(self) -> int:
        return hash((id(self.operation), self.index))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Use):
            return NotImplemented
        return self.operation is other.operation and self.index == other.index


class SSAValue:
    """Base class for all SSA values."""

    __slots__ = ("type", "uses", "name_hint")

    def __init__(self, type: TypeAttribute, name_hint: str | None = None) -> None:
        if not isinstance(type, TypeAttribute):
            raise TypeError(f"SSA value type must be a TypeAttribute, got {type!r}")
        self.type = type
        # A list, not a set: use lists are tiny (a handful of entries), and
        # list append/scan beats per-Use tuple hashing on every link/unlink.
        # Link/unlink discipline (one add per operand slot, one remove per
        # unlink) keeps entries unique without set semantics.  The list is
        # made by the first use: until then ``uses`` is the shared ``()``, so
        # a value nothing reads allocates none.
        self.uses: list[Use] | tuple[()] = ()
        self.name_hint = name_hint

    # -- def-use management -------------------------------------------------

    def add_use(self, use: Use) -> None:
        uses = self.uses
        if uses:
            uses.append(use)
        else:
            self.uses = [use]

    def remove_use(self, use: Use) -> None:
        self.remove_use_of(use.operation, use.index)

    def remove_use_of(self, operation: "Operation", index: int) -> None:
        """Unlink the use ``operation.operands[index]`` without allocating a
        :class:`Use` for the lookup (the unlink-side hot path)."""
        uses = self.uses
        for i, existing in enumerate(uses):
            if existing.operation is operation and existing.index == index:
                del uses[i]
                return

    def replace_all_uses_with(self, other: "SSAValue") -> None:
        """Rewrite every operand slot reading ``self`` to read ``other``."""
        if other is self:
            return
        for use in list(self.uses):
            use.operation.set_operand(use.index, other)

    @property
    def has_uses(self) -> bool:
        return bool(self.uses)

    def users(self) -> list["Operation"]:
        """The operations reading this value, deduplicated, in no fixed order."""
        seen: list[Operation] = []
        for use in self.uses:
            if all(use.operation is not s for s in seen):
                seen.append(use.operation)
        return seen

    # -- introspection -------------------------------------------------------

    @property
    def owner(self) -> "Operation | Block":
        raise NotImplementedError

    # Identity hashing/equality (value maps, use sets, CSE keys) is the
    # inherited object behaviour, already C-implemented; overriding it in
    # Python would add a frame per dict/set probe on hot paths.


class OpResult(SSAValue):
    """A value produced by an operation."""

    __slots__ = ("op", "index")

    def __init__(
        self,
        type: TypeAttribute,
        op: "Operation",
        index: int,
        name_hint: str | None = None,
    ) -> None:
        super().__init__(type, name_hint)
        self.op = op
        self.index = index

    @property
    def owner(self) -> "Operation":
        return self.op

    def __repr__(self) -> str:
        return f"<OpResult #{self.index} of {self.op.name} : {self.type}>"


class BlockArgument(SSAValue):
    """A value introduced at the entry of a block (e.g. a loop induction
    variable or a function parameter)."""

    __slots__ = ("block", "index")

    def __init__(
        self,
        type: TypeAttribute,
        block: "Block",
        index: int,
        name_hint: str | None = None,
    ) -> None:
        super().__init__(type, name_hint)
        self.block = block
        self.index = index

    @property
    def owner(self) -> "Block":
        return self.block

    def __repr__(self) -> str:
        return f"<BlockArgument #{self.index} : {self.type}>"
