"""The :class:`Operation` base class.

An operation is the unit of computation in the IR: it reads SSA operands,
produces SSA results, carries a dictionary of attributes, and may contain
nested regions.  Concrete ops subclass :class:`Operation`, set the class-level
``name`` (``"dialect.opname"``), and usually add typed accessors.

Operands, results and regions are immutable tuples, and an op without any
holds the shared ``()``: a constant allocates no container for its operands
or regions, so the garbage collector has fewer objects to scan.  They change
by rebuilding the tuple — operands through :meth:`set_operand`,
:meth:`set_operands` and friends so that def-use chains stay consistent,
regions through :meth:`add_region`, results by assigning a longer tuple (see
``scf.ForOp.add_iter_arg``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from .attributes import Attribute, TypeAttribute
from .ssa import OpResult, SSAValue, Use
from .traits import IsTerminator, OpTrait, Pure

if TYPE_CHECKING:  # pragma: no cover
    from .block import Block, Region


_IS_TERMINATOR = IsTerminator()
_PURE = Pure()

#: lazily bound by :meth:`Operation.clone` (module-level import would cycle)
_BLOCK_CLS = None
_REGION_CLS = None


class IRError(Exception):
    """Raised on malformed IR manipulations."""


class VerifyError(IRError):
    """Raised when IR fails verification."""


class InterpreterError(Exception):
    """Raised when a program cannot be interpreted: an error of the program,
    the same under either execution engine (an arithmetic trap, a protocol
    violation), never a fault of an engine."""


class Operation:
    """Base class of all operations."""

    name: str = "builtin.unregistered"
    traits: frozenset[OpTrait] = frozenset()
    #: attribute names rendered by the op's custom syntax; any *other*
    #: attribute (e.g. an ``accfg.effects`` annotation) is printed as a
    #: trailing ``{...}`` dictionary so round-trips stay lossless
    custom_printed_attrs: frozenset[str] = frozenset()
    #: trait flags as plain class attributes (see __init_subclass__)
    is_terminator: bool = False
    is_pure: bool = False

    __slots__ = ("_operands", "results", "attributes", "regions", "parent", "loc")

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.is_terminator = _IS_TERMINATOR in cls.traits
        cls.is_pure = _PURE in cls.traits

    def __init__(
        self,
        operands: Sequence[SSAValue] = (),
        result_types: Sequence[TypeAttribute] = (),
        attributes: dict[str, Attribute] | None = None,
        regions: Sequence["Region"] = (),
    ) -> None:
        #: where this op came from in textual IR, if parsed (see location.py)
        self.loc: str | None = None
        self._operands: tuple[SSAValue, ...] = tuple(operands)
        self.results: tuple[OpResult, ...] = tuple(
            [OpResult(t, self, i) for i, t in enumerate(result_types)]
        )
        self.attributes: dict[str, Attribute] = (
            dict(attributes) if attributes else {}
        )
        self.regions: tuple[Region, ...] = ()
        self.parent: Block | None = None
        for i, operand in enumerate(self._operands):
            operand.add_use(Use(self, i))
        for region in regions:
            self.add_region(region)

    # -- operands ------------------------------------------------------------

    @property
    def operands(self) -> tuple[SSAValue, ...]:
        return self._operands

    def set_operand(self, index: int, value: SSAValue) -> None:
        """Replace operand ``index`` with ``value``, updating use lists."""
        operands = list(self._operands)
        operands[index].remove_use_of(self, index)
        operands[index] = value
        self._operands = tuple(operands)
        value.add_use(Use(self, index))

    def set_operands(self, values: Sequence[SSAValue]) -> None:
        """Replace the whole operand list (lengths may differ)."""
        for i, old in enumerate(self._operands):
            old.remove_use_of(self, i)
        self._operands = tuple(values)
        for i, new in enumerate(self._operands):
            new.add_use(Use(self, i))

    def drop_all_references(self) -> None:
        """Remove this op's reads of its operands (used before erasing)."""
        for i, old in enumerate(self._operands):
            old.remove_use_of(self, i)
        self._operands = ()
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.ops):
                    op.drop_all_references()

    # -- regions ---------------------------------------------------------

    def add_region(self, region: "Region") -> None:
        region.parent = self
        self.regions = (*self.regions, region)

    @property
    def parent_op(self) -> "Operation | None":
        if self.parent is None:
            return None
        region = self.parent.parent
        return region.parent if region is not None else None

    def is_ancestor_of(self, other: "Operation") -> bool:
        """True if ``other`` is nested (transitively) inside this op."""
        current = other.parent_op
        while current is not None:
            if current is self:
                return True
            current = current.parent_op
        return False

    # -- structural helpers ----------------------------------------------

    def detach(self) -> "Operation":
        """Remove from the parent block without touching uses."""
        if self.parent is not None:
            self.parent.detach_op(self)
        return self

    def erase(self, safe: bool = True) -> None:
        """Detach and delete this operation.

        With ``safe=True`` (default) raises if any result still has uses.
        """
        if safe:
            for result in self.results:
                if result.has_uses:
                    raise IRError(
                        f"cannot erase '{self.name}': result #{result.index} "
                        f"still has {len(result.uses)} use(s)"
                    )
        self.detach()
        self.drop_all_references()

    def walk(self, reverse: bool = False) -> Iterator["Operation"]:
        """Yield this op and all nested ops, pre-order.

        Iterative (explicit stack) rather than recursive: the walk sits on
        the hot path of the verifier, lints, and every pass, and nested
        ``yield from`` generators pay a frame per nesting level per item.
        Children are snapshotted when their parent is yielded, so erasing
        an op while walking it (the common collect-then-mutate idiom) is
        safe.
        """
        stack = [self]
        while stack:
            op = stack.pop()
            yield op
            if not op.regions:
                continue
            children: list[Operation] = []
            regions = reversed(op.regions) if reverse else op.regions
            for region in regions:
                blocks = reversed(region.blocks) if reverse else region.blocks
                for block in blocks:
                    ops = block.ops
                    children.extend(reversed(ops) if reverse else ops)
            children.reverse()
            stack.extend(children)

    def walk_list(self) -> "list[Operation]":
        """Pre-order op list, same order as :meth:`walk`.

        Materialized variant for hot consumers (verifier, pattern-driver
        seeding, pass-level op collection).  Recursing per *block* rather
        than maintaining an explicit per-op stack means region-free ops —
        the overwhelming majority — cost one append and one truthiness
        check each; :meth:`walk` pays a generator resumption per op and the
        old stack walk paid a children-list build and reversal per parent.
        """
        out: list[Operation] = [self]
        if self.regions:
            _walk_into(self, out)
        return out

    def is_before_in_block(self, other: "Operation") -> bool:
        """True if both ops share a block and ``self`` comes first."""
        if self.parent is None or self.parent is not other.parent:
            raise IRError("ops are not in the same block")
        return self.parent.index_of(self) < self.parent.index_of(other)

    # -- traits ------------------------------------------------------------

    @classmethod
    def has_trait(cls, trait: OpTrait) -> bool:
        return trait in cls.traits

    # ``is_terminator``/``is_pure`` are class-level constants recomputed per
    # subclass in ``__init_subclass__`` (declared on the base class above,
    # next to ``traits``): trait queries sit on the hot path of the
    # verifier, DCE, and CSE, and a plain class-attribute read beats a
    # property + per-call trait-set membership test.

    # -- cloning -----------------------------------------------------------

    def clone(
        self, value_map: dict[SSAValue, SSAValue] | None = None
    ) -> "Operation":
        """Deep-copy this op (and regions), remapping operands via
        ``value_map``.  Results of cloned ops are added to the map so nested
        references resolve to the clones."""
        # Lazily bound module globals: clone is recursive and hot, and a
        # local ``from .block import ...`` pays import-machinery cost per op.
        global _BLOCK_CLS, _REGION_CLS
        if _REGION_CLS is None:
            from .block import Block as _BLOCK_CLS, Region as _REGION_CLS
        Block, Region = _BLOCK_CLS, _REGION_CLS

        if value_map is None:
            value_map = {}
        new_operands = tuple([value_map.get(o, o) for o in self._operands])
        new_op = object.__new__(type(self))
        # Inlined Operation.__init__: clone dominates pass pipelines, and the
        # generic constructor re-walks tuples this path already has in hand.
        new_op.loc = self.loc
        new_op._operands = new_operands
        new_op.results = tuple(
            [OpResult(r.type, new_op, i) for i, r in enumerate(self.results)]
        )
        new_op.attributes = dict(self.attributes)
        new_op.regions = ()
        new_op.parent = None
        for i, operand in enumerate(new_operands):
            operand.add_use(Use(new_op, i))
        for old_res, new_res in zip(self.results, new_op.results):
            new_res.name_hint = old_res.name_hint
            value_map[old_res] = new_res
        for region in self.regions:
            new_region = Region()
            for block in region.blocks:
                new_block = Block(arg_types=[a.type for a in block.args])
                for old_arg, new_arg in zip(block.args, new_block.args):
                    new_arg.name_hint = old_arg.name_hint
                    value_map[old_arg] = new_arg
                new_region.add_block(new_block)
            # Two passes so forward block references (rare) resolve; ops are
            # cloned after all blocks/args exist.
            for block, new_block in zip(region.blocks, new_region.blocks):
                for op in block.ops:
                    new_block.add_op(op.clone(value_map))
            new_op.add_region(new_region)
        return new_op

    # -- verification --------------------------------------------------------

    def verify(self) -> None:
        """Verify this operation and everything nested inside it."""
        from .verifier import verify_operation

        verify_operation(self)

    def verify_(self) -> None:
        """Op-specific verification hook; subclasses override."""

    # -- folding / canonicalization hooks ------------------------------------

    def fold(self) -> "list[SSAValue | Attribute] | None":
        """Try to fold this op.

        Returns ``None`` when no folding applies, otherwise a list with one
        entry per result: either an existing :class:`SSAValue` to reuse or an
        :class:`Attribute` to materialize as a constant.
        """
        return None

    # -- convenience -------------------------------------------------------

    @property
    def result(self) -> OpResult:
        """The single result (raises if the op does not have exactly one)."""
        if len(self.results) != 1:
            raise IRError(f"'{self.name}' has {len(self.results)} results, not 1")
        return self.results[0]

    def __str__(self) -> str:
        from .printer import print_operation

        return print_operation(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"

    # Identity hashing/equality: ops are mutable graph nodes, and the
    # worklist driver, CSE, and DCE all key sets by op identity.  The
    # inherited object.__hash__/__eq__ already ARE identity-based and run
    # in C; redefining them in Python costs a frame per set probe on the
    # hottest paths, so we deliberately do not override them.


def _walk_into(op: Operation, out: list[Operation]) -> None:
    """Append all ops nested under ``op``'s regions to ``out``, pre-order."""
    for region in op.regions:
        for block in region.blocks:
            for nested in block.ops:
                out.append(nested)
                if nested.regions:
                    _walk_into(nested, out)


class UnregisteredOp(Operation):
    """An operation of a dialect the parser does not know.

    Carries the textual name in ``op_name`` so round-tripping is lossless.
    Treated pessimistically by every pass (unknown effects).
    """

    name = "builtin.unregistered"

    __slots__ = ("op_name",)

    def __init__(
        self,
        op_name: str,
        operands: Sequence[SSAValue] = (),
        result_types: Sequence[TypeAttribute] = (),
        attributes: dict[str, Attribute] | None = None,
        regions: Sequence["Region"] = (),
    ) -> None:
        super().__init__(operands, result_types, attributes, regions)
        self.op_name = op_name

    def clone(self, value_map: dict[SSAValue, SSAValue] | None = None) -> "Operation":
        cloned = super().clone(value_map)
        cloned.op_name = self.op_name  # type: ignore[attr-defined]
        return cloned
