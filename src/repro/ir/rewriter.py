"""Rewriting infrastructure.

Three layers, mirroring MLIR:

* :class:`Rewriter` — static structural helpers (replace, erase, move,
  inline) that keep def-use chains consistent.
* :class:`RewritePattern` + :class:`PatternRewriter` — local rewrites that
  report what they touched, so a driver can re-enqueue exactly the
  neighbours a mutation may have enabled.
* the **worklist driver** — :func:`drive_patterns` applies a pattern set
  to fixpoint.  It seeds one linear walk, pops ops, tries only the
  patterns indexed by the op's root class/name (see
  :attr:`RewritePattern.root_ops` and :meth:`RewritePattern.applies_to`),
  and re-enqueues the neighbours reported through
  :attr:`PatternRewriter.touched` — users of replaced results, operand
  definers of erased ops, inserted/inlined ops, and the enclosing parent.
  It reaches the normal form of a fixpoint of full sweeps (every pattern
  on every op, re-walking until nothing fires), which the tests hold it
  to.
"""

from __future__ import annotations

import warnings
from collections import deque
from typing import Iterable, Sequence

from .block import Block
from .builder import Builder, InsertPoint
from .operation import IRError, Operation
from .ssa import SSAValue

#: rewrites per seeded op before the driver gives up on a non-converging
#: pattern set
MAX_PATTERN_ITERATIONS = 50


class PatternDriverWarning(RuntimeWarning):
    """A pattern driver stopped before reaching a fixpoint."""


def enclosing_scope(root: Operation, op: Operation) -> Operation | None:
    """The direct child of ``root`` containing ``op`` (or being ``op``).

    Returns None when ``op`` is ``root`` itself or not nested under it —
    callers treat that as "change at root level" and report conservatively.
    """
    current: Operation | None = op
    while current is not None:
        parent = current.parent_op
        if parent is root:
            return current
        current = parent
    return None


class Rewriter:
    """Structural IR edits that keep the def-use graph consistent."""

    @staticmethod
    def erase_op(op: Operation) -> None:
        op.erase()

    @staticmethod
    def replace_op(
        op: Operation,
        new_ops: Operation | Sequence[Operation],
        new_results: Sequence[SSAValue | None] | None = None,
    ) -> None:
        """Insert ``new_ops`` before ``op``, reroute its results, erase it.

        ``new_results`` defaults to the results of the last new op.  ``None``
        entries assert the corresponding result was unused.
        """
        if isinstance(new_ops, Operation):
            new_ops = [new_ops]
        block = op.parent
        if block is None:
            raise IRError("cannot replace an op without a parent block")
        index = block.index_of(op)
        for offset, new_op in enumerate(new_ops):
            block.insert_op_at(index + offset, new_op)
        if new_results is None:
            new_results = list(new_ops[-1].results) if new_ops else []
        if len(new_results) != len(op.results):
            raise IRError(
                f"replacement provides {len(new_results)} results, "
                f"op '{op.name}' has {len(op.results)}"
            )
        for old, new in zip(op.results, new_results):
            if new is None:
                if old.has_uses:
                    raise IRError("result marked dead still has uses")
                continue
            old.replace_all_uses_with(new)
        op.erase()

    @staticmethod
    def replace_values(op: Operation, new_results: Sequence[SSAValue]) -> None:
        """Reroute all of ``op``'s results to existing values and erase it."""
        for old, new in zip(op.results, new_results):
            old.replace_all_uses_with(new)
        op.erase()

    @staticmethod
    def move_op_before(op: Operation, anchor: Operation) -> None:
        op.detach()
        if anchor.parent is None:
            raise IRError("anchor has no parent block")
        anchor.parent.insert_op_before(anchor, op)

    @staticmethod
    def move_op_after(op: Operation, anchor: Operation) -> None:
        op.detach()
        if anchor.parent is None:
            raise IRError("anchor has no parent block")
        anchor.parent.insert_op_after(anchor, op)

    @staticmethod
    def inline_block_before(
        block: Block, anchor: Operation, arg_values: Sequence[SSAValue]
    ) -> None:
        """Move all ops of ``block`` before ``anchor``, substituting block
        arguments with ``arg_values``.  The terminator must be removed by the
        caller beforehand (or be absent)."""
        if len(arg_values) != len(block.args):
            raise IRError("argument count mismatch when inlining block")
        for arg, value in zip(block.args, arg_values):
            arg.replace_all_uses_with(value)
        target = anchor.parent
        if target is None:
            raise IRError("anchor has no parent block")
        for op in list(block.ops):
            block.detach_op(op)
            target.insert_op_before(anchor, op)


class RewritePattern:
    """A local rewrite; subclasses implement :meth:`match_and_rewrite`.

    ``root_ops`` is the indexing hint: a tuple of Operation subclasses
    and/or op-name strings the pattern can fire on.  ``None`` (the default)
    means wildcard — the pattern is tried on every op, optionally narrowed
    by :meth:`applies_to`, which filters by op *class* and is consulted once
    per class per driver.
    """

    #: op classes / op-name strings this pattern can match; None = wildcard
    root_ops: tuple | None = None

    @classmethod
    def applies_to(cls, op_type: type) -> bool:
        """Class-level prefilter for wildcard patterns (cheap, cached)."""
        return True

    def match_and_rewrite(self, op: Operation, rewriter: "PatternRewriter") -> bool:
        """Attempt to rewrite ``op``; return True iff IR was changed."""
        raise NotImplementedError


class PatternRewriter(Rewriter):
    """Rewriter handed to patterns; records whether anything changed, which
    ops were touched (so the driver can re-enqueue neighbours) and which ops
    were erased (so the driver can skip their queued subtrees in O(1))."""

    def __init__(self) -> None:
        self.changed = False
        self.touched: list[Operation] = []
        self.erased: list[Operation] = []
        #: ops newly inserted or moved into place — the only touched ops
        #: whose *subtrees* the driver must expand (a merely re-touched
        #: parent, e.g. the loop around an erased op, must not re-enqueue
        #: its entire body)
        self.inserted: list[Operation] = []
        #: per-rewriter scratch for DedupConstantPattern (see its docstring)
        self._constant_memo: dict = {}

    def notify_changed(self, *ops: Operation) -> None:
        self.changed = True
        self.touched.extend(ops)

    def _touch_operand_definers(self, op: Operation) -> None:
        for operand in op.operands:
            owner = operand.owner
            if isinstance(owner, Operation):
                self.touched.append(owner)

    def erase_op(self, op: Operation) -> None:  # type: ignore[override]
        self._touch_operand_definers(op)
        parent = op.parent_op
        if parent is not None:
            self.touched.append(parent)
        self.erased.append(op)
        Rewriter.erase_op(op)
        self.changed = True

    def replace_op(
        self,
        op: Operation,
        new_ops: Operation | Sequence[Operation],
        new_results: Sequence[SSAValue | None] | None = None,
    ) -> None:  # type: ignore[override]
        users = [u for r in op.results for u in r.users()]
        # Erasing ``op`` may leave its operand definers dead; the worklist
        # driver must revisit them or chains never fully disappear.
        self._touch_operand_definers(op)
        parent = op.parent_op
        self.erased.append(op)
        Rewriter.replace_op(op, new_ops, new_results)
        self.changed = True
        self.touched.extend(users)
        if parent is not None:
            self.touched.append(parent)
        if isinstance(new_ops, Operation):
            self.touched.append(new_ops)
            self.inserted.append(new_ops)
        else:
            self.touched.extend(new_ops)
            self.inserted.extend(new_ops)

    def replace_values(
        self, op: Operation, new_results: Sequence[SSAValue]
    ) -> None:  # type: ignore[override]
        users = [u for r in op.results for u in r.users()]
        self._touch_operand_definers(op)
        parent = op.parent_op
        self.erased.append(op)
        Rewriter.replace_values(op, new_results)
        self.changed = True
        self.touched.extend(users)
        if parent is not None:
            self.touched.append(parent)

    def insert_op_before(self, anchor: Operation, op: Operation) -> None:
        if anchor.parent is None:
            raise IRError("anchor has no parent block")
        anchor.parent.insert_op_before(anchor, op)
        self.inserted.append(op)
        self.notify_changed(op)

    def insert_op_after(self, anchor: Operation, op: Operation) -> None:
        if anchor.parent is None:
            raise IRError("anchor has no parent block")
        anchor.parent.insert_op_after(anchor, op)
        self.inserted.append(op)
        self.notify_changed(op)

    def inline_block_before(
        self, block: Block, anchor: Operation, arg_values: Sequence[SSAValue]
    ) -> None:  # type: ignore[override]
        moved = list(block.ops)
        Rewriter.inline_block_before(block, anchor, arg_values)
        self.changed = True
        self.touched.extend(moved)
        self.inserted.extend(moved)


class Worklist:
    """FIFO of operations with O(1) membership dedupe.

    Holds strong references (an ``Operation`` hashes by identity), so queued
    ops can never be garbage-collected and have their ``id`` reused.
    """

    __slots__ = ("_queue", "_members")

    def __init__(self) -> None:
        self._queue: deque[Operation] = deque()
        self._members: set[Operation] = set()

    def push(self, op: Operation) -> None:
        if op not in self._members:
            self._members.add(op)
            self._queue.append(op)

    def pop(self) -> Operation:
        op = self._queue.popleft()
        self._members.discard(op)
        return op

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)


class DriverResult:
    """What a pattern-driver run did.

    ``scopes`` lists the direct children of the driven root whose subtrees
    changed (insertion-ordered); None means a root-level change or a run
    that stopped before its fixpoint.  :meth:`report` converts to the pass
    change-report protocol.
    """

    __slots__ = ("changed", "scopes")

    def __init__(
        self,
        changed: bool,
        scopes: "dict[Operation, None] | None" = None,
    ) -> None:
        self.changed = changed
        self.scopes = scopes

    def report(self):
        """False / True / list-of-scope-ops, as PassManager expects."""
        if not self.changed:
            return False
        if self.scopes is None:
            return True
        if any(scope.parent is None for scope in self.scopes):
            return True  # a top-level scope was itself erased: be safe
        return list(self.scopes)


def _warn_nonconvergence(
    driver: str, patterns: Sequence[RewritePattern], op_count: int
) -> None:
    names = ", ".join(sorted({type(p).__name__ for p in patterns}))
    warnings.warn(
        f"{driver} pattern driver stopped before reaching a fixpoint "
        f"(patterns: {names}; {op_count} ops under root) — the pattern set "
        "does not converge",
        PatternDriverWarning,
        stacklevel=3,
    )


class GreedyPatternDriver:
    """The worklist driver: incremental greedy pattern application.

    One instance indexes a fixed pattern set; :meth:`run` drives a root (or
    a seeded subset of its ops) to fixpoint.  Per-class pattern lists are
    cached in the instance, so reusing one driver across modules amortizes
    the indexing.
    """

    def __init__(
        self,
        patterns: Sequence[RewritePattern],
        max_iterations: int = MAX_PATTERN_ITERATIONS,
    ) -> None:
        self.patterns = tuple(patterns)
        self.max_iterations = max_iterations
        self._index: dict[object, tuple[RewritePattern, ...]] = {}

    def _patterns_for(self, op: Operation) -> tuple[RewritePattern, ...]:
        op_type = type(op)
        key: object = op_type
        op_name = op.name
        if op_name == "builtin.unregistered":
            op_name = getattr(op, "op_name", op_name)
            key = (op_type, op_name)
        cached = self._index.get(key)
        if cached is None:
            cached = tuple(
                pattern
                for pattern in self.patterns
                if self._pattern_matches_type(pattern, op_type, op_name)
            )
            self._index[key] = cached
        return cached

    @staticmethod
    def _pattern_matches_type(
        pattern: RewritePattern, op_type: type, op_name: str
    ) -> bool:
        roots = pattern.root_ops
        if roots is None:
            return pattern.applies_to(op_type)
        for root in roots:
            if isinstance(root, str):
                if root == op_name:
                    return True
            elif issubclass(op_type, root):
                return True
        return False

    def run(
        self,
        root: Operation,
        seeds: Iterable[Operation] | None = None,
        rewriter: PatternRewriter | None = None,
    ) -> DriverResult:
        """Drive the pattern set to fixpoint over ``root``.

        ``seeds`` restricts the initial worklist to the given ops (plus
        whatever their rewrites touch) instead of a full walk — used by the
        fused cleanup driver to resume after CSE reported what it changed.
        """
        worklist = Worklist()
        patterns_for = self._patterns_for
        index = self._index
        if seeds is None:
            # Index-filtered seeding: ops no pattern targets (most of a
            # typical module) never enter the worklist at all.  The index
            # lookup is inlined — unregistered ops (keyed by name, not
            # class) simply miss and take the slow path.
            push = worklist.push
            for op in root.walk_list():
                cached = index.get(type(op))
                if cached is None:
                    cached = patterns_for(op)
                if cached:
                    push(op)
        else:
            for op in seeds:
                if patterns_for(op):
                    worklist.push(op)
        if rewriter is None:
            rewriter = PatternRewriter()
        #: ops inside erased subtrees (their ``parent`` links survive
        #: ``erase()``, so the flag set is the O(1) liveness check)
        erased: set[Operation] = set()
        # Cheap budget first (seed count); a legitimate cascade from a small
        # seed set may exceed it, so before declaring non-convergence the
        # budget is re-derived once from the actual op count under root —
        # the bound of max_iterations full sweeps.
        budget = self.max_iterations * max(len(worklist), 1)
        budget_escalated = seeds is None
        rewrites = 0
        changed = False
        scopes: dict[Operation, None] = {}
        root_level_change = False

        pop = worklist.pop
        push = worklist.push
        while worklist:
            op = pop()
            if op in erased or (op is not root and op.parent is None):
                continue
            # Inlined index probe, same trick as seeding (unregistered ops
            # are keyed by name, miss here, and take the slow path).
            patterns = index.get(type(op))
            if patterns is None:
                patterns = patterns_for(op)
            if not patterns:
                continue
            # Captured before any rewrite: a fired pattern may detach ``op``
            # (erasure breaks the parent chain the scope walk needs).
            scope = enclosing_scope(root, op)
            for pattern in patterns:
                rewriter.changed = False
                rewriter.touched.clear()
                rewriter.erased.clear()
                rewriter.inserted.clear()
                fired = pattern.match_and_rewrite(op, rewriter)
                if not (fired or rewriter.changed):
                    continue
                changed = True
                rewrites += 1
                if scope is None:
                    root_level_change = True
                else:
                    scopes[scope] = None
                for dead in rewriter.erased:
                    if dead not in erased:
                        for sub in dead.walk_list():
                            erased.add(sub)
                for touched in rewriter.touched:
                    if touched is root or touched in erased:
                        continue
                    cached = index.get(type(touched))
                    if cached is None:
                        cached = patterns_for(touched)
                    if cached:
                        push(touched)
                # Only ops *moved or inserted* with regions (inlined
                # branches, replacement subtrees) need their nested ops
                # enqueued — a full sweep would see them on its next walk.
                # A merely re-touched parent must not re-enqueue its whole
                # body.
                for inserted in rewriter.inserted:
                    if inserted.regions and inserted not in erased:
                        for sub in inserted.walk_list():
                            if sub not in erased and patterns_for(sub):
                                push(sub)
                if op not in erased and (op is root or op.parent is not None):
                    push(op)  # the rewritten op may match again
                break  # op may be gone; move on
            if rewrites >= budget:
                if not budget_escalated:
                    budget_escalated = True
                    budget = max(
                        budget,
                        self.max_iterations
                        * max(sum(1 for _ in root.walk()), 1),
                    )
                    if rewrites < budget:
                        continue
                _warn_nonconvergence(
                    "worklist", self.patterns, sum(1 for _ in root.walk())
                )
                return DriverResult(changed)
        return DriverResult(
            changed, scopes=None if root_level_change else scopes
        )


#: driver instances cached per pattern-set identity, so repeated pipeline
#: runs reuse the per-class pattern index (the pattern tuple held by the
#: driver pins the ids, making id-reuse impossible)
_DRIVER_CACHE: dict[tuple, GreedyPatternDriver] = {}


def _cached_driver(
    patterns: Sequence[RewritePattern], max_iterations: int
) -> GreedyPatternDriver:
    key = tuple(id(p) for p in patterns) + (max_iterations,)
    driver = _DRIVER_CACHE.get(key)
    if driver is None:
        driver = GreedyPatternDriver(patterns, max_iterations)
        _DRIVER_CACHE[key] = driver
    return driver


def drive_patterns(
    root: Operation,
    patterns: Sequence[RewritePattern],
    max_iterations: int = MAX_PATTERN_ITERATIONS,
) -> DriverResult:
    """Apply ``patterns`` over all ops nested in ``root`` until fixpoint.

    Returns a :class:`DriverResult` with the per-scope change set.
    """
    return _cached_driver(patterns, max_iterations).run(root)


__all__ = [
    "Rewriter",
    "RewritePattern",
    "PatternRewriter",
    "PatternDriverWarning",
    "Worklist",
    "DriverResult",
    "GreedyPatternDriver",
    "drive_patterns",
    "enclosing_scope",
    "MAX_PATTERN_ITERATIONS",
    "Builder",
    "InsertPoint",
]
