"""Canonicalization: constant folding, algebraic identities, dead-code
elimination of pure ops, and structural simplification of scf ops.

The paper (Section 5.2) notes that representing configuration explicitly in
the IR lets ordinary compiler optimizations — constant folding, CSE, LICM —
attack configuration-parameter computation "for free"; this pass implements
the folding part.  Bit-packing expressions such as ``(K << 32) | (J << 16) |
I`` (Listing 1) collapse to constants whenever the operands are static, which
directly raises the effective configuration bandwidth (Section 4.4).

Patterns carry indexing hints for the worklist driver: scf-structural
patterns name their root op class (``root_ops``), and the wildcard patterns
narrow themselves per op *class* through ``applies_to`` (an op type without
a ``fold`` override can never fold; an impure op class can never be dead).
"""

from __future__ import annotations

from ..dialects import arith, scf
from ..ir.attributes import Attribute
from ..ir.operation import Operation
from ..ir.rewriter import PatternRewriter, RewritePattern, drive_patterns
from ..ir.ssa import SSAValue
from ..ir.traits import Pure
from .pass_manager import ModulePass, register_pass

_PURE = Pure()


class FoldPattern(RewritePattern):
    """Apply each op's ``fold`` hook, materializing attribute results."""

    @classmethod
    def applies_to(cls, op_type: type) -> bool:
        # Only op classes overriding the fold hook can ever fold.
        return op_type.fold is not Operation.fold

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        folded = op.fold()
        if folded is None:
            return False
        if op.parent is None:
            return False
        replacements: list[SSAValue] = []
        for entry in folded:
            if isinstance(entry, Attribute):
                constant = arith.materialize_attr(entry)
                rewriter.insert_op_before(op, constant)
                replacements.append(constant.result)
            else:
                replacements.append(entry)
        rewriter.replace_values(op, replacements)
        return True


class DeadPureOpPattern(RewritePattern):
    """Erase pure ops none of whose results are used."""

    @classmethod
    def applies_to(cls, op_type: type) -> bool:
        return _PURE in op_type.traits

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not op.is_pure or op.is_terminator or op.parent is None:
            return False
        if op.regions:
            return False
        if any(result.has_uses for result in op.results):
            return False
        rewriter.erase_op(op)
        return True


class SimplifyConstantIfPattern(RewritePattern):
    """Replace ``scf.if`` on a constant condition with the taken branch."""

    root_ops = (scf.IfOp,)

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not isinstance(op, scf.IfOp) or op.parent is None:
            return False
        cond = arith.constant_value(op.condition)
        if cond is None:
            return False
        if cond:
            block = op.then_block
        else:
            if not op.has_else:
                rewriter.erase_op(op)
                return True
            block = op.else_block
        terminator = block.terminator
        yielded: list[SSAValue] = []
        if isinstance(terminator, scf.YieldOp):
            yielded = list(terminator.operands)
            rewriter.erase_op(terminator)
        rewriter.inline_block_before(block, op, [])
        rewriter.replace_values(op, yielded)
        return True


class SimplifyTrivialLoopPattern(RewritePattern):
    """Drop ``scf.for`` loops that execute zero times (constant bounds)."""

    root_ops = (scf.ForOp,)

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not isinstance(op, scf.ForOp) or op.parent is None:
            return False
        lb = arith.constant_value(op.lb)
        ub = arith.constant_value(op.ub)
        if lb is None or ub is None or lb < ub:
            return False
        rewriter.replace_values(op, list(op.iter_inits))
        return True


class DedupConstantPattern(RewritePattern):
    """Merge identical constants within one block (local constant uniquing).

    A memo of the representative constant per ``(block, value, type)`` lives
    on the rewriter.  Under the sweep driver the rewriter (and memo) is
    recreated every sweep and ops are visited in block order, so the first
    constant seen is the earliest.  The worklist driver's rewriter *outlives*
    any single pass over the IR and pops in worklist (not block) order, so
    the memo must be validated on every hit: a memoized constant that was
    erased or moved away no longer counts, and when both constants are live
    the *earlier one in the block* survives regardless of visit order —
    which is both the dominance-safe choice and the sweep driver's normal
    form.
    """

    root_ops = (arith.ConstantOp,)

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if not isinstance(op, arith.ConstantOp) or op.parent is None:
            return False
        memo: dict = rewriter._constant_memo
        key = (op.parent, op.value, op.results[0].type)
        memoized = memo.get(key)
        if memoized is None or memoized is op or memoized.parent is not op.parent:
            memo[key] = op  # first live constant seen (or stale entry fixed)
            return False
        if memoized.is_before_in_block(op):
            survivor, duplicate = memoized, op
        else:
            survivor, duplicate = op, memoized
        memo[key] = survivor
        rewriter.replace_values(duplicate, [survivor.result])
        return True


DEFAULT_PATTERNS: tuple[RewritePattern, ...] = (
    FoldPattern(),
    DeadPureOpPattern(),
    SimplifyConstantIfPattern(),
    SimplifyTrivialLoopPattern(),
    DedupConstantPattern(),
)


@register_pass
class CanonicalizePass(ModulePass):
    """Greedy application of folding + cleanup patterns to fixpoint."""

    name = "canonicalize"

    def apply(self, module: Operation, analyses=None):
        return drive_patterns(module, DEFAULT_PATTERNS).report()


__all__ = [
    "FoldPattern",
    "DeadPureOpPattern",
    "SimplifyConstantIfPattern",
    "SimplifyTrivialLoopPattern",
    "DedupConstantPattern",
    "DEFAULT_PATTERNS",
    "CanonicalizePass",
]
