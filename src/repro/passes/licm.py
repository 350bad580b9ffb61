"""Loop-invariant code motion.

Hoists pure ops out of ``scf.for`` bodies when every operand is defined
outside the loop.  Runs innermost-first so invariants bubble all the way out
of loop nests.  This is one of the stock optimizations the paper notes accfg
code benefits from once configuration computation is visible IR instead of
volatile inline assembly (Section 5.2); the accfg-specific variant that
hoists *individual setup fields* lives in :mod:`repro.passes.dedup`.

Per loop, a FIFO worklist seeded in body order replaces the
rescan-until-fixpoint rounds: hoisting an op re-enqueues only the in-body
users of its results, which are the only ops the hoist can newly make
invariant.  Insertion is always directly before the loop, so any hoist
order is dominance-safe.
"""

from __future__ import annotations

from ..dialects import arith, scf
from ..ir.block import Block
from ..ir.operation import Operation
from ..ir.rewriter import Rewriter, Worklist, enclosing_scope
from ..ir.ssa import SSAValue
from .pass_manager import ModulePass, register_pass, report_scopes


def is_defined_outside(value: SSAValue, loop: scf.ForOp) -> bool:
    """True when ``value`` does not depend on the loop body (or the loop)."""
    owner = value.owner
    if isinstance(owner, Block):
        # A block argument: outside unless it belongs to a block nested in
        # (or equal to) the loop body.
        block: Block | None = owner
        while block is not None:
            if block is loop.body:
                return False
            parent_op = block.parent_op
            block = parent_op.parent if parent_op is not None else None
        return True
    current: Operation | None = owner
    while current is not None:
        if current is loop:
            return False
        current = current.parent_op
    return True


def hoist_from_loop(loop: scf.ForOp) -> bool:
    """Hoist every (transitively) invariant pure op out of one loop."""
    if loop.parent is None:
        return False
    worklist = Worklist()
    for op in loop.body.ops:
        worklist.push(op)
    runs = scf.certainly_runs(loop)
    hoisted = False
    while worklist:
        op = worklist.pop()
        if op.parent is not loop.body:
            continue  # already hoisted (or erased)
        if not op.is_pure or op.regions or op.is_terminator:
            continue
        if not (runs or arith.cannot_trap(op)):
            continue  # hoisting would run it where the loop may not
        if not all(is_defined_outside(operand, loop) for operand in op.operands):
            continue
        users = [
            user
            for result in op.results
            for user in result.users()
            if user.parent is loop.body
        ]
        Rewriter.move_op_before(op, loop)
        hoisted = True
        for user in users:
            worklist.push(user)
    return hoisted


@register_pass
class LICMPass(ModulePass):
    """Hoist loop-invariant pure computation out of scf.for bodies."""

    name = "licm"

    def apply(self, module: Operation, analyses=None):
        # Collect loops innermost-first: a post-order over the walk.
        loops = [op for op in module.walk_list() if isinstance(op, scf.ForOp)]
        scopes: dict[Operation, None] = {}
        root_level = False
        hoisted_any = False
        for loop in reversed(loops):
            if loop.parent is None:
                continue
            if hoist_from_loop(loop):
                hoisted_any = True
                scope = enclosing_scope(module, loop)
                if scope is None:
                    root_level = True
                else:
                    scopes[scope] = None
        return report_scopes(hoisted_any, scopes, root_level)
