"""Loop unrolling.

Fully unrolls ``scf.for`` loops with small constant trip counts.  The paper
attributes part of the Gemmini uplift to "better constant folding and loop
unrolling" (Section 6.1): unrolled iterations become straight-line code
where per-iteration setup fields turn into constants and cross-iteration
redundancy becomes visible to configuration deduplication without needing
the loop-hoisting machinery.

Loop-carried values (including traced accelerator state) are threaded
through the unrolled copies, so the pass composes with ``accfg-trace-states``
in either order.

The pass drives a worklist of loops (seeded innermost-first) instead of
re-walking the module until fixpoint: :func:`unroll_loop` reports the ops it
cloned, and only the loops nested inside those clones are new work.
"""

from __future__ import annotations

from ..dialects import arith, scf
from ..dialects.scf import constant_trip_count
from ..ir.operation import Operation
from ..ir.rewriter import Worklist, enclosing_scope
from ..ir.ssa import SSAValue
from .pass_manager import ModulePass, register_pass, report_scopes

DEFAULT_MAX_TRIPS = 8


def unroll_loop(
    loop: scf.ForOp,
    max_trips: int = DEFAULT_MAX_TRIPS,
    cloned: list[Operation] | None = None,
) -> bool:
    """Fully unroll ``loop`` if its trip count is constant and small.

    ``cloned`` (when given) collects the ops inserted in place of the loop,
    so callers can find newly created nested loops without a re-walk.
    """
    trips = constant_trip_count(loop)
    if trips is None or trips > max_trips or trips == 0:
        return False
    block = loop.parent
    if block is None:
        return False
    lb = arith.constant_value(loop.lb)
    step = arith.constant_value(loop.step)
    assert lb is not None and step is not None

    carried: list[SSAValue] = list(loop.iter_inits)
    insert_index = block.index_of(loop)
    for trip in range(trips):
        iv_value = lb + trip * step
        iv_const = arith.ConstantOp.create(iv_value, loop.induction_var.type)
        block.insert_op_at(insert_index, iv_const)
        insert_index += 1
        value_map: dict[SSAValue, SSAValue] = {
            loop.induction_var: iv_const.result
        }
        for arg, value in zip(loop.iter_args, carried):
            value_map[arg] = value
        yielded: list[SSAValue] = []
        for op in loop.body.ops:
            if isinstance(op, scf.YieldOp):
                yielded = [value_map.get(v, v) for v in op.operands]
                continue
            clone = op.clone(value_map)
            block.insert_op_at(insert_index, clone)
            insert_index += 1
            if cloned is not None:
                cloned.append(clone)
        carried = yielded
    for result, value in zip(loop.results, carried):
        result.replace_all_uses_with(value)
    loop.erase()
    return True


@register_pass
class UnrollPass(ModulePass):
    """Fully unroll small constant-trip-count loops (innermost first)."""

    name = "unroll"

    def __init__(self, max_trips: int = DEFAULT_MAX_TRIPS) -> None:
        self.max_trips = max_trips

    def apply(self, module: Operation, analyses=None):
        worklist = Worklist()
        loops = [op for op in module.walk_list() if isinstance(op, scf.ForOp)]
        for loop in reversed(loops):  # innermost loops dequeue first
            worklist.push(loop)
        unrolled_any = False
        root_level = False
        scopes: dict[Operation, None] = {}
        while worklist:
            loop = worklist.pop()
            if loop.parent is None:
                continue
            scope = enclosing_scope(module, loop)
            cloned: list[Operation] = []
            if not unroll_loop(loop, self.max_trips, cloned):
                continue
            unrolled_any = True
            if scope is None:
                root_level = True
            else:
                scopes[scope] = None
            for clone in cloned:
                if isinstance(clone, scf.ForOp) or clone.regions:
                    for nested in clone.walk():
                        if isinstance(nested, scf.ForOp):
                            worklist.push(nested)
        return report_scopes(unrolled_any, scopes, root_level)
