"""Configuration–computation overlap (paper, Section 5.5).

Only valid for accelerators with *concurrent configuration* capability
(Section 2.2): staging registers let the host write the next configuration
while the accelerator is still computing.

Two rewrites:

* **Loop pipelining** — rotate a ``setup → launch → await`` loop body by one
  iteration: a copy of the setup sequence runs before the loop with the
  induction variable replaced by the lower bound; inside the loop the launch
  fires immediately from the incoming (already configured) state, the setup
  for iteration ``i+1`` runs while the accelerator is busy, and only then the
  await blocks (Figure 9, third block).

* **Straight-line overlap** — a setup whose input state was launched and
  awaited earlier in the same block is moved (together with the pure ops
  computing its fields) up in front of the await, hiding the configuration
  latency behind the accelerator's run time.
"""

from __future__ import annotations

from ..dialects import accfg, arith, scf
from ..ir.operation import Operation
from ..ir.rewriter import Rewriter, Worklist, enclosing_scope
from ..ir.ssa import BlockArgument, SSAValue
from .pass_manager import ModulePass, register_pass, report_scopes


def _is_concurrent(accelerator: str, concurrent: set[str] | None) -> bool:
    if concurrent is not None:
        return accelerator in concurrent
    from ..backends.base import get_accelerator_or_none

    spec = get_accelerator_or_none(accelerator)
    return spec is not None and spec.concurrent_config


def _pure_slice_in_block(values, block) -> list[Operation] | None:
    """The backward slice of ``values`` restricted to ops in ``block``.

    Returns ops in block order, or None when the slice contains an impure op
    (a partial move would be needed, which is not implemented — Section 5.5).
    """
    slice_ops: set[Operation] = set()
    worklist = list(values)
    while worklist:
        value = worklist.pop()
        owner = value.owner
        if not isinstance(owner, Operation) or owner.parent is not block:
            continue
        if owner in slice_ops:
            continue
        if not owner.is_pure or owner.regions:
            return None
        slice_ops.add(owner)
        worklist.extend(owner.operands)
    return sorted(slice_ops, key=block.index_of)


def pipeline_loop(loop: scf.ForOp, concurrent: set[str] | None) -> bool:
    """Apply the rotate-by-one software pipelining to one loop."""
    # Identify the state iter-arg and the setup/launch/await triple.
    state_arg: BlockArgument | None = None
    state_arg_index = -1
    for i, arg in enumerate(loop.iter_args):
        if isinstance(arg.type, accfg.StateType):
            if state_arg is not None:
                return False  # multiple accelerators in one loop: unsupported
            state_arg = arg
            state_arg_index = i
    if state_arg is None:
        return False
    state_type = state_arg.type
    assert isinstance(state_type, accfg.StateType)
    if not _is_concurrent(state_type.accelerator, concurrent):
        return False

    body = loop.body
    setups = [
        op
        for op in body.ops
        if isinstance(op, accfg.SetupOp) and op.accelerator == state_type.accelerator
    ]
    launches = [
        op
        for op in body.ops
        if isinstance(op, accfg.LaunchOp) and op.accelerator == state_type.accelerator
    ]
    awaits = [
        op
        for op in body.ops
        if isinstance(op, accfg.AwaitOp) and op.accelerator == state_type.accelerator
    ]
    if len(setups) != 1 or len(launches) != 1 or len(awaits) != 1:
        return False
    setup, launch, await_op = setups[0], launches[0], awaits[0]
    if setup.in_state is not state_arg:
        return False
    if launch.state is not setup.out_state or launch.fields:
        return False
    if await_op.token is not launch.token:
        return False
    yielded = loop.yield_op.operands[state_arg_index]
    if yielded is not setup.out_state:
        return False
    if not setup.is_before_in_block(launch) or not launch.is_before_in_block(await_op):
        return False

    slice_ops = _pure_slice_in_block([v for _, v in setup.fields], body)
    if slice_ops is None:
        return False
    # The rotated setup computes iteration i+1's fields on every trip, the
    # last one included: an op that may trap must not run for an iteration
    # the source program never reaches.
    if not all(arith.cannot_trap(op) for op in slice_ops):
        return False
    # The slice may not depend on the state arg or on loop results.
    for op in slice_ops:
        for operand in op.operands:
            if operand is state_arg:
                return False

    # 1. Preamble: clone slice + setup before the loop, iv -> lb.  When the
    # loop might run zero times, the preamble is guarded by `lb < ub`
    # (unconditionally writing iteration-0 configuration would be observable
    # by later launches of the carried state).
    value_map: dict[SSAValue, SSAValue] = {
        loop.induction_var: loop.lb,
        state_arg: loop.iter_inits[state_arg_index],
    }
    assert loop.parent is not None
    if scf.certainly_runs(loop):
        for op in slice_ops:
            clone = op.clone(value_map)
            loop.parent.insert_op_before(loop, clone)
        pre_setup = setup.clone(value_map)
        assert isinstance(pre_setup, accfg.SetupOp)
        loop.parent.insert_op_before(loop, pre_setup)
        loop.set_operand(3 + state_arg_index, pre_setup.out_state)
    else:
        cond = arith.CmpiOp.create("ult", loop.lb, loop.ub)
        loop.parent.insert_op_before(loop, cond)
        if_op = scf.IfOp.create(cond.result, [state_type])
        for op in slice_ops:
            if_op.then_block.add_op(op.clone(value_map))
        pre_setup = setup.clone(value_map)
        assert isinstance(pre_setup, accfg.SetupOp)
        if_op.then_block.add_op(pre_setup)
        if_op.then_block.add_op(scf.YieldOp.create([pre_setup.out_state]))
        if_op.else_block.add_op(
            scf.YieldOp.create([loop.iter_inits[state_arg_index]])
        )
        loop.parent.insert_op_before(loop, if_op)
        loop.set_operand(3 + state_arg_index, if_op.results[0])

    # 2. Launch first, from the incoming (pre-configured) state.
    launch.set_operand(0, state_arg)
    Rewriter.move_op_before(launch, body.ops[0])

    # 3. Setup for the next iteration, placed before the await.
    iv_next = arith.AddiOp.create(loop.induction_var, loop.step)
    iv_next.result.name_hint = "i_next"
    body.insert_op_before(await_op, iv_next)
    next_map: dict[SSAValue, SSAValue] = {loop.induction_var: iv_next.result}
    for op in slice_ops:
        clone = op.clone(next_map)
        body.insert_op_before(await_op, clone)
    next_setup = setup.clone(next_map)
    assert isinstance(next_setup, accfg.SetupOp)
    body.insert_op_before(await_op, next_setup)

    # 4. Reroute: the loop now carries the next-iteration state.
    setup.out_state.replace_all_uses_with(next_setup.out_state)
    setup.erase()

    # 5. When the state flowing out of the loop is observed afterwards
    # (register retention: a later launch sees whatever the last setup
    # wrote), the rotated setup must not run in the final iteration — it
    # would commit the configuration of an iteration that never executes.
    # Peel that iteration: shorten the loop by one trip and launch/await the
    # final (already configured) state after the loop.  Peeling keeps the
    # loop body free of per-iteration guard code; when the result is unused
    # we keep the paper's plain rotation (Figure 9) with its harmless
    # trailing write.
    if loop.results[state_arg_index].has_uses:
        new_ub = arith.SubiOp.create(loop.ub, loop.step)
        new_ub.result.name_hint = "ub_main"
        loop.parent.insert_op_before(loop, new_ub)
        final_state = loop.results[state_arg_index]
        tail_launch = accfg.LaunchOp.create(final_state)
        tail_await = accfg.AwaitOp.create(tail_launch.token)
        if scf.certainly_runs(loop):
            loop.parent.insert_op_after(loop, tail_launch)
            loop.parent.insert_op_after(tail_launch, tail_await)
        else:
            ran = arith.CmpiOp.create("ult", loop.lb, loop.ub)
            loop.parent.insert_op_after(loop, ran)
            tail = scf.IfOp.create(ran.result)
            tail.then_block.add_op(tail_launch)
            tail.then_block.add_op(tail_await)
            tail.then_block.add_op(scf.YieldOp.create())
            loop.parent.insert_op_after(ran, tail)
        loop.set_operand(1, new_ub.result)
    return True


def _try_overlap_setup(op: accfg.SetupOp, concurrent: set[str] | None) -> bool:
    """Move one setup above the await of the launch that consumed its input
    state (the block-level rewrite of Section 5.5)."""
    if op.parent is None:
        return False
    if not _is_concurrent(op.accelerator, concurrent):
        return False
    in_state = op.in_state
    if in_state is None:
        return False
    block = op.parent
    # Find the LAST launch of this accelerator before the setup: moving
    # the setup above any earlier launch would change which launch
    # commits its (staged) writes.
    op_index = block.index_of(op)
    launch: accfg.LaunchOp | None = None
    for candidate in block.ops[:op_index]:
        if (
            isinstance(candidate, accfg.LaunchOp)
            and candidate.accelerator == op.accelerator
        ):
            launch = candidate
    if launch is None or launch.state is not in_state:
        return False
    # The await of that launch, between it and the setup.
    await_op: accfg.AwaitOp | None = None
    for candidate in block.ops[block.index_of(launch) + 1 : op_index]:
        if (
            isinstance(candidate, accfg.AwaitOp)
            and candidate.token is launch.token
        ):
            await_op = candidate
            break
    if await_op is None:
        return False
    # Move the whole setup sequence (pure producers between the await
    # and the setup) in front of the await.
    await_index = block.index_of(await_op)
    pending = [v for _, v in op.fields]
    slice_ops: list[Operation] = []
    seen: set[Operation] = set()
    while pending:
        value = pending.pop()
        owner = value.owner
        if not isinstance(owner, Operation) or owner.parent is not block:
            continue
        if block.index_of(owner) <= await_index or owner in seen:
            continue
        if not owner.is_pure or owner.regions:
            return False
        seen.add(owner)
        slice_ops.append(owner)
        pending.extend(owner.operands)
    for slice_op in sorted(slice_ops, key=block.index_of):
        Rewriter.move_op_before(slice_op, await_op)
    Rewriter.move_op_before(op, await_op)
    return True


def overlap_straight_line(root: Operation, concurrent: set[str] | None) -> bool:
    """Drive :func:`_try_overlap_setup` over every setup under ``root``.

    Worklist-driven: moving one setup up can expose the launch/await shape
    for setups later in the same block, so a successful move re-enqueues the
    block's remaining setups instead of rescanning the whole tree.  Each
    move strictly decreases a setup's block index, so the drain terminates.
    """
    worklist = Worklist()
    for op in root.walk_list():
        if isinstance(op, accfg.SetupOp):
            worklist.push(op)
    changed = False
    while worklist:
        op = worklist.pop()
        if not isinstance(op, accfg.SetupOp) or op.parent is None:
            continue
        if not _try_overlap_setup(op, concurrent):
            continue
        changed = True
        for sibling in op.parent.ops:
            if isinstance(sibling, accfg.SetupOp) and sibling is not op:
                worklist.push(sibling)
    return changed


@register_pass
class OverlapPass(ModulePass):
    """Configuration overlap (step 4 of the flow, Figure 8)."""

    name = "accfg-overlap"

    def __init__(self, concurrent: set[str] | None = None) -> None:
        self.concurrent = concurrent

    def apply(self, module: Operation, analyses=None):
        scopes: dict[Operation, None] = {}
        root_level = False
        changed_any = False
        loops = [op for op in module.walk_list() if isinstance(op, scf.ForOp)]
        for loop in reversed(loops):
            if loop.parent is None:
                continue
            if pipeline_loop(loop, self.concurrent):
                changed_any = True
                scope = enclosing_scope(module, loop)
                if scope is None:
                    root_level = True
                else:
                    scopes[scope] = None
        for top in [
            op
            for region in module.regions
            for block in region.blocks
            for op in block.ops
        ]:
            if overlap_straight_line(top, self.concurrent):
                changed_any = True
                scopes[top] = None
        return report_scopes(changed_any, scopes, root_level)
