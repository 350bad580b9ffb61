"""Configuration deduplication (paper, Section 5.4).

Removes setup-field writes the compiler can prove redundant: a write of the
same value to a register that already holds it.  SSA-value identity is the
proxy for runtime-value equality — an SSA value cannot be reassigned, so two
reads of the same SSA value always see the same runtime value (and values
defined inside a loop body can never alias across iterations, because a
previous iteration's activation is a different SSA scope).

The pass pipeline inside ``accfg-dedup`` follows Section 5.4.1:

1. *hoist into branches* — sink a post-``scf.if`` setup into both branches so
   each branch regains a linear setup chain;
2. *loop-invariant setup-field hoisting* — move fields that stay constant for
   the whole loop into a fresh setup right before the loop (Figure 9, second
   block);
3. *redundant-field elimination* — drop fields whose known register value is
   the same SSA value, using a known-fields dataflow over the state chain;
4. *cleanups* — erase empty setups and merge launch-free consecutive setups.
"""

from __future__ import annotations

import warnings

from ..analysis.dataflow import KnownFieldsAnalysis
from ..dialects import accfg, scf
from ..ir.operation import Operation
from ..ir.ssa import OpResult, SSAValue
from .licm import is_defined_outside
from .pass_manager import ModulePass, register_pass, report_scopes

__all__ = [
    "DedupPass",
    "hoist_setups_into_branches",
    "hoist_invariant_setup_fields",
    "eliminate_redundant_fields",
    "merge_consecutive_setups",
    "remove_empty_setups",
]


# ---------------------------------------------------------------------------
# Rewrites
# ---------------------------------------------------------------------------


def _defined_before(value: SSAValue, op: Operation) -> bool:
    """True when ``value`` is available right before ``op``'s position."""
    owner = value.owner
    if isinstance(owner, Operation):
        current: Operation | None = op
        while current is not None:
            if current.parent is owner.parent:
                return owner.is_before_in_block(current)
            current = current.parent_op
        return False
    # Block argument: visible if op is nested under the defining block.
    current = op
    while current is not None:
        if current.parent is owner:
            return True
        current = current.parent_op
    return False


def hoist_setups_into_branches(root: Operation) -> bool:
    """Sink a setup whose input state is an ``scf.if`` result into both
    branches, restoring linear setup chains (Section 5.4.1)."""
    changed = False
    for op in root.walk_list():
        if not isinstance(op, accfg.SetupOp) or op.parent is None:
            continue
        in_state = op.in_state
        if not isinstance(in_state, OpResult) or not isinstance(
            in_state.op, scf.IfOp
        ):
            continue
        if_op = in_state.op
        if if_op.parent is not op.parent:
            continue
        # The state between the if and the setup must not be observed by
        # anything else, and all field values must dominate the if.
        if len(in_state.uses) != 1 or not if_op.has_else:
            continue
        if not all(_defined_before(v, if_op) for _, v in op.fields):
            continue
        state_index = in_state.index
        for branch in (if_op.then_block, if_op.else_block):
            terminator = branch.terminator
            assert isinstance(terminator, scf.YieldOp)
            branch_state = terminator.operands[state_index]
            clone = accfg.SetupOp.create(
                op.accelerator, list(op.fields), branch_state
            )
            branch.insert_op_before(terminator, clone)
            terminator.set_operand(state_index, clone.out_state)
        op.out_state.replace_all_uses_with(in_state)
        op.erase()
        changed = True
    return changed


def _top_level_setups(loop: scf.ForOp, accelerator: str) -> list[accfg.SetupOp]:
    return [
        op
        for op in loop.body.ops
        if isinstance(op, accfg.SetupOp) and op.accelerator == accelerator
    ]


def _insert_guarded_setup(
    loop: scf.ForOp,
    accelerator: str,
    fields: list[tuple[str, SSAValue]],
    init: SSAValue,
) -> SSAValue:
    """Insert a setup before ``loop``, guarded by ``lb < ub`` when the loop
    might run zero times (writing registers the original program never wrote
    would be observable by later launches)."""
    from ..dialects import arith

    assert loop.parent is not None
    if scf.certainly_runs(loop):
        pre = accfg.SetupOp.create(accelerator, fields, init)
        loop.parent.insert_op_before(loop, pre)
        return pre.out_state
    cond = arith.CmpiOp.create("ult", loop.lb, loop.ub)
    loop.parent.insert_op_before(loop, cond)
    state_type = accfg.state_type(accelerator)
    if_op = scf.IfOp.create(cond.result, [state_type])
    guarded = accfg.SetupOp.create(accelerator, fields, init)
    if_op.then_block.add_op(guarded)
    if_op.then_block.add_op(scf.YieldOp.create([guarded.out_state]))
    if_op.else_block.add_op(scf.YieldOp.create([init]))
    loop.parent.insert_op_before(loop, if_op)
    return if_op.results[0]


def hoist_invariant_setup_fields(root: Operation) -> bool:
    """Move loop-invariant setup fields out of ``scf.for`` bodies.

    A field can be hoisted when (a) its value is defined outside the loop,
    (b) it is written by exactly one top-level setup in the body (two
    launches with different parameters forbid hoisting, Section 5.4.1), and
    (c) the loop threads the accelerator state through ``iter_args`` so the
    pre-loop write is visible to every iteration.
    """
    changed = False
    loops = [op for op in root.walk_list() if isinstance(op, scf.ForOp)]
    for loop in reversed(loops):  # innermost first
        changed |= _hoist_fields_from_loop(loop)
    return changed


def _hoist_fields_from_loop(loop: scf.ForOp) -> bool:
    changed = False
    # Find state iter-args of this loop.
    for arg_index, (arg, init) in enumerate(zip(loop.iter_args, loop.iter_inits)):
        if not isinstance(arg.type, accfg.StateType):
            continue
        accelerator = arg.type.accelerator
        setups = _top_level_setups(loop, accelerator)
        if not setups:
            continue
        # Program order over the whole body (nested regions included):
        # register retention means soundness is about *when* writes execute,
        # not about the SSA chain alone.
        order = {op: i for i, op in enumerate(loop.walk_list())}
        first_launch = min(
            (
                order[op]
                for op in order
                if isinstance(op, accfg.LaunchOp) and op.accelerator == accelerator
            ),
            default=None,
        )
        field_writers: dict[str, list[accfg.SetupOp]] = {}
        for op in order:
            if isinstance(op, accfg.SetupOp) and op.accelerator == accelerator:
                for name, _ in op.fields:
                    field_writers.setdefault(name, []).append(op)
        hoisted: list[tuple[str, SSAValue]] = []
        for setup in setups:
            # A write moved to before the loop is only equivalent if every
            # launch in the body already observed it in its own iteration —
            # i.e. the writer precedes the first launch.  A writer after a
            # launch supplies the *next* iteration, so iteration 0 must keep
            # seeing the pre-loop register contents.
            executes_before_launches = (
                first_launch is None or order[setup] < first_launch
            )
            keep: list[tuple[str, SSAValue]] = []
            setup_fields = setup.fields
            for name, value in setup_fields:
                if (
                    len(field_writers[name]) == 1
                    and executes_before_launches
                    and is_defined_outside(value, loop)
                ):
                    hoisted.append((name, value))
                else:
                    keep.append((name, value))
            if len(keep) != len(setup_fields):
                setup.set_fields(keep)
                changed = True
        if hoisted:
            new_init = _insert_guarded_setup(loop, accelerator, hoisted, init)
            loop.set_operand(3 + arg_index, new_init)
    return changed


def eliminate_redundant_fields(root: Operation, manager=None) -> bool:
    """Drop setup fields whose register already holds the same SSA value.

    ``manager`` is an optional :class:`~repro.analysis.AnalysisManager`; when
    given (and still valid for ``root``), its cached per-accelerator
    known-fields analyses are reused instead of rebuilt from scratch.
    """
    changed = False
    local: dict[str, KnownFieldsAnalysis] = {}
    for op in root.walk_list():
        if not isinstance(op, accfg.SetupOp) or op.parent is None:
            continue
        if op.in_state is None:
            continue
        if manager is not None:
            analysis = manager.known_fields(root, op.accelerator)
        else:
            analysis = local.setdefault(
                op.accelerator, KnownFieldsAnalysis(op.accelerator)
            )
        known = analysis.known(op.in_state)
        fields = op.fields
        keep = [
            (name, value)
            for name, value in fields
            if known.fields.get(name) is not value
        ]
        if len(keep) != len(fields):
            # The cached analysis stays valid: every dropped field wrote the
            # exact SSA value the register already held, so the state after
            # this setup — and everything downstream — is unchanged.
            op.set_fields(keep)
            changed = True
    return changed


def remove_empty_setups(root: Operation) -> bool:
    """Erase setups that write nothing: forward their input state (or drop
    result-free anchors entirely when unused)."""
    changed = False
    for op in root.walk_list():
        if not isinstance(op, accfg.SetupOp) or op.parent is None:
            continue
        if op.fields:
            continue
        in_state = op.in_state
        if in_state is not None:
            op.out_state.replace_all_uses_with(in_state)
            op.erase()
            changed = True
        elif not op.out_state.has_uses:
            op.erase()
            changed = True
    return changed


def merge_consecutive_setups(root: Operation) -> bool:
    """Merge a setup chain ``s1 -> s2`` when nothing else observes ``s1``."""
    changed = False
    for op in root.walk_list():
        if not isinstance(op, accfg.SetupOp) or op.parent is None:
            continue
        in_state = op.in_state
        if not isinstance(in_state, OpResult):
            continue
        producer = in_state.op
        if not isinstance(producer, accfg.SetupOp):
            continue
        if producer.parent is not op.parent:
            continue
        if len(in_state.uses) != 1:
            continue  # a launch or another op observes the intermediate state
        overridden = set(op.field_names)
        merged_fields = [
            (name, value)
            for name, value in producer.fields
            if name not in overridden
        ] + list(op.fields)
        merged = accfg.SetupOp.create(
            op.accelerator, merged_fields, producer.in_state
        )
        assert op.parent is not None
        op.parent.insert_op_before(op, merged)
        op.out_state.replace_all_uses_with(merged.out_state)
        op.erase()
        producer.erase()
        changed = True
    return changed


#: rounds of the five-phase flow per function before giving up (a phase can
#: enable another, but chains are short in practice)
MAX_DEDUP_ROUNDS = 20


def _dedup_root(root: Operation, analyses=None) -> bool:
    """Run the five-phase dedup flow over one root until fixpoint."""
    changed_any = False
    for _ in range(MAX_DEDUP_ROUNDS):
        structural = hoist_setups_into_branches(root)
        structural |= hoist_invariant_setup_fields(root)
        # The shared analysis cache is only trustworthy while this pass
        # has not yet mutated this scope; after the first change, fall
        # back to a private (freshly built) analysis.
        shared = analyses if not (structural or changed_any) else None
        eliminated = eliminate_redundant_fields(root, shared)
        structural |= merge_consecutive_setups(root)
        structural |= remove_empty_setups(root)
        if structural or eliminated:
            changed_any = True
        # Field elimination cannot enable any phase by itself: a removed
        # field was a no-op write, so the known-fields map, setup
        # adjacency, and loop invariance are all unchanged.  Only the
        # structural phases force another round.
        if not structural:
            return changed_any
    warnings.warn(
        f"accfg-dedup did not converge within {MAX_DEDUP_ROUNDS} rounds",
        RuntimeWarning,
        stacklevel=2,
    )
    return changed_any


@register_pass
class DedupPass(ModulePass):
    """Configuration deduplication (step 3 of the flow, Figure 8).

    Runs the round loop *per function* rather than over the whole module:
    setup chains never cross function boundaries, so one function reaching
    its fixpoint never needs to be rescanned because another changed — and
    the change report names exactly the functions that were mutated.
    """

    name = "accfg-dedup"

    def apply(self, module: Operation, analyses=None):
        from ..dialects import func

        tops = [
            op
            for region in module.regions
            for block in region.blocks
            for op in block.ops
        ]
        if not all(isinstance(op, func.FuncOp) for op in tops):
            # Setups directly at module level (hand-written tests): phases
            # can reach across tops, so fall back to whole-module rounds.
            return True if _dedup_root(module, analyses) else False
        scopes: dict[Operation, None] = {}
        for fn in tops:
            if fn.is_declaration:
                continue
            if not any(isinstance(op, accfg.SetupOp) for op in fn.walk_list()):
                continue
            if _dedup_root(fn, analyses):
                scopes[fn] = None
        return report_scopes(bool(scopes), scopes)
