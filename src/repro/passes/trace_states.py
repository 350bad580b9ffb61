"""State tracing (paper, Section 5.3).

Establishes the order of accelerator configuration events by threading an SSA
*state* variable through the program, inspired by memory SSA: every
``accfg.setup`` receives the previous live state as an input, which lets
later passes compute setup deltas.  Handled control flow:

* straight-line code — setups chain directly;
* ``scf.for`` — the state becomes a loop-carried ``iter_args`` entry
  (Figure 9, first transition); an empty anchor setup is materialized before
  the loop when no state exists yet;
* ``scf.if`` — branches receive the incoming state; when no branch clobbers,
  both branches yield their final state and the join becomes a new if result.

Unknown operations are treated pessimistically: any op the pass cannot prove
state-preserving (foreign calls, unregistered ops) clobbers the state unless
annotated ``#accfg.effects<none>``; ``#accfg.effects<all>`` forces a clobber.
"""

from __future__ import annotations

from ..dialects import accfg, func, scf
from ..ir.block import Block
from ..ir.operation import Operation, UnregisteredOp
from ..ir.ssa import OpResult, SSAValue
from .pass_manager import ModulePass, register_pass

_KNOWN_SAFE_DIALECTS = ("arith.", "scf.", "accfg.", "builtin.")


def _callee_effects(op: func.CallOp) -> str | None:
    """Effects declared on the called function, if it is visible.

    Addresses the paper's outlook on "declaring effects to reason about
    accelerator state across function call boundaries": a function
    annotated ``accfg.effects = "none"`` promises to leave every
    accelerator's configuration untouched, so calls to it are not
    optimization barriers.
    """
    current = op.parent_op
    while current is not None and current.name != "builtin.module":
        current = current.parent_op
    if current is None:
        return None
    for candidate in current.regions[0].block.ops:
        if isinstance(candidate, func.FuncOp) and candidate.sym_name == op.callee:
            return accfg.get_effects(candidate)
    return None


#: classes whose preserves-state answer is instance-independent (no effects
#: annotation consulted, no per-instance state/callee to inspect): the
#: generic dialect-prefix verdict, cached per class
_GENERIC_PRESERVES: dict[type, bool] = {}


def op_preserves_state(op: Operation, accelerator: str) -> bool:
    """Whether ``op`` itself (ignoring regions) leaves the configuration
    registers of ``accelerator`` untouched."""
    effects = accfg.get_effects(op)
    if effects == "none":
        return True
    if effects == "all":
        return False
    cached = _GENERIC_PRESERVES.get(type(op))
    if cached is not None:
        return cached
    if isinstance(op, accfg.ResetOp):
        state_type = op.state.type
        assert isinstance(state_type, accfg.StateType)
        return state_type.accelerator != accelerator
    if isinstance(op, (accfg.SetupOp, accfg.LaunchOp, accfg.AwaitOp)):
        return True  # modeled explicitly, not a clobber
    if isinstance(op, UnregisteredOp):
        return False
    if isinstance(op, func.CallOp):
        return _callee_effects(op) == "none"
    if isinstance(op, func.FuncOp):
        return False
    preserves = (
        any(op.name.startswith(prefix) for prefix in _KNOWN_SAFE_DIALECTS)
        or op.name.startswith("func.")  # return
    )
    _GENERIC_PRESERVES[type(op)] = preserves
    return preserves


def region_clobbers(block: Block, accelerator: str) -> bool:
    """True if anything in ``block`` (recursively) may clobber the state, or
    resets it, making state threading across the region unsound."""
    for op in block.ops:
        if isinstance(op, accfg.ResetOp):
            state_type = op.state.type
            assert isinstance(state_type, accfg.StateType)
            if state_type.accelerator == accelerator:
                return True
            continue
        if not op_preserves_state(op, accelerator):
            return True
        for region in op.regions:
            for nested in region.blocks:
                if region_clobbers(nested, accelerator):
                    return True
    return False


def accelerators_in(block: Block) -> list[str]:
    """All accelerator names configured anywhere inside ``block``."""
    names: list[str] = []
    # Pre-order, like Operation.walk: discovery order decides which
    # accelerator is traced (and anchored) first, so it must stay stable.
    stack: list[Operation] = list(reversed(block.ops))
    while stack:
        op = stack.pop()
        if isinstance(op, accfg.SetupOp):
            if op.accelerator not in names:
                names.append(op.accelerator)
        elif op.regions:
            children: list[Operation] = []
            for region in op.regions:
                for nested in region.blocks:
                    children.extend(nested.ops)
            children.reverse()
            stack.extend(children)
    return names


def _block_mentions(block: Block, accelerator: str) -> bool:
    stack: list[Operation] = list(block.ops)
    while stack:
        op = stack.pop()
        if isinstance(op, accfg.SetupOp):
            if op.accelerator == accelerator:
                return True
        elif op.regions:
            for region in op.regions:
                for nested in region.blocks:
                    stack.extend(nested.ops)
    return False


class StateTracer:
    """Threads one accelerator's state through one function body."""

    def __init__(self, accelerator: str) -> None:
        self.accelerator = accelerator

    def trace_block(self, block: Block, live: SSAValue | None) -> SSAValue | None:
        """Process ``block`` with incoming state ``live``; returns the state
        live at the end of the block (None = unknown/clobbered)."""
        for op in list(block.ops):
            live = self._trace_op(op, live)
        return live

    def _trace_op(self, op: Operation, live: SSAValue | None) -> SSAValue | None:
        if isinstance(op, accfg.SetupOp):
            if op.accelerator != self.accelerator:
                return live
            if op.in_state is None and live is not None:
                op.set_in_state(live)
            return op.out_state
        if isinstance(op, accfg.ResetOp):
            state_type = op.state.type
            assert isinstance(state_type, accfg.StateType)
            if state_type.accelerator == self.accelerator:
                return None
            return live
        if isinstance(op, scf.ForOp):
            return self._trace_for(op, live)
        if isinstance(op, scf.IfOp):
            return self._trace_if(op, live)
        if isinstance(op, (accfg.LaunchOp, accfg.AwaitOp)):
            return live
        if op_preserves_state(op, self.accelerator):
            # Known-safe op: nested regions of safe ops other than for/if
            # (there are none in our dialects) would need handling here.
            return live
        return None

    def _materialize_anchor(self, before: Operation) -> SSAValue:
        """Create an empty setup right before ``before`` to anchor a state
        chain (Figure 9: ``%state = accfg.setup to ()``)."""
        anchor = accfg.SetupOp.create(self.accelerator, [])
        assert before.parent is not None
        before.parent.insert_op_before(before, anchor)
        return anchor.out_state

    def _trace_for(self, op: scf.ForOp, live: SSAValue | None) -> SSAValue | None:
        body = op.body
        if not _block_mentions(body, self.accelerator):
            # No setups inside; the loop preserves state iff nothing clobbers.
            if region_clobbers(body, self.accelerator):
                return None
            return live
        if region_clobbers(body, self.accelerator):
            # Cannot thread; still trace the interior pessimistically so
            # setups chain within one iteration where possible.
            self.trace_block(body, None)
            return None
        # Check whether a state iter-arg already exists (pass idempotency).
        for arg, init in zip(op.iter_args, op.iter_inits):
            if (
                isinstance(arg.type, accfg.StateType)
                and arg.type.accelerator == self.accelerator
            ):
                self.trace_block(body, arg)
                index = list(op.iter_args).index(arg)
                return op.results[index]
        if live is None:
            live = self._materialize_anchor(op)
        arg, result = op.add_iter_arg(live, name_hint="state")
        final = self.trace_block(body, arg)
        if final is None:
            raise AssertionError(
                "state threading failed inside a loop pre-checked as clobber-free"
            )
        op.yield_op.set_operands([*op.yield_op.operands, final])
        return result

    def _trace_if(self, op: scf.IfOp, live: SSAValue | None) -> SSAValue | None:
        then_mentions = _block_mentions(op.then_block, self.accelerator)
        else_mentions = op.has_else and _block_mentions(
            op.else_block, self.accelerator
        )
        clobbers = region_clobbers(op.then_block, self.accelerator) or (
            op.has_else and region_clobbers(op.else_block, self.accelerator)
        )
        if not then_mentions and not else_mentions:
            return None if clobbers else live
        if clobbers:
            self.trace_block(op.then_block, live)
            if op.has_else:
                self.trace_block(op.else_block, live)
            return None
        # Already threaded? (idempotency)
        for result in op.results:
            if (
                isinstance(result.type, accfg.StateType)
                and result.type.accelerator == self.accelerator
            ):
                self.trace_block(op.then_block, live)
                if op.has_else:
                    self.trace_block(op.else_block, live)
                return result
        if live is None:
            live = self._materialize_anchor(op)
        then_final = self.trace_block(op.then_block, live)
        if not op.has_else:
            op.regions[1].add_block(Block([scf.YieldOp.create([])]))
        else_final = self.trace_block(op.else_block, live)
        assert then_final is not None and else_final is not None
        result = OpResult(
            accfg.state_type(self.accelerator), op, len(op.results), "state"
        )
        op.results = (*op.results, result)
        then_yield = op.then_block.terminator
        else_yield = op.else_block.terminator
        assert isinstance(then_yield, scf.YieldOp)
        assert isinstance(else_yield, scf.YieldOp)
        then_yield.set_operands([*then_yield.operands, then_final])
        else_yield.set_operands([*else_yield.operands, else_final])
        return result


@register_pass
class TraceStatesPass(ModulePass):
    """Connect setup clusters by threading accelerator state (step 2 of the
    compilation flow, Figure 8)."""

    name = "accfg-trace-states"

    def apply(self, module: Operation, analyses=None) -> bool:
        traced: list[Operation] = []
        for op in module.walk_list():
            if isinstance(op, func.FuncOp) and not op.is_declaration:
                accelerators = list(accelerators_in(op.body))
                for accelerator in accelerators:
                    StateTracer(accelerator).trace_block(op.body, None)
                if accelerators:
                    traced.append(op)
        return traced if traced else False
