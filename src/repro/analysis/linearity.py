"""State-chain linearity checks (paper, Section 5.1).

The accfg dialect requires that per accelerator only one state variable is
*live* at any program point: a state dies when a later setup for the same
accelerator supersedes it, so reading a superseded state — launching from
it, or forking two setups off the same input state — breaks the linear
chain.  This used to live inside ``passes/trace_states.py`` as a list of
strings; it now produces structured :class:`Diagnostic` objects (codes
ACCFG004/ACCFG005), and no longer passes silently over accelerator names
that are not registered with any backend (ACCFG009).
"""

from __future__ import annotations

from ..dialects import accfg, func, scf
from ..ir.operation import Operation
from ..ir.ssa import SSAValue
from .diagnostics import Diagnostic, DiagnosticEngine

FORKED_CHAIN = "ACCFG004"
SUPERSEDED_LAUNCH = "ACCFG005"
UNKNOWN_ACCELERATOR = "ACCFG009"


def _branch_path(op: Operation) -> list[tuple[Operation, int]]:
    """The ``scf.if`` ancestors of ``op``, each with which region holds it."""
    path: list[tuple[Operation, int]] = []
    current: Operation | None = op
    while current is not None:
        block = current.parent
        parent_op = block.parent_op if block is not None else None
        if isinstance(parent_op, scf.IfOp):
            region = block.parent
            index = next(
                i for i, r in enumerate(parent_op.regions) if r is region
            )
            path.append((parent_op, index))
        current = parent_op
    return path


def _mutually_exclusive(a: Operation, b: Operation) -> bool:
    """True when ``a`` and ``b`` sit in different branches of one ``scf.if``
    — no execution runs both, so they cannot conflict over a state."""
    branches_a = dict(_branch_path(a))
    return any(
        branches_a.get(ifop, index) != index for ifop, index in _branch_path(b)
    )


def linearity_diagnostics(
    module: Operation, engine: DiagnosticEngine | None = None
) -> list[Diagnostic]:
    """Errors for every break of the linear state chain.

    Untraced frontend output usually violates linearity trivially
    (disconnected setups have no ``in_state`` and never supersede anything);
    after ``accfg-trace-states`` the chain must be linear.
    """
    engine = engine or DiagnosticEngine()
    start = len(engine.diagnostics)

    def visit_function(fn: func.FuncOp) -> None:
        # state value -> the setups that superseded it.  Consumers on
        # mutually exclusive branches of one scf.if do not conflict: dedup's
        # hoist-into-branches deliberately clones a setup into both arms.
        superseders: dict[SSAValue, list[Operation]] = {}

        def conflicts(value: SSAValue, op: Operation) -> bool:
            return any(
                not _mutually_exclusive(prior, op)
                for prior in superseders.get(value, ())
            )

        for op in fn.walk_list():
            if isinstance(op, accfg.SetupOp):
                in_state = op.in_state
                if in_state is not None:
                    if conflicts(in_state, op):
                        engine.error(
                            FORKED_CHAIN,
                            f"setup for '{op.accelerator}' consumes an "
                            "already-superseded state (forked chain)",
                            op,
                        ).with_note(
                            "each setup supersedes its input state; thread the "
                            "newest state into every later setup"
                        )
                    superseders.setdefault(in_state, []).append(op)
            elif isinstance(op, accfg.LaunchOp):
                if conflicts(op.state, op):
                    engine.error(
                        SUPERSEDED_LAUNCH,
                        f"launch on '{op.accelerator}' reads a superseded state",
                        op,
                    ).with_note(
                        "the launch would observe stale configuration; launch "
                        "from the most recent setup's output state"
                    )

    for op in module.walk_list():
        if isinstance(op, func.FuncOp) and not op.is_declaration:
            visit_function(op)
    return engine.diagnostics[start:]


def unknown_accelerator_diagnostics(
    module: Operation, engine: DiagnosticEngine | None = None
) -> list[Diagnostic]:
    """Warnings for accfg ops naming accelerators no backend registers.

    Analyses and lowering silently skip such ops; surfacing the name
    mismatch here catches typos like ``"gemini"`` for ``"gemmini"``.
    """
    from ..backends.base import get_accelerator_or_none, registered_accelerators

    engine = engine or DiagnosticEngine()
    start = len(engine.diagnostics)
    reported: set[str] = set()
    for op in module.walk_list():
        name: str | None = None
        if isinstance(op, (accfg.SetupOp, accfg.LaunchOp, accfg.AwaitOp)):
            name = op.accelerator
        elif isinstance(op, accfg.ResetOp):
            state_type = op.state.type
            if isinstance(state_type, accfg.StateType):
                name = state_type.accelerator
        if name is None or name in reported:
            continue
        if get_accelerator_or_none(name) is None:
            reported.add(name)
            known = ", ".join(registered_accelerators())
            engine.warning(
                UNKNOWN_ACCELERATOR,
                f"accelerator '{name}' is not registered with any backend",
                op,
            ).with_note(f"registered accelerators: {known}")
    return engine.diagnostics[start:]
