"""The accfg lint suite: static configuration-wall hazard checks.

Each check is registered under a stable code (``ACCFG001`` ...) via
:func:`register_lint`; :func:`run_lints` runs them all (or a filtered
subset) over a module and returns the collected diagnostics.  The checks
are read-only — they never modify the IR — so they are safe to run at any
point of a pass pipeline.

Codes:

========= ========================= ========
ACCFG001  launch-never-awaited      warning
ACCFG002  double-await              error
ACCFG003  use-after-reset           error
ACCFG004  forked-state-chain        error
ACCFG005  superseded-state-launch   error
ACCFG006  dead-setup-field          warning
ACCFG007  redundant-setup-field     warning
ACCFG008  pessimistic-clobber       warning
ACCFG009  unknown-accelerator       warning
ACCFG010  config-roofline           warning
ACCFG011  retention-hazard          warning
ACCFG012  missed-dedup              warning
ACCFG013  loop-invariant-setup      warning
ACCFG014  serialized-setup          warning
ACCFG015  redundant-re-setup        warning
========= ========================= ========

ACCFG012–015 are the *opportunity* lints built on the static cost engine
(:mod:`.cost`): each points at configuration cost a shipped pass provably
eliminates, and its fix-it note names that pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..dialects import accfg, func, scf
from ..ir.operation import Operation
from ..ir.ssa import SSAValue
from .diagnostics import Diagnostic, DiagnosticEngine
from .linearity import linearity_diagnostics, unknown_accelerator_diagnostics
from .manager import AnalysisManager


@dataclass
class LintContext:
    """Shared lint configuration."""

    #: restrict target-specific lints (roofline) to one accelerator
    target: str | None = None
    #: analysis cache shared across rules (and, when the caller passes one
    #: in, with the surrounding pass pipeline)
    analyses: AnalysisManager = field(default_factory=AnalysisManager)
    #: the code filter of this run (None = every rule runs)
    codes: set[str] | None = None


LintFn = Callable[[Operation, LintContext, DiagnosticEngine], None]


@dataclass(frozen=True)
class LintRule:
    code: str
    name: str
    description: str
    fn: LintFn


LINT_RULES: dict[str, LintRule] = {}


def register_lint(code: str, name: str, description: str) -> Callable[[LintFn], LintFn]:
    def decorate(fn: LintFn) -> LintFn:
        if code in LINT_RULES:
            raise ValueError(f"lint code {code} registered twice")
        LINT_RULES[code] = LintRule(code, name, description, fn)
        return fn

    return decorate


def run_lints(
    module: Operation,
    target: str | None = None,
    codes: set[str] | None = None,
    analyses: AnalysisManager | None = None,
) -> list[Diagnostic]:
    """Run every registered lint (or just ``codes``) over ``module``.

    ``analyses`` lets a caller (typically the pass manager) share its
    analysis cache with the lint rules; by default each run uses a private
    cache, still shared *between* rules of the same run.
    """
    if codes is not None:
        unknown = codes - set(LINT_RULES)
        if unknown:
            known = ", ".join(sorted(LINT_RULES))
            raise ValueError(
                f"unknown lint code(s) {', '.join(sorted(unknown))} (known: {known})"
            )
    engine = DiagnosticEngine()
    if analyses is None:
        analyses = AnalysisManager()
    context = LintContext(target=target, analyses=analyses, codes=codes)
    for code in sorted(LINT_RULES):
        if codes is not None and code not in codes:
            continue
        LINT_RULES[code].fn(module, context, engine)
    _annotate_loop_depth(engine.diagnostics)
    return engine.diagnostics


def _annotate_loop_depth(diagnostics: list[Diagnostic]) -> None:
    """Append the innermost enclosing loop depth to nested diagnostics.

    An op buried in nested ``scf.for``/``scf.if`` regions prints a raw
    location that says nothing about *how often* it runs; the loop depth
    (number of enclosing ``scf.for`` ops) is the first-order answer.  Diags
    anchored on a loop op itself count only the loops *around* it.
    """
    for diag in diagnostics:
        if diag.op is None:
            continue
        depth = 0
        current = diag.op.parent_op
        while current is not None:
            if isinstance(current, scf.ForOp):
                depth += 1
            current = current.parent_op
        if depth > 0:
            diag.message += f" (at loop depth {depth})"


def _functions(module: Operation) -> list[func.FuncOp]:
    return [
        op
        for op in module.walk_list()
        if isinstance(op, func.FuncOp) and not op.is_declaration
    ]


# ---------------------------------------------------------------------------
# ACCFG001: launch-never-awaited
# ---------------------------------------------------------------------------


def _token_reaches_await(launch: accfg.LaunchOp) -> bool:
    """Follow the token through yields/iter-args; True when some await (or
    an escape the analysis cannot see through) consumes it."""
    seen: set[SSAValue] = set()
    work: list[SSAValue] = [launch.token]
    while work:
        value = work.pop()
        if value in seen:
            continue
        seen.add(value)
        for use in value.uses:
            user = use.operation
            if isinstance(user, accfg.AwaitOp):
                return True
            if isinstance(user, scf.YieldOp):
                parent = user.parent_op
                if isinstance(parent, scf.IfOp):
                    work.append(parent.results[use.index])
                elif isinstance(parent, scf.ForOp):
                    work.append(parent.results[use.index])
                    work.append(parent.body.args[use.index + 1])
                else:
                    return True  # unknown region op: assume consumed
            elif isinstance(user, scf.ForOp):
                if use.index < 3:
                    return True
                work.append(user.results[use.index - 3])
                work.append(user.body.args[use.index - 3 + 1])
            else:
                return True  # call/return/unknown: token escapes
    return False


@register_lint(
    "ACCFG001",
    "launch-never-awaited",
    "a launch produces a token that no accfg.await ever consumes",
)
def _check_launch_never_awaited(
    module: Operation, context: LintContext, engine: DiagnosticEngine
) -> None:
    for op in module.walk_list():
        if isinstance(op, accfg.LaunchOp) and not _token_reaches_await(op):
            in_loop = any(
                isinstance(a, scf.ForOp) for a in _ancestors(op)
            )
            message = f"launch on '{op.accelerator}' is never awaited"
            if in_loop:
                message += " (fire-and-forget inside a loop)"
            engine.warning("ACCFG001", message, op).with_note(
                "fix: insert `accfg.await` on this token once the result is "
                "needed; an un-awaited launch gives no completion ordering"
            )


def _ancestors(op: Operation) -> list[Operation]:
    result = []
    current = op.parent_op
    while current is not None:
        result.append(current)
        current = current.parent_op
    return result


# ---------------------------------------------------------------------------
# ACCFG002: double-await
# ---------------------------------------------------------------------------


@register_lint(
    "ACCFG002",
    "double-await",
    "a token is awaited twice on some execution path",
)
def _check_double_await(
    module: Operation, context: LintContext, engine: DiagnosticEngine
) -> None:
    for fn in _functions(module):
        analysis = context.analyses.awaited_tokens(fn)
        for op in fn.walk_list():
            if not isinstance(op, accfg.AwaitOp):
                continue
            already = analysis.input_states.get(op)
            if already is not None and op.token in already:
                engine.error(
                    "ACCFG002",
                    f"token of '{op.accelerator}' is awaited more than once "
                    "on some execution path",
                    op,
                ).with_note(
                    "a token is consumed by its first await; remove the "
                    "duplicate (or re-launch to obtain a fresh token)"
                )


# ---------------------------------------------------------------------------
# ACCFG003: use-after-reset
# ---------------------------------------------------------------------------


def _is_ordered_after(op: Operation, anchor: Operation) -> bool:
    """True when ``op`` (or an ancestor) follows ``anchor`` in its block."""
    current: Operation | None = op
    while current is not None:
        if current.parent is anchor.parent:
            return current is not anchor and anchor.is_before_in_block(current)
        current = current.parent_op
    return False


@register_lint(
    "ACCFG003",
    "use-after-reset",
    "a state value is read after accfg.reset destroyed it",
)
def _check_use_after_reset(
    module: Operation, context: LintContext, engine: DiagnosticEngine
) -> None:
    for reset in module.walk_list():
        if not isinstance(reset, accfg.ResetOp):
            continue
        state = reset.state
        state_type = state.type
        accelerator = (
            state_type.accelerator if isinstance(state_type, accfg.StateType) else "?"
        )
        for use in state.uses:
            user = use.operation
            if user is reset:
                continue
            if _is_ordered_after(user, reset):
                engine.error(
                    "ACCFG003",
                    f"state of '{accelerator}' is used after accfg.reset "
                    "destroyed it",
                    user,
                ).with_note(
                    "reset ends the state's lifetime; re-run accfg.setup to "
                    "obtain a fresh state before this use"
                )


# ---------------------------------------------------------------------------
# ACCFG004/ACCFG005: state-chain linearity; ACCFG009: unknown accelerator
# ---------------------------------------------------------------------------


@register_lint(
    "ACCFG004",
    "forked-state-chain",
    "two setups consume the same input state (forked chain)",
)
def _check_forked_chain(
    module: Operation, context: LintContext, engine: DiagnosticEngine
) -> None:
    linearity_diagnostics(module, engine)


@register_lint(
    "ACCFG005",
    "superseded-state-launch",
    "a launch reads a state an intervening setup superseded",
)
def _check_superseded_launch(
    module: Operation, context: LintContext, engine: DiagnosticEngine
) -> None:
    # ACCFG004's walk already emitted both codes, so re-walking here would
    # only produce duplicates for the engine to drop; run the walk only when
    # a `--filter ACCFG005` selection excludes ACCFG004.
    if context.codes is not None and "ACCFG004" not in context.codes:
        linearity_diagnostics(module, engine)


@register_lint(
    "ACCFG009",
    "unknown-accelerator",
    "an accfg op names an accelerator no backend registers",
)
def _check_unknown_accelerator(
    module: Operation, context: LintContext, engine: DiagnosticEngine
) -> None:
    unknown_accelerator_diagnostics(module, engine)


# ---------------------------------------------------------------------------
# ACCFG006: dead setup fields
# ---------------------------------------------------------------------------


@register_lint(
    "ACCFG006",
    "dead-setup-field",
    "a setup writes fields no launch can ever observe",
)
def _check_dead_setup_fields(
    module: Operation, context: LintContext, engine: DiagnosticEngine
) -> None:
    analysis = context.analyses.observed_fields(module)
    for op in module.walk_list():
        if not isinstance(op, accfg.SetupOp) or not op.fields:
            continue
        observed = analysis.observed(op.out_state)
        dead = [name for name in op.field_names if not observed.contains(name)]
        if dead:
            listing = ", ".join(f"'{name}'" for name in dead)
            engine.warning(
                "ACCFG006",
                f"setup on '{op.accelerator}' writes field(s) {listing} that "
                "are overwritten or never observed by any launch",
                op,
            ).with_note(
                "dead configuration writes cost host cycles for nothing; "
                "drop the field(s) or move them next to the launch that "
                "needs them"
            )


# ---------------------------------------------------------------------------
# ACCFG007: redundant setup fields (what dedup would remove)
# ---------------------------------------------------------------------------


@register_lint(
    "ACCFG007",
    "redundant-setup-field",
    "a setup rewrites a register with the value it already holds",
)
def _check_redundant_setup_fields(
    module: Operation, context: LintContext, engine: DiagnosticEngine
) -> None:
    for op in module.walk_list():
        if not isinstance(op, accfg.SetupOp) or op.in_state is None:
            continue
        analysis = context.analyses.known_fields(module, op.accelerator)
        known = analysis.known(op.in_state)
        redundant = [
            name for name, value in op.fields if known.fields.get(name) is value
        ]
        if redundant:
            listing = ", ".join(f"'{name}'" for name in redundant)
            engine.warning(
                "ACCFG007",
                f"setup on '{op.accelerator}' rewrites field(s) {listing} "
                "with the value the register already holds",
                op,
            ).with_note(
                "run `python -m repro opt --pipeline dedup` to remove "
                "redundant configuration writes (Section 5.4)"
            )


# ---------------------------------------------------------------------------
# ACCFG008: pessimistic clobbers
# ---------------------------------------------------------------------------


def _accfg_accelerators(op: Operation) -> set[str]:
    names: set[str] = set()
    if isinstance(op, (accfg.SetupOp, accfg.LaunchOp, accfg.AwaitOp)):
        names.add(op.accelerator)
    elif isinstance(op, accfg.ResetOp):
        state_type = op.state.type
        if isinstance(state_type, accfg.StateType):
            names.add(state_type.accelerator)
    return names


@register_lint(
    "ACCFG008",
    "pessimistic-clobber",
    "an op with unknown effects splits a configuration sequence",
)
def _check_pessimistic_clobber(
    module: Operation, context: LintContext, engine: DiagnosticEngine
) -> None:
    from ..passes.trace_states import op_preserves_state

    for fn in _functions(module):
        all_ops = fn.walk_list()
        used: set[str] = set()
        for op in all_ops:
            used |= _accfg_accelerators(op)
        if not used:
            continue
        # One bottom-up sweep marks every op whose subtree contains an accfg
        # op (walk_list() is pre-order, so reversed order sees children first) —
        # replacing the former per-op nested re-walks.
        has_accfg: dict[Operation, bool] = {}
        for op in reversed(all_ops):
            flag = bool(_accfg_accelerators(op))
            if not flag and op.regions:
                flag = any(
                    has_accfg.get(nested, False)
                    for region in op.regions
                    for block in region.blocks
                    for nested in block.ops
                )
            has_accfg[op] = flag
        for block_op in all_ops:
            for region in block_op.regions:
                for block in region.blocks:
                    ops = list(block.ops)
                    accfg_positions = [
                        i for i, op in enumerate(ops) if has_accfg.get(op, False)
                    ]
                    if len(accfg_positions) < 2:
                        continue
                    for i in range(accfg_positions[0] + 1, accfg_positions[-1]):
                        op = ops[i]
                        if op.name.startswith("accfg.") or op.regions:
                            continue
                        if accfg.get_effects(op) is not None:
                            continue
                        clobbered = sorted(
                            acc for acc in used if not op_preserves_state(op, acc)
                        )
                        if clobbered:
                            listing = ", ".join(f"'{a}'" for a in clobbered)
                            shown_name = getattr(op, "op_name", op.name)
                            engine.warning(
                                "ACCFG008",
                                f"'{shown_name}' sits between configuration ops "
                                f"but has unknown effects on {listing}; the "
                                "state tracer must assume it clobbers the "
                                "configuration",
                                op,
                            ).with_note(
                                "annotate it `{accfg.effects = \"none\"}` if "
                                "it cannot touch configuration registers, so "
                                "dedup and overlap can optimize across it"
                            )


# ---------------------------------------------------------------------------
# ACCFG011: retention hazards (reliance on device state across launches)
# ---------------------------------------------------------------------------


def _retention_hazards(fn: func.FuncOp) -> dict[Operation, set[str]]:
    """Which setup-written fields do launches rely on retaining?

    The lattice state maps ``(accelerator, field)`` to the set of
    ``(writer setup op, crossed)`` entries that may have last written the
    field, where ``crossed`` records that at least one launch boundary has
    passed since the write.  A launch reads the whole register file, so any
    ``crossed`` entry it sees is a retention reliance: the program only
    works because the device kept that register across a previous launch.
    That is exactly the assumption the dedup/hoist passes introduce — and
    exactly what a spontaneous device state loss breaks.  Returns writer
    setup op -> the field names relied on across a boundary.
    """
    from .dataflow import ForwardSolver

    hazards: dict[Operation, set[str]] = {}

    class Solver(ForwardSolver):
        def initial(self) -> object:
            return {}

        def join(self, a: object, b: object) -> object:
            assert isinstance(a, dict) and isinstance(b, dict)
            merged = dict(a)
            for key, entries in b.items():
                merged[key] = merged.get(key, frozenset()) | entries
            return merged

        def transfer(self, op: Operation, state: object) -> object:
            assert isinstance(state, dict)
            if isinstance(op, accfg.SetupOp):
                state = dict(state)
                for name in op.field_names:
                    state[(op.accelerator, name)] = frozenset({(op, False)})
                return state
            if isinstance(op, accfg.LaunchOp):
                accelerator = op.accelerator
                carried = {name for name, _ in op.fields}
                state = dict(state)
                for (acc, name), entries in list(state.items()):
                    if acc != accelerator:
                        continue
                    if name not in carried:
                        for writer, crossed in entries:
                            if crossed:
                                hazards.setdefault(writer, set()).add(name)
                    # This launch is a new boundary behind every surviving
                    # write; launch-carried fields are rewritten by the
                    # command itself and stop being setup-attributed.
                    if name in carried:
                        state.pop((acc, name))
                    else:
                        state[(acc, name)] = frozenset(
                            (writer, True) for writer, _ in entries
                        )
                return state
            if isinstance(op, accfg.ResetOp):
                state_type = op.state.type
                if isinstance(state_type, accfg.StateType):
                    accelerator = state_type.accelerator
                    state = {
                        key: entries
                        for key, entries in state.items()
                        if key[0] != accelerator
                    }
                return state
            if isinstance(op, func.CallOp):
                # The callee may launch or reset anything: assume every
                # tracked write is invalidated rather than guess.
                return {}
            return state

    solver = Solver()
    solver.run_block(fn.regions[0].block, solver.initial())
    return hazards


@register_lint(
    "ACCFG011",
    "retention-hazard",
    "a launch relies on setup fields retained across an earlier launch",
)
def _check_retention_hazard(
    module: Operation, context: LintContext, engine: DiagnosticEngine
) -> None:
    for fn in _functions(module):
        hazards = _retention_hazards(fn)
        for op in fn.walk_list():
            fields = hazards.get(op)
            if not fields:
                continue
            listing = ", ".join(f"'{name}'" for name in sorted(fields))
            engine.warning(
                "ACCFG011",
                f"setup on '{op.accelerator}' writes field(s) {listing} that "
                "later launches rely on across a launch boundary without an "
                "intervening write",
                op,
            ).with_note(
                "retained state is an optimization asset (dedup/hoisting "
                "depend on it) but a resilience hazard: a device power cycle "
                "between launches silently corrupts these fields unless a "
                "recovery runtime re-establishes them (see `python -m repro "
                "faults` and docs/ROBUSTNESS.md)"
            )


# Importing this module registers ACCFG001..ACCFG009 and ACCFG011; the
# roofline lint (ACCFG010) and the cost-engine opportunity lints
# (ACCFG012..ACCFG015) live in their own modules and register themselves
# on import.
from . import cost_lints, roofline_lint  # noqa: E402,F401
