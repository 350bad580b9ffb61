"""Reusable dataflow analyses over the structured IR.

Three layers live here:

* :class:`ForwardSolver` — a generic forward worklist/fixpoint solver over
  the structured control flow the dialects use (``scf.for`` with a bounded
  back-edge fixpoint, ``scf.if`` with a branch join).  Lints subclass it
  with a lattice (``initial``/``join``/``transfer``).
* :class:`AwaitedTokensAnalysis` — token liveness: which launch tokens *may*
  already have been awaited at each program point (used by the double-await
  lint).
* :class:`KnownFieldsAnalysis` — the demand-driven "what does each
  configuration register hold" analysis the dedup pass is built on, lifted
  here so lints and passes share one implementation — plus
  :class:`ObservedFieldsAnalysis`, its dual: which fields written into a
  state may still be observed by a launch downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dialects import accfg, func, scf
from ..ir.block import Block
from ..ir.operation import Operation
from ..ir.ssa import BlockArgument, OpResult, SSAValue


def defined_outside(value: SSAValue, op: Operation) -> bool:
    """True when ``value``'s definition is not nested inside ``op``."""
    owner = value.owner
    if isinstance(owner, Block):
        block: Block | None = owner
        while block is not None:
            parent_op = block.parent_op
            if parent_op is op:
                return False
            block = parent_op.parent if parent_op is not None else None
        return True
    current: Operation | None = owner
    while current is not None:
        if current is op:
            return False
        current = current.parent_op
    return True


# ---------------------------------------------------------------------------
# Generic forward solver
# ---------------------------------------------------------------------------


class ForwardSolver:
    """Forward dataflow over single-block structured regions.

    Subclasses define the lattice: ``initial()`` (the state at function
    entry), ``join(a, b)`` (the merge at control-flow joins), and
    ``transfer(op, state)`` (the effect of one op).  ``back_edge`` filters
    the state carried around a loop (dropping facts about values that are
    redefined each iteration).  The solver records the *input* state of
    every op it visits in ``input_states``, joined over all paths, so
    clients can query "what may hold before this op".
    """

    #: bound on the loop fixpoint; lattices here are finite and shallow, so
    #: a handful of rounds always converges — the bound is a safety net
    max_loop_rounds = 8

    def __init__(self) -> None:
        self.input_states: dict[Operation, object] = {}

    # -- lattice hooks (subclass API) -----------------------------------

    def initial(self) -> object:
        raise NotImplementedError

    def join(self, a: object, b: object) -> object:
        raise NotImplementedError

    def transfer(self, op: Operation, state: object) -> object:
        return state

    def back_edge(self, loop: scf.ForOp, state: object) -> object:
        """Filter the state flowing around a loop's back edge."""
        return state

    # -- driver ----------------------------------------------------------

    def run_block(self, block: Block, state: object) -> object:
        for op in list(block.ops):
            state = self.run_op(op, state)
        return state

    def run_op(self, op: Operation, state: object) -> object:
        prev = self.input_states.get(op)
        self.input_states[op] = state if prev is None else self.join(prev, state)
        if isinstance(op, scf.ForOp):
            return self._run_loop(op, state)
        if isinstance(op, scf.IfOp):
            then_out = self.run_block(op.then_block, state)
            else_out = self.run_block(op.else_block, state) if op.has_else else state
            return self.transfer(op, self.join(then_out, else_out))
        if op.regions:
            # Unknown region-bearing op: analyze its interior from scratch,
            # assume nothing about what survives it.
            for region in op.regions:
                for block in region.blocks:
                    self.run_block(block, self.initial())
            return self.transfer(op, state)
        return self.transfer(op, state)

    def _run_loop(self, op: scf.ForOp, state: object) -> object:
        entry = state
        body_out = entry
        for _ in range(self.max_loop_rounds):
            body_out = self.run_block(op.body, entry)
            merged = self.join(entry, self.back_edge(op, body_out))
            if merged == entry:
                break
            entry = merged
        # The loop may run zero times, so the pre-loop state joins in.
        exit_state = self.join(state, self.back_edge(op, body_out))
        return self.transfer(op, exit_state)

    def run_function(self, fn: Operation) -> object:
        """Analyze one function body (any op with a single-block region)."""
        self.input_states.clear()
        return self.run_block(fn.regions[0].block, self.initial())


class AwaitedTokensAnalysis(ForwardSolver):
    """Which launch tokens *may* already have been awaited at each point.

    A may-analysis (union join): ``token in input_states[some_await]`` means
    there is a path on which that token was awaited before, i.e. the await
    is a double await on that path.  Tokens defined inside a loop body name
    a fresh launch each iteration, so they are dropped at the back edge.
    """

    def initial(self) -> frozenset[SSAValue]:
        return frozenset()

    def join(self, a: object, b: object) -> object:
        assert isinstance(a, frozenset) and isinstance(b, frozenset)
        return a | b

    def transfer(self, op: Operation, state: object) -> object:
        assert isinstance(state, frozenset)
        if isinstance(op, accfg.AwaitOp):
            return state | {op.token}
        return state

    def back_edge(self, loop: scf.ForOp, state: object) -> object:
        assert isinstance(state, frozenset)
        return frozenset(v for v in state if defined_outside(v, loop))


# ---------------------------------------------------------------------------
# Known-fields dataflow (shared with the dedup pass)
# ---------------------------------------------------------------------------


@dataclass
class KnownFields:
    """What the analysis knows about configuration register contents.

    ``is_top`` marks the optimistic lattice top used to break cycles through
    loop-carried states: "every field holds whatever you need, except the
    explicit overrides in ``fields``".  An override of ``None`` marks a
    field whose value is unknown (paths disagree on it).  Concrete answers
    always have ``is_top=False``, with ``fields`` mapping field name -> SSA
    value and never holding ``None``.
    """

    is_top: bool = False
    fields: dict[str, SSAValue | None] = field(default_factory=dict)

    @staticmethod
    def top() -> "KnownFields":
        return KnownFields(is_top=True)

    @staticmethod
    def bottom() -> "KnownFields":
        return KnownFields()

    def updated(self, new_fields: dict[str, SSAValue]) -> "KnownFields":
        merged = dict(self.fields)
        merged.update(new_fields)
        return KnownFields(self.is_top, merged)


def intersect(a: KnownFields, b: KnownFields) -> KnownFields:
    if a.is_top and b.is_top:
        # Each side holds whatever you need except its own overrides, so
        # the meet keeps every override of either side; a field the two
        # override with different values is unknown.
        fields = dict(a.fields)
        for k, v in b.fields.items():
            fields[k] = v if fields.get(k, v) is v else None
        return KnownFields(True, fields)
    if a.is_top:
        a, b = b, a
    if b.is_top:
        # b knows everything except where it overrides with a different value.
        return KnownFields(
            False,
            {k: v for k, v in a.fields.items() if b.fields.get(k, v) is v},
        )
    return KnownFields(
        False, {k: v for k, v in a.fields.items() if b.fields.get(k) is v}
    )


class KnownFieldsAnalysis:
    """Computes register contents represented by a state SSA value."""

    def __init__(self, accelerator: str) -> None:
        self.accelerator = accelerator
        self._cache: dict[SSAValue, KnownFields] = {}
        self._in_progress: set[SSAValue] = set()
        self._tainted = False

    def known(self, state: SSAValue | None) -> KnownFields:
        if state is None:
            return KnownFields.bottom()
        if state in self._cache:
            return self._cache[state]
        if state in self._in_progress:
            # Optimistic cycle break.  The answer below this point depends on
            # *which* value is currently being resolved, so it must not be
            # cached — a TOP-seeded partial result recorded globally would
            # poison later queries with a different recursion root.
            self._tainted = True
            return KnownFields.top()
        self._in_progress.add(state)
        outer_tainted = self._tainted
        self._tainted = False
        try:
            result = self._compute(state)
        finally:
            self._in_progress.discard(state)
        if not self._tainted:
            self._cache[state] = result
        self._tainted = self._tainted or outer_tainted
        return result

    def _compute(self, state: SSAValue) -> KnownFields:
        if isinstance(state, OpResult):
            op = state.op
            if isinstance(op, accfg.SetupOp):
                base = self.known(op.in_state)
                return base.updated(dict(op.fields))
            if isinstance(op, scf.IfOp):
                index = state.index
                then_yield = op.then_block.terminator
                else_yield = op.else_block.terminator if op.has_else else None
                if not isinstance(then_yield, scf.YieldOp) or not isinstance(
                    else_yield, scf.YieldOp
                ):
                    return KnownFields.bottom()
                return intersect(
                    self.known(then_yield.operands[index]),
                    self.known(else_yield.operands[index]),
                )
            if isinstance(op, scf.ForOp):
                index = state.index
                return intersect(
                    self.known(op.iter_inits[index]),
                    self.known(op.yield_op.operands[index]),
                )
            return KnownFields.bottom()
        if isinstance(state, BlockArgument):
            block = state.block
            parent = block.parent_op
            if isinstance(parent, scf.ForOp) and block is parent.body:
                if state.index == 0:
                    return KnownFields.bottom()  # induction variable, not state
                iter_index = state.index - 1
                return intersect(
                    self.known(parent.iter_inits[iter_index]),
                    self.known(parent.yield_op.operands[iter_index]),
                )
            return KnownFields.bottom()
        return KnownFields.bottom()


# ---------------------------------------------------------------------------
# Observed-fields dataflow (dead-field detection)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSet:
    """A set of field names, closed under complement of a finite set.

    Finite sets (``is_top=False``) list the names they contain.  Co-finite
    sets (``is_top=True``) contain *all* fields except ``names`` — this is
    what masking produces: a launch observes everything (TOP), a setup in
    between masks exactly the fields it rewrites (TOP minus those names).
    """

    is_top: bool = False
    names: frozenset[str] = frozenset()

    @staticmethod
    def top() -> "FieldSet":
        return FieldSet(is_top=True)

    @staticmethod
    def bottom() -> "FieldSet":
        return FieldSet()

    def union(self, other: "FieldSet") -> "FieldSet":
        if self.is_top and other.is_top:
            return FieldSet(True, self.names & other.names)
        if self.is_top:
            return FieldSet(True, self.names - other.names)
        if other.is_top:
            return FieldSet(True, other.names - self.names)
        return FieldSet(False, self.names | other.names)

    def minus(self, names: set[str]) -> "FieldSet":
        if self.is_top:
            return FieldSet(True, self.names | frozenset(names))
        return FieldSet(False, self.names - frozenset(names))

    def contains(self, name: str) -> bool:
        if self.is_top:
            return name not in self.names
        return name in self.names


class RegisterLivenessAnalysis:
    """Backward may-read-before-overwrite liveness of the *register file*.

    :class:`ObservedFieldsAnalysis` reasons along one SSA state chain; this
    analysis reasons about the shared physical register file of one
    accelerator, which *every* chain on that accelerator reads and writes.
    That distinction matters for programs that open fresh state chains
    (``accfg.setup`` with no input state) and still rely on registers a
    previous chain wrote — the register-retention idiom that makes partial
    configuration pay off (paper Section 5.4), and exactly what must be
    re-issued when a device loses state.

    ``live_in[op]`` answers: which fields may some later launch of this
    accelerator read before any rewrite, as of the program point *just
    before* ``op``?  A launch reads the entire register file (``TOP``) except
    the launch-carried fields it writes itself; a setup kills the fields it
    writes; ``accfg.reset`` kills everything (contents are declared
    undefined); calls and unknown region ops are conservatively ``TOP``.
    ``live_in`` is joined (union) over loop-fixpoint rounds, so it is a
    may-result: a field it excludes is provably rewritten on every path
    before any launch can read it.
    """

    max_loop_rounds = 8

    def __init__(self, accelerator: str) -> None:
        self.accelerator = accelerator
        self.live_in: dict[Operation, FieldSet] = {}

    def run_function(self, fn: Operation) -> FieldSet:
        """Analyze one function body; returns liveness at function entry."""
        return self.run_block(fn.regions[0].block, FieldSet.bottom())

    def run_block(self, block: Block, live: FieldSet) -> FieldSet:
        for op in reversed(list(block.ops)):
            live = self.run_op(op, live)
        return live

    def run_op(self, op: Operation, live: FieldSet) -> FieldSet:
        if isinstance(op, scf.IfOp):
            then_live = self.run_block(op.then_block, live)
            else_live = (
                self.run_block(op.else_block, live) if op.has_else else live
            )
            result = then_live.union(else_live)
        elif isinstance(op, scf.ForOp):
            entry = live  # zero-trip: the loop may contribute nothing
            for _ in range(self.max_loop_rounds):
                merged = entry.union(self.run_block(op.body, entry))
                if merged == entry:
                    break
                entry = merged
            result = entry
        elif isinstance(op, accfg.SetupOp):
            if op.accelerator == self.accelerator:
                result = live.minus(set(op.field_names))
            else:
                result = live
        elif isinstance(op, accfg.LaunchOp):
            if op.accelerator == self.accelerator:
                # The launch commits its carried fields, then reads the
                # whole register file.
                result = FieldSet.top().minus({name for name, _ in op.fields})
            else:
                result = live
        elif isinstance(op, accfg.ResetOp):
            state_type = op.state.type
            if getattr(state_type, "accelerator", None) == self.accelerator:
                result = FieldSet.bottom()
            else:
                result = live
        elif op.regions or isinstance(op, func.CallOp):
            # Unknown region-bearing ops and calls may do anything.
            result = FieldSet.top()
        else:
            result = live
        previous = self.live_in.get(op)
        self.live_in[op] = result if previous is None else result.union(previous)
        return result


class ObservedFieldsAnalysis:
    """Which fields carried by a state value may still be *observed*.

    A field write is observed when some launch can read it before another
    setup overwrites it.  Walks the def-use chain forward from a state
    value; any escape (a launch, a call, an unknown consumer) observes
    everything (TOP), a consuming setup masks the fields it rewrites, and a
    reset observes nothing.  Cycles through loop-carried states resolve to
    TOP, which is the safe direction for a lint: never call a field dead
    unless it provably is.
    """

    def __init__(self) -> None:
        self._cache: dict[SSAValue, FieldSet] = {}
        self._in_progress: set[SSAValue] = set()

    def observed(self, state: SSAValue) -> FieldSet:
        if state in self._cache:
            return self._cache[state]
        if state in self._in_progress:
            return FieldSet.top()
        self._in_progress.add(state)
        try:
            result = self._compute(state)
        finally:
            self._in_progress.discard(state)
        self._cache[state] = result
        return result

    def _compute(self, state: SSAValue) -> FieldSet:
        result = FieldSet.bottom()
        for use in state.uses:
            user = use.operation
            if isinstance(user, accfg.SetupOp):
                downstream = self.observed(user.out_state)
                result = result.union(downstream.minus(set(user.field_names)))
            elif isinstance(user, accfg.ResetOp):
                continue
            elif isinstance(user, scf.YieldOp):
                parent = user.parent_op
                if isinstance(parent, scf.IfOp):
                    result = result.union(self.observed(parent.results[use.index]))
                elif isinstance(parent, scf.ForOp):
                    result = result.union(self.observed(parent.results[use.index]))
                    result = result.union(
                        self.observed(parent.body.args[use.index + 1])
                    )
                else:
                    return FieldSet.top()
            elif isinstance(user, scf.ForOp):
                if use.index < 3:
                    return FieldSet.top()  # a loop bound?! — escape
                iter_index = use.index - 3
                result = result.union(self.observed(user.results[iter_index]))
                result = result.union(self.observed(user.body.args[iter_index + 1]))
            else:
                # Launches, calls, returns, unknown ops: everything escapes.
                return FieldSet.top()
            if result.is_top and not result.names:
                return result  # already "everything": no use can add more
        return result
