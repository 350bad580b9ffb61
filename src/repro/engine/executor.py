"""Flat-trace executor: a tight dispatch loop over compiled instruction
streams.

Behaviorally bit-identical to :class:`repro.interp.interpreter.Interpreter`
on verified modules: same results, same memory image, same launch counts,
same instruction trace, same timeline spans, same protocol-error messages
(the ``trace-vs-tree`` differential oracle enforces exactly this on every
fuzzed program).  Setups, launches, awaits, resets, calls and host-side ops
are not reimplemented here: both engines execute them through
:class:`~repro.interp.interpreter.AccfgRuntime`, so their checks and
messages cannot drift.  The speed comes from doing per-execution work only:

* opcode dispatch on small ints instead of ``isinstance`` ladders;
* SSA environments as flat lists indexed by precomputed slots;
* host-instruction charging inlined (trace append + time bump) with each
  record's cycles resolved once per run; the timeline derives the spans
  from the trace (:class:`repro.sim.timeline.Timeline`).
"""

from __future__ import annotations

from ..dialects.builtin import ModuleOp
from ..interp.interpreter import (
    AccfgRuntime,
    InterpreterError,
    _nonpositive_step,
    _not_int,
)
from ..isa.instructions import CTRL_INSTR
from ..sim.cosim import CoSimulator
from .compiler import (
    OP_AWAIT,
    OP_BINOP,
    OP_CALL,
    OP_CMP,
    OP_CONST,
    OP_COPY,
    OP_FOR_INIT,
    OP_FOR_NEXT,
    OP_FOR_TEST,
    OP_HOST,
    OP_IF,
    OP_JUMP,
    OP_LAUNCH,
    OP_RESET,
    OP_RETURN,
    OP_SELECT,
    OP_SETUP,
    OP_TRAP,
    CompiledFunction,
    CompiledModule,
    compile_module,
)

# Re-exported for cmpi evaluation without re-importing dialects at run time.
from ..dialects.arith import CmpiOp

_evaluate_predicate = CmpiOp.evaluate_predicate


class TraceExecutor(AccfgRuntime):
    """Executes one :class:`CompiledModule` against a co-simulator.

    Mutable run state (protocol tracking, call depth) lives here, so one
    compiled module can be shared by any number of executors/caches.
    """

    def __init__(self, compiled: CompiledModule, sim: CoSimulator) -> None:
        reliance = sim.reliance
        if reliance is not None and len(reliance.sites) != compiled.site_count:
            from ..faults.recovery import ReliancePlanMismatch

            raise ReliancePlanMismatch(
                f"the reliance plan knows {len(reliance.sites)} setup/launch "
                f"sites but the compiled trace has {compiled.site_count}: "
                "the plan was built for another module"
            )
        super().__init__(sim, compiled.functions, compiled.declarations)
        self.compiled = compiled
        # id(instr) -> (cycles, instr) per distinct Instr, resolved once
        # per run against this sim's cost model.  Keyed by identity: the
        # frozen dataclass hash costs a Python call per lookup, and the
        # entry keeps the record alive so its id stays put.
        self._cost: dict[int, tuple] = {}

    # -- public API ------------------------------------------------------

    def run(self, function: str = "main", args: list[int] | None = None) -> list:
        """Execute ``function`` to completion; returns its results."""
        return self._enter(function, args)

    def _arity(self, fn: CompiledFunction) -> int:
        return fn.n_args

    def _invoke(self, fn: CompiledFunction, args: list) -> list:
        frame = [None] * fn.n_slots
        for slot, value in zip(fn.arg_slots, args):
            frame[slot] = value
        return self._exec(fn, frame)

    # -- dispatch loop ---------------------------------------------------

    def _resolve(self, instr) -> tuple:
        """Enter a record seen for the first time into the cost table and
        the trace's record table."""
        sim = self.sim
        entry = (sim.cost_model.cycles(instr), instr)
        self._cost[id(instr)] = entry
        sim.trace.records[id(instr)] = instr
        return entry

    def _exec(self, fn: CompiledFunction, frame: list) -> list:
        sim = self.sim
        code = fn.code
        cost = self._cost.get
        resolve = self._resolve
        ctrl_cycles, _ = cost(id(CTRL_INSTR)) or resolve(CTRL_INSTR)
        trace_append = sim.trace.instrs.append
        pc = 0
        while True:
            ins = code[pc]
            opcode = ins[0]

            if opcode == OP_BINOP:
                _, dst, evaluate, a, b, mask, instr = ins
                lhs = frame[a]
                if not isinstance(lhs, int):
                    raise _not_int(lhs)
                rhs = frame[b]
                if not isinstance(rhs, int):
                    raise _not_int(rhs)
                value = evaluate(None, lhs, rhs)
                frame[dst] = value & mask if mask is not None else value
                cycles, _ = cost(id(instr)) or resolve(instr)
                sim.host_time += cycles
                trace_append(instr)
                pc += 1
                continue

            if opcode == OP_COPY:
                frame[ins[1]] = frame[ins[2]]
                pc += 1
                continue

            if opcode == OP_FOR_TEST:
                _, iv, ub, exit_target = ins
                if frame[iv] < frame[ub]:
                    # Increment + compare&branch of the loop back-edge: two
                    # records, so two additions, as the tree interpreter's.
                    sim.host_time = sim.host_time + ctrl_cycles + ctrl_cycles
                    trace_append(CTRL_INSTR)
                    trace_append(CTRL_INSTR)
                    pc += 1
                else:
                    pc = exit_target
                continue

            if opcode == OP_FOR_NEXT:
                _, iv, step, head = ins
                frame[iv] += frame[step]
                pc = head
                continue

            if opcode == OP_CONST:
                _, dst, value, instr = ins
                frame[dst] = value
                cycles, _ = cost(id(instr)) or resolve(instr)
                sim.host_time += cycles
                trace_append(instr)
                pc += 1
                continue

            if opcode == OP_CMP:
                _, dst, predicate, a, b, width, instr = ins
                lhs = frame[a]
                if not isinstance(lhs, int):
                    raise _not_int(lhs)
                rhs = frame[b]
                if not isinstance(rhs, int):
                    raise _not_int(rhs)
                frame[dst] = int(_evaluate_predicate(predicate, lhs, rhs, width))
                cycles, _ = cost(id(instr)) or resolve(instr)
                sim.host_time += cycles
                trace_append(instr)
                pc += 1
                continue

            if opcode == OP_SELECT:
                _, dst, cond_slot, tv, fv, instr = ins
                cond = frame[cond_slot]
                if not isinstance(cond, int):
                    raise _not_int(cond)
                frame[dst] = frame[tv if cond else fv]
                cycles, _ = cost(id(instr)) or resolve(instr)
                sim.host_time += cycles
                trace_append(instr)
                pc += 1
                continue

            if opcode == OP_IF:
                _, cond_slot, false_target = ins
                cond = frame[cond_slot]
                if not isinstance(cond, int):
                    raise _not_int(cond)
                sim.host_time += ctrl_cycles
                trace_append(CTRL_INSTR)
                pc = pc + 1 if cond else false_target
                continue

            if opcode == OP_JUMP:
                pc = ins[1]
                continue

            if opcode == OP_FOR_INIT:
                _, lb, ub, step, iv = ins
                value = frame[lb]
                if not isinstance(value, int):
                    raise _not_int(value)
                bound = frame[ub]
                if not isinstance(bound, int):
                    raise _not_int(bound)
                stride = frame[step]
                if not isinstance(stride, int):
                    raise _not_int(stride)
                if stride <= 0:
                    raise _nonpositive_step()
                frame[iv] = value
                pc += 1
                continue

            if opcode == OP_SETUP:
                self._setup(frame, ins[1])
                pc += 1
                continue

            if opcode == OP_LAUNCH:
                self._launch(frame, ins[1])
                pc += 1
                continue

            if opcode == OP_AWAIT:
                self._await(frame, ins[1])
                pc += 1
                continue

            if opcode == OP_RESET:
                self._reset(frame, ins[1])
                pc += 1
                continue

            if opcode == OP_CALL:
                self._call(frame, ins[1])
                pc += 1
                continue

            if opcode == OP_RETURN:
                return [frame[slot] for slot in ins[1]]

            if opcode == OP_HOST:
                self._host(frame, ins[1])
                pc += 1
                continue

            if opcode == OP_TRAP:
                raise InterpreterError(ins[1])

            raise InterpreterError(f"corrupt trace: unknown opcode {opcode}")


def run_module_traced(
    module: ModuleOp,
    sim: CoSimulator | None = None,
    function: str = "main",
    args: list[int] | None = None,
    cache=None,
) -> tuple[list, CoSimulator]:
    """Trace-compile (with caching) and execute ``function``.

    Drop-in replacement for :func:`repro.interp.run_module`: every verified
    module compiles, and an op with no semantics raises the tree
    interpreter's error when reached.  ``cache`` defaults to the
    process-wide :data:`repro.engine.cache.TRACE_CACHE`; pass ``False`` to
    compile afresh, or any object with a ``get_or_compile`` method.

    Any cached entry serves fault-injected runs too: its site numbers are
    resolved by ``sim.reliance``, which must therefore be built for
    ``module`` (:class:`~repro.faults.ReliancePlanMismatch` otherwise).
    """
    sim = sim or CoSimulator()
    if sim.reliance is not None and sim.reliance.module is not module:
        from ..faults.recovery import ReliancePlanMismatch

        raise ReliancePlanMismatch(
            "the simulator's reliance plan was built for another module"
        )
    if cache is None:
        from .cache import TRACE_CACHE

        cache = TRACE_CACHE
    compiled = (
        cache.get_or_compile(module)
        if cache is not False
        else compile_module(module)
    )
    results = TraceExecutor(compiled, sim).run(function, args)
    return results, sim
