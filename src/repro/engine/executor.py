"""Flat-trace executor: a tight dispatch loop over compiled instruction
streams.

Behaviorally bit-identical to :class:`repro.interp.interpreter.Interpreter`
on verified modules: same results, same memory image, same launch counts,
same instruction trace, same timeline spans, same protocol-error messages
(the ``trace-vs-tree`` differential oracle enforces exactly this on every
fuzzed program).  The speed comes from doing per-execution work only:

* opcode dispatch on small ints instead of ``isinstance`` ladders;
* SSA environments as flat lists indexed by precomputed slots;
* host-instruction charging inlined (span + trace append + time bump)
  with each record's cycles and span kind resolved once per run.
"""

from __future__ import annotations

from ..dialects.builtin import ModuleOp
from ..interp.interpreter import InterpreterError, StateHandle
from ..isa.instructions import CTRL_INSTR
from ..sim.cosim import _SPAN_FOR_CATEGORY, CoSimulator
from ..sim.device import FaultError, LaunchToken
from ..sim.timeline import Span
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
    OP_FOREIGN,
    OP_IF,
    OP_JUMP,
    OP_LAUNCH,
    OP_RESET,
    OP_RETURN,
    OP_SELECT,
    OP_SETUP,
    CompiledFunction,
    CompiledModule,
    TraceCompileError,
    compile_module,
)

# Re-exported for cmpi evaluation without re-importing dialects at run time.
from ..dialects.arith import CmpiOp

_evaluate_predicate = CmpiOp.evaluate_predicate


def _not_int(value) -> InterpreterError:
    return InterpreterError(
        f"expected an integer value, found {type(value).__name__}"
    )


class TraceExecutor:
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
        self.compiled = compiled
        self.sim = sim
        self.max_call_depth = 256
        self._state_counter = 0
        self._call_depth = 0
        self._awaited: set[LaunchToken] = set()
        self._reset_states: set[StateHandle] = set()
        self._reset_epoch: dict[str, int] = {}
        self._token_epoch: dict[LaunchToken, int] = {}
        # id(instr) -> (cycles, span kind, instr) per distinct Instr,
        # resolved once per run against this sim's cost model.  Keyed by
        # identity: the frozen dataclass hash costs a Python call per
        # lookup, and the entry keeps the record alive so its id stays put.
        self._cost: dict[int, tuple] = {}

    # -- public API ------------------------------------------------------

    def run(self, function: str = "main", args: list[int] | None = None) -> list:
        """Execute ``function`` to completion; returns its results."""
        fn = self.compiled.functions.get(function)
        if fn is None:
            if function in self.compiled.declarations:
                raise InterpreterError(f"function '{function}' has no body")
            raise InterpreterError(f"no function '{function}' in module")
        args = args or []
        if len(args) != fn.n_args:
            raise InterpreterError(
                f"'{function}' expects {fn.n_args} arguments, got {len(args)}"
            )
        frame = [None] * fn.n_slots
        for slot, value in zip(fn.arg_slots, args):
            frame[slot] = value
        return self._exec(fn, frame)

    # -- dispatch loop ---------------------------------------------------

    def _resolve(self, instr) -> tuple:
        """Enter a record seen for the first time into the cost table."""
        entry = (
            self.sim.cost_model.cycles(instr),
            _SPAN_FOR_CATEGORY[instr.category],
            instr,
        )
        self._cost[id(instr)] = entry
        return entry

    def _exec(self, fn: CompiledFunction, frame: list) -> list:
        sim = self.sim
        code = fn.code
        cost = self._cost.get
        resolve = self._resolve
        ctrl_cycles, ctrl_kind, _ = cost(id(CTRL_INSTR)) or resolve(CTRL_INSTR)
        new = tuple.__new__
        spans_append = sim.timeline.spans.append
        trace_append = sim.trace.instrs.append
        reset_states = self._reset_states
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
                cycles, kind, _ = cost(id(instr)) or resolve(instr)
                t = sim.host_time
                if cycles > 0:
                    spans_append(new(Span, ("host", kind, t, t + cycles, "")))
                sim.host_time = t + cycles
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
                    # Increment + compare&branch of the loop back-edge.
                    t = sim.host_time
                    end = t + 2 * ctrl_cycles
                    if ctrl_cycles > 0:
                        mid = t + ctrl_cycles
                        spans_append(new(Span, ("host", ctrl_kind, t, mid, "")))
                        spans_append(new(Span, ("host", ctrl_kind, mid, end, "")))
                    sim.host_time = end
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
                cycles, kind, _ = cost(id(instr)) or resolve(instr)
                t = sim.host_time
                if cycles > 0:
                    spans_append(new(Span, ("host", kind, t, t + cycles, "")))
                sim.host_time = t + cycles
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
                cycles, kind, _ = cost(id(instr)) or resolve(instr)
                t = sim.host_time
                if cycles > 0:
                    spans_append(new(Span, ("host", kind, t, t + cycles, "")))
                sim.host_time = t + cycles
                trace_append(instr)
                pc += 1
                continue

            if opcode == OP_SELECT:
                _, dst, cond_slot, tv, fv, instr = ins
                cond = frame[cond_slot]
                if not isinstance(cond, int):
                    raise _not_int(cond)
                frame[dst] = frame[tv if cond else fv]
                cycles, kind, _ = cost(id(instr)) or resolve(instr)
                t = sim.host_time
                if cycles > 0:
                    spans_append(new(Span, ("host", kind, t, t + cycles, "")))
                sim.host_time = t + cycles
                trace_append(instr)
                pc += 1
                continue

            if opcode == OP_IF:
                _, cond_slot, false_target = ins
                cond = frame[cond_slot]
                if not isinstance(cond, int):
                    raise _not_int(cond)
                t = sim.host_time
                if ctrl_cycles > 0:
                    spans_append(
                        new(Span, ("host", ctrl_kind, t, t + ctrl_cycles, ""))
                    )
                sim.host_time = t + ctrl_cycles
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
                    raise InterpreterError("scf.for requires a positive step")
                frame[iv] = value
                pc += 1
                continue

            if opcode == OP_SETUP:
                _, accel, names, slots, out_slot, in_slot, loc, site = ins
                if in_slot is not None and frame[in_slot] in reset_states:
                    raise InterpreterError(
                        f"setup on '{accel}' uses a state that was reset "
                        f"(register contents are no longer defined){loc}"
                    )
                fields = {}
                for name, slot in zip(names, slots):
                    value = frame[slot]
                    if not isinstance(value, int):
                        raise _not_int(value)
                    fields[name] = value
                try:
                    sim.exec_setup(accel, fields, site=site)
                except KeyError as error:
                    raise InterpreterError(
                        f"setup on {error.args[0]}{loc}"
                    ) from None
                except FaultError as error:
                    raise InterpreterError(f"{error}{loc}") from None
                self._state_counter += 1
                frame[out_slot] = StateHandle(accel, self._state_counter)
                pc += 1
                continue

            if opcode == OP_LAUNCH:
                _, accel, names, slots, token_slot, state_slot, loc, site = ins
                if frame[state_slot] in reset_states:
                    raise InterpreterError(
                        f"launch on '{accel}' uses a state that was reset "
                        f"(register contents are no longer defined){loc}"
                    )
                fields = {}
                for name, slot in zip(names, slots):
                    value = frame[slot]
                    if not isinstance(value, int):
                        raise _not_int(value)
                    fields[name] = value
                try:
                    token = sim.exec_launch(accel, fields, site=site)
                except KeyError as error:
                    raise InterpreterError(
                        f"launch on {error.args[0]}{loc}"
                    ) from None
                except FaultError as error:
                    raise InterpreterError(f"{error}{loc}") from None
                self._token_epoch[token] = self._reset_epoch.get(accel, 0)
                frame[token_slot] = token
                pc += 1
                continue

            if opcode == OP_AWAIT:
                _, token_slot, accel, loc = ins
                token = frame[token_slot]
                if not isinstance(token, LaunchToken):
                    raise InterpreterError(
                        f"await of a value that is not a token{loc}"
                    )
                if token in self._awaited:
                    raise InterpreterError(
                        f"double await of a token on '{accel}' "
                        f"(the launch was already awaited){loc}"
                    )
                epoch = self._reset_epoch.get(accel, 0)
                if self._token_epoch.get(token, epoch) != epoch:
                    raise InterpreterError(
                        f"await of a launch on '{accel}' that was "
                        f"discarded by accfg.reset{loc}"
                    )
                try:
                    sim.exec_await(token)
                except FaultError as error:
                    raise InterpreterError(f"{error}{loc}") from None
                self._awaited.add(token)
                pc += 1
                continue

            if opcode == OP_RESET:
                handle = frame[ins[1]]
                if isinstance(handle, StateHandle):
                    reset_states.add(handle)
                    self._reset_epoch[handle.accelerator] = (
                        self._reset_epoch.get(handle.accelerator, 0) + 1
                    )
                    if sim.faults is not None:
                        sim.exec_reset(handle.accelerator)
                t = sim.host_time
                if ctrl_cycles > 0:
                    spans_append(
                        new(Span, ("host", ctrl_kind, t, t + ctrl_cycles, ""))
                    )
                sim.host_time = t + ctrl_cycles
                trace_append(CTRL_INSTR)
                pc += 1
                continue

            if opcode == OP_CALL:
                _, callee_name, arg_slots, result_slots = ins
                callee = self.compiled.functions.get(callee_name)
                if callee is None:
                    raise InterpreterError(
                        f"call to unknown/declared function '@{callee_name}'"
                    )
                t = sim.host_time  # call + return jumps
                end = t + 2 * ctrl_cycles
                if ctrl_cycles > 0:
                    mid = t + ctrl_cycles
                    spans_append(new(Span, ("host", ctrl_kind, t, mid, "")))
                    spans_append(new(Span, ("host", ctrl_kind, mid, end, "")))
                sim.host_time = end
                trace_append(CTRL_INSTR)
                trace_append(CTRL_INSTR)
                if self._call_depth >= self.max_call_depth:
                    raise InterpreterError(
                        f"call depth exceeded {self.max_call_depth} "
                        f"(unbounded recursion via '@{callee_name}'?)"
                    )
                inner = [None] * callee.n_slots
                for slot, arg_slot in zip(callee.arg_slots, arg_slots):
                    inner[slot] = frame[arg_slot]
                self._call_depth += 1
                try:
                    values = self._exec(callee, inner)
                finally:
                    self._call_depth -= 1
                for dst, value in zip(result_slots, values):
                    frame[dst] = value
                pc += 1
                continue

            if opcode == OP_RETURN:
                return [frame[slot] for slot in ins[1]]

            if opcode == OP_FOREIGN:
                instr = ins[1]
                cycles, kind, _ = cost(id(instr)) or resolve(instr)
                t = sim.host_time
                if cycles > 0:
                    spans_append(new(Span, ("host", kind, t, t + cycles, "")))
                sim.host_time = t + cycles
                trace_append(instr)
                pc += 1
                continue

            raise InterpreterError(f"corrupt trace: unknown opcode {opcode}")


def run_module_traced(
    module: ModuleOp,
    sim: CoSimulator | None = None,
    function: str = "main",
    args: list[int] | None = None,
    cache=None,
    fallback: bool = True,
) -> tuple[list, CoSimulator]:
    """Trace-compile (with caching) and execute ``function``.

    Drop-in replacement for :func:`repro.interp.run_module`.  ``cache``
    defaults to the process-wide :data:`repro.engine.cache.TRACE_CACHE`;
    pass ``False``/``None``-like sentinel objects with a ``get_or_compile``
    method to control caching.  When the module contains ops the trace
    compiler does not support and ``fallback`` is true, execution falls back
    to the tree interpreter (identical semantics, just slower).

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
    try:
        compiled = (
            cache.get_or_compile(module)
            if cache is not False
            else compile_module(module)
        )
    except TraceCompileError:
        if not fallback:
            raise
        from ..interp import run_module

        return run_module(module, sim, function, args)
    results = TraceExecutor(compiled, sim).run(function, args)
    return results, sim
