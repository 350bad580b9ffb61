"""Timed functional IR interpreter.

Executes accfg programs directly: arith is evaluated on Python integers,
``scf`` control flow is run natively, and accfg ops drive the co-simulation
engine (configuration writes, launches, awaits).  Every executed operation is
charged against the host cost model, so one run yields both the functional
result (checkable against numpy) and the timing/instruction measurements the
roofline analysis needs.

Instruction categorization: host scalar ops whose values flow (transitively)
into setup or launch fields are *configuration parameter calculation*
(``calc``, the ``T_calc`` of Eq. 4); all other scalar work is host compute.
Each scalar op's value and record come from its declaration in
:mod:`repro.dialects.arith`, which the trace engine reads too.  Loop and
branch management is charged as ``control``.

Setups, launches, awaits, resets, calls and host-side ops run through
:class:`AccfgRuntime`, the base class this interpreter shares with the
trace engine (:class:`repro.engine.executor.TraceExecutor`): the accfg
protocol's checks and messages exist once, for both engines.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dialects import accfg, arith, func, scf
from ..dialects.builtin import ModuleOp
from ..ir.operation import InterpreterError, Operation, UnregisteredOp
from ..ir.ssa import SSAValue
from ..sim.cosim import CoSimulator
from ..sim.device import FaultError, LaunchToken
from ..isa.instructions import CTRL_PAIR_STREAM, CTRL_STREAM, Instr


def _loc_suffix(loc) -> str:
    """The " at file:line:col" suffix of an error raised at an op."""
    return f" at {loc}" if loc is not None else ""


#: what :attr:`AccfgRuntime._sites` holds for a record not resolved yet
_UNRESOLVED = object()


def _not_int(value) -> InterpreterError:
    return InterpreterError(
        f"expected an integer value, found {type(value).__name__}"
    )


def _nonpositive_step() -> InterpreterError:
    return InterpreterError("scf.for requires a positive step")


def cannot_interpret(op: Operation) -> str:
    """The error for an op no engine gives semantics to."""
    if isinstance(op, UnregisteredOp):
        what = f"unregistered op '{op.op_name}'"
    else:
        what = f"op '{op.name}'"
    return f"cannot interpret {what}{_loc_suffix(op.loc)}"


@dataclass(frozen=True)
class StateHandle:
    """Runtime stand-in for an ``!accfg.state`` value."""

    accelerator: str
    version: int


class _ReturnSignal(Exception):
    def __init__(self, values: list) -> None:
        self.values = values


def runtime_record(op: Operation, key, site=None) -> tuple | None:
    """What :class:`AccfgRuntime` reads to execute ``op``; None for an op it
    does not execute (scalar ops, control flow, and ops with no semantics).

    Each SSA operand or result appears as ``key(value)``: the value itself
    for the tree interpreter, a frame slot for the trace engine.  ``site``
    names a setup or launch for fault recovery (the op, or its number in
    :func:`repro.dialects.accfg.config_sites`).
    """
    if isinstance(op, accfg.SetupOp):
        in_state = op.in_state
        return (
            op.accelerator,
            op.field_names,
            tuple(map(key, op.field_values)),
            key(op.out_state),
            None if in_state is None else key(in_state),
            op.loc,
            site,
        )
    if isinstance(op, accfg.LaunchOp):
        return (
            op.accelerator,
            op.field_names,
            tuple(key(value) for _, value in op.fields),
            key(op.token),
            key(op.state),
            op.loc,
            site,
        )
    if isinstance(op, accfg.AwaitOp):
        # Not ``op.accelerator``, which asserts a token type: an operand that
        # is no token must reach the runtime's own check.
        accel = getattr(op.token.type, "accelerator", None)
        return (key(op.token), accel, op.loc)
    if isinstance(op, accfg.ResetOp):
        return (key(op.state),)
    if isinstance(op, func.CallOp):
        return (
            op.callee,
            tuple(map(key, op.operands)),
            tuple(map(key, op.results)),
        )
    effect = accfg.host_effect(op)
    if effect is None:
        return None
    return (effect.stream, effect.move, tuple(map(key, op.operands)), effect.args)


class AccfgRuntime:
    """The accfg protocol of one run, shared by both execution engines.

    It owns the run's protocol state and executes every setup, launch,
    await, reset, call and host-side op with its checks, so each check and
    error message exists once.  An engine keeps its values in a *frame*
    (the tree interpreter's dict, the trace engine's slot list), and the
    runtime reads and writes it through the keys of a
    :func:`runtime_record`.  Engines supply ``_arity`` and ``_invoke``
    for their own function objects.
    """

    def __init__(self, sim: CoSimulator, functions: dict, declarations) -> None:
        self.sim = sim
        #: name -> the engine's callable function; declarations stay apart
        self._functions = functions
        self._declarations = declarations
        self.max_call_depth = 256
        self._state_counter = 0
        self._call_depth = 0
        # Awaited tokens (double-await detection), states invalidated by
        # accfg.reset, and a per-accelerator reset epoch so launches
        # outstanding across a reset are caught: each launched token maps
        # to its epoch until it is awaited.
        self._awaited: set[LaunchToken] = set()
        self._reset_states: set[StateHandle] = set()
        self._reset_epoch: dict[str, int] = {}
        self._token_epoch: dict[LaunchToken, int] = {}
        #: id(record) -> the setup or launch site the simulator resolved
        #: for it, or None where it runs as a field dict (the records stay
        #: alive for the run, so their ids stay put)
        self._sites: dict[int, object] = {}

    def _arity(self, fn) -> int:
        raise NotImplementedError

    def _invoke(self, fn, args: list) -> list:
        """Run ``fn`` on ``args`` to completion; returns its results."""
        raise NotImplementedError

    # -- functions ---------------------------------------------------------

    def _enter(self, function: str, args: list | None) -> list:
        fn = self._functions.get(function)
        if fn is None:
            if function in self._declarations:
                raise InterpreterError(f"function '{function}' has no body")
            raise InterpreterError(f"no function '{function}' in module")
        args = args or []
        arity = self._arity(fn)
        if len(args) != arity:
            raise InterpreterError(
                f"'{function}' expects {arity} arguments, got {len(args)}"
            )
        return self._invoke(fn, args)

    def _call(self, frame, record: tuple) -> None:
        name, arg_keys, result_keys = record
        callee = self._functions.get(name)
        if callee is None:
            raise InterpreterError(
                f"call to unknown/declared function '@{name}'"
            )
        self.sim.charge(CTRL_PAIR_STREAM)  # call + return jumps
        if self._call_depth >= self.max_call_depth:
            raise InterpreterError(
                f"call depth exceeded {self.max_call_depth} "
                f"(unbounded recursion via '@{name}'?)"
            )
        args = [frame[key] for key in arg_keys]
        self._call_depth += 1
        try:
            values = self._invoke(callee, args)
        finally:
            self._call_depth -= 1
        for key, value in zip(result_keys, values):
            frame[key] = value

    # -- accfg ops ---------------------------------------------------------

    # Each setup and launch record is resolved once per run against the
    # simulator (``CoSimulator.setup_site``/``launch_site``), after its
    # values are checked, so a non-int value raises before an unknown
    # accelerator does.  A resolved site takes the checked values as they
    # are; any other record runs as a field dict, the recovery protocol's
    # input under fault injection.

    def _setup(self, frame, record: tuple) -> None:
        accel, names, keys, out_key, in_key, loc, site = record
        # A state handle hashes by a Python call, so the membership test
        # runs only once some state was reset.
        reset = self._reset_states
        if reset and in_key is not None and frame[in_key] in reset:
            raise _reset_state_error("setup", accel, loc)
        values = _int_values(frame, keys)
        sim = self.sim
        try:
            resolved = self._sites.get(id(record), _UNRESOLVED)
            if resolved is _UNRESOLVED:
                resolved = self._sites[id(record)] = sim.setup_site(accel, names)
            if resolved is None:
                sim.exec_setup(accel, dict(zip(names, values)), site)
            else:
                sim.exec_setup(accel, values, resolved)
        except (KeyError, FaultError) as error:
            raise _sim_error("setup", error, loc) from None
        self._state_counter += 1
        frame[out_key] = StateHandle(accel, self._state_counter)

    def _launch(self, frame, record: tuple) -> None:
        accel, names, keys, token_key, state_key, loc, site = record
        reset = self._reset_states
        if reset and frame[state_key] in reset:
            raise _reset_state_error("launch", accel, loc)
        values = _int_values(frame, keys)
        sim = self.sim
        try:
            resolved = self._sites.get(id(record), _UNRESOLVED)
            if resolved is _UNRESOLVED:
                resolved = self._sites[id(record)] = sim.launch_site(accel, names)
            if resolved is None:
                token = sim.exec_launch(accel, dict(zip(names, values)), site)
            else:
                token = sim.exec_launch(accel, values, resolved)
        except (KeyError, FaultError) as error:
            raise _sim_error("launch", error, loc) from None
        self._token_epoch[token] = self._reset_epoch.get(accel, 0)
        frame[token_key] = token

    def _await(self, frame, record: tuple) -> None:
        token_key, accel, loc = record
        token = frame[token_key]
        if not isinstance(token, LaunchToken):
            raise InterpreterError(
                f"await of a value that is not a token{_loc_suffix(loc)}"
            )
        epoch = self._reset_epoch.get(accel, 0)
        # A token is hashed once to leave the launched ones and once to
        # join the awaited ones; one in neither is not this run's launch.
        launched = self._token_epoch.pop(token, None)
        if launched is None:
            if token in self._awaited:
                raise InterpreterError(
                    f"double await of a token on '{accel}' "
                    f"(the launch was already awaited){_loc_suffix(loc)}"
                )
            launched = epoch
        if launched != epoch:
            raise InterpreterError(
                f"await of a launch on '{accel}' that was "
                f"discarded by accfg.reset{_loc_suffix(loc)}"
            )
        try:
            self.sim.exec_await(token)
        except FaultError as error:
            raise _sim_error("await", error, loc) from None
        self._awaited.add(token)

    def _reset(self, frame, record: tuple) -> None:
        handle = frame[record[0]]
        if isinstance(handle, StateHandle):
            accel = handle.accelerator
            self._reset_states.add(handle)
            self._reset_epoch[accel] = self._reset_epoch.get(accel, 0) + 1
            if self.sim.faults is not None:
                self.sim.exec_reset(accel)
        self.sim.charge(CTRL_STREAM)

    def _host(self, frame, record: tuple) -> None:
        """A host-side op: its data move, then its charge."""
        stream, move, keys, args = record
        sim = self.sim
        if move is not None and sim.functional:
            move(sim.memory, *[frame[key] for key in keys], *args)
        sim.charge(stream)


def _int_values(frame, keys: tuple) -> list[int]:
    """The values at ``keys``, each checked to be an int and read as an
    exact one."""
    values = []
    for key in keys:
        value = frame[key]
        if type(value) is not int:
            if not isinstance(value, int):
                raise _not_int(value)
            value = int(value)
        values.append(value)
    return values


def _reset_state_error(verb: str, accel: str, loc) -> InterpreterError:
    return InterpreterError(
        f"{verb} on '{accel}' uses a state that was reset "
        f"(register contents are no longer defined){_loc_suffix(loc)}"
    )


def _sim_error(verb: str, error: Exception, loc) -> InterpreterError:
    """A simulator failure at an op: an unknown accelerator (``KeyError``)
    or an unrepaired injected fault."""
    if isinstance(error, KeyError):
        return InterpreterError(f"{verb} on {error.args[0]}{_loc_suffix(loc)}")
    return InterpreterError(f"{error}{_loc_suffix(loc)}")


def _same(value):
    return value


class Interpreter(AccfgRuntime):
    """Executes one module against a co-simulator."""

    def __init__(self, module: ModuleOp, sim: CoSimulator) -> None:
        functions: dict[str, func.FuncOp] = {}
        declarations: set[str] = set()
        for op in module.body_block.ops:
            if isinstance(op, func.FuncOp):
                if op.is_declaration:
                    declarations.add(op.sym_name)
                else:
                    functions[op.sym_name] = op
        super().__init__(sim, functions, declarations)
        self.module = module
        self._config_feeding = accfg.config_feeding_ops(module)
        #: scalar op -> the one-record stream it charges, built on first run
        self._scalar_streams: dict[Operation, tuple[Instr]] = {}
        #: op -> its runtime record, built on first run
        self._records: dict[Operation, tuple | None] = {}

    # -- public API ------------------------------------------------------

    def run(self, function: str = "main", args: list[int] | None = None) -> list[int]:
        """Interpret ``function`` to completion; returns its results."""
        return self._enter(function, args)

    # -- execution ---------------------------------------------------------

    def _arity(self, fn: func.FuncOp) -> int:
        return len(fn.args)

    def _invoke(self, fn: func.FuncOp, args: list) -> list:
        env: dict[SSAValue, object] = dict(zip(fn.args, args))
        try:
            # The body's loop is inlined (not ``_run_block``) so a call level
            # costs three Python frames and 256 levels fit the default
            # recursion limit.
            for op in fn.body.ops:
                self._run_op(op, env)
                if op.is_terminator:
                    break
        except _ReturnSignal as signal:
            return signal.values
        return []

    def _run_block(self, block, env: dict[SSAValue, object]) -> list:
        """Execute a block; returns the values yielded by its terminator."""
        for op in block.ops:
            result = self._run_op(op, env)
            if op.is_terminator:
                return result or []
        return []

    def _charge_scalar(self, op: arith.ScalarOp) -> None:
        stream = self._scalar_streams.get(op)
        if stream is None:
            stream = self._scalar_streams[op] = (
                arith.charged_instr(op, self._config_feeding),
            )
        self.sim.charge(stream)

    def _record(self, op: Operation) -> tuple | None:
        record = self._records.get(op)
        if record is None:
            record = self._records[op] = runtime_record(op, _same, op)
        return record

    def _run_op(self, op: Operation, env: dict[SSAValue, object]):
        if isinstance(op, arith.ScalarOp):
            if isinstance(op, arith.ConstantOp):
                env[op.result] = op.value
            elif isinstance(op, arith.SelectOp):
                cond = self._as_int(env, op.condition)
                env[op.result] = env[op.true_value if cond else op.false_value]
            else:  # two operands: the op's declared value function
                lhs, rhs = op.operands
                value = op.evaluate(self._as_int(env, lhs), self._as_int(env, rhs))
                env[op.result] = arith.truncate_to_type(value, op.result.type)
            self._charge_scalar(op)
            return None
        if isinstance(op, scf.ForOp):
            return self._run_for(op, env)
        if isinstance(op, scf.IfOp):
            return self._run_if(op, env)
        if isinstance(op, scf.YieldOp):
            return [env[v] for v in op.operands]
        if isinstance(op, func.ReturnOp):
            raise _ReturnSignal([env[v] for v in op.operands])
        if isinstance(op, accfg.SetupOp):
            self._setup(env, self._record(op))
        elif isinstance(op, accfg.LaunchOp):
            self._launch(env, self._record(op))
        elif isinstance(op, accfg.AwaitOp):
            self._await(env, self._record(op))
        elif isinstance(op, accfg.ResetOp):
            self._reset(env, self._record(op))
        elif isinstance(op, func.CallOp):
            self._call(env, self._record(op))
        else:
            record = self._record(op)
            if record is None:
                raise InterpreterError(cannot_interpret(op))
            self._host(env, record)
        return None

    def _run_for(self, op: scf.ForOp, env: dict[SSAValue, object]) -> None:
        lb = self._as_int(env, op.lb)
        ub = self._as_int(env, op.ub)
        step = self._as_int(env, op.step)
        if step <= 0:
            raise _nonpositive_step()
        carried = [env[v] for v in op.iter_inits]
        iv = lb
        while iv < ub:
            # Increment + compare&branch of the loop back-edge.
            self.sim.charge(CTRL_PAIR_STREAM)
            env[op.induction_var] = iv
            for arg, value in zip(op.iter_args, carried):
                env[arg] = value
            carried = self._run_block(op.body, env)
            iv += step
        for result, value in zip(op.results, carried):
            env[result] = value
        return None

    def _run_if(self, op: scf.IfOp, env: dict[SSAValue, object]) -> None:
        cond = self._as_int(env, op.condition)
        self.sim.charge(CTRL_STREAM)
        if cond:
            values = self._run_block(op.then_block, env)
        elif op.has_else:
            values = self._run_block(op.else_block, env)
        else:
            values = []
        for result, value in zip(op.results, values):
            env[result] = value
        return None

    @staticmethod
    def _as_int(env: dict[SSAValue, object], value: SSAValue) -> int:
        entry = env.get(value)
        if not isinstance(entry, int):
            raise _not_int(entry)
        return entry


def run_module(
    module: ModuleOp,
    sim: CoSimulator | None = None,
    function: str = "main",
    args: list[int] | None = None,
) -> tuple[list[int], CoSimulator]:
    """Convenience wrapper: interpret ``function`` and return (results, sim)."""
    sim = sim or CoSimulator()
    results = Interpreter(module, sim).run(function, args)
    return results, sim
