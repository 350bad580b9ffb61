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
Loop and branch management is charged as ``control``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dialects import accfg, arith, func, scf
from ..dialects.builtin import ModuleOp
from ..ir.attributes import IntegerType
from ..ir.operation import Operation, UnregisteredOp
from ..ir.ssa import SSAValue
from ..sim.cosim import CoSimulator
from ..sim.device import FaultError, LaunchToken
from ..isa.instructions import CTRL_INSTR, FOREIGN_INSTR, Instr, InstrCategory


class InterpreterError(Exception):
    """Raised when a program cannot be interpreted."""


#: control charges by record count (one branch; a loop back-edge or a call's
#: two jumps), shared so the simulator resolves each stream once
_CONTROL_STREAMS = {1: (CTRL_INSTR,), 2: (CTRL_INSTR, CTRL_INSTR)}
_FOREIGN_STREAM = (FOREIGN_INSTR,)


def _fail(op: Operation, message: str) -> "InterpreterError":
    """An InterpreterError carrying the op's source location when known."""
    if op.loc is not None:
        message = f"{message} at {op.loc}"
    return InterpreterError(message)


@dataclass(frozen=True)
class StateHandle:
    """Runtime stand-in for an ``!accfg.state`` value."""

    accelerator: str
    version: int


class _ReturnSignal(Exception):
    def __init__(self, values: list) -> None:
        self.values = values


def config_feeding_ops(module: ModuleOp) -> set[Operation]:
    """Ops whose results flow (transitively) into setup/launch fields."""
    feeding: set[Operation] = set()
    worklist: list[SSAValue] = []
    for op in accfg.config_sites(module):
        if isinstance(op, accfg.SetupOp):
            worklist.extend(op.field_values)
        else:
            worklist.extend(value for _, value in op.fields)
    while worklist:
        value = worklist.pop()
        owner = value.owner
        if not isinstance(owner, Operation) or owner in feeding:
            continue
        if owner.regions:
            continue  # stop at structured ops; their interiors are control
        feeding.add(owner)
        worklist.extend(owner.operands)
    return feeding


class Interpreter:
    """Executes one module against a co-simulator."""

    def __init__(self, module: ModuleOp, sim: CoSimulator) -> None:
        self.module = module
        self.sim = sim
        self._functions: dict[str, func.FuncOp] = {}
        for op in module.body_block.ops:
            if isinstance(op, func.FuncOp):
                self._functions[op.sym_name] = op
        self._config_feeding = config_feeding_ops(module)
        #: scalar op -> the one-record stream it charges, built on first run
        self._scalar_streams: dict[Operation, tuple[Instr]] = {}
        self._state_counter = 0
        self._call_depth = 0
        self.max_call_depth = 256
        # Runtime accfg protocol state: completed tokens (double-await
        # detection), states invalidated by accfg.reset, and a per-accelerator
        # reset epoch so launches outstanding across a reset are caught.
        self._awaited: set[LaunchToken] = set()
        self._reset_states: set[StateHandle] = set()
        self._reset_epoch: dict[str, int] = {}
        self._token_epoch: dict[LaunchToken, int] = {}

    # -- public API ------------------------------------------------------

    def run(self, function: str = "main", args: list[int] | None = None) -> list[int]:
        """Interpret ``function`` to completion; returns its results."""
        fn = self._functions.get(function)
        if fn is None:
            raise InterpreterError(f"no function '{function}' in module")
        if fn.is_declaration:
            raise InterpreterError(f"function '{function}' has no body")
        args = args or []
        if len(args) != len(fn.args):
            raise InterpreterError(
                f"'{function}' expects {len(fn.args)} arguments, got {len(args)}"
            )
        env: dict[SSAValue, object] = dict(zip(fn.args, args))
        try:
            self._run_block(fn.body, env)
        except _ReturnSignal as signal:
            return signal.values
        return []

    # -- execution ---------------------------------------------------------

    def _run_block(self, block, env: dict[SSAValue, object]) -> list:
        """Execute a block; returns the values yielded by its terminator."""
        for op in block.ops:
            result = self._run_op(op, env)
            if op.is_terminator:
                return result or []
        return []

    def _charge_scalar(self, op: Operation, mnemonic: str) -> None:
        stream = self._scalar_streams.get(op)
        if stream is None:
            category = (
                InstrCategory.CALC
                if op in self._config_feeding
                else InstrCategory.COMPUTE
            )
            stream = self._scalar_streams[op] = (Instr(mnemonic, category),)
        self.sim.charge(stream)

    def _charge_control(self, count: int = 1) -> None:
        self.sim.charge(_CONTROL_STREAMS[count])

    def _run_op(self, op: Operation, env: dict[SSAValue, object]):
        if isinstance(op, arith.ConstantOp):
            env[op.result] = op.value
            self._charge_scalar(op, "li")
            return None
        if isinstance(op, arith.BinaryOp):
            lhs = self._as_int(env, op.lhs)
            rhs = self._as_int(env, op.rhs)
            value = op.evaluate(lhs, rhs)
            env[op.result] = arith.truncate_to_type(value, op.result.type)
            self._charge_scalar(op, op.name.split(".")[-1])
            return None
        if isinstance(op, arith.CmpiOp):
            width = (
                op.lhs.type.width if isinstance(op.lhs.type, IntegerType) else 64
            )
            result = arith.CmpiOp.evaluate_predicate(
                op.predicate,
                self._as_int(env, op.lhs),
                self._as_int(env, op.rhs),
                width,
            )
            env[op.result] = int(result)
            self._charge_scalar(op, "cmp")
            return None
        if isinstance(op, arith.SelectOp):
            cond = self._as_int(env, op.condition)
            env[op.result] = env[op.true_value if cond else op.false_value]
            self._charge_scalar(op, "select")
            return None
        if isinstance(op, scf.ForOp):
            return self._run_for(op, env)
        if isinstance(op, scf.IfOp):
            return self._run_if(op, env)
        if isinstance(op, scf.YieldOp):
            return [env[v] for v in op.operands]
        if isinstance(op, func.ReturnOp):
            raise _ReturnSignal([env[v] for v in op.operands])
        if isinstance(op, func.CallOp):
            return self._run_call(op, env)
        if isinstance(op, accfg.SetupOp):
            if op.in_state is not None and env.get(op.in_state) in self._reset_states:
                raise _fail(
                    op,
                    f"setup on '{op.accelerator}' uses a state that was reset "
                    "(register contents are no longer defined)",
                )
            fields = {
                name: self._as_int(env, value) for name, value in op.fields
            }
            try:
                self.sim.exec_setup(op.accelerator, fields, site=op)
            except KeyError as error:
                raise _fail(op, f"setup on {error.args[0]}") from None
            except FaultError as error:
                raise _fail(op, str(error)) from None
            self._state_counter += 1
            env[op.out_state] = StateHandle(op.accelerator, self._state_counter)
            return None
        if isinstance(op, accfg.LaunchOp):
            if op.state is not None and env.get(op.state) in self._reset_states:
                raise _fail(
                    op,
                    f"launch on '{op.accelerator}' uses a state that was reset "
                    "(register contents are no longer defined)",
                )
            fields = {
                name: self._as_int(env, value) for name, value in op.fields
            }
            try:
                token = self.sim.exec_launch(op.accelerator, fields, site=op)
            except KeyError as error:
                raise _fail(op, f"launch on {error.args[0]}") from None
            except FaultError as error:
                raise _fail(op, str(error)) from None
            self._token_epoch[token] = self._reset_epoch.get(op.accelerator, 0)
            env[op.token] = token
            return None
        if isinstance(op, accfg.AwaitOp):
            token = env[op.token]
            if not isinstance(token, LaunchToken):
                raise _fail(op, "await of a value that is not a token")
            if token in self._awaited:
                raise _fail(
                    op,
                    f"double await of a token on '{op.accelerator}' "
                    "(the launch was already awaited)",
                )
            epoch = self._reset_epoch.get(op.accelerator, 0)
            if self._token_epoch.get(token, epoch) != epoch:
                raise _fail(
                    op,
                    f"await of a launch on '{op.accelerator}' that was "
                    "discarded by accfg.reset",
                )
            try:
                self.sim.exec_await(token)
            except FaultError as error:
                raise _fail(op, str(error)) from None
            self._awaited.add(token)
            return None
        if isinstance(op, accfg.ResetOp):
            handle = env.get(op.state)
            if isinstance(handle, StateHandle):
                self._reset_states.add(handle)
                self._reset_epoch[handle.accelerator] = (
                    self._reset_epoch.get(handle.accelerator, 0) + 1
                )
                if self.sim.faults is not None:
                    self.sim.exec_reset(handle.accelerator)
            self._charge_control()
            return None
        # Extension point: ops outside the core dialects may carry their own
        # interpretation (e.g. host-side data-movement helpers).
        hook = getattr(op, "interpret", None)
        if hook is not None:
            hook(self, env)
            return None
        if isinstance(op, UnregisteredOp):
            # Foreign ops annotated #accfg.effects<none> (e.g. printf) are
            # executable as opaque host work as long as they produce no
            # values the program needs.
            if accfg.get_effects(op) is not None and not op.results:
                self.sim.charge(_FOREIGN_STREAM)
                return None
            raise _fail(op, f"cannot interpret unregistered op '{op.op_name}'")
        raise _fail(op, f"cannot interpret op '{op.name}'")

    def _run_for(self, op: scf.ForOp, env: dict[SSAValue, object]) -> None:
        lb = self._as_int(env, op.lb)
        ub = self._as_int(env, op.ub)
        step = self._as_int(env, op.step)
        if step <= 0:
            raise InterpreterError("scf.for requires a positive step")
        carried = [env[v] for v in op.iter_inits]
        iv = lb
        while iv < ub:
            # Increment + compare&branch of the loop back-edge.
            self._charge_control(2)
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
        self._charge_control(1)
        if cond:
            values = self._run_block(op.then_block, env)
        elif op.has_else:
            values = self._run_block(op.else_block, env)
        else:
            values = []
        for result, value in zip(op.results, values):
            env[result] = value
        return None

    def _run_call(self, op: func.CallOp, env: dict[SSAValue, object]) -> None:
        callee = self._functions.get(op.callee)
        if callee is None or callee.is_declaration:
            raise InterpreterError(
                f"call to unknown/declared function '@{op.callee}'"
            )
        self._charge_control(2)  # call + return jumps
        if self._call_depth >= self.max_call_depth:
            raise InterpreterError(
                f"call depth exceeded {self.max_call_depth} "
                f"(unbounded recursion via '@{op.callee}'?)"
            )
        args = [env[v] for v in op.operands]
        inner_env: dict[SSAValue, object] = dict(zip(callee.args, args))
        self._call_depth += 1
        try:
            self._run_block(callee.body, inner_env)
            values: list = []
        except _ReturnSignal as signal:
            values = signal.values
        finally:
            self._call_depth -= 1
        for result, value in zip(op.results, values):
            env[result] = value
        return None

    @staticmethod
    def _as_int(env: dict[SSAValue, object], value: SSAValue) -> int:
        entry = env.get(value)
        if not isinstance(entry, int):
            raise InterpreterError(
                f"expected an integer value, found {type(entry).__name__}"
            )
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
