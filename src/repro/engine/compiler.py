"""Trace compilation: lower a verified module to a flat instruction stream.

The tree interpreter re-discovers a program's structure on every execution:
each op re-dispatches through ``isinstance`` ladders, each loop iteration
re-walks the same block objects, and each scalar charge re-resolves its
category against the config-feeding analysis.  This module performs all of
that exactly once, producing a :class:`CompiledModule`:

* every op becomes one dense opcode tuple (opcode int first, operands after);
* every SSA value becomes an integer *slot* into a flat frame list;
* ``scf.for`` / ``scf.if`` become conditional jumps over the flat stream,
  with loop-carried values lowered to (parallel-safe) slot copies;
* per-op host instructions (:class:`repro.isa.instructions.Instr`) are
  resolved at compile time to one shared record per mnemonic and category,
  including the calc-vs-compute categorization of
  :func:`repro.dialects.accfg.config_feeding_ops`;
* a two-operand scalar op, ``arith.cmpi`` included, becomes one
  ``OP_BINOP`` that calls the value function its op class declares
  (:class:`repro.dialects.arith.ScalarOp`).

The compiled form is immutable and shareable: it holds no IR at all (a
setup or launch names its op by site number, see
:func:`repro.dialects.accfg.config_sites`), so it can outlive the module
and be reused across executions and processes — that is what the
content-hash trace cache in :mod:`repro.engine.cache` does.

Compilation assumes *verified* IR (the executor is proven bit-identical to
the tree interpreter on verifier-clean programs; IR that would not verify
may diverge in the error paths) and accepts every such module.  Setups,
launches, awaits, resets, calls and host-side ops compile to the records of
:func:`repro.interp.interpreter.runtime_record`, which both engines execute
through one :class:`~repro.interp.interpreter.AccfgRuntime`.  An op with no
semantics compiles to an ``OP_TRAP`` that raises the tree interpreter's
error only if it is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dialects import accfg, arith, func, scf
from ..dialects.builtin import ModuleOp
from ..interp.interpreter import cannot_interpret, runtime_record
from ..ir.operation import Operation
from ..ir.ssa import SSAValue


# Opcodes.  Dense small ints so the executor dispatches on an int compare
# chain ordered by dynamic frequency.
OP_BINOP = 0
OP_CONST = 1
OP_COPY = 2
OP_FOR_TEST = 3
OP_FOR_NEXT = 4
OP_SELECT = 5
OP_IF = 6
OP_JUMP = 7
OP_FOR_INIT = 8
OP_SETUP = 9
OP_LAUNCH = 10
OP_AWAIT = 11
OP_RESET = 12
OP_CALL = 13
OP_RETURN = 14
OP_HOST = 15
OP_TRAP = 16

#: opcodes of the runtime records that are not host-side ops
_RUNTIME_OPCODES = {
    accfg.SetupOp: OP_SETUP,
    accfg.LaunchOp: OP_LAUNCH,
    accfg.AwaitOp: OP_AWAIT,
    accfg.ResetOp: OP_RESET,
    func.CallOp: OP_CALL,
}


@dataclass
class CompiledFunction:
    """One function lowered to a flat instruction stream."""

    name: str
    n_args: int
    n_slots: int
    arg_slots: tuple[int, ...]
    code: tuple[tuple, ...]


class CompiledModule:
    """Every defined function of one module, trace-compiled."""

    def __init__(
        self,
        functions: dict[str, CompiledFunction],
        declarations: frozenset[str],
        site_count: int,
    ) -> None:
        self.functions = functions
        self.declarations = declarations
        #: how many setup/launch site numbers the ``OP_SETUP``/``OP_LAUNCH``
        #: tuples draw from (the source module's ``config_sites``)
        self.site_count = site_count


class _FunctionCompiler:
    """Lowers one function body; shared module-level context is passed in."""

    def __init__(
        self, config_feeding: set[Operation], sites: dict[Operation, int]
    ) -> None:
        self._config_feeding = config_feeding
        self._sites = sites
        self._slots: dict[SSAValue, int] = {}
        self.code: list[tuple] = []

    # -- slots -----------------------------------------------------------

    def slot(self, value: SSAValue) -> int:
        index = self._slots.get(value)
        if index is None:
            index = len(self._slots)
            self._slots[value] = index
        return index

    def scratch(self) -> int:
        """A fresh slot not tied to any SSA value (parallel-copy staging)."""
        key = object()  # unique, never looked up again
        index = len(self._slots)
        self._slots[key] = index  # type: ignore[index]
        return index

    @property
    def n_slots(self) -> int:
        return len(self._slots)

    # -- lowering --------------------------------------------------------

    def compile_function(self, fn: func.FuncOp) -> CompiledFunction:
        arg_slots = tuple(self.slot(arg) for arg in fn.args)
        self.compile_block(fn.body)
        # A body falling off the end (no func.return executed) returns [].
        self.code.append((OP_RETURN, ()))
        return CompiledFunction(
            name=fn.sym_name,
            n_args=len(fn.args),
            n_slots=self.n_slots,
            arg_slots=arg_slots,
            code=tuple(self.code),
        )

    def compile_block(self, block) -> tuple[int, ...] | None:
        """Emit a block's ops in order.

        Returns the slots its terminating ``scf.yield`` forwards (None when
        the block has no yield — the interpreter then yields ``[]``).
        Mirrors the interpreter's ``_run_block``: ops after a terminator are
        never executed, so they are not compiled either.
        """
        for op in block.ops:
            if isinstance(op, scf.YieldOp):
                return tuple(self.slot(v) for v in op.operands)
            self.compile_op(op)
            if op.is_terminator:
                return None
        return None

    def compile_op(self, op: Operation) -> None:
        code = self.code
        if isinstance(op, arith.ScalarOp):
            dst = self.slot(op.result)
            instr = arith.charged_instr(op, self._config_feeding)
            if isinstance(op, arith.ConstantOp):
                code.append((OP_CONST, dst, op.value, instr))
            elif isinstance(op, arith.SelectOp):
                cond, tv, fv = map(self.slot, op.operands)
                code.append((OP_SELECT, dst, cond, tv, fv, instr))
            else:  # two operands: the op's declared value function
                lhs, rhs = map(self.slot, op.operands)
                mask = arith.width_mask(op.result.type)
                code.append((OP_BINOP, dst, op.evaluate, lhs, rhs, mask, instr))
            return
        if isinstance(op, scf.ForOp):
            self.compile_for(op)
            return
        if isinstance(op, scf.IfOp):
            self.compile_if(op)
            return
        if isinstance(op, func.ReturnOp):
            code.append(
                (OP_RETURN, tuple(self.slot(v) for v in op.operands))
            )
            return
        record = runtime_record(op, self.slot, self._sites.get(op))
        if record is None:
            code.append((OP_TRAP, cannot_interpret(op)))
        else:
            code.append((_RUNTIME_OPCODES.get(type(op), OP_HOST), record))

    def compile_for(self, op: scf.ForOp) -> None:
        code = self.code
        lb, ub, step = self.slot(op.lb), self.slot(op.ub), self.slot(op.step)
        iv = self.slot(op.induction_var)
        iter_slots = tuple(self.slot(arg) for arg in op.iter_args)
        # Bound/step validation (and the positive-step trap) happen before
        # the carried values are copied, matching interpreter order.
        code.append((OP_FOR_INIT, lb, ub, step, iv))
        self._emit_copies(zip(tuple(self.slot(v) for v in op.iter_inits),
                              iter_slots))
        head = len(code)
        code.append(None)  # patched: (OP_FOR_TEST, iv, ub, exit_target)
        yielded = self.compile_block(op.body)
        if yielded is not None:
            self._emit_parallel_copies(
                tuple(zip(yielded, iter_slots))  # zip truncation on purpose
            )
        code.append((OP_FOR_NEXT, iv, step, head))
        exit_target = len(code)
        code[head] = (OP_FOR_TEST, iv, ub, exit_target)
        self._emit_copies(
            zip(iter_slots, tuple(self.slot(r) for r in op.results))
        )

    def compile_if(self, op: scf.IfOp) -> None:
        code = self.code
        result_slots = tuple(self.slot(r) for r in op.results)
        branch = len(code)
        code.append(None)  # patched: (OP_IF, cond, false_target)
        then_yield = self.compile_block(op.then_block)
        if then_yield is not None:
            self._emit_copies(zip(then_yield, result_slots))
        if op.has_else:
            jump = len(code)
            code.append(None)  # patched: (OP_JUMP, end)
            false_target = len(code)
            else_yield = self.compile_block(op.else_block)
            if else_yield is not None:
                self._emit_copies(zip(else_yield, result_slots))
            end = len(code)
            code[jump] = (OP_JUMP, end)
        else:
            false_target = len(code)
        code[branch] = (OP_IF, self.slot(op.condition), false_target)

    def _emit_copies(self, pairs) -> None:
        for src, dst in pairs:
            if src != dst:
                self.code.append((OP_COPY, dst, src))

    def _emit_parallel_copies(self, pairs: tuple[tuple[int, int], ...]) -> None:
        """Copy sources to targets with parallel-assignment semantics.

        Loop back-edges read every yielded value before rebinding the iter
        args (``carried = run_block(...)`` then assign), so a yield that
        permutes its own iter args must stage through scratch slots.
        """
        pairs = tuple((s, d) for s, d in pairs if s != d)
        targets = {d for _, d in pairs}
        if any(s in targets for s, _ in pairs):
            staged = [(s, self.scratch(), d) for s, d in pairs]
            for src, tmp, _ in staged:
                self.code.append((OP_COPY, tmp, src))
            for _, tmp, dst in staged:
                self.code.append((OP_COPY, dst, tmp))
        else:
            self._emit_copies(pairs)


def compile_module(module: ModuleOp) -> CompiledModule:
    """Lower every defined function of ``module`` to a flat trace."""
    config_feeding = accfg.config_feeding_ops(module)
    sites = {op: number for number, op in enumerate(accfg.config_sites(module))}
    functions: dict[str, CompiledFunction] = {}
    declarations: set[str] = set()
    for op in module.body_block.ops:
        if not isinstance(op, func.FuncOp):
            continue
        if op.is_declaration:
            declarations.add(op.sym_name)
            continue
        functions[op.sym_name] = _FunctionCompiler(
            config_feeding, sites
        ).compile_function(op)
    return CompiledModule(functions, frozenset(declarations), len(sites))
