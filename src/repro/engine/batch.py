"""Batched lockstep execution of one compiled trace over many lanes.

The fuzz harness and the sweep runners execute the *same compiled module*
against many inputs: a differential oracle re-runs one optimized module per
memory seed, an experiment sweep re-runs one program per size point.  The
scalar :class:`~repro.engine.executor.TraceExecutor` pays full Python
dispatch per lane; this module instead runs N ``(memory, args)`` lanes
through the instruction stream *in lockstep*:

* Frames are ``(n_slots, n_lanes)`` object-dtype numpy arrays — object
  dtype keeps exact Python big-int semantics, while fancy indexing with
  lane-index arrays moves whole columns per dispatch.
* Straight-line runs of pure opcodes become superinstruction blocks
  (:func:`repro.engine.compiler.fuse_function`); each step applies one
  ``np.frompyfunc``-vectorized op across the group, and the whole block is
  charged as one bump per lane (see
  :func:`repro.sim.cosim.resolve_category_cycles`).
* Control flow splits groups: lanes that disagree at an ``scf.if`` or loop
  test continue as separate groups (they never rejoin — a group is simply
  a set of lanes sharing a pc).
* Accelerator state is held in per-accelerator :class:`_BatchDevice`\\ s —
  vectorized register files (one object column + presence mask per field
  name) and per-lane timing arrays mirroring
  :class:`repro.sim.device.AcceleratorDevice` semantics exactly.

**Exactness contract**: a lane's observable outcome — results, memory
image, launch counts, total cycles, and the exact protocol-error message if
it crashes — is bit-identical to running that lane alone through
``TraceExecutor``/``CoSimulator``.  The batch-vs-scalar differential suite
(``tests/properties/test_batch_equivalence.py``) and the ``batch`` fuzz
oracle enforce this.  Two deliberate non-goals keep the lockstep loop lean:
batch lanes record no per-instruction trace and no timeline (those are
scalar-run artifacts; cycle *totals* still match exactly for integer-valued
cost models — see ``docs/PERFORMANCE.md`` for the float caveat).

Fault-injected lanes cannot share lockstep (fault draws are per-interaction
and per-lane), so lanes carrying a :class:`~repro.faults.model.FaultInjector`
are delegated to a private scalar ``TraceExecutor`` + ``CoSimulator`` —
bit-identical by construction, still behind the one ``run_batch`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backends.base import get_accelerator
from ..dialects.builtin import ModuleOp
from ..interp.interpreter import InterpreterError, StateHandle
from ..isa.instructions import HostCostModel, InstrCategory
from ..sim.cosim import CoSimulator, resolve_category_cycles
from ..sim.memory import Memory
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
    OP_FUSED,
    OP_IF,
    OP_JUMP,
    OP_LAUNCH,
    OP_RESET,
    OP_RETURN,
    OP_SETUP,
    CompiledFunction,
    CompiledModule,
    compile_module,
    fuse_function,
)
from .executor import TraceExecutor, _evaluate_predicate, _not_int

_EMPTY = np.empty(0, dtype=np.intp)


@dataclass
class BatchLane:
    """One (memory image, argument vector) execution of the batch.

    ``faults``/``recovery``/``reliance`` attach the fault-injection runtime
    to this lane only; such lanes run on the scalar engine (see module
    docstring) but return through the same :class:`LaneResult`.
    """

    memory: Memory | None = None
    args: list[int] = field(default_factory=list)
    faults: object | None = None
    recovery: object | None = None
    reliance: object | None = None


@dataclass
class LaneResult:
    """Outcome of one lane: either ``results`` or a recorded error."""

    results: list | None
    error_type: str | None
    error: str | None
    total_cycles: float
    launch_counts: dict[str, int]
    memory: Memory

    @property
    def ok(self) -> bool:
        return self.error_type is None


class _BatchToken:
    """Per-lane launch token (identity-hashed; one per launch, like the
    scalar ``LaunchToken`` whose per-device index makes every token
    distinct)."""

    __slots__ = ("device", "lane", "index", "start", "end")

    def __init__(self, device, lane, index, start, end):
        self.device = device
        self.lane = lane
        self.index = index
        self.start = start
        self.end = end


class _BatchDevice:
    """Cross-lane state of one accelerator: ``AcceleratorDevice`` semantics
    with every per-instance scalar widened to a lane-indexed array."""

    __slots__ = (
        "spec",
        "concurrent",
        "busy_until",
        "launch_count",
        "launch_ends",
        "registers",
        "reg_mask",
        "staged",
        "staged_mask",
        "touched",
        "n",
    )

    def __init__(self, spec, n_lanes: int) -> None:
        self.spec = spec
        # No degradation on the fault-free path: effective concurrency is
        # the spec's (AcceleratorDevice.concurrent_now with force_sequential
        # permanently False).
        self.concurrent = spec.concurrent_config
        self.n = n_lanes
        self.busy_until = np.zeros(n_lanes)
        self.launch_count = np.zeros(n_lanes, dtype=np.int64)
        self.launch_ends: list[list[float]] = [[] for _ in range(n_lanes)]
        self.registers: dict[str, np.ndarray] = {}
        self.reg_mask: dict[str, np.ndarray] = {}
        self.staged: dict[str, np.ndarray] = {}
        self.staged_mask: dict[str, np.ndarray] = {}
        #: lanes whose scalar run would have created this device (drives
        #: per-lane ``launch_counts`` membership)
        self.touched = np.zeros(n_lanes, dtype=bool)

    def _column(self, target, mask, name):
        column = target.get(name)
        if column is None:
            column = target[name] = np.empty(self.n, dtype=object)
            mask[name] = np.zeros(self.n, dtype=bool)
        return column

    def write_fields_group(self, idx, names, columns, now):
        """Vectorized ``AcceleratorDevice.write_fields`` over ``idx``.

        Returns per-lane start times (sequential devices stall to
        ``busy_until``); field values land in staging (concurrent) or the
        register file (sequential) as whole-column assignments.
        """
        if self.concurrent:
            start = now
            target, mask = self.staged, self.staged_mask
        else:
            start = np.maximum(now, self.busy_until[idx])
            target, mask = self.registers, self.reg_mask
        for name, values in zip(names, columns):
            self._column(target, mask, name)[idx] = values
            mask[name][idx] = True
        return start

    def accept_time_lane(self, lane: int, now: float) -> float:
        depth = max(1, self.spec.launch_queue_depth) if self.concurrent else 1
        ends = self.launch_ends[lane]
        if len(ends) < depth:
            return now
        return max(now, ends[-depth])

    def launch_lane(self, lane, now, launch_fields, memory, functional):
        """``AcceleratorDevice.launch`` for one lane (functional execution
        and ``compute_cycles`` take a per-lane config dict, so launches stay
        per-lane even though timing state is arrays)."""
        start = max(now, float(self.busy_until[lane]))
        if self.concurrent:
            # Scalar commit condition is `spec.concurrent_config and staged`;
            # per lane that is "any field staged for this lane".
            for name, column in self.staged.items():
                mask = self.staged_mask[name]
                if mask[lane]:
                    self._column(self.registers, self.reg_mask, name)[lane] = (
                        column[lane]
                    )
                    self.reg_mask[name][lane] = True
                    mask[lane] = False
        for name, value in launch_fields.items():
            self._column(self.registers, self.reg_mask, name)[lane] = int(value)
            self.reg_mask[name][lane] = True
        config = {
            name: self.registers[name][lane]
            for name, mask in self.reg_mask.items()
            if mask[lane]
        }
        cycles = self.spec.compute_cycles(config)
        if functional:
            self.spec.execute(config, memory)
        end = start + cycles
        self.busy_until[lane] = end
        self.launch_count[lane] += 1
        self.launch_ends[lane].append(end)
        return _BatchToken(self, lane, int(self.launch_count[lane]), start, end)


class _Block:
    """One superinstruction as vector steps + the per-lane fallback data."""

    __slots__ = ("steps", "sub_ops", "cycles_prefix", "total_cycles")

    def __init__(self, steps, sub_ops, cycles_prefix):
        self.steps = steps
        self.sub_ops = sub_ops
        self.cycles_prefix = cycles_prefix
        self.total_cycles = cycles_prefix[-1]


# Step tags inside a block (kept tiny: the vector loop switches on them).
_STEP_UFUNC = 0  # (tag, dst, ufunc, a, b) — binop or cmp
_STEP_CONST = 1  # (tag, dst, value)
_STEP_COPY = 2  # (tag, dst, src)
_STEP_SELECT = 3  # (tag, dst, cond, tv, fv)

_binop_ufuncs: dict = {}
_cmp_ufuncs: dict = {}


def _binop_ufunc(evaluate, mask):
    key = (evaluate, mask)
    ufunc = _binop_ufuncs.get(key)
    if ufunc is None:
        if mask is None:

            def apply(lhs, rhs, _evaluate=evaluate):
                return _evaluate(None, lhs, rhs)

        else:

            def apply(lhs, rhs, _evaluate=evaluate, _mask=mask):
                return _evaluate(None, lhs, rhs) & _mask

        ufunc = _binop_ufuncs[key] = np.frompyfunc(apply, 2, 1)
    return ufunc


def _cmp_ufunc(predicate, width):
    key = (predicate, width)
    ufunc = _cmp_ufuncs.get(key)
    if ufunc is None:

        def apply(lhs, rhs, _predicate=predicate, _width=width):
            return int(_evaluate_predicate(_predicate, lhs, rhs, _width))

        ufunc = _cmp_ufuncs[key] = np.frompyfunc(apply, 2, 1)
    return ufunc


def _exec_pure_lane(sub, frame, lane):
    """Scalar execution of one pure sub-op for one lane — the per-lane
    fallback path, mirroring ``TraceExecutor``'s branches (same checks, same
    error messages)."""
    opcode = sub[0]
    if opcode == OP_BINOP:
        _, dst, evaluate, a, b, mask, _instr = sub
        lhs = frame[a][lane]
        if not isinstance(lhs, int):
            raise _not_int(lhs)
        rhs = frame[b][lane]
        if not isinstance(rhs, int):
            raise _not_int(rhs)
        value = evaluate(None, lhs, rhs)
        frame[dst][lane] = value & mask if mask is not None else value
    elif opcode == OP_CONST:
        frame[sub[1]][lane] = sub[2]
    elif opcode == OP_COPY:
        frame[sub[1]][lane] = frame[sub[2]][lane]
    elif opcode == OP_CMP:
        _, dst, predicate, a, b, width, _instr = sub
        lhs = frame[a][lane]
        if not isinstance(lhs, int):
            raise _not_int(lhs)
        rhs = frame[b][lane]
        if not isinstance(rhs, int):
            raise _not_int(rhs)
        frame[dst][lane] = int(_evaluate_predicate(predicate, lhs, rhs, width))
    else:  # OP_SELECT
        _, dst, cond_slot, tv, fv, _instr = sub
        cond = frame[cond_slot][lane]
        if not isinstance(cond, int):
            raise _not_int(cond)
        frame[dst][lane] = frame[tv if cond else fv][lane]


class BatchExecutor:
    """Executes one :class:`CompiledModule` over many lanes in lockstep.

    Reusable across :meth:`run` calls: block preparation (fusion + ufunc
    construction) and per-spec instruction-cycle sums are cached on the
    executor, so sweeping many batches over one module pays prep once.
    """

    def __init__(
        self,
        compiled: CompiledModule,
        cost_model: HostCostModel | None = None,
        functional: bool = True,
        module: ModuleOp | None = None,
    ) -> None:
        self.compiled = compiled
        self.cost_model = cost_model or HostCostModel()
        self.functional = functional
        #: source IR, needed only to recompile for fault lanes when
        #: ``compiled`` came from the persistent store (sites stripped)
        self.module = module
        self._cycles = resolve_category_cycles(self.cost_model)
        self._ctrl = self._cycles[InstrCategory.CONTROL]
        self._prepared: dict[str, tuple] = {}
        self._spec_cycles: dict[tuple, float] = {}
        self._site_full: CompiledModule | None = None

    # -- public API ------------------------------------------------------

    def run(
        self, lanes: list[BatchLane], function: str = "main"
    ) -> list[LaneResult]:
        lanes = list(lanes)
        results: list[LaneResult | None] = [None] * len(lanes)
        lockstep: list[int] = []
        for i, lane in enumerate(lanes):
            if lane.faults is not None:
                results[i] = self._run_fault_lane(lane, function)
            else:
                lockstep.append(i)
        if lockstep:
            run = _LockstepRun(self, [lanes[i] for i in lockstep], function)
            for i, result in zip(lockstep, run.execute()):
                results[i] = result
        return results  # type: ignore[return-value]

    # -- prep ------------------------------------------------------------

    def prepare(self, fn: CompiledFunction) -> tuple:
        """The batch code for ``fn``: fused, with pure runs as blocks."""
        bcode = self._prepared.get(fn.name)
        if bcode is None:
            fused = fuse_function(fn, min_run=1)
            bcode = tuple(
                (OP_FUSED, self._make_block(ins[1]))
                if ins[0] == OP_FUSED
                else ins
                for ins in fused.code
            )
            self._prepared[fn.name] = bcode
        return bcode

    def _make_block(self, sub_ops) -> _Block:
        steps = []
        cycles_prefix = [0.0]
        for sub in sub_ops:
            opcode = sub[0]
            if opcode == OP_BINOP:
                _, dst, evaluate, a, b, mask, instr = sub
                steps.append((_STEP_UFUNC, dst, _binop_ufunc(evaluate, mask), a, b))
                cycles = self._cycles[instr.category]
            elif opcode == OP_CONST:
                _, dst, value, instr = sub
                steps.append((_STEP_CONST, dst, value))
                cycles = self._cycles[instr.category]
            elif opcode == OP_COPY:
                steps.append((_STEP_COPY, sub[1], sub[2]))
                cycles = 0.0  # copies charge nothing
            elif opcode == OP_CMP:
                _, dst, predicate, a, b, width, instr = sub
                steps.append(
                    (_STEP_UFUNC, dst, _cmp_ufunc(predicate, width), a, b)
                )
                cycles = self._cycles[instr.category]
            else:  # OP_SELECT
                _, dst, cond_slot, tv, fv, instr = sub
                steps.append((_STEP_SELECT, dst, cond_slot, tv, fv))
                cycles = self._cycles[instr.category]
            cycles_prefix.append(cycles_prefix[-1] + cycles)
        return _Block(tuple(steps), sub_ops, tuple(cycles_prefix))

    def proto_cycles(self, spec, kind: int, names: tuple) -> float:
        """Total host cycles of one protocol interaction's instrs.

        ``kind``: 0=setup, 1=launch-carried fields, 2=launch command,
        3=sync.  Sums equal the scalar engine's instr-by-instr charges.
        """
        key = (spec.name, kind, names)
        total = self._spec_cycles.get(key)
        if total is None:
            if kind == 0:
                instrs = spec.setup_instrs_cached(names)
            elif kind == 1:
                instrs = spec.launch_field_instrs_cached(names)
            elif kind == 2:
                instrs = spec.launch_instrs_cached()
            else:
                instrs = spec.sync_instrs_cached()
            total = float(
                sum(self._cycles[instr.category] for instr in instrs)
            )
            self._spec_cycles[key] = total
        return total

    # -- fault lanes -----------------------------------------------------

    def _run_fault_lane(self, lane: BatchLane, function: str) -> LaneResult:
        compiled = self.compiled
        if compiled.sites_stripped or (
            self.module is not None and compiled.source is not self.module
        ):
            # Minimal re-setup is planned per site op, so the sites must be
            # the source module's own: persistent-store entries carry none,
            # and a cache hit may carry a structurally equal module's.
            if self._site_full is None:
                if self.module is None:
                    raise ValueError(
                        "fault-injected lanes need recovery sites: construct "
                        "the BatchExecutor with the source module (or a "
                        "locally compiled trace), not a store-loaded one"
                    )
                self._site_full = compile_module(self.module)
            compiled = self._site_full
        memory = lane.memory if lane.memory is not None else Memory()
        sim = CoSimulator(
            memory=memory,
            cost_model=self.cost_model,
            functional=self.functional,
            faults=lane.faults,
            recovery=lane.recovery,
            reliance=lane.reliance,
        )
        try:
            results = TraceExecutor(compiled, sim).run(function, list(lane.args))
            error_type = error = None
        except Exception as exc:  # noqa: BLE001 - mirrored as lane outcome
            results, error_type, error = None, type(exc).__name__, str(exc)
        return LaneResult(
            results=results,
            error_type=error_type,
            error=error,
            total_cycles=sim.total_cycles,
            launch_counts={
                name: device.launch_count
                for name, device in sim.devices.items()
            },
            memory=memory,
        )


class _LockstepRun:
    """Mutable state of one batch execution over the fault-free lanes."""

    def __init__(
        self, executor: BatchExecutor, lanes: list[BatchLane], function: str
    ) -> None:
        self.executor = executor
        self.function = function
        n = self.n = len(lanes)
        self.functional = executor.functional
        self.memories = [
            lane.memory if lane.memory is not None else Memory()
            for lane in lanes
        ]
        self.args = [list(lane.args) for lane in lanes]
        self.host_time = np.zeros(n)
        self.state_counter = np.zeros(n, dtype=np.int64)
        self.awaited: list[set] = [set() for _ in range(n)]
        self.reset_states: list[set] = [set() for _ in range(n)]
        self.reset_epoch: list[dict] = [{} for _ in range(n)]
        self.token_epoch: list[dict] = [{} for _ in range(n)]
        self.devices: dict[str, _BatchDevice] = {}
        #: lane -> (error type name, message); a lane appears at most once
        self.errors: dict[int, tuple[str, str]] = {}

    # -- plumbing --------------------------------------------------------

    def _device(self, accelerator: str) -> _BatchDevice:
        device = self.devices.get(accelerator)
        if device is None:
            device = self.devices[accelerator] = _BatchDevice(
                get_accelerator(accelerator), self.n
            )
        return device

    def _record_error(self, lane: int, exc: BaseException) -> None:
        self.errors[int(lane)] = (type(exc).__name__, str(exc))

    def _fail_all(self, idx, message: str) -> None:
        for lane in idx:
            self._record_error(lane, InterpreterError(message))

    # -- top level -------------------------------------------------------

    def execute(self) -> list[LaneResult]:
        executor = self.executor
        compiled = executor.compiled
        fn = compiled.functions.get(self.function)
        all_lanes = np.arange(self.n, dtype=np.intp)
        returned: dict[int, list] = {}
        if fn is None:
            if self.function in compiled.declarations:
                self._fail_all(
                    all_lanes, f"function '{self.function}' has no body"
                )
            else:
                self._fail_all(
                    all_lanes, f"no function '{self.function}' in module"
                )
        else:
            frame = np.empty((fn.n_slots, self.n), dtype=object)
            valid = []
            for i in range(self.n):
                args = self.args[i]
                if len(args) != fn.n_args:
                    self._record_error(
                        i,
                        InterpreterError(
                            f"'{self.function}' expects {fn.n_args} "
                            f"arguments, got {len(args)}"
                        ),
                    )
                    continue
                for slot, value in zip(fn.arg_slots, args):
                    frame[slot][i] = value
                valid.append(i)
            if valid:
                returned = self._run_function(
                    fn, frame, np.array(valid, dtype=np.intp), 0
                )
        results = []
        for i in range(self.n):
            total = float(self.host_time[i])
            for device in self.devices.values():
                end = float(device.busy_until[i])
                if end > total:
                    total = end
            launch_counts = {
                name: int(device.launch_count[i])
                for name, device in self.devices.items()
                if device.touched[i]
            }
            error_type, error = self.errors.get(i, (None, None))
            results.append(
                LaneResult(
                    results=returned.get(i),
                    error_type=error_type,
                    error=error,
                    total_cycles=total,
                    launch_counts=launch_counts,
                    memory=self.memories[i],
                )
            )
        return results

    # -- group dispatch --------------------------------------------------

    def _run_function(self, fn, frame, idx, depth) -> dict[int, list]:
        executor = self.executor
        bcode = executor.prepare(fn)
        host_time = self.host_time
        ctrl = executor._ctrl
        returned: dict[int, list] = {}
        groups: list[tuple[int, np.ndarray]] = [(0, idx)]
        while groups:
            pc, idx = groups.pop()
            while idx.size:
                ins = bcode[pc]
                opcode = ins[0]

                if opcode == OP_FUSED:
                    idx = self._exec_block(ins[1], frame, idx)
                    pc += 1
                    continue

                if opcode == OP_FOR_TEST:
                    _, iv, ub, exit_target = ins
                    less = (frame[iv][idx] < frame[ub][idx]).astype(bool)
                    if not less.all():
                        leave = idx[~less]
                        groups.append((exit_target, leave))
                        idx = idx[less]
                        if not idx.size:
                            break
                    host_time[idx] += 2 * ctrl
                    pc += 1
                    continue

                if opcode == OP_FOR_NEXT:
                    _, iv, step, head = ins
                    frame[iv][idx] = frame[iv][idx] + frame[step][idx]
                    pc = head
                    continue

                if opcode == OP_IF:
                    _, cond_slot, false_target = ins
                    column = frame[cond_slot]
                    keep = np.ones(idx.size, dtype=bool)
                    taken = np.empty(idx.size, dtype=bool)
                    for k, lane in enumerate(idx):
                        cond = column[lane]
                        if isinstance(cond, int):
                            taken[k] = cond != 0
                        else:
                            keep[k] = False
                            self._record_error(lane, _not_int(cond))
                    if not keep.all():
                        idx, taken = idx[keep], taken[keep]
                        if not idx.size:
                            break
                    host_time[idx] += ctrl
                    if not taken.all():
                        groups.append((false_target, idx[~taken]))
                        idx = idx[taken]
                        if not idx.size:
                            break
                    pc += 1
                    continue

                if opcode == OP_JUMP:
                    pc = ins[1]
                    continue

                if opcode == OP_FOR_INIT:
                    _, lb, ub, step, iv = ins
                    keep = np.ones(idx.size, dtype=bool)
                    for k, lane in enumerate(idx):
                        for slot in (lb, ub, step):
                            value = frame[slot][lane]
                            if not isinstance(value, int):
                                keep[k] = False
                                self._record_error(lane, _not_int(value))
                                break
                        else:
                            if frame[step][lane] <= 0:
                                keep[k] = False
                                self._record_error(
                                    lane,
                                    InterpreterError(
                                        "scf.for requires a positive step"
                                    ),
                                )
                    if not keep.all():
                        idx = idx[keep]
                        if not idx.size:
                            break
                    frame[iv][idx] = frame[lb][idx]
                    pc += 1
                    continue

                if opcode == OP_SETUP:
                    idx = self._exec_setup(ins, frame, idx)
                    pc += 1
                    continue

                if opcode == OP_LAUNCH:
                    idx = self._exec_launch(ins, frame, idx)
                    pc += 1
                    continue

                if opcode == OP_AWAIT:
                    idx = self._exec_await(ins, frame, idx)
                    pc += 1
                    continue

                if opcode == OP_RESET:
                    slot = ins[1]
                    for lane in idx:
                        handle = frame[slot][lane]
                        if isinstance(handle, StateHandle):
                            self.reset_states[lane].add(handle)
                            epochs = self.reset_epoch[lane]
                            epochs[handle.accelerator] = (
                                epochs.get(handle.accelerator, 0) + 1
                            )
                    host_time[idx] += ctrl
                    pc += 1
                    continue

                if opcode == OP_CALL:
                    _, callee_name, arg_slots, result_slots = ins
                    callee = executor.compiled.functions.get(callee_name)
                    if callee is None:
                        self._fail_all(
                            idx,
                            "call to unknown/declared function "
                            f"'@{callee_name}'",
                        )
                        break
                    host_time[idx] += 2 * ctrl
                    if depth >= 256:  # TraceExecutor.max_call_depth
                        self._fail_all(
                            idx,
                            "call depth exceeded 256 (unbounded recursion "
                            f"via '@{callee_name}'?)",
                        )
                        break
                    inner = np.empty((callee.n_slots, self.n), dtype=object)
                    for slot, arg_slot in zip(callee.arg_slots, arg_slots):
                        inner[slot][idx] = frame[arg_slot][idx]
                    inner_returned = self._run_function(
                        callee, inner, idx, depth + 1
                    )
                    survivors = [
                        lane for lane in idx if int(lane) in inner_returned
                    ]
                    for lane in survivors:
                        for dst, value in zip(
                            result_slots, inner_returned[int(lane)]
                        ):
                            frame[dst][lane] = value
                    if len(survivors) != idx.size:
                        idx = (
                            np.array(survivors, dtype=np.intp)
                            if survivors
                            else _EMPTY
                        )
                        if not idx.size:
                            break
                    pc += 1
                    continue

                if opcode == OP_RETURN:
                    slots = ins[1]
                    for lane in idx:
                        returned[int(lane)] = [
                            frame[slot][lane] for slot in slots
                        ]
                    break

                if opcode == OP_FOREIGN:
                    host_time[idx] += executor._cycles[ins[1].category]
                    pc += 1
                    continue

                self._fail_all(idx, f"corrupt trace: unknown opcode {opcode}")
                break
        return returned

    # -- superinstruction blocks -----------------------------------------

    def _exec_block(self, block: _Block, frame, idx) -> np.ndarray:
        """Vector-execute one block; any step failure falls back to per-lane
        execution *from the failing step* (earlier steps already committed
        their columns — re-running them would double-apply loop back-edge
        copies)."""
        for s, step in enumerate(block.steps):
            try:
                tag = step[0]
                if tag == _STEP_UFUNC:
                    _, dst, ufunc, a, b = step
                    frame[dst][idx] = ufunc(frame[a][idx], frame[b][idx])
                elif tag == _STEP_CONST:
                    frame[step[1]][idx] = step[2]
                elif tag == _STEP_COPY:
                    frame[step[1]][idx] = frame[step[2]][idx]
                else:  # _STEP_SELECT
                    _, dst, cond_slot, tv, fv = step
                    conds = frame[cond_slot][idx]
                    mask = np.empty(conds.size, dtype=bool)
                    for k, cond in enumerate(conds):
                        if not isinstance(cond, int):
                            raise _not_int(cond)
                        mask[k] = cond != 0
                    frame[dst][idx] = np.where(
                        mask, frame[tv][idx], frame[fv][idx]
                    )
            except Exception:  # noqa: BLE001 - per-lane replay assigns blame
                return self._block_fallback(block, s, frame, idx)
        self.host_time[idx] += block.total_cycles
        return idx

    def _block_fallback(self, block: _Block, start: int, frame, idx):
        """Finish a block per-lane from step ``start``; erroring lanes are
        charged exactly the steps they completed (scalar charges per sub-op,
        so a lane failing at step s accrued steps 0..s-1)."""
        sub_ops = block.sub_ops
        prefix = block.cycles_prefix
        survivors = []
        for lane in idx:
            failed = None
            for s in range(start, len(sub_ops)):
                try:
                    _exec_pure_lane(sub_ops[s], frame, lane)
                except Exception as exc:  # noqa: BLE001 - lane outcome
                    failed = s
                    self._record_error(lane, exc)
                    break
            if failed is None:
                survivors.append(lane)
                self.host_time[lane] += block.total_cycles
            else:
                self.host_time[lane] += prefix[failed]
        return np.array(survivors, dtype=np.intp) if survivors else _EMPTY

    # -- protocol ops ----------------------------------------------------

    def _validate_fields(self, frame, idx, slots):
        """Gather field columns with the scalar engine's per-field int
        validation; lanes drop out at their first bad field.  Returns
        ``(idx, columns)`` with bool fields normalized to ints (scalar
        ``write_fields`` applies ``int(value)``)."""
        columns = []
        for slot in slots:
            column = frame[slot][idx]  # fancy index: a copy, safe to edit
            keep = np.ones(idx.size, dtype=bool)
            for k, value in enumerate(column):
                if type(value) is int:
                    continue
                if isinstance(value, int):
                    column[k] = int(value)
                else:
                    keep[k] = False
                    self._record_error(idx[k], _not_int(value))
            if not keep.all():
                idx = idx[keep]
                columns = [c[keep] for c in columns]
                column = column[keep]
                if not idx.size:
                    return idx, columns
            columns.append(column)
        return idx, columns

    def _check_reset_states(self, frame, idx, slot, message):
        keep = np.ones(idx.size, dtype=bool)
        column = frame[slot]
        for k, lane in enumerate(idx):
            if column[lane] in self.reset_states[lane]:
                keep[k] = False
                self._record_error(lane, InterpreterError(message))
        return idx if keep.all() else idx[keep]

    def _exec_setup(self, ins, frame, idx) -> np.ndarray:
        _, accel, names, slots, out_slot, in_slot, loc, _site = ins
        if in_slot is not None:
            idx = self._check_reset_states(
                frame,
                idx,
                in_slot,
                f"setup on '{accel}' uses a state that was reset "
                f"(register contents are no longer defined){loc}",
            )
            if not idx.size:
                return idx
        idx, columns = self._validate_fields(frame, idx, slots)
        if not idx.size:
            return idx
        try:
            device = self._device(accel)
        except KeyError as error:
            self._fail_all(idx, f"setup on {error.args[0]}{loc}")
            return _EMPTY
        now = self.host_time[idx]
        start = device.write_fields_group(idx, names, columns, now)
        self.host_time[idx] = start + self.executor.proto_cycles(
            device.spec, 0, names
        )
        device.touched[idx] = True
        self.state_counter[idx] += 1
        handles = np.empty(idx.size, dtype=object)
        for k, counter in enumerate(self.state_counter[idx]):
            handles[k] = StateHandle(accel, int(counter))
        frame[out_slot][idx] = handles
        return idx

    def _exec_launch(self, ins, frame, idx) -> np.ndarray:
        _, accel, names, slots, token_slot, state_slot, loc, _site = ins
        idx = self._check_reset_states(
            frame,
            idx,
            state_slot,
            f"launch on '{accel}' uses a state that was reset "
            f"(register contents are no longer defined){loc}",
        )
        if not idx.size:
            return idx
        idx, columns = self._validate_fields(frame, idx, slots)
        if not idx.size:
            return idx
        try:
            device = self._device(accel)
        except KeyError as error:
            self._fail_all(idx, f"launch on {error.args[0]}{loc}")
            return _EMPTY
        proto = self.executor.proto_cycles
        field_cycles = proto(device.spec, 1, names) if names else 0.0
        launch_cycles = proto(device.spec, 2, ())
        host_time = self.host_time
        for k, lane in enumerate(idx):
            lane = int(lane)
            # Scalar order: stall to accept_time, charge field + launch
            # instrs, then device.launch at the post-charge time.
            now = device.accept_time_lane(lane, float(host_time[lane]))
            now = max(float(host_time[lane]), now)
            now += field_cycles + launch_cycles
            launch_fields = {
                name: columns[j][k] for j, name in enumerate(names)
            }
            token = device.launch_lane(
                lane, now, launch_fields, self.memories[lane], self.functional
            )
            host_time[lane] = now
            self.token_epoch[lane][token] = self.reset_epoch[lane].get(
                accel, 0
            )
            frame[token_slot][lane] = token
        device.touched[idx] = True
        return idx

    def _exec_await(self, ins, frame, idx) -> np.ndarray:
        _, token_slot, accel, loc = ins
        column = frame[token_slot]
        host_time = self.host_time
        proto = self.executor.proto_cycles
        keep = np.ones(idx.size, dtype=bool)
        for k, lane in enumerate(idx):
            lane = int(lane)
            token = column[lane]
            if not isinstance(token, _BatchToken):
                keep[k] = False
                self._record_error(
                    lane,
                    InterpreterError(f"await of a value that is not a token{loc}"),
                )
                continue
            if token in self.awaited[lane]:
                keep[k] = False
                self._record_error(
                    lane,
                    InterpreterError(
                        f"double await of a token on '{accel}' "
                        f"(the launch was already awaited){loc}"
                    ),
                )
                continue
            epoch = self.reset_epoch[lane].get(accel, 0)
            if self.token_epoch[lane].get(token, epoch) != epoch:
                keep[k] = False
                self._record_error(
                    lane,
                    InterpreterError(
                        f"await of a launch on '{accel}' that was "
                        f"discarded by accfg.reset{loc}"
                    ),
                )
                continue
            # Scalar order: charge sync instrs, then stall to token end.
            now = host_time[lane] + proto(token.device.spec, 3, ())
            host_time[lane] = now if now >= token.end else token.end
            self.awaited[lane].add(token)
        return idx if keep.all() else idx[keep]


def run_batch(
    module: ModuleOp | CompiledModule,
    lanes: list[BatchLane],
    function: str = "main",
    cost_model: HostCostModel | None = None,
    functional: bool = True,
    cache=None,
) -> list[LaneResult]:
    """Run every lane through one compiled trace; returns per-lane results.

    ``module`` may be source IR (compiled through ``cache``, defaulting to
    the process-wide :data:`repro.engine.cache.TRACE_CACHE`; pass ``False``
    to compile uncached) or an already-compiled module.  Raises
    :class:`~repro.engine.compiler.TraceCompileError` for modules the trace
    compiler does not support — batch execution has no tree-interpreter
    fallback; callers that need one should catch and fan out scalar runs.
    """
    source = None
    if isinstance(module, CompiledModule):
        compiled = module
    else:
        source = module
        if cache is False:
            compiled = compile_module(module)
        else:
            if cache is None:
                from .cache import TRACE_CACHE as cache  # noqa: PLW0127

            compiled = cache.get_or_compile(module)
    executor = BatchExecutor(
        compiled, cost_model=cost_model, functional=functional, module=source
    )
    return executor.run(lanes, function)
