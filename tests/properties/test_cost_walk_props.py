"""Property: the cost walk's int tallies give the range walk's summaries.

The walk prices straight-line runs, constant-trip loops and the join of
two tallied ``scf.if`` arms as plain ints, and builds ranges only around
symbolic trip counts, calls and unmodeled ops.  The reference below is
the walk from before that change, kept verbatim: straight-line runs
tallied by ``_Counts``, and every loop and branch priced as
:class:`CostVector` ranges (``scale``, ``join``).  Its two edits:
``CostVector.for_instrs`` became ``_for_instrs`` over the reference's own
``_Counts``, and the walker reads a :class:`ReferenceAnalysis`.  So only
the range domain (``SymExpr``, ``CostRange``, ``CostVector`` arithmetic)
is shared with the code under test.

Both must give the same summary: totals equal as dicts and in key order,
sites equal field by field.  Checked on generated programs (every
backend, every pipeline), on every shipped example's IR, and on programs
that reach the unmodeled, call, zero-trip and unjoined-branch paths.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import pytest

from repro.analysis.cost import (
    _ZERO_EXPR,
    CostAnalysis,
    CostRange,
    CostSite,
    CostVector,
    InstrKey,
    SymExpr,
)
from repro.dialects import accfg, arith, func, scf
from repro.dialects.accfg import config_feeding_ops
from repro.ir import parse_module
from repro.ir.operation import Operation, UnregisteredOp
from repro.ir.ssa import BlockArgument, SSAValue
from repro.isa.instructions import CTRL_INSTR, Instr, InstrCategory
from repro.passes import PIPELINES, ConvertLinalgToAccfgPass, pipeline_by_name
from repro.testing.generator import PROFILES, build_spec, generate_spec
from repro.workloads import build_opengemm_matmul
from repro.workloads.network import build_mlp

EXAMPLES = Path(__file__).resolve().parent.parent.parent / "examples"
_ONE_RANGE = CostRange.exact(1)

# ---------------------------------------------------------------------------
# The reference walk
# ---------------------------------------------------------------------------


class _Counts:
    """Plain-int tallies of straight-line charges.

    ``block_cost`` adds a whole run of straight-line ops here and turns the
    tallies into ranges once (:meth:`flush_into`), instead of building and
    summing one :class:`CostVector` per op.  The dicts keep first-charge
    order, so keys reach the total in the order the op-by-op fold gives.
    """

    __slots__ = ("instrs", "config_bytes", "launches", "ops", "indeterminate")

    def __init__(self) -> None:
        self.instrs: dict[InstrKey, int] = {}
        self.config_bytes: dict["str | None", int] = {}
        self.launches: dict[str, int] = {}
        self.ops: dict[str, int] = {}
        self.indeterminate: set[str] = set()

    def add(self, instrs: Iterable[Instr]) -> int:
        """Tally one instruction stream; returns its configuration bytes."""
        counts = self.instrs
        stream_bytes = 0
        for instr in instrs:
            key = (instr.accelerator, instr.category)
            counts[key] = counts.get(key, 0) + 1
            if instr.config_bytes:
                stream_bytes += instr.config_bytes
                bucket = instr.accelerator
                self.config_bytes[bucket] = (
                    self.config_bytes.get(bucket, 0) + instr.config_bytes
                )
        return stream_bytes

    def add_launch(self, accelerator: str, static_ops: int | None) -> None:
        self.launches[accelerator] = self.launches.get(accelerator, 0) + 1
        if static_ops is None:
            self.indeterminate.add(accelerator)
        else:
            self.ops[accelerator] = self.ops.get(accelerator, 0) + static_ops

    def flush_into(self, total: CostVector) -> None:
        """Add the tallies to ``total`` as exact ranges, then reset them."""
        for source, target in (
            (self.instrs, total.instrs),
            (self.config_bytes, total.config_bytes),
            (self.launches, total.launches),
            (self.ops, total.ops),
        ):
            if not source:
                continue
            for key, count in source.items():
                value = CostRange.exact(count)
                current = target.get(key)
                target[key] = value if current is None else current + value
            source.clear()
        if self.indeterminate:
            total.indeterminate_ops |= self.indeterminate
            self.indeterminate.clear()

    def vector(self) -> CostVector:
        vector = CostVector()
        self.flush_into(vector)
        return vector


def _for_instrs(instrs: Iterable[Instr]) -> CostVector:
    """The cost of executing one instruction stream once."""
    counts = _Counts()
    counts.add(instrs)
    return counts.vector()


@dataclass
class ReferenceSummary:
    function: func.FuncOp
    total: CostVector
    sites: tuple[CostSite, ...]


class ReferenceAnalysis:
    """The summary driver of the reference walk (memoized, recursion
    guarded), over the module's top-level functions."""

    def __init__(self, module: Operation) -> None:
        self._functions: dict[str, func.FuncOp] = {}
        for op in module.body_block.ops:
            if isinstance(op, func.FuncOp):
                self._functions.setdefault(op.sym_name, op)
        self._feeding = config_feeding_ops(module)
        self._summaries: dict[str, ReferenceSummary] = {}
        self._in_progress: set[str] = set()

    def summary(self, fn: func.FuncOp) -> ReferenceSummary | None:
        if fn.is_declaration:
            return None
        name = fn.sym_name
        cached = self._summaries.get(name)
        if cached is not None:
            return cached
        self._in_progress.add(name)
        try:
            walker = _FunctionWalker(self, fn)
            summary = ReferenceSummary(
                fn, walker.block_cost(fn.body), tuple(walker.sites)
            )
        finally:
            self._in_progress.discard(name)
        self._summaries[name] = summary
        return summary

    def summaries(self) -> list[ReferenceSummary]:
        return [
            summary
            for fn in self._functions.values()
            if (summary := self.summary(fn)) is not None
        ]


_SCALAR_OPS = (arith.ConstantOp, arith.BinaryOp, arith.CmpiOp, arith.SelectOp)
#: what one scalar op charges: a config-feeding one calc, any other compute
_CALC_STREAM = (Instr("alu", InstrCategory.CALC),)
_COMPUTE_STREAM = (Instr("alu", InstrCategory.COMPUTE),)
#: a branch or a reset; a loop back-edge (increment + compare&branch) or a
#: call (call + return jumps)
_CTRL_STREAM = (CTRL_INSTR,)
_CTRL_PAIR_STREAM = (CTRL_INSTR, CTRL_INSTR)


class _FunctionWalker:
    """Structural walk of one function body, mirroring the interpreter's
    charging discipline op for op."""

    def __init__(self, analysis: ReferenceAnalysis, fn: func.FuncOp) -> None:
        self.analysis = analysis
        self.fn = fn
        self.sites: list[CostSite] = []
        self._loops: list[scf.ForOp] = []
        self._trip_stack: list[CostRange] = []
        self._cond_depth = 0
        self._params: dict[SSAValue, str] = {
            arg: f"arg{i}" for i, arg in enumerate(fn.args)
        }
        self._specs: dict[str, AcceleratorSpec | None] = {}

    # -- helpers ---------------------------------------------------------

    def _spec(self, accelerator: str) -> "AcceleratorSpec | None":
        """The accelerator's spec (None when unknown), looked up once."""
        specs = self._specs
        if accelerator not in specs:
            from repro.backends.base import get_accelerator_or_none

            specs[accelerator] = get_accelerator_or_none(accelerator)
        return specs[accelerator]

    def _site_trips(self) -> CostRange:
        trips = _ONE_RANGE
        for loop_trips in self._trip_stack:
            trips = trips.times(loop_trips)
        return trips

    def _record_site(
        self,
        op: Operation,
        kind: str,
        accelerator: str,
        instrs: tuple[Instr, ...],
        config_bytes: int,
        ops: int | None = None,
    ) -> None:
        self.sites.append(
            CostSite(
                op=op,
                kind=kind,
                accelerator=accelerator,
                instrs=instrs,
                config_bytes=config_bytes,
                trip_count=self._site_trips(),
                loops=tuple(self._loops),
                conditional=self._cond_depth > 0,
                ops=ops,
            )
        )

    def trip_range(self, op: scf.ForOp) -> CostRange:
        """The symbolic iteration count of one ``scf.for``."""
        lb = arith.constant_value(op.lb)
        ub = arith.constant_value(op.ub)
        step = arith.constant_value(op.step)
        if lb is not None and ub is not None and step is not None and step > 0:
            return CostRange.exact(max(0, -((lb - ub) // step)))
        if (
            lb == 0
            and step == 1
            and isinstance(op.ub, BlockArgument)
            and self._params.get(op.ub) is not None
        ):
            # `for i = 0 to %argN step 1` runs max(0, argN) times — exactly
            # the value the parameter binds to.
            return CostRange.exact(SymExpr.param(self._params[op.ub]))
        return CostRange(_ZERO_EXPR, None)

    # -- the walk --------------------------------------------------------

    def block_cost(self, block: "Block") -> CostVector:
        """The sum of :meth:`op_cost` over ``block``'s ops.

        Each run of straight-line ops is tallied as plain ints and added to
        the total before the next other op and at the block end, so keys
        enter the total in the same order as in the op-by-op fold.
        """
        total = CostVector()
        counts = _Counts()
        charge = self._charge
        for op in block.ops:
            if not charge(op, counts):
                counts.flush_into(total)
                total.iadd(self.op_cost(op))
        counts.flush_into(total)
        return total

    def _charge(self, op: Operation, counts: _Counts) -> bool:
        """Tally a straight-line op's charges and record its site.

        Straight-line ops are scalar, setup, launch, await, reset and
        host-side ops, plus the terminators, which charge nothing.  Returns
        False, tallying nothing, for any other op and for ops on unknown
        accelerators: :meth:`op_cost` prices those.
        """
        if isinstance(op, _SCALAR_OPS):
            feeding = op in self.analysis._feeding
            counts.add(_CALC_STREAM if feeding else _COMPUTE_STREAM)
            return True
        if isinstance(op, (scf.YieldOp, func.ReturnOp)):
            return True
        if isinstance(op, accfg.SetupOp):
            spec = self._spec(op.accelerator)
            if spec is None:
                return False
            instrs = spec.setup_instrs_cached(tuple(op.field_names))
            self._record_site(
                op, "setup", op.accelerator, instrs, counts.add(instrs)
            )
            return True
        if isinstance(op, accfg.LaunchOp):
            spec = self._spec(op.accelerator)
            if spec is None:
                return False
            instrs = spec.launch_instrs_cached()
            field_names = tuple(name for name, _ in op.fields)
            if field_names:
                instrs = spec.launch_field_instrs_cached(field_names) + instrs
            from repro.analysis.roofline_lint import static_launch_config

            static_ops = spec.static_launch_ops(static_launch_config(op))
            self._record_site(
                op,
                "launch",
                op.accelerator,
                instrs,
                counts.add(instrs),
                ops=static_ops,
            )
            counts.add_launch(op.accelerator, static_ops)
            return True
        if isinstance(op, accfg.AwaitOp):
            spec = self._spec(op.accelerator)
            if spec is None:
                return False
            instrs = spec.sync_instrs_cached()
            self._record_site(
                op, "await", op.accelerator, instrs, counts.add(instrs)
            )
            return True
        if isinstance(op, accfg.ResetOp):
            state_type = op.state.type
            accelerator = (
                state_type.accelerator
                if isinstance(state_type, accfg.StateType)
                else "?"
            )
            self._record_site(
                op, "reset", accelerator, _CTRL_STREAM, counts.add(_CTRL_STREAM)
            )
            return True
        # Host-side ops charge the stream their declared effect names, the
        # same one both execution engines charge.
        effect = accfg.host_effect(op)
        if effect is not None:
            counts.add(effect.stream)
            return True
        return False

    def op_cost(self, op: Operation) -> CostVector:
        counts = _Counts()
        if self._charge(op, counts):
            return counts.vector()
        if isinstance(op, scf.ForOp):
            trips = self.trip_range(op)
            self._loops.append(op)
            self._trip_stack.append(trips)
            try:
                body = self.block_cost(op.body)
            finally:
                self._loops.pop()
                self._trip_stack.pop()
            # Each iteration pays the back-edge's increment + compare&branch.
            per_iteration = body + _for_instrs(_CTRL_PAIR_STREAM)
            return per_iteration.scale(trips)
        if isinstance(op, scf.IfOp):
            self._cond_depth += 1
            try:
                then_cost = self.block_cost(op.then_block)
                else_cost = (
                    self.block_cost(op.else_block)
                    if op.has_else
                    else CostVector.zero()
                )
            finally:
                self._cond_depth -= 1
            branch = then_cost.join(else_cost)
            return _for_instrs(_CTRL_STREAM) + branch
        if isinstance(op, func.CallOp):
            return self._call_cost(op)
        if isinstance(op, (accfg.SetupOp, accfg.LaunchOp, accfg.AwaitOp)):
            verb = op.name.split(".")[-1]
            return CostVector.unmodeled_op(
                f"{verb} on unknown accelerator '{op.accelerator}'"
            )
        if isinstance(op, UnregisteredOp):
            return CostVector.unmodeled_op(f"'{op.op_name}'")
        return CostVector.unmodeled_op(f"'{op.name}'")

    def _call_cost(self, op: func.CallOp) -> CostVector:
        overhead = _for_instrs(_CTRL_PAIR_STREAM)
        callee = self.analysis._functions.get(op.callee)
        if callee is None or callee.is_declaration:
            return overhead + CostVector.unmodeled_op(
                f"call to unknown/declared '@{op.callee}'"
            )
        if op.callee in self.analysis._in_progress:
            return overhead + CostVector.unmodeled_op(
                f"recursive call to '@{op.callee}'"
            )
        summary = self.analysis.summary(callee)
        if summary is None:
            return overhead + CostVector.unmodeled_op(f"call '@{op.callee}'")
        mapping: dict[str, CostRange] = {}
        for index, operand in enumerate(op.operands):
            name = f"arg{index}"
            constant = arith.constant_value(operand)
            if constant is not None:
                # Callee parameters model trip counts, which clamp at zero.
                mapping[name] = CostRange.exact(max(0, constant))
            elif operand in self._params:
                mapping[name] = CostRange.exact(
                    SymExpr.param(self._params[operand])
                )
            else:
                mapping[name] = CostRange(_ZERO_EXPR, None)
        return overhead + summary.total.substitute(mapping)



# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------


def assert_walks_agree(module):
    fast = CostAnalysis(module).summaries()
    reference = ReferenceAnalysis(module).summaries()
    assert [s.function for s in fast] == [s.function for s in reference]
    for mine, theirs in zip(fast, reference):
        for name in ("instrs", "config_bytes", "launches", "ops"):
            ours, expected = getattr(mine.total, name), getattr(theirs.total, name)
            assert ours == expected, name
            assert list(ours) == list(expected), f"{name} key order"
        assert mine.total.indeterminate_ops == theirs.total.indeterminate_ops
        assert mine.total.unmodeled == theirs.total.unmodeled
        assert len(mine.sites) == len(theirs.sites)
        for site, expected_site in zip(mine.sites, theirs.sites):
            for field in dataclasses.fields(site):
                assert getattr(site, field.name) == getattr(
                    expected_site, field.name
                ), field.name


# ---------------------------------------------------------------------------
# The corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", sorted(PROFILES))
@pytest.mark.parametrize("seed", range(6))
def test_generated_programs_under_every_pipeline(backend, seed):
    spec = generate_spec(random.Random(seed), backend)
    assert_walks_agree(build_spec(spec, memory_seed=seed).module)
    for pipeline in sorted(PIPELINES):
        built = build_spec(spec, memory_seed=seed)
        pipeline_by_name(pipeline).run(built.module)
        assert_walks_agree(built.module)


def example_modules():
    names = (
        "quickstart",
        "linalg_pipeline",
        "multi_accelerator",
        "custom_accelerator",
        "opengemm_tiled_matmul",
    )
    sys.path.insert(0, str(EXAMPLES))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            examples = {name: __import__(name) for name in names}
    finally:
        sys.path.remove(str(EXAMPLES))
    # mlp_inference.py and timeline_visualization.py simulate on import;
    # build the IR they run instead (as tools/lint_examples.py does).
    mlp = build_mlp([32, 64, 64, 32, 8], batch=16, seed=11)
    ConvertLinalgToAccfgPass().apply(mlp.module)
    return [
        parse_module(examples["quickstart"].PROGRAM),
        parse_module(examples["linalg_pipeline"].SOURCE),
        examples["multi_accelerator"].module,
        examples["custom_accelerator"].module,
        examples["opengemm_tiled_matmul"].workload.module,
        mlp.module,
        build_opengemm_matmul(16).module,
    ]


def test_every_example_before_and_after_the_full_pipeline():
    for module in example_modules():
        assert_walks_agree(module)
        optimized = module.clone()  # the examples' own modules stay intact
        pipeline_by_name("full").run(optimized)
        assert_walks_agree(optimized)


EDGES = """
func.func @helper(%n : index) -> () {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  scf.for %i = %c0 to %n step %c1 {
    %v = arith.constant 4 : i64
    %s = accfg.setup on "toyvec" ("n" = %v : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t
    scf.yield
  }
  func.return
}
func.func @main(%x : i64, %n : index) -> (i64) {
  "libc.printf"() {accfg.effects = "none"} : () -> ()
  %c = arith.constant 3 : i64
  %s = accfg.setup on "toyvec" ("n" = %c : i64) : !accfg.state<"toyvec">
  accfg.reset %s
  %u = accfg.setup on "mystery9000" ("n" = %c : i64) : !accfg.state<"mystery9000">
  "mystery.op"() : () -> ()
  func.call @helper(%n) : (index) -> ()
  %y = arith.addi %x, %c : i64
  func.return %y : i64
}
"""


def test_unmodeled_and_call_paths():
    module = parse_module(EDGES)
    summary = CostAnalysis(module).summary("main")
    assert summary.total.unmodeled == {
        "setup on unknown accelerator 'mystery9000'",
        "'mystery.op'",
    }
    assert [site.kind for site in summary.sites] == ["setup", "reset"]
    assert_walks_agree(module)


#: One launch of ``n`` toyvec elements, awaited (``n`` is an SSA name).
TOYVEC_LAUNCH = """
    %s{tag} = accfg.setup on "toyvec" ("n" = {n} : i64) : !accfg.state<"toyvec">
    %t{tag} = accfg.launch %s{tag} : !accfg.token<"toyvec">
    accfg.await %t{tag}
"""


def launch(tag, n):
    return TOYVEC_LAUNCH.format(tag=tag, n=n)


PROGRAMS = {
    "zero-trip loop": f"""
func.func @main() -> () {{
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %c5 = arith.constant 5 : index
  %n = arith.constant 8 : i64
  scf.for %i = %c5 to %c0 step %c1 {{
    {launch("a", "%n")}
    scf.yield
  }}
  {launch("b", "%n")}
  func.return
}}
""",
    "if without else": f"""
func.func @main(%flag : i1) -> () {{
  %n = arith.constant 8 : i64
  %m = arith.constant 16 : i64
  {launch("a", "%n")}
  scf.if %flag {{
    {launch("b", "%m")}
    %x = arith.addi %n, %m : i64
    scf.yield
  }}
  {launch("c", "%n")}
  func.return
}}
""",
    "arg loop in a constant loop in an if": f"""
func.func @main(%flag : i1, %k : index) -> () {{
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %c3 = arith.constant 3 : index
  %n = arith.constant 8 : i64
  scf.if %flag {{
    scf.for %i = %c0 to %c3 step %c1 {{
      {launch("a", "%n")}
      scf.for %j = %c0 to %k step %c1 {{
        {launch("b", "%n")}
        scf.yield
      }}
      scf.yield
    }}
    scf.yield
  }} else {{
    {launch("c", "%n")}
    scf.yield
  }}
  func.return
}}
""",
    "call and unknown accelerator in a constant loop": f"""
func.func @helper(%n : i64) -> () {{
  {launch("h", "%n")}
  func.return
}}
func.func @main() -> () {{
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %c4 = arith.constant 4 : index
  %n = arith.constant 8 : i64
  scf.for %i = %c0 to %c4 step %c1 {{
    {launch("a", "%n")}
    func.call @helper(%n) : (i64) -> ()
    %u = accfg.setup on "mystery9000" ("n" = %n : i64) : !accfg.state<"mystery9000">
    scf.yield
  }}
  func.return
}}
""",
    # A Gemmini mvin does no datapath work.  Its launch's zero ops entry
    # scales away in the loop, and stays at the top level, after toyvec's.
    "launch of zero static ops in a loop": f"""
func.func @main() -> () {{
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %c2 = arith.constant 2 : index
  %mvin = arith.constant 1 : i64
  %n = arith.constant 8 : i64
  scf.for %i = %c0 to %c2 step %c1 {{
    %s = accfg.setup on "gemmini" ("op" = %mvin : i64) : !accfg.state<"gemmini">
    %t = accfg.launch %s : !accfg.token<"gemmini">
    accfg.await %t
    scf.yield
  }}
  {launch("a", "%n")}
  %s1 = accfg.setup on "gemmini" ("op" = %mvin : i64) : !accfg.state<"gemmini">
  %t1 = accfg.launch %s1 : !accfg.token<"gemmini">
  accfg.await %t1
  func.return
}}
""",
    "requantize in a loop": """
func.func @main() -> () {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %c3 = arith.constant 3 : index
  %src = arith.constant 4096 : i64
  %dst = arith.constant 8192 : i64
  scf.for %i = %c0 to %c3 step %c1 {
    net.requantize %src -> %dst n(64)
    scf.yield
  }
  func.return
}
""",
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_edge_programs(name):
    module = parse_module(PROGRAMS[name])
    assert_walks_agree(module)
    for pipeline in sorted(PIPELINES):
        optimized = module.clone()
        pipeline_by_name(pipeline).run(optimized)
        assert_walks_agree(optimized)
