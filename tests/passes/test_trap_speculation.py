"""Regression tests: a pass may remove an arithmetic trap but never add one.

``divui``, ``remui``, ``shli`` and ``shrui`` are pure but can trap.  LICM
hoists pure ops out of loops that may not run, and configuration overlap
computes the next iteration's setup fields on the last trip; both must
leave an op that may trap where the source program runs it.  Each program
below runs without a trap unoptimized and must return the same result,
memory image and launch counts under every registered pipeline.
"""

import numpy as np
import pytest

from repro.dialects import arith, scf
from repro.interp import run_module
from repro.ir import parse_module
from repro.passes import PIPELINES, LICMPass, pipeline_by_name
from repro.sim import CoSimulator, Memory


def zero_trip_program(op_line: str, result_type: str) -> str:
    """``main(%n)`` returns %a unless the loop to %n runs ``op_line``."""
    return f"""
    func.func @main(%n : index, %a : {result_type}) -> ({result_type}) {{
      %c0 = arith.constant 0 : index
      %c1 = arith.constant 1 : index
      %z = arith.constant 0 : {result_type}
      %m1 = arith.constant -1 : {result_type}
      %c64 = arith.constant 64 : {result_type}
      %r = scf.for %i = %c0 to %n step %c1 iter_args(%acc = %a) -> ({result_type}) {{
        {op_line}
        scf.yield %q : {result_type}
      }}
      func.return %r : {result_type}
    }}
    """


#: an op that traps, in a loop that runs zero times (``%n = 0``)
ZERO_TRIP_TRAPS = {
    "divui-by-zero": zero_trip_program("%q = arith.divui %a, %z : i64", "i64"),
    "shli-negative-count": zero_trip_program(
        "%q = arith.shli %a, %m1 : index", "index"
    ),
    "index-shli-by-64": zero_trip_program(
        "%q = arith.shli %a, %c64 : index", "index"
    ),
}


def overlap_program(memory: Memory) -> str:
    """A toyvec loop whose setup field is ``100 / (n - i)``: it never
    divides by zero for ``i < n``, but the rotated setup of configuration
    overlap would compute it for ``i = n``."""
    x = memory.place(np.arange(128, dtype=np.int32) + 1)
    y = memory.place(np.arange(128, dtype=np.int32) + 2)
    out = memory.alloc(128, np.int32)
    return f"""
    func.func @main(%n : index) -> () {{
      %px = arith.constant {x.addr} : i64
      %py = arith.constant {y.addr} : i64
      %po = arith.constant {out.addr} : i64
      %len = arith.constant 8 : i64
      %add = arith.constant 0 : i64
      %c0 = arith.constant 0 : index
      %c1 = arith.constant 1 : index
      %c100 = arith.constant 100 : index
      %s0 = accfg.setup on "toyvec" ("ptr_x" = %px : i64, "ptr_y" = %py : i64, "ptr_out" = %po : i64, "n" = %len : i64, "op" = %add : i64) : !accfg.state<"toyvec">
      %r = scf.for %i = %c0 to %n step %c1 iter_args(%st = %s0) -> (!accfg.state<"toyvec">) {{
        %d = arith.subi %n, %i : index
        %q = arith.divui %c100, %d : index
        %s = accfg.setup on "toyvec" from %st ("n" = %q : index) : !accfg.state<"toyvec">
        %t = accfg.launch %s : !accfg.token<"toyvec">
        accfg.await %t
        scf.yield %s : !accfg.state<"toyvec">
      }}
      func.return
    }}
    """


def outcome(build, pipeline: str, args: list[int]):
    """Results, memory image and launch counts of one optimized run."""
    memory = Memory()
    module = parse_module(build(memory))
    pipeline_by_name(pipeline).run(module)
    results, sim = run_module(module, CoSimulator(memory=memory), args=args)
    launches = {name: device.launch_count for name, device in sim.devices.items()}
    return results, [array.tobytes() for array in memory.snapshot()], launches


SUBJECTS = {
    **{
        name: (lambda memory, text=text: text, [0, 5])
        for name, text in ZERO_TRIP_TRAPS.items()
    },
    "overlap-divui": (overlap_program, [4]),
}


@pytest.mark.parametrize("subject", sorted(SUBJECTS))
@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
def test_optimized_program_matches_unoptimized(subject, pipeline):
    build, args = SUBJECTS[subject]
    assert outcome(build, pipeline, args) == outcome(build, "none", args)


def loop_body_names(text: str) -> list[str]:
    """The op names left in the loop body after LICM."""
    module = parse_module(text)
    LICMPass().apply(module)
    loop = next(op for op in module.walk() if isinstance(op, scf.ForOp))
    return [op.name for op in loop.body.ops]


class TestLICMHoisting:
    def test_division_by_a_nonzero_constant(self):
        text = ZERO_TRIP_TRAPS["divui-by-zero"].replace(
            "%z = arith.constant 0", "%z = arith.constant 7"
        )
        assert "arith.divui" not in loop_body_names(text)

    def test_anything_out_of_a_loop_that_certainly_runs(self):
        text = ZERO_TRIP_TRAPS["divui-by-zero"].replace(
            "scf.for %i = %c0 to %n", "scf.for %i = %c0 to %c1"
        )
        assert "arith.divui" not in loop_body_names(text)

    def test_not_a_possible_trap_out_of_a_loop_that_may_not_run(self):
        for text in ZERO_TRIP_TRAPS.values():
            assert any(
                isinstance(op, arith.BinaryOp) and op.traps
                for op in parse_module(text).walk()
            )
            assert len(loop_body_names(text)) == 2
