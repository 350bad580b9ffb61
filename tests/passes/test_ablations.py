"""Ablations: what each dedup sub-rewrite and the generic cleanups
contribute, on the OpenGeMM size-64 workload (DESIGN.md section 6).

Not a paper figure: these quantify the design choices Section 5.4.1
motivates (branch hoisting, loop-field hoisting, merge/cleanup) by running
partial pipelines.
"""

from repro.backends import get_accelerator
from repro.interp import run_module
from repro.ir import parse_module
from repro.ir.verifier import verify_operation
from repro.passes import (
    CanonicalizePass,
    CSEPass,
    DCEPass,
    DedupPass,
    LICMPass,
    PassManager,
    TraceStatesPass,
)
from repro.passes.dedup import (
    eliminate_redundant_fields,
    merge_consecutive_setups,
    remove_empty_setups,
)
from repro.sim import CoSimulator
from repro.sim.metrics import collect_metrics
from repro.workloads import build_opengemm_matmul

SIZE = 64


def measure(pipeline_builder):
    workload = build_opengemm_matmul(SIZE)
    pipeline_builder(workload.module)
    sim = CoSimulator(
        memory=workload.memory,
        cost_model=get_accelerator("opengemm").host_cost_model(),
        functional=False,
    )
    run_module(workload.module, sim)
    return collect_metrics(sim, "opengemm")


def cleanups(module):
    PassManager([CanonicalizePass(), CSEPass(), LICMPass(), DCEPass()]).run(module)


def test_dedup_without_loop_hoisting():
    """Redundant-field elimination alone cannot touch in-loop setups whose
    input state is loop-carried with varying fields: loop hoisting is what
    unlocks the OpenGeMM win."""

    def elimination_only(module):
        cleanups(module)
        TraceStatesPass().apply(module)
        for _ in range(10):
            changed = eliminate_redundant_fields(module)
            changed |= remove_empty_setups(module)
            if not changed:
                break
        cleanups(module)

    def full_dedup(module):
        cleanups(module)
        TraceStatesPass().apply(module)
        DedupPass().apply(module)
        cleanups(module)

    elimination, full = measure(elimination_only), measure(full_dedup)
    assert full.config_bytes < elimination.config_bytes


def test_cleanups_contribution():
    """The 'free' MLIR optimizations (Section 5.2) on their own: constant
    hoisting and CSE reduce calc instructions without touching setups."""
    unoptimized = measure(lambda module: PassManager([]).run(module))
    cleaned = measure(cleanups)
    assert cleaned.calc_instrs < unoptimized.calc_instrs
    assert cleaned.setup_instrs == unoptimized.setup_instrs


def test_merge_contribution():
    """Merging launch-free setup chains reduces write count when the
    frontend splits configuration across several setups."""
    text = """
    func.func @main(%a : i64, %b : i64, %c : i64) -> () {
      %s1 = accfg.setup on "toyvec" ("ptr_x" = %a : i64) : !accfg.state<"toyvec">
      %s2 = accfg.setup on "toyvec" from %s1 ("ptr_y" = %b : i64) : !accfg.state<"toyvec">
      %s3 = accfg.setup on "toyvec" from %s2 ("n" = %c : i64) : !accfg.state<"toyvec">
      %t = accfg.launch %s3 : !accfg.token<"toyvec">
      accfg.await %t
      func.return
    }
    """

    def count_setups(merge: bool) -> int:
        module = parse_module(text)
        if merge:
            merge_consecutive_setups(module)
        verify_operation(module)
        return sum(1 for op in module.walk() if op.name == "accfg.setup")

    assert (count_setups(False), count_setups(True)) == (3, 1)
