"""Property: the worklist pattern driver reaches the sweep driver's normal form.

The incremental worklist driver's correctness claim is that it reaches the
*same normal form* as the fixpoint-of-full-sweeps driver kept in
:mod:`tests.properties.sweep_reference` — it only skips the redundant
re-walks, never a rewrite.  This property drives every registered pipeline
over random accfg programs once per driver and requires the printed IR to
match exactly; the seeded comparison does the same on the programs the
seed-0 fuzz run draws.
"""

import re
from pathlib import Path

from hypothesis import HealthCheck, given, settings

import repro.passes
from repro.ir import parse_module, print_operation, verify_operation
from repro.ir import rewriter as rewriter_module
from repro.passes import PIPELINES, CleanupPass, PassManager, pipeline_by_name
from repro.testing.generator import build, programs

from .sweep_reference import compare_seeded, sweep_pass_manager

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: seed-0 fuzz iterations the tier-1 slice compares (3 programs each); CI
#: compares all of them through ``python -m tests.properties.sweep_reference``
TIER1_ITERATIONS = 10


def normal_form(program, pipeline: str, sweep: bool) -> str:
    built = build(program)
    manager = pipeline_by_name(pipeline)
    if sweep:
        manager = sweep_pass_manager(manager)
    manager.run(built.module)
    verify_operation(built.module)
    return print_operation(built.module)


@RELAXED
@given(programs())
def test_drivers_reach_identical_normal_forms(program):
    for name in PIPELINES:
        worklist = normal_form(program, name, sweep=False)
        sweep = normal_form(program, name, sweep=True)
        assert worklist == sweep, f"drivers diverge under pipeline {name!r}"


def test_seeded_fuzz_programs_reach_identical_normal_forms():
    divergences = compare_seeded(TIER1_ITERATIONS)
    assert divergences == []


def test_seeded_comparison_catches_a_driver_that_drops_touched_ops(
    monkeypatch,
):
    class ForgetfulList(list):
        def append(self, op):
            pass

        def extend(self, ops):
            pass

    class ForgetfulRewriter(rewriter_module.PatternRewriter):
        """Reports no touched neighbours, so the worklist driver never
        re-enqueues them; the sweep reference does not read them."""

        def __init__(self) -> None:
            super().__init__()
            self.touched = ForgetfulList()

    monkeypatch.setattr(rewriter_module, "PatternRewriter", ForgetfulRewriter)
    monkeypatch.setattr(
        repro.passes.cleanup, "PatternRewriter", ForgetfulRewriter
    )
    assert compare_seeded(TIER1_ITERATIONS) != []


def test_cleanup_reseeds_the_pattern_driver_after_cse():
    # CSE merges %b into %a, and only then does %a - %a fold: the worklist
    # side must resume from what CSE touched, as the sweep side re-walks.
    text = """
    func.func @f(%x : i64) -> (i64) {
      %c1 = arith.constant 1 : i64
      %a = arith.addi %x, %c1 : i64
      %b = arith.addi %x, %c1 : i64
      %d = arith.subi %a, %b : i64
      func.return %d : i64
    }
    """

    def cleaned(manager: PassManager) -> str:
        module = parse_module(text)
        manager.run(module)
        return print_operation(module)

    cleanup = PassManager([CleanupPass()])
    worklist = cleaned(cleanup)
    assert worklist == cleaned(sweep_pass_manager(cleanup))
    assert "arith.subi" not in worklist


def test_only_canonicalize_and_cleanup_drive_patterns():
    # The reference swaps exactly these two passes; a new pattern-driven
    # pass would run on the worklist driver under both sides.
    passes_dir = Path(repro.passes.__file__).parent
    driving = sorted(
        path.name
        for path in passes_dir.glob("*.py")
        if re.search(r"drive_patterns\(|GreedyPatternDriver\(", path.read_text())
    )
    assert driving == ["canonicalize.py", "cleanup.py"]
