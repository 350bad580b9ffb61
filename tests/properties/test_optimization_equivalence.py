"""Property: every optimization pipeline preserves program semantics.

Random accfg programs (partial setups relying on register retention, loops,
launch-free setups) are run unoptimized and through each pipeline; the final
memory image must be identical, and must match an independent Python golden
model of the configure/launch semantics.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.interp import run_module
from repro.ir import verify_operation
from repro.passes import pipeline_by_name
from repro.sim import CoSimulator
from repro.sim.metrics import collect_metrics
from repro.testing.generator import build, golden_result, programs

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_with_pipeline(program, pipeline: str):
    built = build(program)
    pipeline_by_name(pipeline).run(built.module)
    verify_operation(built.module)
    sim = CoSimulator(memory=built.memory)
    run_module(built.module, sim, args=[int(program.cond_value), 0])
    outs = [buf.array.copy() for buf in built.out_buffers]
    return outs, sim


@RELAXED
@given(programs())
def test_unoptimized_matches_golden_model(program):
    outs, _ = run_with_pipeline(program, "none")
    golden = golden_result(program)
    for out, expected in zip(outs, golden):
        assert (out == expected).all()


@RELAXED
@given(programs())
def test_dedup_preserves_semantics(program):
    baseline, _ = run_with_pipeline(program, "none")
    optimized, _ = run_with_pipeline(program, "dedup")
    for a, b in zip(baseline, optimized):
        assert (a == b).all()


@RELAXED
@given(programs())
def test_overlap_preserves_semantics(program):
    baseline, _ = run_with_pipeline(program, "none")
    optimized, _ = run_with_pipeline(program, "overlap")
    for a, b in zip(baseline, optimized):
        assert (a == b).all()


@RELAXED
@given(programs())
def test_licm_preserves_semantics(program):
    baseline, _ = run_with_pipeline(program, "none")
    optimized, _ = run_with_pipeline(program, "licm")
    for a, b in zip(baseline, optimized):
        assert (a == b).all()


@RELAXED
@given(programs())
def test_unroll_pipeline_preserves_semantics(program):
    baseline, _ = run_with_pipeline(program, "none")
    optimized, _ = run_with_pipeline(program, "unroll")
    for a, b in zip(baseline, optimized):
        assert (a == b).all()


@RELAXED
@given(programs())
def test_full_pipeline_preserves_semantics(program):
    baseline, _ = run_with_pipeline(program, "none")
    optimized, _ = run_with_pipeline(program, "full")
    for a, b in zip(baseline, optimized):
        assert (a == b).all()


@RELAXED
@given(programs())
def test_dedup_never_increases_executed_config_writes(program):
    _, base_sim = run_with_pipeline(program, "baseline")
    _, dedup_sim = run_with_pipeline(program, "dedup")
    base = collect_metrics(base_sim, "toyvec")
    dedup = collect_metrics(dedup_sim, "toyvec")
    assert dedup.config_bytes <= base.config_bytes


@RELAXED
@given(programs())
def test_launch_count_invariant(program):
    """No pipeline may drop or duplicate accelerator launches."""
    _, base_sim = run_with_pipeline(program, "none")
    for pipeline in ("baseline", "licm", "unroll", "dedup", "overlap", "full"):
        _, opt_sim = run_with_pipeline(program, pipeline)
        for accelerator in ("toyvec", "toyvec-seq"):
            assert (
                opt_sim.device(accelerator).launch_count
                == base_sim.device(accelerator).launch_count
            )


@RELAXED
@given(programs())
def test_full_pipeline_never_materially_slower(program):
    """The optimized program may pay a small constant for soundness guards
    (the ``lb < ub`` check around hoisted setups of possibly-zero-trip
    loops) but never a proportional slowdown."""
    _, base_sim = run_with_pipeline(program, "baseline")
    _, full_sim = run_with_pipeline(program, "full")
    guard_slack = 8.0 * sum(
        1 for inv in program.invocations if inv.loop_trips == -1
    )
    assert full_sim.total_cycles <= base_sim.total_cycles * 1.001 + guard_slack


@RELAXED
@given(programs())
def test_unroll_then_full_preserves_semantics(program):
    """Unrolling composes with the accfg pipeline without changing results."""
    from repro.passes import PassManager, UnrollPass, full_pipeline

    baseline, _ = run_with_pipeline(program, "none")
    built = build(program)
    UnrollPass().apply(built.module)
    full_pipeline().run(built.module)
    verify_operation(built.module)
    sim = CoSimulator(memory=built.memory)
    run_module(built.module, sim, args=[int(program.cond_value), 0])
    for a, b in zip(baseline, [buf.array.copy() for buf in built.out_buffers]):
        assert (a == b).all()


@RELAXED
@given(programs())
def test_unroll_preserves_launch_count(program):
    from repro.passes import UnrollPass

    _, base_sim = run_with_pipeline(program, "none")
    built = build(program)
    UnrollPass().apply(built.module)
    verify_operation(built.module)
    sim = CoSimulator(memory=built.memory)
    run_module(built.module, sim, args=[int(program.cond_value), 0])
    assert (
        sim.device("toyvec").launch_count
        == base_sim.device("toyvec").launch_count
    )
