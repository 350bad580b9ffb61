"""Property: the trace-compiled engine is bit-identical to the tree
interpreter on every generated program, before and after optimization.

This is the standing version of the fuzzer's ``trace-vs-tree`` oracle:
results, total cycles, launch counts, instruction traces, timeline spans,
and final memory images must all match exactly.
"""

from hypothesis import HealthCheck, given, settings

from repro.engine import compile_module, TraceExecutor
from repro.interp import run_module
from repro.ir import verify_operation
from repro.passes import pipeline_by_name
from repro.sim import CoSimulator
from repro.testing.generator import build, programs
from repro.testing.oracles import _engine_divergences

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_both(program, pipeline: str):
    """(tree run, trace run) of one optimized build."""
    tree_built = build(program)
    pipeline_by_name(pipeline).run(tree_built.module)
    verify_operation(tree_built.module)
    args = [int(program.cond_value), 0]
    tree_sim = CoSimulator(memory=tree_built.memory)
    tree_results = run_module(tree_built.module, tree_sim, args=list(args))[0]

    trace_built = build(program)
    pipeline_by_name(pipeline).run(trace_built.module)
    verify_operation(trace_built.module)
    compiled = compile_module(trace_built.module)
    trace_sim = CoSimulator(memory=trace_built.memory)
    trace_results = TraceExecutor(compiled, trace_sim).run("main", list(args))

    return (
        tree_results,
        tree_sim,
        tree_built.memory,
        trace_results,
        trace_sim,
        trace_built.memory,
    )


def assert_bit_identical(program, pipeline: str):
    runs = run_both(program, pipeline)
    tree_results, tree_sim, tree_mem, trace_results, trace_sim, trace_mem = runs
    problems = _engine_divergences(
        trace_results, trace_sim, trace_mem, tree_results, tree_sim, tree_mem
    )
    assert not problems, f"{pipeline}: " + "; ".join(problems)


@RELAXED
@given(programs())
def test_trace_matches_tree_unoptimized(program):
    assert_bit_identical(program, "none")


@RELAXED
@given(programs())
def test_trace_matches_tree_after_baseline(program):
    assert_bit_identical(program, "baseline")


@RELAXED
@given(programs())
def test_trace_matches_tree_after_dedup(program):
    assert_bit_identical(program, "dedup")


@RELAXED
@given(programs())
def test_trace_matches_tree_after_overlap(program):
    assert_bit_identical(program, "overlap")


@RELAXED
@given(programs())
def test_trace_matches_tree_after_full(program):
    assert_bit_identical(program, "full")
