"""The figures run on the trace engine; a tree-interpreter run of the same
optimized module must be indistinguishable from it."""

import pytest

from repro.backends import get_accelerator
from repro.engine import TraceExecutor
from repro.experiments import common, fig10_gemmini, fig11_opengemm
from repro.interp import run_module
from repro.sim import CoSimulator
from repro.sim.metrics import collect_metrics
from repro.testing.oracles import _engine_divergences
from repro.workloads import build_gemmini_matmul, build_opengemm_matmul

FIGURE_PIPELINES = [
    (build_gemmini_matmul, pipeline)
    for pipeline in (
        fig10_gemmini.BASELINE_PIPELINE,
        fig10_gemmini.OPTIMIZED_PIPELINE,
    )
] + [(build_opengemm_matmul, pipeline) for pipeline in fig11_opengemm.VARIANTS]


@pytest.mark.parametrize("size", [16, 32, 64])
@pytest.mark.parametrize(
    "build, pipeline",
    FIGURE_PIPELINES,
    ids=[f"{build.__name__}-{pipeline}" for build, pipeline in FIGURE_PIPELINES],
)
def test_run_workload_matches_tree_interpreter(monkeypatch, build, pipeline, size):
    run_module_traced = common.run_module_traced
    executor_run = TraceExecutor.run
    engine_runs = []
    executed = []

    def recording_run_module_traced(module, sim, **kwargs):
        results, sim = run_module_traced(module, sim, **kwargs)
        engine_runs.append((results, sim))
        return results, sim

    def counting_executor_run(executor, *args, **kwargs):
        executed.append(executor)
        return executor_run(executor, *args, **kwargs)

    monkeypatch.setattr(common, "run_module_traced", recording_run_module_traced)
    monkeypatch.setattr(TraceExecutor, "run", counting_executor_run)

    workload = build(size)
    run = common.run_workload(workload, pipeline)
    assert run.correct
    assert len(executed) == 1, "run_workload did not execute on the engine"
    [(results, sim)] = engine_runs

    fresh = build(size)
    tree_sim = CoSimulator(
        memory=fresh.memory,
        cost_model=get_accelerator(workload.accelerator).host_cost_model(),
    )
    tree_results, _ = run_module(workload.module, tree_sim, args=fresh.main_args)
    divergences = _engine_divergences(
        results, sim, workload.memory, tree_results, tree_sim, fresh.memory
    )
    assert divergences == []
    assert run.metrics == collect_metrics(tree_sim, workload.accelerator)
