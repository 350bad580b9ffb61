"""Fault-injected runs on the trace engine plan minimal re-setup through site
numbers, which the running module's own ``ReliancePlan`` resolves.  Any
cached entry therefore serves them as it is: one compiled from a
structurally equal module, or one loaded from disk."""

from contextlib import contextmanager

import pytest

from repro.engine import (
    PersistentStore,
    TraceCache,
    TraceExecutor,
    compile_module,
    run_module_traced,
)
from repro.engine import cache as engine_cache
from repro.engine import executor as engine_executor
from repro.experiments import fault_recovery
from repro.faults import (
    FaultInjector,
    FaultRates,
    RecoveryPolicy,
    ReliancePlan,
    ReliancePlanMismatch,
)
from repro.interp import run_module
from repro.passes import pipeline_by_name
from repro.sim import CoSimulator
from repro.workloads import build_opengemm_matmul


def optimized_workload():
    workload = build_opengemm_matmul(16)
    pipeline_by_name("full").run(workload.module)
    return workload


def faulted_sim(workload, plan_module=None):
    return CoSimulator(
        memory=workload.memory,
        faults=FaultInjector(5, FaultRates(state_loss=0.5)),
        recovery=RecoveryPolicy(resetup="minimal"),
        reliance=ReliancePlan(plan_module or workload.module),
    )


@contextmanager
def no_recompile():
    def refuse(module):
        raise AssertionError("a cached entry must serve the faulted run")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine_cache, "compile_module", refuse)
        patch.setattr(engine_executor, "compile_module", refuse)
        yield


def assert_matches_tree_run(sim):
    reference = optimized_workload()
    tree_sim = faulted_sim(reference)
    run_module(reference.module, tree_sim)
    assert sim.recovery_stats.state_losses > 0
    assert sim.recovery_stats.as_dict() == tree_sim.recovery_stats.as_dict()
    assert sim.trace.instrs == tree_sim.trace.instrs


def test_structural_cache_hit_drives_a_faulted_run():
    cache = TraceCache()
    cached = cache.get_or_compile(optimized_workload().module)
    second = optimized_workload()
    sim = faulted_sim(second)
    with no_recompile():
        assert cache.get_or_compile(second.module) is cached
        run_module_traced(second.module, sim, cache=cache)

    assert_matches_tree_run(sim)
    assert (cache.hits, cache.misses) == (2, 1)


def test_disk_loaded_entry_drives_a_faulted_run(tmp_path):
    TraceCache(store=PersistentStore(str(tmp_path))).get_or_compile(
        optimized_workload().module
    )
    cache = TraceCache(store=PersistentStore(str(tmp_path)))
    workload = optimized_workload()
    sim = faulted_sim(workload)
    with no_recompile():
        run_module_traced(workload.module, sim, cache=cache)

    assert (cache.store.hits, cache.store.misses) == (1, 0)
    assert_matches_tree_run(sim)


def test_plan_for_another_module_is_refused():
    workload = optimized_workload()
    other = optimized_workload()
    sim = faulted_sim(workload, plan_module=other.module)
    with pytest.raises(ReliancePlanMismatch):
        run_module_traced(workload.module, sim, cache=TraceCache())
    assert sim.trace.instrs == []


def test_plan_with_another_site_count_is_refused():
    workload = optimized_workload()
    unoptimized = build_opengemm_matmul(16)
    compiled = compile_module(workload.module)
    sim = faulted_sim(workload, plan_module=unoptimized.module)
    assert len(sim.reliance.sites) != compiled.site_count
    with pytest.raises(ReliancePlanMismatch):
        TraceExecutor(compiled, sim)


def test_fault_recovery_run_is_repeatable():
    """The second run hits the first run's cached trace and must restore the
    same minimal set."""
    first = fault_recovery.run_one(16, "full", "minimal", 0.5, "optimized+minimal")
    second = fault_recovery.run_one(16, "full", "minimal", 0.5, "optimized+minimal")
    assert first.state_losses > 0
    assert second == first
