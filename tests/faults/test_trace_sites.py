"""Fault-injected runs on the trace engine plan minimal re-setup with the
running module's own ``site`` ops, even when the trace cache holds an entry
compiled from a structurally equal module."""

from repro.engine import TraceCache, run_module_traced
from repro.experiments import fault_recovery
from repro.faults import FaultInjector, FaultRates, RecoveryPolicy, ReliancePlan
from repro.interp import run_module
from repro.passes import pipeline_by_name
from repro.sim import CoSimulator
from repro.workloads import build_opengemm_matmul


def optimized_workload():
    workload = build_opengemm_matmul(16)
    pipeline_by_name("full").run(workload.module)
    return workload


def faulted_sim(workload):
    return CoSimulator(
        memory=workload.memory,
        faults=FaultInjector(5, FaultRates(state_loss=0.5)),
        recovery=RecoveryPolicy(resetup="minimal"),
        reliance=ReliancePlan(workload.module),
    )


def test_structural_cache_hit_recompiles_for_a_faulted_run():
    cache = TraceCache()
    first = optimized_workload()
    cached = cache.get_or_compile(first.module)
    second = optimized_workload()
    assert cache.get_or_compile(second.module) is cached

    sim = faulted_sim(second)
    run_module_traced(second.module, sim, cache=cache)
    reference = optimized_workload()
    tree_sim = faulted_sim(reference)
    run_module(reference.module, tree_sim)

    assert sim.recovery_stats.state_losses > 0
    assert sim.recovery_stats.as_dict() == tree_sim.recovery_stats.as_dict()
    assert sim.trace.instrs == tree_sim.trace.instrs
    assert cache.get_or_compile(second.module).source is second.module


def test_fault_recovery_run_is_repeatable():
    """The second run used to hit the first run's cached trace and restore
    every shadowed field instead of the minimal set."""
    first = fault_recovery.run_one(16, "full", "minimal", 0.5, "optimized+minimal")
    second = fault_recovery.run_one(16, "full", "minimal", 0.5, "optimized+minimal")
    assert first.state_losses > 0
    assert second == first
