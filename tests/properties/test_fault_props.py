"""Property: faulted execution never changes results — or fails loudly.

Random accfg programs x random fault schedules x optimization pipelines:

* with recovery enabled, the faulted run's outputs and launch counts are
  identical to the fault-free run of the same program;
* with recovery disabled (detect-only), a faulted run either raises a
  loc-tagged ``InterpreterError`` or is bit-equal to the fault-free run —
  injected faults are never silently absorbed into wrong results;
* the fault schedule and the recovered execution are a pure function of the
  fault seed: re-running is byte-identical.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultRates, RecoveryPolicy, ReliancePlan
from repro.interp import InterpreterError, run_module
from repro.passes import pipeline_by_name
from repro.sim import CoSimulator
from repro.testing.generator import build, programs

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: schedules worth exploring: background noise on every kind, plus skewed
#: mixes that hammer one recovery path.  Rates stay low enough that the
#: default bounded-retry budget (8 attempts) recovers with overwhelming
#: probability — an exhausted budget would *correctly* raise, but then the
#: property would not be testing silent corruption any more.
RATE_MIXES = st.sampled_from(
    [
        FaultRates.uniform(0.05),
        FaultRates.uniform(0.1),
        FaultRates(state_loss=0.4),
        FaultRates(drop_write=0.15, corrupt_write=0.15),
        FaultRates(launch_reject=0.2, await_stall=0.2),
    ]
)

PIPELINES_UNDER_TEST = ("none", "baseline", "dedup", "overlap", "full")


def run_one(program, pipeline, injector=None, policy=None):
    built = build(program)
    pipeline_by_name(pipeline).run(built.module)
    reliance = ReliancePlan(built.module) if injector is not None else None
    sim = CoSimulator(
        memory=built.memory,
        faults=injector,
        recovery=policy,
        reliance=reliance,
    )
    run_module(built.module, sim, args=[int(program.cond_value), 0])
    outs = [buf.array.copy() for buf in built.out_buffers]
    return outs, sim


@RELAXED
@given(programs(), st.integers(0, 2**32), RATE_MIXES)
def test_recovery_preserves_results_across_pipelines(program, fault_seed, rates):
    for pipeline in PIPELINES_UNDER_TEST:
        reference, ref_sim = run_one(program, pipeline)
        injector = FaultInjector(fault_seed, rates)
        faulted, fault_sim = run_one(program, pipeline, injector)
        for a, b in zip(reference, faulted):
            assert (a == b).all(), f"pipeline {pipeline} diverged under faults"
        for name in ("toyvec", "toyvec-seq"):
            assert (
                fault_sim.device(name).launch_count
                == ref_sim.device(name).launch_count
            )


@RELAXED
@given(programs(), st.integers(0, 2**32), RATE_MIXES)
def test_detect_only_never_silently_corrupts(program, fault_seed, rates):
    # "full" leans hardest on register retention, so it is the pipeline
    # where an undetected fault would do the most damage.
    reference, _ = run_one(program, "full")
    injector = FaultInjector(fault_seed, rates)
    try:
        outs, _ = run_one(
            program, "full", injector, RecoveryPolicy(enabled=False)
        )
    except InterpreterError:
        return  # detected and raised: the guarantee holds
    for a, b in zip(reference, outs):
        assert (a == b).all(), "undetected fault silently corrupted memory"


@RELAXED
@given(programs(), st.integers(0, 2**32), RATE_MIXES)
def test_fault_schedule_is_reproducible(program, fault_seed, rates):
    first_injector = FaultInjector(fault_seed, rates)
    first_outs, first_sim = run_one(program, "full", first_injector)
    second_injector = FaultInjector(fault_seed, rates)
    second_outs, second_sim = run_one(program, "full", second_injector)
    assert first_injector.schedule() == second_injector.schedule()
    assert first_sim.total_cycles == second_sim.total_cycles
    assert (
        first_sim.recovery_stats.as_dict() == second_sim.recovery_stats.as_dict()
    )
    for a, b in zip(first_outs, second_outs):
        assert (a == b).all()
