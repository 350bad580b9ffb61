"""Tests for the differential oracles (repro.testing.oracles)."""

import random

from repro.dialects import accfg
from repro.passes import PIPELINES, PassManager
from repro.passes.pass_manager import ModulePass
from repro.testing import (
    BASELINE_PIPELINES,
    broken_dedup_pipeline,
    check_subject,
    generate_spec,
    run_one,
    subject_for_spec,
    timing_slack,
)


def subject(seed: int = 0, backend: str = "toyvec"):
    spec = generate_spec(random.Random(seed), backend)
    return subject_for_spec(spec, memory_seed=seed)


class _PessimizePass(ModulePass):
    """Chain N redundant copies of the first non-empty setup: functionally
    a no-op (same values rewritten), but strictly slower."""

    name = "test-pessimize"

    def __init__(self, copies: int = 64) -> None:
        self.copies = copies

    def apply(self, module, analyses=None) -> None:
        for op in module.walk():
            if isinstance(op, accfg.SetupOp) and op.fields:
                prev = op
                for _ in range(self.copies):
                    clone = accfg.SetupOp.create(
                        op.accelerator, list(op.fields), in_state=prev.out_state
                    )
                    op.parent.insert_op_after(prev, clone)
                    prev = clone
                return


class _ForkStatePass(ModulePass):
    """Clone the first chained setup with the SAME input state: introduces a
    forked state chain (ACCFG004, error severity) without changing any
    register value the program observes."""

    name = "test-fork-state"

    def apply(self, module, analyses=None) -> None:
        for op in module.walk():
            if isinstance(op, accfg.SetupOp) and op.in_state is not None:
                clone = accfg.SetupOp.create(
                    op.accelerator, list(op.fields), in_state=op.in_state
                )
                op.parent.insert_op_after(op, clone)
                return


class TestCleanSubjects:
    def test_registered_pipelines_all_pass(self):
        for seed in range(5):
            for backend in ("toyvec", "gemmini", "opengemm"):
                failures = check_subject(subject(seed, backend))
                assert failures == [], [f.format() for f in failures]

    def test_run_one_returns_outcome_for_unoptimized(self):
        outcome = run_one(subject(), None)
        assert not hasattr(outcome, "oracle")
        assert outcome.total_cycles > 0
        assert outcome.image


class TestFunctionalOracle:
    def test_broken_dedup_is_caught(self):
        pipelines = {
            "none": PIPELINES["none"],
            "baseline": PIPELINES["baseline"],
            "dedup-broken": broken_dedup_pipeline,
        }
        caught = False
        for seed in range(30):
            failures = check_subject(subject(seed), pipelines)
            if any(
                f.oracle == "functional" and f.pipeline == "dedup-broken"
                for f in failures
            ):
                caught = True
                break
        assert caught, "functional oracle never fired on the broken dedup"


class TestTimingOracle:
    def test_pessimizing_pipeline_is_caught(self):
        pipelines = {
            "none": PIPELINES["none"],
            "baseline": PIPELINES["baseline"],
            "pessimized": lambda: PassManager([_PessimizePass()]),
        }
        caught = False
        for seed in range(10):
            failures = check_subject(subject(seed), pipelines)
            if any(
                f.oracle == "timing" and f.pipeline == "pessimized"
                for f in failures
            ):
                caught = True
                break
        assert caught, "timing oracle never fired on the pessimizer"

    def test_baseline_class_pipelines_are_exempt(self):
        assert {"none", "baseline", "volatile-baseline", "licm"} <= set(
            BASELINE_PIPELINES
        )

    def test_slack_scales_with_zero_trip_sites(self):
        assert timing_slack(0) < timing_slack(1) < timing_slack(2)


class TestLintOracle:
    def test_introduced_fork_error_is_caught(self):
        pipelines = {
            "none": PIPELINES["none"],
            "baseline": PIPELINES["baseline"],
            "forked": lambda: PassManager(
                [*PIPELINES["dedup"]().passes, _ForkStatePass()]
            ),
        }
        caught = False
        for seed in range(20):
            failures = check_subject(subject(seed), pipelines, timing=False)
            if any(
                f.oracle == "lint"
                and f.pipeline == "forked"
                and "ACCFG004" in f.message
                for f in failures
            ):
                caught = True
                break
        assert caught, "lint oracle never fired on the forked state chain"


class TestCrashOracle:
    def test_crashing_pass_reported_with_stage(self):
        class Boom(ModulePass):
            name = "test-boom"

            def apply(self, module, analyses=None) -> None:
                raise RuntimeError("kaboom")

        pipelines = {
            "none": PIPELINES["none"],
            "boom": lambda: PassManager([Boom()]),
        }
        failures = check_subject(subject(), pipelines, timing=False)
        crash = [f for f in failures if f.pipeline == "boom"]
        assert len(crash) == 1
        assert crash[0].oracle == "crash"
        assert "optimize" in crash[0].message
        assert "kaboom" in crash[0].message
