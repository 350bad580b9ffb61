"""Fuzzer self-test: prove the oracles catch a miscompiling pass.

A correctness harness that never fires is indistinguishable from one that
cannot fire.  This module injects a *deliberately broken* configuration
deduplication — a mutation that additionally deletes the last field of
every multi-field setup, i.e. an over-aggressive redundant-field
elimination — runs the fuzzer against it, and checks the full loop:

1. the functional oracle reports a divergence,
2. the shrinker reduces the case,
3. the written ``.mlir`` reproducer replays to the same failure.

``python -m repro fuzz --selftest`` (and the CI smoke job) run this; it
exits non-zero if the broken pass somehow *survives* the oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dialects import accfg
from ..ir.operation import Operation
from ..passes import PassManager
from ..passes.dedup import DedupPass
from ..passes.trace_states import TraceStatesPass
from .corpus import replay
from .fuzz import FuzzReport, fuzz


class BrokenDedupPass(DedupPass):
    """Configuration deduplication with an injected miscompile.

    After the real dedup runs, the mutation drops the last field of every
    setup that writes more than one — as if the redundant-field analysis
    wrongly proved it dead.  Programs whose semantics depend on that field
    (most partial reconfigurations) silently compute wrong results, which
    is exactly the class of bug the differential oracles must catch.
    """

    name = "accfg-dedup-broken"

    def apply(self, module: Operation, analyses=None) -> None:
        super().apply(module, analyses)
        for op in module.walk():
            if isinstance(op, accfg.SetupOp) and len(op.field_names) > 1:
                op.set_fields(list(op.fields[:-1]))


def broken_dedup_pipeline() -> PassManager:
    """The ``dedup`` pipeline with the miscompiling pass swapped in."""
    return PassManager([TraceStatesPass(), BrokenDedupPass()])


@dataclass
class SelftestResult:
    report: FuzzReport
    caught: bool
    replayed: bool

    @property
    def ok(self) -> bool:
        return self.caught and self.replayed

    def summary(self) -> str:
        lines = [self.report.summary(), ""]
        lines.append(
            "selftest: broken dedup "
            + ("CAUGHT" if self.caught else "NOT caught — oracle gap!")
        )
        if self.caught:
            lines.append(
                "selftest: reproducer "
                + ("replays to the same failure" if self.replayed else "does NOT replay!")
            )
        return "\n".join(lines)


def run_selftest(
    seed: int = 0,
    iterations: int = 25,
    corpus_dir: str | None = None,
    backends: tuple[str, ...] = ("toyvec",),
) -> SelftestResult:
    """Fuzz the broken pipeline; the run *succeeds* when a failure is found
    and its shrunk reproducer replays."""
    from ..passes import PIPELINES

    pipelines = {
        "none": PIPELINES["none"],
        "baseline": PIPELINES["baseline"],
        "dedup-broken": broken_dedup_pipeline,
    }
    report = fuzz(
        seed=seed,
        iterations=iterations,
        backends=backends,
        pipelines=pipelines,
        corpus_dir=corpus_dir,
        max_failures=1,
    )
    caught = any(
        finding.failure.pipeline == "dedup-broken" for finding in report.failures
    )
    replayed = False
    if caught:
        finding = report.failures[0]
        if finding.reproducer_path:
            observed = replay(
                finding.reproducer_path, pipelines={"dedup-broken": broken_dedup_pipeline}
            )
            replayed = any(
                f.oracle == finding.failure.oracle
                and f.pipeline == finding.failure.pipeline
                for f in observed
            )
        else:  # corpus writing disabled: count the in-memory shrink as success
            replayed = True
    return SelftestResult(report=report, caught=caught, replayed=replayed)
