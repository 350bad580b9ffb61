"""The seeded fault-injection correctness campaign (``python -m repro faults``).

For each (iteration, backend, pipeline) the campaign builds one random
program (the same generator the fuzzer uses), optimizes it, and runs it four
ways against the *same* deterministic fault schedule:

1. **fault-free** — the reference: results, final memory image, launch
   counts;
2. **recovery, tree engine** — faults injected, recovery enabled; must match
   the reference memory image, results, and launch semantics exactly;
3. **recovery, trace engine** — same fault seed under the compiled trace
   engine; must be bit-identical to the tree run (results, cycles,
   instruction trace, timeline, memory, *and* the fired-fault schedule);
4. **detect-only** — recovery disabled; any injected fault either raises a
   loc-tagged ``InterpreterError`` or leaves the run bit-equal to the
   reference (a dropped write that re-wrote the value already present is
   harmless) — faulted execution never silently corrupts memory.

The fault schedule is a pure function of the fault seed (see
:mod:`repro.faults.model`), so re-running a campaign with the same seed
reproduces the same schedule byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..engine.compiler import compile_module
from ..engine.executor import TraceExecutor
from ..interp.interpreter import Interpreter, InterpreterError
from ..passes.pipeline import PIPELINES
from ..sim.cosim import CoSimulator
from ..testing.fuzz import program_seed
from ..testing.generator import PROFILES, build_memory, build_spec, generate_spec
from .model import FaultInjector, FaultRates
from .recovery import RecoveryPolicy, RecoveryStats, ReliancePlan

#: moderate default rates: every fault kind fires regularly over a campaign,
#: while bounded retry (8 attempts) makes unrecoverable pile-ups vanishingly
#: rare — a seeded campaign is expected to come back clean
DEFAULT_RATES = FaultRates(
    drop_write=0.05,
    corrupt_write=0.05,
    launch_reject=0.05,
    await_stall=0.05,
    state_loss=0.05,
)


@dataclass(frozen=True)
class CampaignFinding:
    """One violated guarantee."""

    backend: str
    iteration: int
    pipeline: str
    stage: str  # fault-free | recovery | trace-vs-tree | schedule | detect-only
    detail: str

    def render(self) -> str:
        return (
            f"[{self.stage}] {self.backend} iteration {self.iteration} "
            f"pipeline {self.pipeline}: {self.detail}"
        )


@dataclass
class CampaignReport:
    """Aggregate outcome of one fault campaign."""

    seed: int
    iterations: int
    backends: tuple[str, ...]
    pipelines: tuple[str, ...]
    runs: int = 0
    faults_injected: int = 0
    recovery_totals: RecoveryStats = field(default_factory=RecoveryStats)
    findings: list[CampaignFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        totals = self.recovery_totals
        lines = [
            f"fault campaign: seed {self.seed}, {self.iterations} iterations, "
            f"backends {', '.join(self.backends)}, "
            f"pipelines {', '.join(self.pipelines)}",
            f"  runs:             {self.runs}",
            f"  faults injected:  {self.faults_injected}",
            f"  write faults:     {totals.write_faults} "
            f"({totals.write_retries} retries)",
            f"  launch rejects:   {totals.launch_rejects}",
            f"  await stalls:     {totals.await_stalls} "
            f"({totals.watchdog_polls} watchdog polls)",
            f"  state losses:     {totals.state_losses} "
            f"({totals.resetup_fields} fields re-issued, "
            f"{totals.resetup_bytes} config bytes)",
            f"  degradations:     {totals.degradations}",
            f"  findings:         {len(self.findings)}",
        ]
        for finding in self.findings:
            lines.append(f"    {finding.render()}")
        return "\n".join(lines)


def _accumulate(totals: RecoveryStats, stats: RecoveryStats | None) -> None:
    if stats is None:
        return
    for name, value in stats.as_dict().items():
        setattr(totals, name, getattr(totals, name) + value)


def _memory_divergence(reference, candidate) -> str | None:
    for index, (a, b) in enumerate(zip(reference.buffers, candidate.buffers)):
        if a.array.shape != b.array.shape or not (a.array == b.array).all():
            return f"memory images diverge in buffer #{index}"
    return None


def _launch_counts(sim: CoSimulator) -> dict[str, int]:
    return {name: device.launch_count for name, device in sim.devices.items()}


def run_campaign(
    seed: int = 0,
    iterations: int = 100,
    backends: list[str] | None = None,
    pipelines: list[str] | None = None,
    rates: FaultRates | None = None,
    policy: RecoveryPolicy | None = None,
    max_findings: int = 10,
    on_progress=None,
) -> CampaignReport:
    """Run the campaign; returns the aggregate report."""
    backends = list(backends) if backends else sorted(PROFILES)
    pipeline_names = list(pipelines) if pipelines else sorted(PIPELINES)
    rates = rates if rates is not None else DEFAULT_RATES
    policy = policy if policy is not None else RecoveryPolicy()
    report = CampaignReport(
        seed, iterations, tuple(backends), tuple(pipeline_names)
    )
    for iteration in range(iterations):
        for backend in backends:
            pseed = program_seed(seed, backend, iteration)
            spec = generate_spec(random.Random(pseed), backend)
            for name in pipeline_names:
                finding = _check_one(
                    report, spec, backend, iteration, name, pseed, rates, policy
                )
                if finding is not None:
                    report.findings.append(finding)
                    if len(report.findings) >= max_findings:
                        return report
        if on_progress is not None:
            on_progress(iteration + 1, report)
    return report


def _check_one(
    report: CampaignReport,
    spec,
    backend: str,
    iteration: int,
    pipeline_name: str,
    pseed: int,
    rates: FaultRates,
    policy: RecoveryPolicy,
) -> CampaignFinding | None:
    def finding(stage: str, detail: str) -> CampaignFinding:
        return CampaignFinding(backend, iteration, pipeline_name, stage, detail)

    # -- build + optimize once; every run shares this module ---------------
    try:
        built = build_spec(spec, memory_seed=pseed)
        module, args = built.module, built.args
        PIPELINES[pipeline_name]().run(module)
    except Exception as error:  # noqa: BLE001 - any crash is a finding
        return finding("fault-free", f"build/optimize crashed: {error}")

    def fresh_memory():
        return build_memory(backend, pseed)[0]

    # -- 1. fault-free reference ------------------------------------------
    try:
        ref_memory = fresh_memory()
        ref_sim = CoSimulator(memory=ref_memory)
        ref_results = Interpreter(module, ref_sim).run("main", list(args))
    except Exception as error:  # noqa: BLE001
        return finding("fault-free", f"reference run crashed: {error}")
    ref_launches = _launch_counts(ref_sim)
    report.runs += 1

    plan = ReliancePlan(module)

    # -- 2. faulted + recovery under the tree interpreter -------------------
    tree_injector = FaultInjector(pseed, rates)
    try:
        tree_memory = fresh_memory()
        tree_sim = CoSimulator(
            memory=tree_memory,
            faults=tree_injector,
            recovery=policy,
            reliance=plan,
        )
        tree_results = Interpreter(module, tree_sim).run("main", list(args))
    except Exception as error:  # noqa: BLE001
        return finding(
            "recovery",
            f"recovery-enabled tree run raised {type(error).__name__}: {error}",
        )
    report.runs += 1
    report.faults_injected += len(tree_injector.log)
    _accumulate(report.recovery_totals, tree_sim.recovery_stats)
    if tree_results != ref_results:
        return finding(
            "recovery", f"results {tree_results} != fault-free {ref_results}"
        )
    if _launch_counts(tree_sim) != ref_launches:
        return finding(
            "recovery",
            f"launch counts {_launch_counts(tree_sim)} != "
            f"fault-free {ref_launches}",
        )
    divergence = _memory_divergence(ref_memory, tree_memory)
    if divergence is not None:
        return finding("recovery", f"vs fault-free run: {divergence}")

    # -- 3. same fault seed under the compiled trace engine ----------------
    trace_injector = FaultInjector(pseed, rates)
    try:
        compiled = compile_module(module)
        trace_memory = fresh_memory()
        trace_sim = CoSimulator(
            memory=trace_memory,
            faults=trace_injector,
            recovery=policy,
            reliance=plan,
        )
        trace_results = TraceExecutor(compiled, trace_sim).run(
            "main", list(args)
        )
    except Exception as error:  # noqa: BLE001
        return finding(
            "trace-vs-tree",
            f"recovery-enabled trace run raised {type(error).__name__}: "
            f"{error} where the tree run succeeded",
        )
    report.runs += 1
    problems: list[str] = []
    if trace_results != tree_results:
        problems.append(f"results {trace_results} != {tree_results}")
    if trace_sim.total_cycles != tree_sim.total_cycles:
        problems.append(
            f"total cycles {trace_sim.total_cycles:g} != "
            f"{tree_sim.total_cycles:g}"
        )
    if trace_sim.trace.instrs != tree_sim.trace.instrs:
        problems.append("instruction traces diverge")
    if trace_sim.timeline.spans != tree_sim.timeline.spans:
        problems.append("timelines diverge")
    if _launch_counts(trace_sim) != _launch_counts(tree_sim):
        problems.append("launch counts diverge")
    memory_problem = _memory_divergence(tree_memory, trace_memory)
    if memory_problem is not None:
        problems.append(memory_problem)
    if trace_sim.recovery_stats.as_dict() != tree_sim.recovery_stats.as_dict():
        problems.append(
            f"recovery stats {trace_sim.recovery_stats.as_dict()} != "
            f"{tree_sim.recovery_stats.as_dict()}"
        )
    if problems:
        return finding("trace-vs-tree", "; ".join(problems))
    if trace_injector.schedule() != tree_injector.schedule():
        return finding(
            "schedule",
            "fault schedules diverge between engines: "
            f"{trace_injector.schedule()} != {tree_injector.schedule()}",
        )

    # -- 4. detection without recovery never silently corrupts -------------
    detect_injector = FaultInjector(pseed, rates)
    detect_policy = RecoveryPolicy(
        enabled=False,
        max_retries=policy.max_retries,
        backoff_base=policy.backoff_base,
        backoff_factor=policy.backoff_factor,
        resetup=policy.resetup,
        degrade_after=policy.degrade_after,
    )
    try:
        detect_memory = fresh_memory()
        detect_sim = CoSimulator(
            memory=detect_memory,
            faults=detect_injector,
            recovery=detect_policy,
            reliance=plan,
        )
        detect_results = Interpreter(module, detect_sim).run("main", list(args))
    except InterpreterError:
        return None  # detected and raised: the guarantee holds
    except Exception as error:  # noqa: BLE001
        return finding(
            "detect-only",
            f"raised {type(error).__name__} instead of InterpreterError: "
            f"{error}",
        )
    report.runs += 1
    # No fault was *detected*; the run must then be equal to the reference.
    if detect_results != ref_results:
        return finding(
            "detect-only",
            f"silent corruption: results {detect_results} != {ref_results}",
        )
    divergence = _memory_divergence(ref_memory, detect_memory)
    if divergence is not None:
        return finding("detect-only", f"silent corruption: {divergence}")
    return None
