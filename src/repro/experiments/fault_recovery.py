"""Beyond the paper: the configuration cost of resilience.

The paper eliminates configuration overhead under the assumption that the
config plane is reliable: a register, once written, stays written.  The
``repro.faults`` runtime drops that assumption — here the device loses its
retained state at seed-scheduled points (power-gating / reset faults) and
the recovery runtime must re-establish configuration before the next
launch can run.  This experiment measures what that resilience costs in
exactly the paper's currency, configuration bytes, and how much of the
paper's optimization benefit survives:

* ``minimal`` re-setup restores only the registers the rest of the program
  still relies on (``ReliancePlan``: register liveness intersected with the
  host's shadow copy);
* ``full`` re-setup replays the host's entire shadow register file — the
  straightforward recovery strategy;
* the ``baseline`` pipeline (no dedup/hoisting) with minimal re-setup shows
  that an unoptimized program is *implicitly* resilient: it rewrites every
  field per invocation anyway, so state loss costs it almost nothing extra
  — it simply pays the configuration wall on every iteration instead.

Both strategies run under the *same* fault seed on the *same* optimized
module, so their state-loss schedules are identical interaction for
interaction and the config-byte totals are directly comparable.  The
invariant this experiment asserts (and CI rechecks) is that minimal-diff
re-setup issues strictly fewer configuration bytes than full re-setup at
every swept fault rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backends import get_accelerator
from ..core import (
    ascii_roofline,
    format_series,
    point_from_metrics,
    roofline_for_spec,
)
from ..engine import run_module_traced
from ..faults import FaultInjector, FaultRates, RecoveryPolicy, ReliancePlan
from ..ioutil import atomic_write_json
from ..passes import pipeline_by_name
from ..sim import CoSimulator
from ..sim.metrics import collect_metrics
from ..workloads.matmul import build_opengemm_matmul

#: swept per-setup-interaction probabilities of retained-state loss
DEFAULT_RATES = (0.02, 0.05, 0.1, 0.2, 0.5)
QUICK_RATES = (0.1, 0.5)

DEFAULT_SIZE = 32
QUICK_SIZE = 16

#: one fixed fault seed: strategies compared on identical loss schedules
FAULT_SEED = 5

#: (configuration label, pipeline, re-setup strategy)
CONFIGURATIONS = (
    ("optimized+minimal", "full", "minimal"),
    ("optimized+full", "full", "full"),
    ("baseline+minimal", "baseline", "minimal"),
)


@dataclass(frozen=True)
class RecoveryRun:
    """One (fault rate, pipeline, re-setup strategy) measurement."""

    configuration: str
    pipeline: str
    resetup: str
    rate: float
    config_bytes: int
    total_cycles: float
    performance: float
    i_oc: float
    state_losses: int
    resetup_fields: int
    resetup_known_fields: int
    resetup_bytes: int
    correct: bool

    def as_dict(self) -> dict:
        return {
            "configuration": self.configuration,
            "pipeline": self.pipeline,
            "resetup": self.resetup,
            "rate": self.rate,
            "config_bytes": self.config_bytes,
            "total_cycles": self.total_cycles,
            "performance": self.performance,
            "operation_to_config_intensity": self.i_oc,
            "state_losses": self.state_losses,
            "resetup_fields": self.resetup_fields,
            "resetup_known_fields": self.resetup_known_fields,
            "resetup_bytes": self.resetup_bytes,
            "correct": self.correct,
        }


def run_one(
    size: int, pipeline: str, resetup: str, rate: float, label: str
) -> RecoveryRun:
    """Optimize a fresh workload, run it under seeded state-loss faults with
    the given re-setup strategy, and verify the product is still correct."""
    workload = build_opengemm_matmul(size)
    pipeline_by_name(pipeline).run(workload.module)
    spec = get_accelerator(workload.accelerator)
    injector = None
    recovery = None
    reliance = None
    if rate > 0.0:
        injector = FaultInjector(FAULT_SEED, FaultRates(state_loss=rate))
        recovery = RecoveryPolicy(resetup=resetup)
        reliance = ReliancePlan(workload.module)
    sim = CoSimulator(
        memory=workload.memory,
        cost_model=spec.host_cost_model(),
        faults=injector,
        recovery=recovery,
        reliance=reliance,
    )
    run_module_traced(workload.module, sim, args=workload.main_args)
    metrics = collect_metrics(sim, workload.accelerator)
    stats = sim.recovery_stats
    return RecoveryRun(
        configuration=label,
        pipeline=pipeline,
        resetup=resetup,
        rate=rate,
        config_bytes=metrics.config_bytes,
        total_cycles=metrics.total_cycles,
        performance=metrics.performance,
        i_oc=metrics.operation_to_config_intensity,
        state_losses=stats.state_losses if stats else 0,
        resetup_fields=stats.resetup_fields if stats else 0,
        resetup_known_fields=stats.resetup_known_fields if stats else 0,
        resetup_bytes=stats.resetup_bytes if stats else 0,
        correct=workload.check(),
    )


def run(
    size: int = DEFAULT_SIZE, rates: tuple[float, ...] = DEFAULT_RATES
) -> list[RecoveryRun]:
    """The full sweep: fault-free references plus every (rate, strategy)."""
    runs: list[RecoveryRun] = []
    for label, pipeline, resetup in CONFIGURATIONS:
        runs.append(run_one(size, pipeline, resetup, 0.0, label))
    for rate in rates:
        for label, pipeline, resetup in CONFIGURATIONS:
            runs.append(run_one(size, pipeline, resetup, rate, label))
    _check_invariants(runs, rates)
    return runs


def _check_invariants(
    runs: list[RecoveryRun], rates: tuple[float, ...]
) -> None:
    """The acceptance invariants; a violation is an experiment failure."""
    by_key = {(r.configuration, r.rate): r for r in runs}
    for run_ in runs:
        if not run_.correct:
            raise RuntimeError(
                f"{run_.configuration} at rate {run_.rate} produced a wrong "
                "product — recovery is unsound"
            )
    for rate in rates:
        minimal = by_key[("optimized+minimal", rate)]
        full = by_key[("optimized+full", rate)]
        if minimal.state_losses == 0:
            raise RuntimeError(
                f"no state loss fired at rate {rate}; the sweep point "
                "measures nothing — raise the rate or the workload size"
            )
        if minimal.state_losses != full.state_losses:
            raise RuntimeError(
                f"loss schedules diverged at rate {rate}: minimal saw "
                f"{minimal.state_losses}, full saw {full.state_losses}"
            )
        if not minimal.config_bytes < full.config_bytes:
            raise RuntimeError(
                f"minimal re-setup issued {minimal.config_bytes} config "
                f"bytes vs full's {full.config_bytes} at rate {rate} — "
                "expected strictly fewer"
            )


def results_doc(size: int, runs: list[RecoveryRun]) -> dict:
    return {
        "experiment": "fault-recovery",
        "workload": f"opengemm matmul {size}x{size}",
        "fault_seed": FAULT_SEED,
        "runs": [r.as_dict() for r in runs],
    }


def main(
    quick: bool = False, out: str | None = "fault_recovery.json"
) -> None:
    size = QUICK_SIZE if quick else DEFAULT_SIZE
    rates = QUICK_RATES if quick else DEFAULT_RATES
    runs = run(size, rates)

    print(
        f"Recovery config overhead: opengemm matmul {size}x{size}, "
        f"state-loss faults, seed {FAULT_SEED}"
    )
    header = (
        "rate",
        "configuration",
        "losses",
        "restored",
        "of-which-dedup",
        "cfg-bytes",
        "cycles",
        "perf",
    )
    rows = [
        (
            r.rate,
            r.configuration,
            r.state_losses,
            r.resetup_fields,
            r.resetup_known_fields,
            r.config_bytes,
            r.total_cycles,
            r.performance,
        )
        for r in runs
    ]
    print(format_series(header, rows))

    reference = {r.configuration: r for r in runs if r.rate == 0.0}
    print()
    print("Re-setup overhead vs fault-free run (config bytes):")
    for r in runs:
        if r.rate == 0.0:
            continue
        base = reference[r.configuration].config_bytes
        extra = r.config_bytes - base
        pct = 100.0 * extra / base if base else 0.0
        print(
            f"  rate {r.rate:>4}: {r.configuration:18s} "
            f"+{extra:6d} bytes ({pct:6.1f}%)"
        )

    spec = get_accelerator("opengemm")
    roofline = roofline_for_spec(spec, spec.host_cost_model())
    worst = max((r for r in runs if r.rate > 0.0), key=lambda r: r.rate)
    points = []
    for label, _, _ in CONFIGURATIONS:
        for r in runs:
            if r.configuration == label and r.rate == worst.rate:
                metrics_label = f"{label} @ {r.rate}"
                points.append(
                    point_from_metrics(
                        _FakeMetrics(r.i_oc, r.performance), metrics_label
                    )
                )
    print()
    print(f"Roofline placement at the highest swept rate ({worst.rate}):")
    print(ascii_roofline(roofline, points))

    if out:
        atomic_write_json(out, results_doc(size, runs))
        print(f"\nresults written to {out}")


class _FakeMetrics:
    """Adapter: a (intensity, performance) pair for point_from_metrics."""

    accelerator = "opengemm"

    def __init__(self, i_oc: float, performance: float) -> None:
        self.operation_to_config_intensity = i_oc
        self.performance = performance


if __name__ == "__main__":
    import sys

    main(quick="--quick" in sys.argv[1:])
