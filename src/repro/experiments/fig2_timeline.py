"""Figure 2 / Figure 7: the configuration-overhead timeline.

Figure 2 defines configuration overhead as the cycles where neither host nor
accelerator performs useful work; Figure 7 shows how dedup shortens the
configuration bursts and overlap hides them behind accelerator execution.
This experiment measures exactly those quantities on the OpenGeMM tiling
loop and renders the timelines.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backends import get_accelerator
from ..core import format_series
from ..engine import run_module_traced
from ..passes import pipeline_by_name
from ..sim import CoSimulator, SpanKind, Timeline
from ..workloads import build_opengemm_matmul

DEFAULT_SIZE = 16
VARIANTS = ("baseline", "dedup", "full")


@dataclass(frozen=True)
class TimelineBreakdown:
    """Where the cycles of one run went."""

    variant: str
    total_cycles: float
    config_cycles: float  # host writing registers / computing parameters
    host_stall_cycles: float  # host waiting on the accelerator
    accel_busy_cycles: float
    accel_idle_cycles: float  # accelerator waiting on configuration
    timeline: Timeline

    @property
    def overhead_fraction(self) -> float:
        """Fraction of the run during which the accelerator sat idle —
        the paper's configuration overhead of Figure 2."""
        if self.total_cycles == 0:
            return 0.0
        return self.accel_idle_cycles / self.total_cycles


@dataclass(frozen=True)
class Fig2Result:
    size: int
    breakdowns: dict[str, TimelineBreakdown]

    def breakdown(self, variant: str) -> TimelineBreakdown:
        return self.breakdowns[variant]


def measure(size: int, variant: str) -> TimelineBreakdown:
    workload = build_opengemm_matmul(size)
    pipeline_by_name(variant).run(workload.module)
    spec = get_accelerator("opengemm")
    sim = CoSimulator(memory=workload.memory, cost_model=spec.host_cost_model())
    run_module_traced(workload.module, sim)
    if not workload.check():
        raise AssertionError(f"wrong result for variant {variant}")
    timeline = sim.timeline
    config = timeline.busy_time("host", SpanKind.SETUP) + timeline.busy_time(
        "host", SpanKind.CALC
    )
    return TimelineBreakdown(
        variant=variant,
        total_cycles=sim.total_cycles,
        config_cycles=config,
        host_stall_cycles=timeline.busy_time("host", SpanKind.STALL),
        accel_busy_cycles=timeline.busy_time("opengemm", SpanKind.ACCEL),
        accel_idle_cycles=timeline.idle_time("opengemm"),
        timeline=timeline,
    )


def run(size: int = DEFAULT_SIZE) -> Fig2Result:
    return Fig2Result(
        size, {variant: measure(size, variant) for variant in VARIANTS}
    )


def main(size: int = DEFAULT_SIZE) -> None:
    result = run(size)
    print(f"Figure 2/7 — timeline of configuration overhead ({size}x{size} matmul)")
    print(
        format_series(
            (
                "variant",
                "total",
                "config",
                "host stall",
                "accel busy",
                "accel idle",
                "overhead",
            ),
            [
                (
                    b.variant,
                    b.total_cycles,
                    b.config_cycles,
                    b.host_stall_cycles,
                    b.accel_busy_cycles,
                    b.accel_idle_cycles,
                    f"{b.overhead_fraction:.0%}",
                )
                for b in result.breakdowns.values()
            ],
        )
    )
    for variant in VARIANTS:
        breakdown = result.breakdown(variant)
        print(f"\n--- {variant} ---")
        print(breakdown.timeline.render_ascii(width=96))


if __name__ == "__main__":
    main()
