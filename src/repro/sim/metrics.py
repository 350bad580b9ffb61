"""Run metrics: everything the roofline analysis and the experiments read
out of one co-simulated program execution."""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instructions import InstrCategory
from ..isa.trace import TraceStats
from .cosim import CoSimulator


@dataclass(frozen=True)
class RunMetrics:
    """Aggregated measurements of one program run on one accelerator."""

    accelerator: str
    peak_ops_per_cycle: float
    total_cycles: float
    total_ops: int
    config_bytes: int
    memory_bytes: int
    setup_instrs: int
    calc_instrs: int
    setup_cycles: float
    calc_cycles: float
    launch_count: int
    accel_busy_cycles: float
    host_stall_cycles: float

    # -- derived roofline quantities ----------------------------------------

    @property
    def performance(self) -> float:
        """Achieved ops/cycle."""
        return self.total_ops / self.total_cycles if self.total_cycles else 0.0

    @property
    def utilization(self) -> float:
        """Achieved fraction of peak performance."""
        return self.performance / self.peak_ops_per_cycle

    @property
    def operational_intensity(self) -> float:
        """Measured I_operational in ops/byte of data movement (Eq. 1/5);
        infinite when the workload moves no modeled memory traffic."""
        if self.memory_bytes == 0:
            return float("inf")
        return self.total_ops / self.memory_bytes

    @property
    def operation_to_config_intensity(self) -> float:
        """Measured I_OC in ops/byte."""
        if self.config_bytes == 0:
            return float("inf")
        return self.total_ops / self.config_bytes

    @property
    def effective_config_bandwidth(self) -> float:
        """Measured BW_config,eff (Eq. 4) in bytes/cycle."""
        denominator = self.setup_cycles + self.calc_cycles
        if denominator == 0:
            return float("inf")
        return self.config_bytes / denominator

    @property
    def theoretical_config_bandwidth(self) -> float:
        if self.setup_cycles == 0:
            return float("inf")
        return self.config_bytes / self.setup_cycles

    @property
    def config_cycles(self) -> float:
        return self.setup_cycles + self.calc_cycles


def collect_metrics(sim: CoSimulator, accelerator: str) -> RunMetrics:
    """Summarize a finished co-simulation for one accelerator."""
    device = sim.device(accelerator)
    stats: TraceStats = sim.trace.stats(sim.cost_model, accelerator)
    launch_cycles = stats.cycles_by_category.get(InstrCategory.LAUNCH, 0.0)
    return RunMetrics(
        accelerator=accelerator,
        peak_ops_per_cycle=device.spec.peak_ops_per_cycle,
        total_cycles=sim.total_cycles,
        total_ops=device.total_ops,
        config_bytes=stats.config_bytes,
        memory_bytes=device.total_memory_bytes,
        setup_instrs=stats.setup_instrs,
        calc_instrs=stats.calc_instrs,
        # Launch instructions convey (launch-semantic) configuration and are
        # counted as configuration time, as the paper does for Gemmini's
        # launch-semantic RoCC sequences.
        setup_cycles=stats.setup_cycles + launch_cycles,
        calc_cycles=stats.calc_cycles,
        launch_count=device.launch_count,
        accel_busy_cycles=device.busy_cycles,
        host_stall_cycles=sim.host_stall_cycles,
    )
