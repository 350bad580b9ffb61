"""Instruction traces and their statistics.

A :class:`Trace` accumulates every host instruction the co-simulation
charges, in order.  :class:`TraceStats` aggregates the counts the paper's
evaluation reports: setup vs. calc instruction counts, configuration bytes,
and the derived effective configuration bandwidth (Eq. 4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat

from .instructions import HostCostModel, Instr, InstrCategory


@dataclass
class Trace:
    """An append-only log of executed host instructions."""

    instrs: list[Instr] = field(default_factory=list)

    def append(self, instr: Instr) -> None:
        self.instrs.append(instr)

    def extend(self, instrs: list[Instr]) -> None:
        self.instrs.extend(instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    def count(self, category: InstrCategory) -> int:
        return sum(1 for instr in self.instrs if instr.category is category)

    def config_bytes(self, accelerator: str | None = None) -> int:
        return sum(
            instr.config_bytes
            for instr in self.instrs
            if instr.config_bytes
            and (accelerator is None or instr.accelerator == accelerator)
        )

    def stats(
        self,
        cost_model: HostCostModel | None = None,
        accelerator: str | None = None,
    ) -> "TraceStats":
        """Aggregate the trace.

        With ``accelerator`` given, instructions attributed to *another*
        accelerator (setup/launch/sync records carry one) are excluded;
        unattributed host work (calc/compute/control) is always included.
        """
        cost_model = cost_model or HostCostModel()
        # Engines append the same record object over and over, so one pass
        # over the distinct records (counted by identity, in C) replaces a
        # visit per executed instruction.
        instrs = self.instrs
        repeats = Counter(map(id, instrs))
        record_of = dict(zip(map(id, instrs), instrs))
        counts = dict.fromkeys(InstrCategory, 0)
        charged: dict[InstrCategory, list] = {c: [] for c in InstrCategory}
        config_bytes = 0
        for key, k in repeats.items():
            instr = record_of[key]
            owner = instr.accelerator
            if accelerator is not None and owner not in (None, accelerator):
                continue
            category = instr.category
            counts[category] += k
            # The cost model prices a record by its category, so a category
            # sums the same equal terms as a sum over the trace in order.
            charged[category].append(repeat(cost_model.cycles(instr), k))
            if instr.config_bytes and accelerator in (None, owner):
                config_bytes += instr.config_bytes * k
        return TraceStats(
            total_instrs=sum(counts.values()),
            setup_instrs=counts[InstrCategory.SETUP],
            calc_instrs=counts[InstrCategory.CALC],
            compute_instrs=counts[InstrCategory.COMPUTE],
            control_instrs=counts[InstrCategory.CONTROL],
            launch_instrs=counts[InstrCategory.LAUNCH],
            sync_instrs=counts[InstrCategory.SYNC],
            config_bytes=config_bytes,
            cycles_by_category={
                category: sum(chain.from_iterable(runs))
                for category, runs in charged.items()
            },
        )


@dataclass(frozen=True)
class TraceStats:
    """Aggregated instruction accounting for one program run."""

    total_instrs: int
    setup_instrs: int
    calc_instrs: int
    compute_instrs: int
    control_instrs: int
    launch_instrs: int
    sync_instrs: int
    config_bytes: int
    cycles_by_category: dict[InstrCategory, float]

    @property
    def setup_cycles(self) -> float:
        return self.cycles_by_category.get(InstrCategory.SETUP, 0.0)

    @property
    def calc_cycles(self) -> float:
        return self.cycles_by_category.get(InstrCategory.CALC, 0.0)

    def effective_config_bandwidth(self) -> float:
        """Eq. 4: bytes / (time to compute them + time to set them)."""
        denominator = self.setup_cycles + self.calc_cycles
        if denominator == 0:
            return float("inf")
        return self.config_bytes / denominator

    def theoretical_config_bandwidth(self) -> float:
        """Config bytes over register-write time only (ignoring calc)."""
        if self.setup_cycles == 0:
            return float("inf")
        return self.config_bytes / self.setup_cycles
