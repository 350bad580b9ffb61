"""Instruction traces and their statistics.

A :class:`Trace` accumulates every host instruction the co-simulation
charges, in order.  :class:`TraceStats` aggregates the counts the paper's
evaluation reports: setup vs. calc instruction counts, configuration bytes,
and the derived effective configuration bandwidth (Eq. 4).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable

from .instructions import HostCostModel, Instr, InstrCategory


@dataclass
class Trace:
    """An append-only log of executed host instructions."""

    instrs: list[Instr] = field(default_factory=list)
    #: id(record) -> record for the records the charging paths entered as
    #: they counted them (a shared stream's with its first charge, any
    #: other record with its count); the table holds each record, so its
    #: id cannot be reused.  :meth:`stats` reads counted records back from
    #: it.
    records: dict[int, Instr] = field(
        default_factory=dict, compare=False, repr=False
    )
    #: id(stream) -> [stream, times charged] of each shared stream the
    #: charging paths count as a whole (:meth:`stream_counter`)
    streams: dict[int, list] = field(default_factory=dict, compare=False, repr=False)
    #: id(record) -> times charged, of the records counted one by one
    #: (:meth:`add_counts`)
    counts: dict[int, int] = field(default_factory=dict, compare=False, repr=False)

    # -- counting as charges pass -------------------------------------------
    #
    # Every path that appends records to ``instrs`` through a simulator
    # also counts them here, so :meth:`stats` need not count the trace.
    # A record appended any other way is not counted, and the counts then
    # fall short of the trace: :meth:`counted` notices and :meth:`stats`
    # counts the trace instead.

    def stream_counter(self, stream: tuple[Instr, ...]) -> list:
        """The ``[stream, times charged]`` cell of a shared stream, for the
        charging path to bump on every charge; the stream's records enter
        the record table with the first call."""
        cell = self.streams.get(id(stream))
        if cell is None:
            cell = self.streams[id(stream)] = [stream, 0]
            self.records.update(zip(map(id, stream), stream))
        return cell

    def add_counts(self, counted: Iterable[tuple[Instr, int]]) -> None:
        """Count each ``(record, times)`` pair and enter the record."""
        counts = self.counts
        records = self.records
        for instr, times in counted:
            key = id(instr)
            counts[key] = counts.get(key, 0) + times
            records[key] = instr

    def counted(self) -> dict[int, int] | None:
        """id(record) -> times charged, from the counts kept as charges
        passed, or None where they do not account for every record of
        ``instrs`` (a trace built with :meth:`append`/:meth:`extend`)."""
        counts = dict(self.counts)
        for stream, times in self.streams.values():
            if times:
                for instr in stream:
                    key = id(instr)
                    counts[key] = counts.get(key, 0) + times
        if sum(counts.values()) != len(self.instrs):
            return None
        return counts

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
        # Engines append the same record object over and over, so the
        # statistics aggregate once per distinct record, from the counts
        # kept as the records were charged.  A trace the counts do not
        # cover (built with ``append``/``extend``) is counted by identity
        # in one pass (in C) instead.
        repeats = self.counted()
        record_of = self.records
        if repeats is None:
            instrs = self.instrs
            repeats = Counter(map(id, instrs))
            record_of = dict(zip(map(id, instrs), instrs))
        counts = dict.fromkeys(InstrCategory, 0)
        config_bytes = 0
        for key, k in repeats.items():
            instr = record_of[key]
            owner = instr.accelerator
            if accelerator is not None and owner not in (None, accelerator):
                continue
            counts[instr.category] += k
            if instr.config_bytes and accelerator in (None, owner):
                config_bytes += instr.config_bytes * k
        # The cost model prices a record by its category, so a category
        # sums the same equal terms as a sum over the trace in order.
        cycles_of = cost_model.cycles_by_category
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
                category: sum(repeat(cycles_of[category], k))
                for category, k in counts.items()
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
