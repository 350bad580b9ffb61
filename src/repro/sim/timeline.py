"""Execution timelines.

Records what the host and each accelerator were doing over time, enabling
Figure-2/Figure-7-style visualizations of configuration overhead: host spans
for configuration, parameter calculation and stalls; accelerator spans for
macro-op execution; and the idle gaps in between.

A simulator's timeline is a log over its instruction trace.  Every host
record the simulator charges implies its own span: the span starts where
the previous host span ended, lasts the record's category's cycles, and
carries the label of the charge that issued it (records of zero cycles
leave none).  The log keeps only what the trace does not imply, and
:attr:`Timeline.spans` replays both into the span list on read.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from ..isa.instructions import HostCostModel, Instr, InstrCategory


class SpanKind(str, Enum):
    SETUP = "setup"  # host writing configuration registers
    CALC = "calc"  # host computing configuration parameters
    COMPUTE = "compute"  # host payload computation / control
    STALL = "stall"  # host waiting for the accelerator
    ACCEL = "accel"  # accelerator executing a macro-op


_GLYPHS = {
    SpanKind.SETUP: "C",
    SpanKind.CALC: "c",
    SpanKind.COMPUTE: "h",
    SpanKind.STALL: ".",
    SpanKind.ACCEL: "X",
}

#: the span each category's host work is drawn as
_SPAN_FOR_CATEGORY = {
    InstrCategory.SETUP: SpanKind.SETUP,
    InstrCategory.CALC: SpanKind.CALC,
    InstrCategory.COMPUTE: SpanKind.COMPUTE,
    InstrCategory.CONTROL: SpanKind.COMPUTE,
    InstrCategory.LAUNCH: SpanKind.SETUP,
    InstrCategory.SYNC: SpanKind.STALL,
}

# Log entries.  Each is tagged and carries the trace position (the number
# of records charged before it) at which it happened.  Only a recorded span
# holds a span kind, an object the collector tracks, so it untracks every
# other entry once it has seen it.
_RUN = 0  # (_RUN, position, end position, label): records under a label
_STALL = 1  # (_STALL, position, end time, label): the host waits
_SPAN = 2  # (_SPAN, position, actor, kind, start, end, label): any other span


class Span(NamedTuple):
    """A half-open interval ``[start, end)`` of activity by one actor.

    A named tuple, so the replay can build one with
    ``tuple.__new__(Span, (...))`` and skip the per-field assignment a
    frozen dataclass pays.
    """

    actor: str  # "host" or accelerator name
    kind: SpanKind
    start: float
    end: float
    label: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """Spans of activity, logged over a run's host instruction trace.

    ``instrs`` is the trace the host's records are appended to (a
    simulator passes its own ``trace.instrs``), priced by ``cost_model``.
    The host clock starts at zero and moves only by those records and by
    :meth:`stall`, which is how :class:`~repro.sim.cosim.CoSimulator`
    moves its own ``host_time``; the replay makes the same sequential
    additions, so every span is the one an eager recording would build.
    """

    def __init__(
        self,
        instrs: list[Instr] | None = None,
        cost_model: HostCostModel | None = None,
    ) -> None:
        self._instrs: list[Instr] = [] if instrs is None else instrs
        self._cost_model = cost_model or HostCostModel()
        self._log: list[tuple] = []
        #: (log length, trace length, spans) of the last replay; the log and
        #: the trace only grow, so equal lengths mean the spans still hold
        self._replayed: tuple[int, int, list[Span]] = (0, 0, [])

    # -- recording -------------------------------------------------------

    def labeled(self, count: int, label: str) -> None:
        """The last ``count`` records of the trace were charged under
        ``label`` (records charged without one carry ``""``)."""
        end = len(self._instrs)
        self._log.append((_RUN, end - count, end, label))

    def stall(self, end: float, label: str = "") -> None:
        """The host waits from its clock until ``end``, which must be
        later."""
        self._log.append((_STALL, len(self._instrs), end, label))

    def record(
        self, actor: str, kind: SpanKind, start: float, end: float, label: str = ""
    ) -> None:
        """Any other span; it does not move the host clock."""
        if end > start:
            self._log.append(
                (_SPAN, len(self._instrs), actor, kind, start, end, label)
            )

    # -- replay ----------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Every span in the order it happened, as a new list."""
        return list(self._replay())

    def _replay(self) -> list[Span]:
        """The spans, replayed only if the log or the trace grew since the
        last replay; the readers share the list and must not mutate it."""
        log_length, trace_length, spans = self._replayed
        if log_length == len(self._log) and trace_length == len(self._instrs):
            return spans
        instrs = self._instrs
        cycles_of = self._cost_model.cycles_by_category
        # (cycles, span kind) of each distinct record by identity, None for
        # a record that takes no time; the trace holds the records, so
        # their ids stay put.
        costs: dict[int, tuple | None] = {}
        for key, instr in dict(zip(map(id, instrs), instrs)).items():
            cycles = cycles_of[instr.category]
            costs[key] = (
                (cycles, _SPAN_FOR_CATEGORY[instr.category]) if cycles > 0 else None
            )
        spans: list[Span] = []
        time = 0.0
        done = 0  # records replayed so far
        for entry in self._log:
            tag, position = entry[0], entry[1]
            if position > done:
                time = _host_spans(spans, costs, instrs[done:position], time, "")
                done = position
            if tag == _RUN:
                done = entry[2]
                time = _host_spans(
                    spans, costs, instrs[position:done], time, entry[3]
                )
            elif tag == _STALL:
                end = entry[2]
                spans.append(
                    tuple.__new__(Span, ("host", SpanKind.STALL, time, end, entry[3]))
                )
                time = end
            else:
                spans.append(tuple.__new__(Span, entry[2:]))
        _host_spans(spans, costs, instrs[done:], time, "")
        self._replayed = (len(self._log), len(instrs), spans)
        return spans

    # -- reading ---------------------------------------------------------

    @property
    def end_time(self) -> float:
        return _end_time(self._replay())

    def actors(self) -> list[str]:
        return _actors(self._replay())

    def busy_time(self, actor: str, kind: SpanKind | None = None) -> float:
        # By index, kind first: a tuple subclass indexes faster than it
        # unpacks or reads a named field (CPython's fast paths take exact
        # tuples only), and the kind identity test rules out most spans.
        # The terms and their order are those of ``span.duration``.
        spans = self._replay()
        if kind is None:
            return sum(span[3] - span[2] for span in spans if span[0] == actor)
        return sum(
            span[3] - span[2]
            for span in spans
            if span[1] is kind and span[0] == actor
        )

    def idle_time(self, actor: str) -> float:
        """Time within [0, end_time) the actor spent doing nothing at all."""
        spans = self._replay()
        intervals = sorted(
            (span.start, span.end) for span in spans if span.actor == actor
        )
        covered = 0.0
        cursor = 0.0
        for start, end in intervals:
            if end <= cursor:
                continue
            covered += end - max(start, cursor)
            cursor = max(cursor, end)
        return _end_time(spans) - covered

    def render_ascii(self, width: int = 72) -> str:
        """Render the timeline as one text row per actor.

        Glyphs: ``C`` config writes, ``c`` parameter calculation, ``h`` other
        host work, ``.`` stall, ``X`` accelerator compute, space = idle.
        """
        spans = self._replay()
        total = _end_time(spans)
        if total <= 0:
            return "(empty timeline)"
        lines = []
        actors = _actors(spans)
        name_width = max(len(a) for a in actors)
        for actor in actors:
            row = [" "] * width
            for span in spans:
                if span.actor != actor:
                    continue
                lo = int(span.start / total * width)
                hi = max(lo + 1, int(span.end / total * width))
                glyph = _GLYPHS[span.kind]
                for i in range(lo, min(hi, width)):
                    row[i] = glyph
            lines.append(f"{actor:<{name_width}} |{''.join(row)}|")
        scale = f"{'':<{name_width}}  0{'':{width - 2}}{total:.0f} cycles"
        lines.append(scale)
        return "\n".join(lines)


def _host_spans(
    spans: list[Span], costs: dict, records: list[Instr], time: float, label: str
) -> float:
    """Append the spans of ``records`` charged back to back from host
    clock ``time`` under ``label``; returns the clock after them."""
    new = tuple.__new__
    append = spans.append
    for cycles, kind in filter(None, map(costs.__getitem__, map(id, records))):
        end = time + cycles
        append(new(Span, ("host", kind, time, end, label)))
        time = end
    return time


def _end_time(spans: list[Span]) -> float:
    return max((span.end for span in spans), default=0.0)


def _actors(spans: list[Span]) -> list[str]:
    seen: list[str] = []
    for span in spans:
        if span.actor not in seen:
            seen.append(span.actor)
    return seen
