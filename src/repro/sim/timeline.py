"""Execution timelines.

Records what the host and each accelerator were doing over time, enabling
Figure-2/Figure-7-style visualizations of configuration overhead: host spans
for configuration, parameter calculation and stalls; accelerator spans for
macro-op execution; and the idle gaps in between.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple


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


class Span(NamedTuple):
    """A half-open interval ``[start, end)`` of activity by one actor.

    A named tuple, so the simulator's hot loops can build one with
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


@dataclass
class Timeline:
    """Append-only list of spans with aggregation and ASCII rendering."""

    spans: list[Span] = field(default_factory=list)

    def record(
        self, actor: str, kind: SpanKind, start: float, end: float, label: str = ""
    ) -> None:
        if end > start:
            self.spans.append(Span(actor, kind, start, end, label))

    @property
    def end_time(self) -> float:
        return max((span.end for span in self.spans), default=0.0)

    def actors(self) -> list[str]:
        seen: list[str] = []
        for span in self.spans:
            if span.actor not in seen:
                seen.append(span.actor)
        return seen

    def busy_time(self, actor: str, kind: SpanKind | None = None) -> float:
        # By index, kind first: a tuple subclass indexes faster than it
        # unpacks or reads a named field (CPython's fast paths take exact
        # tuples only), and the kind identity test rules out most spans.
        # The terms and their order are those of ``span.duration``.
        if kind is None:
            return sum(span[3] - span[2] for span in self.spans if span[0] == actor)
        return sum(
            span[3] - span[2]
            for span in self.spans
            if span[1] is kind and span[0] == actor
        )

    def idle_time(self, actor: str) -> float:
        """Time within [0, end_time) the actor spent doing nothing at all."""
        intervals = sorted(
            (span.start, span.end) for span in self.spans if span.actor == actor
        )
        covered = 0.0
        cursor = 0.0
        for start, end in intervals:
            if end <= cursor:
                continue
            covered += end - max(start, cursor)
            cursor = max(cursor, end)
        return self.end_time - covered

    def render_ascii(self, width: int = 72) -> str:
        """Render the timeline as one text row per actor.

        Glyphs: ``C`` config writes, ``c`` parameter calculation, ``h`` other
        host work, ``.`` stall, ``X`` accelerator compute, space = idle.
        """
        total = self.end_time
        if total <= 0:
            return "(empty timeline)"
        lines = []
        name_width = max(len(a) for a in self.actors())
        for actor in self.actors():
            row = [" "] * width
            for span in self.spans:
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
