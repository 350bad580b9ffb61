"""Diagnostics: structured findings with severities, codes, and locations.

A :class:`Diagnostic` ties a stable code (``ACCFG001`` ...) and severity to
the operation that triggered it, with optional follow-on notes (fix-its,
model numbers).  :class:`DiagnosticEngine` collects and deduplicates them and
renders the conventional compiler-style report::

    warning[ACCFG001]: launch on 'gemmini' is never awaited
      --> demo.mlir:4:5
      |  %t = accfg.launch(%s) : !accfg.state<"gemmini"> ...
      = note: insert `accfg.await` on the token, or drop the result if the
        launch is intentionally fire-and-forget
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..ir.operation import Operation
from ..ir.printer import print_operation


class Severity(enum.IntEnum):
    """Ordered so that comparisons read naturally: ERROR > WARNING > NOTE."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass
class Diagnostic:
    """One finding, anchored to the operation that triggered it."""

    code: str
    severity: Severity
    message: str
    op: Operation | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def loc(self) -> str | None:
        return self.op.loc if self.op is not None else None

    def with_note(self, note: str) -> "Diagnostic":
        self.notes.append(note)
        return self

    def excerpt(self) -> str | None:
        """The first line of the offending op's textual form."""
        if self.op is None:
            return None
        text = print_operation(self.op)
        first = text.splitlines()[0] if text else ""
        return first.strip() or None

    def to_dict(self) -> dict[str, object]:
        """Machine-readable form — the ``repro lint --json`` schema."""
        fixit = next(
            (
                note
                for note in self.notes
                if note.startswith("fix:") or "--pipeline" in note
            ),
            None,
        )
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "loc": self.loc,
            "excerpt": self.excerpt(),
            "notes": list(self.notes),
            "fixit": fixit,
        }

    def format(self, show_excerpt: bool = True) -> str:
        lines = [f"{self.severity}[{self.code}]: {self.message}"]
        if self.loc is not None:
            lines.append(f"  --> {self.loc}")
        if show_excerpt:
            excerpt = self.excerpt()
            if excerpt is not None:
                lines.append(f"  |  {excerpt}")
        for note in self.notes:
            lines.append(f"  = note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.format()


class DiagnosticEngine:
    """Collects diagnostics, deduplicating repeats on the same op."""

    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []
        self._seen: set[tuple[str, int, str]] = set()

    def emit(self, diag: Diagnostic) -> Diagnostic:
        key = (diag.code, id(diag.op), diag.message)
        if key not in self._seen:
            self._seen.add(key)
            self.diagnostics.append(diag)
        return diag

    def error(self, code: str, message: str, op: Operation | None = None) -> Diagnostic:
        return self.emit(Diagnostic(code, Severity.ERROR, message, op))

    def warning(self, code: str, message: str, op: Operation | None = None) -> Diagnostic:
        return self.emit(Diagnostic(code, Severity.WARNING, message, op))

    def note(self, code: str, message: str, op: Operation | None = None) -> Diagnostic:
        return self.emit(Diagnostic(code, Severity.NOTE, message, op))

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)


def error_code_counts(diagnostics: list[Diagnostic]) -> dict[str, int]:
    """Per-code tally of error-severity diagnostics (for before/after gates)."""
    counts: dict[str, int] = {}
    for diag in diagnostics:
        if diag.severity is Severity.ERROR:
            counts[diag.code] = counts.get(diag.code, 0) + 1
    return counts
