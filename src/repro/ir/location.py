"""Source locations for IR operations.

The parser records where each operation started in the input text; passes
that synthesize ops leave the location unset (``None``).  Diagnostics and
verifier errors print locations when present, in the conventional
``file:line:column`` shape.

A location is that text itself, an exact ``str``: every op of a parse holds
one, and a string is an object the garbage collector does not track.
"""

from __future__ import annotations


def SourceLoc(line: int, column: int, filename: str | None = None) -> str:
    """The location of a point in a textual IR source (1-based line and
    column), as ``file:line:column``; ``<input>`` stands for no file."""
    return f"{filename or '<input>'}:{line}:{column}"
