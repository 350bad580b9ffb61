"""Operation traits.

Traits declare properties of an operation class that generic passes can query
without knowing the concrete op: whether it terminates a block, whether it is
side-effect free (safe to CSE / hoist / erase when unused), and whether it
isolates its regions from values defined above.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OpTrait:
    """Base class for traits attached to an operation class."""


@dataclass(frozen=True)
class IsTerminator(OpTrait):
    """The operation must appear last in its block."""


@dataclass(frozen=True)
class Pure(OpTrait):
    """The operation has no side effects; it may be erased when unused,
    deduplicated, and moved as long as SSA dominance is preserved."""


@dataclass(frozen=True)
class IsolatedFromAbove(OpTrait):
    """Regions of this operation may not reference values defined outside."""
