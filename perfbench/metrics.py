"""Summary statistics and operation tallies shared by every workload.

Pure functions over plain lists so the unit tests can pin them exactly.
"""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``, linearly interpolated
    between closest ranks (numpy's default method).  Raises on no data."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q={q} outside 0..100")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def median(values) -> float:
    return percentile(values, 50.0)


class Tally:
    """Attempted and failed operations of one run, with the first few
    failure messages kept for the report."""

    def __init__(self, keep: int = 5) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._keep = keep

    def record(self, ok: bool, message: str = "") -> None:
        """Count one operation; ``message`` says why when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self._keep:
                self.messages.append(message or "failed")

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
