"""A device keeps only the launch ends its launch queue can read.

``accept_time`` reads the end of the launch ``depth`` places back, so the
device holds the last ``max(1, launch_queue_depth)`` ends instead of one per
launch for its life.  Each step below checks it against the unbounded
history it replaces.
"""

import random

import pytest

from repro.backends import get_accelerator
from repro.sim import AcceleratorDevice, Memory

LAUNCHES = 10_000

FIELDS = {
    "toyvec-queued": {"n": 64},
    "gemmini": {"op": 0, "I": 4, "J": 4, "K": 4, "D": 0},
}


def reference_accept_time(ends: list[float], depth: int, now: float) -> float:
    """``accept_time`` over every launch end, as it read before the bound."""
    if len(ends) < depth:
        return now
    return max(now, ends[-depth])


@pytest.mark.parametrize(
    "name, degrade_at",
    [("toyvec-queued", None), ("gemmini", None), ("toyvec-queued", LAUNCHES // 2)],
)
def test_bounded_history_reads_as_the_unbounded_one(name, degrade_at):
    spec = get_accelerator(name)
    device = AcceleratorDevice(spec, Memory())
    device.write_fields(FIELDS[name], 0.0)
    maxlen = max(1, spec.launch_queue_depth)
    rng = random.Random(name)
    ends: list[float] = []
    now = 0.0
    for step in range(LAUNCHES):
        if step == degrade_at:
            device.force_sequential = True
        depth = maxlen if device.concurrent_now else 1
        # Probe before and after the oldest readable end, then launch when
        # the queue accepts, sometimes late.
        for probe in (now, now + rng.random() * 400):
            assert device.accept_time(probe) == reference_accept_time(ends, depth, probe)
        now = device.accept_time(now) + rng.choice((0.0, 0.0, rng.random() * 50))
        token = device.launch(now, functional=False)
        ends.append(token.end)
        assert len(device._launch_ends) <= maxlen
        assert device._launch_ends[-1] == token.end
    assert list(device._launch_ends) == ends[-maxlen:]
