"""Tests for queue-based launch schemes (the paper's Section 8 outlook).

With single-level staging a launch is a barrier on the previous computation;
a deeper launch FIFO lets the host run ahead by ``launch_queue_depth``
invocations.  Execution on the single datapath still serializes.
"""

import numpy as np
import pytest

from repro.backends import (
    get_accelerator,
    get_accelerator_or_none,
    register_accelerator,
)
from repro.backends.toyvec import ToyVecSpec
from repro.isa import HostCostModel
from repro.sim import AcceleratorDevice, CoSimulator, Memory


def device_for(name):
    return AcceleratorDevice(get_accelerator(name), Memory())


def _depth_variant(depth: int) -> str:
    """A toyvec registered with the given launch-queue depth."""
    name = f"toyvec-q{depth}"
    if get_accelerator_or_none(name) is None:
        spec_class = type(
            f"ToyVecQ{depth}",
            (ToyVecSpec,),
            {"name": name, "launch_queue_depth": depth},
        )
        register_accelerator(spec_class())
    return name


class TestAcceptTime:
    def test_depth_one_equals_busy_until(self):
        device = device_for("toyvec")
        device.write_fields({"n": 64}, 0.0)
        token = device.launch(0.0, functional=False)
        assert device.accept_time(1.0) == token.end

    def test_queued_accepts_depth_launches_immediately(self):
        device = device_for("toyvec-queued")
        device.write_fields({"n": 64}, 0.0)
        for _ in range(4):
            device.launch(0.0, functional=False)
        # queue full: 5th launch must wait for the oldest to retire
        first_end = device._launch_ends[0]
        assert device.accept_time(0.0) == first_end

    def test_queued_accepts_when_slot_frees(self):
        device = device_for("toyvec-queued")
        device.write_fields({"n": 64}, 0.0)
        tokens = [device.launch(0.0, functional=False) for _ in range(4)]
        late = tokens[0].end + 1
        assert device.accept_time(late) == pytest.approx(
            max(late, tokens[1].end)
        ) or device.accept_time(late) >= late

    def test_sequential_target_ignores_queue_depth(self):
        device = device_for("toyvec-seq")
        device.write_fields({"n": 64}, 0.0)
        token = device.launch(0.0, functional=False)
        assert device.accept_time(0.0) == token.end

    def test_execution_still_serializes(self):
        device = device_for("toyvec-queued")
        device.write_fields({"n": 64}, 0.0)
        a = device.launch(0.0, functional=False)
        b = device.launch(0.0, functional=False)
        assert b.start == a.end


class TestQueuedCosim:
    def run_chain(self, name, launches=6):
        memory = Memory()
        x = memory.place(np.arange(64, dtype=np.int32))
        y = memory.place(np.arange(64, dtype=np.int32))
        out = memory.alloc(64, np.int32)
        sim = CoSimulator(memory=memory, cost_model=HostCostModel(1.0))
        sim.exec_setup(
            name,
            {"ptr_x": x.addr, "ptr_y": y.addr, "ptr_out": out.addr, "n": 64, "op": 0},
        )
        tokens = [sim.exec_launch(name) for _ in range(launches)]
        for token in tokens:
            sim.exec_await(token)
        return sim, out, (x, y)

    def test_queue_reduces_host_stalls(self):
        barrier_sim, out1, (x, y) = self.run_chain("toyvec")
        queued_sim, out2, _ = self.run_chain("toyvec-queued")
        assert (out1.array == x.array + y.array).all()
        assert (out2.array == out1.array).all()
        from repro.sim import SpanKind

        barrier_stall = barrier_sim.timeline.busy_time("host", SpanKind.STALL)
        queued_stall = queued_sim.timeline.busy_time("host", SpanKind.STALL)
        assert queued_stall < barrier_stall

    def test_total_cycles_not_worse(self):
        barrier_sim, *_ = self.run_chain("toyvec")
        queued_sim, *_ = self.run_chain("toyvec-queued")
        assert queued_sim.total_cycles <= barrier_sim.total_cycles

    def test_functional_results_identical(self):
        _, out_barrier, _ = self.run_chain("toyvec")
        _, out_queued, _ = self.run_chain("toyvec-queued")
        assert (out_barrier.array == out_queued.array).all()

    def test_deeper_queues_remove_the_launch_barrier(self):
        # The Section 8 outlook on a launch-dominated chain: 32 launches of
        # one setup at launch-queue depths 1 to 8.
        cycles = []
        for depth in (1, 2, 4, 8):
            sim, out, (x, y) = self.run_chain(_depth_variant(depth), launches=32)
            assert (out.array == x.array + y.array).all()
            cycles.append(sim.total_cycles)
        # Deeper queues monotonically reduce total time on this chain...
        assert all(b <= a for a, b in zip(cycles, cycles[1:]))
        # ...and the improvement saturates once the host is the bottleneck.
        assert cycles[-1] >= cycles[0] * 0.3
