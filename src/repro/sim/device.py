"""Accelerator device model.

Wraps an :class:`~repro.backends.base.AcceleratorSpec` with the dynamic
behaviour the co-simulation needs: a configuration register file, the
sequential-vs-concurrent write semantics of Section 2.2, launch timing, and
functional execution of macro-operations against simulated memory.

* **Sequential configuration** (e.g. Gemmini): configuration writes to a busy
  device stall the host until the device is idle; there is a single register
  file.
* **Concurrent configuration** (e.g. OpenGeMM): writes land in *staging*
  registers at any time; a launch first waits for the device to go idle,
  then commits the staged values and starts.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from ..backends.base import AcceleratorSpec
from ..isa.instructions import sync_instr
from .memory import Memory

#: Launch timings a device keeps, one per distinct tuple of its spec's
#: ``timing_fields`` values; the memo is cleared when it fills.  A figure
#: run needs at most 4.
TIMING_MEMO_BOUND = 1024


class SimulationError(Exception):
    """Raised on illegal device interactions (e.g. double-await)."""


class FaultError(SimulationError):
    """An injected hardware fault that was detected but not repaired.

    Raised by the co-simulator when fault injection is active and either
    recovery is disabled or a bounded-retry recovery strategy ran out of
    attempts.  :class:`repro.interp.interpreter.AccfgRuntime`, which both
    execution engines share, converts it into a loc-tagged
    ``InterpreterError`` so faulted runs fail loudly at the offending op
    instead of silently corrupting results.
    """


class LaunchToken(NamedTuple):
    """Handle of one in-flight launch.

    A named tuple: the engines hash every token several times per
    launch/await pair (double-await and reset-epoch tracking), and a tuple
    hashes in C.
    """

    device: "AcceleratorDevice"
    index: int
    start: float
    end: float
    ops: int


class AcceleratorDevice:
    """Dynamic state of one accelerator instance during co-simulation."""

    def __init__(self, spec: AcceleratorSpec, memory: Memory) -> None:
        self.spec = spec
        self.memory = memory
        #: timeline labels of the host work charged for this device,
        #: formatted once instead of per charge
        self.setup_label = f"setup {spec.name}"
        self.launch_config_label = f"launch-config {spec.name}"
        self.launch_label = f"launch {spec.name}"
        self.await_label = f"await {spec.name}"
        #: the spec's shared launch and completion-poll streams
        self.launch_stream = spec.launch_instrs_cached()
        self.sync_stream = spec.sync_instrs_cached()
        #: the recovery runtime's reads (hardware epoch, one register
        #: read-back, launch acknowledge), each one shared record, with
        #: their labels: a faulted run's record table does not grow with
        #: its checks
        self.epoch_stream = (sync_instr("epoch", spec.name),)
        self.epoch_label = f"epoch-check {spec.name}"
        self.verify_instr = sync_instr("verify", spec.name)
        self.verify_label = f"verify {spec.name}"
        self.ack_stream = (sync_instr("launch-ack", spec.name),)
        self.ack_label = f"launch-ack {spec.name}"
        self._timing_fields = spec.timing_fields
        #: launches the interface takes before the host must wait, while the
        #: device configures concurrently (one otherwise)
        self.queue_depth = (
            max(1, spec.launch_queue_depth) if spec.concurrent_config else 1
        )
        #: timing-field values -> (cycles, ops, memory bytes) of a launch
        self._timing: dict[tuple, tuple] = {}
        self.registers: dict[str, int] = {}
        self.staged: dict[str, int] = {}
        self.busy_until: float = 0.0
        self.launch_count = 0
        self.total_ops = 0
        self.total_memory_bytes = 0
        self.busy_cycles = 0.0
        self.config_write_count = 0
        #: the ends of the latest launches: as many as the deepest launch
        #: queue :meth:`accept_time` reads (a degraded device reads the last)
        self._launch_ends: deque[float] = deque(
            maxlen=max(1, spec.launch_queue_depth)
        )
        #: bumped by :meth:`power_cycle`; a host-visible epoch register that
        #: lets the recovery runtime detect spontaneous state loss
        self.hw_epoch = 0
        #: degraded mode: treat a concurrent-configuration device as
        #: sequential (recovery runtime flips this when the staged path
        #: keeps faulting)
        self.force_sequential = False

    @property
    def name(self) -> str:
        return self.spec.name

    def is_busy(self, now: float) -> bool:
        return now < self.busy_until

    @property
    def concurrent_now(self) -> bool:
        """Effective configuration concurrency (degradation-aware)."""
        return self.spec.concurrent_config and not self.force_sequential

    # -- configuration -------------------------------------------------------

    def write_fields(self, fields: dict[str, int], now: float) -> float:
        """Apply configuration writes arriving at time ``now``.

        Returns the time at which the host may *begin* issuing the writes —
        later than ``now`` when a sequential device is still computing (the
        host stalls; paper Figure 2's idle region).
        """
        return self.write_values(
            tuple(fields), [int(value) for value in fields.values()], now
        )

    def write_values(self, names: tuple, values, now: float) -> float:
        """:meth:`write_fields` of the registers ``names``, each set to the
        exact int at its position in ``values``; the names are distinct."""
        start = now
        if not self.concurrent_now and self.is_busy(now):
            start = self.busy_until
        target = self.staged if self.concurrent_now else self.registers
        target.update(zip(names, values))
        self.config_write_count += len(names)
        return start

    def effective_config(self) -> dict[str, int]:
        """Registers as they would be committed by a launch right now."""
        merged = dict(self.registers)
        merged.update(self.staged)
        return merged

    def power_cycle(self) -> None:
        """Spontaneous device state loss (reset / power-gate).

        Clears both the committed register file and any staged writes —
        exactly the retention assumption the dedup pass leans on — and bumps
        the host-visible :attr:`hw_epoch` so read-back detection works.  The
        compute plane is unaffected: an in-flight launch already snapshotted
        its configuration, so ``busy_until`` and the launch queue survive.
        """
        self.registers.clear()
        self.staged.clear()
        self.hw_epoch += 1

    # -- launch / completion ---------------------------------------------

    def accept_time(self, now: float) -> float:
        """When the interface can take one more launch.

        With the default single-level staging (queue depth 1) this is the
        end of the in-flight computation — a launch is a barrier.  Deeper
        launch queues (FIFO-based schemes, Section 8 outlook) let the host
        enqueue ``depth`` launches before it must wait for the oldest
        outstanding one to retire.
        """
        depth = 1 if self.force_sequential else self.queue_depth
        if len(self._launch_ends) < depth:
            return now
        return max(now, self._launch_ends[-depth])

    def launch(
        self,
        now: float,
        launch_fields: dict[str, int] | None = None,
        functional: bool = True,
    ) -> LaunchToken:
        """Start the accelerator; returns the completion token.

        Start time is ``max(now, busy_until)`` — a launch is a barrier even
        on concurrent-configuration devices (only one computation in flight;
        Section 2.2 models single-level staging).
        """
        if not launch_fields:
            return self.start(now, (), (), functional)
        values = [int(value) for value in launch_fields.values()]
        return self.start(now, tuple(launch_fields), values, functional)

    def start(
        self, now: float, names: tuple, values, functional: bool = True
    ) -> LaunchToken:
        """:meth:`launch` with the launch-carried registers ``names``, each
        set to the exact int at its position in ``values``; the names are
        distinct.

        The spec's ``execute`` reads the live register file, which it must
        not change.
        """
        busy = self.busy_until
        start = busy if busy > now else now
        spec = self.spec
        registers = self.registers
        if spec.concurrent_config and self.staged:
            registers.update(self.staged)
            self.staged.clear()
        if names:
            registers.update(zip(names, values))
        # The timing is a function of the timing fields alone, so it is
        # computed once per tuple of their values (absent ones read None).
        key = tuple(map(registers.get, self._timing_fields))
        timing = self._timing.get(key)
        if timing is None:
            if len(self._timing) >= TIMING_MEMO_BOUND:
                self._timing.clear()
            config = dict(registers)
            timing = self._timing[key] = (
                spec.compute_cycles(config),
                spec.launch_ops(config),
                spec.launch_memory_bytes(config),
            )
        cycles, ops, memory_bytes = timing
        self.total_memory_bytes += memory_bytes
        if functional:
            spec.execute(registers, self.memory)
        end = start + cycles
        self.busy_until = end
        self.launch_count += 1
        self.total_ops += ops
        self.busy_cycles += cycles
        self._launch_ends.append(end)
        # Built as a plain tuple: the named-tuple constructor is a Python
        # call per launch.
        return tuple.__new__(LaunchToken, (self, self.launch_count, start, end, ops))

    def completion_time(self, token: LaunchToken) -> float:
        if token.device is not self:
            raise SimulationError("token belongs to a different device")
        return token.end
