"""Host–accelerator co-simulation engine.

The :class:`CoSimulator` advances a single host-time cursor as the IR
interpreter executes operations, charging host instructions against the cost
model, driving accelerator devices (which run asynchronously until their
``busy_until`` time), recording a timeline, and accumulating the instruction
trace the roofline analysis consumes.

This replaces the paper's spike (instruction-accurate) and Verilator
(cycle-accurate) substrates with a discrete-event model that captures the
same first-order interaction: configuration cycles, stalls, and overlap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..backends.base import get_accelerator
from ..isa.instructions import HostCostModel, Instr, sync_instr
from ..isa.trace import Trace
from .device import AcceleratorDevice, FaultError, LaunchToken
from .memory import Memory
from .timeline import _SPAN_FOR_CATEGORY, SpanKind, Timeline

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.model import FaultInjector
    from ..faults.recovery import RecoveryPolicy, ReliancePlan
    from ..ir.operation import Operation

#: Cost models are immutable, so one default serves every simulator.
_DEFAULT_COST_MODEL = HostCostModel()


class CoSimulator:
    """Discrete-event co-simulation of one host plus its accelerators."""

    def __init__(
        self,
        memory: Memory | None = None,
        cost_model: HostCostModel | None = None,
        functional: bool = True,
        faults: "FaultInjector | None" = None,
        recovery: "RecoveryPolicy | None" = None,
        reliance: "ReliancePlan | None" = None,
    ) -> None:
        self.memory = memory if memory is not None else Memory()
        self.cost_model = cost_model or _DEFAULT_COST_MODEL
        self.functional = functional
        self.host_time = 0.0
        #: the durations of the host stall spans this simulator records
        #: (waits and sync records), summed in timeline order from int 0:
        #: ``timeline.busy_time("host", SpanKind.STALL)`` without a replay
        self.host_stall_cycles = 0
        self.trace = Trace()
        self.timeline = Timeline(self.trace.instrs, self.cost_model)
        self._devices: dict[str, AcceleratorDevice] = {}
        #: id(stream) -> (charge plan, stream) for every shared stream this
        #: simulator charged; the entry holds the stream, so the id stays
        #: valid while the plan does
        self._plans: dict[int, tuple[tuple, tuple[Instr, ...]]] = {}
        # -- fault injection / recovery runtime (repro.faults) -------------
        #: attached fault injector; None keeps the fault-free fast paths
        self.faults = faults
        if faults is not None and recovery is None:
            from ..faults.recovery import RecoveryPolicy as _Policy

            recovery = _Policy()
        self.recovery = recovery
        #: static minimal-re-setup planner (None falls back to full re-setup)
        self.reliance = reliance
        self.recovery_stats = None
        if faults is not None:
            from ..faults.recovery import RecoveryStats as _Stats

            self.recovery_stats = _Stats()
        #: host-side belief of every device's register file: all fields the
        #: host has successfully written (verified) — the re-setup source
        self._shadow: dict[str, dict[str, int]] = {}
        #: last hardware epoch the host observed per device
        self._epoch_seen: dict[str, int] = {}
        #: staged-path write faults per device, for degradation
        self._staged_faults: dict[str, int] = {}

    # -- devices ---------------------------------------------------------

    def device(self, accelerator: str) -> AcceleratorDevice:
        device = self._devices.get(accelerator)
        if device is None:
            device = self._devices[accelerator] = AcceleratorDevice(
                get_accelerator(accelerator), self.memory
            )
        return device

    @property
    def devices(self) -> dict[str, AcceleratorDevice]:
        return dict(self._devices)

    # -- host instruction charging -----------------------------------------

    def charge(self, instrs: Iterable[Instr], label: str = "") -> None:
        """Execute host instructions back to back at the current time.

        Each record costs its category's cycles; the timeline derives its
        span from the trace (:class:`~repro.sim.timeline.Timeline`) and
        logs only the label.  A tuple is taken to be a shared stream (a
        spec's ``*_instrs_cached`` streams, the interpreter's per-op
        records): its plan is resolved on first charge and kept for this
        simulator's life.  Any other iterable is resolved afresh, so a
        one-off stream should not come as a tuple.
        """
        if type(instrs) is tuple:
            entry = self._plans.get(id(instrs))
            if entry is None:
                entry = self._plans[id(instrs)] = (self._plan(instrs), instrs)
                self.trace.records.update(zip(map(id, instrs), instrs))
            plan = entry[0]
        else:
            instrs = list(instrs)  # any iterable, read more than once below
            plan = self._plan(instrs)
            self.trace.records.update(zip(map(id, instrs), instrs))
        time = self.host_time
        for cycles, stall in plan:
            end = time + cycles
            if stall:
                self.host_stall_cycles += end - time
            time = end
        self.trace.instrs.extend(instrs)
        self.host_time = time
        if label and plan:
            self.timeline.labeled(len(instrs), label)

    def _plan(self, instrs: Sequence[Instr]) -> tuple:
        """(cycles, whether its span is a stall) of each record that takes
        time, in order.

        Records of zero cycles leave no span and do not move the clock
        (adding zero is exact), so replaying only these is the per-record
        definition.
        """
        cycles_of = self.cost_model.cycles_by_category
        plan = []
        for instr in instrs:
            cycles = cycles_of[instr.category]
            if cycles > 0:
                kind = _SPAN_FOR_CATEGORY[instr.category]
                plan.append((cycles, kind is SpanKind.STALL))
        return tuple(plan)

    def charge_one(self, instr: Instr, label: str = "") -> None:
        self.charge([instr], label)

    def stall_until(self, when: float, label: str = "") -> None:
        now = self.host_time
        if when > now:
            self.timeline.stall(when, label)
            self.host_stall_cycles += when - now
            self.host_time = when

    # -- accfg semantics -------------------------------------------------

    def exec_setup(
        self,
        accelerator: str,
        fields: dict[str, int],
        site: "Operation | int | None" = None,
    ) -> None:
        """Perform one ``accfg.setup``: stall if required, then write.

        ``site`` names the originating op: the op itself or its site number
        (:func:`repro.dialects.accfg.config_sites`).  The recovery runtime
        hands it to the :class:`ReliancePlan` to plan minimal re-setup after
        state loss.  It is ignored on the fault-free fast path.
        """
        device = self.device(accelerator)
        if self.faults is not None:
            self._faulty_setup(device, fields, site)
            return
        start = device.write_fields(fields, self.host_time)
        self.stall_until(start, "sequential-config stall")
        self.charge(
            device.spec.setup_instrs_cached(tuple(fields)), device.setup_label
        )

    def exec_launch(
        self,
        accelerator: str,
        launch_fields: dict[str, int] | None = None,
        site: "Operation | int | None" = None,
    ) -> LaunchToken:
        """Perform one ``accfg.launch``; returns the completion token."""
        device = self.device(accelerator)
        # The host must wait until the interface can accept a new launch:
        # with single-level staging that means the device is idle; deeper
        # launch queues only require a free queue slot.
        self.stall_until(device.accept_time(self.host_time), "launch barrier")
        if self.faults is not None:
            # The launch command is a config-plane interaction too: it reads
            # the hardware epoch, so a power cycle since the last interaction
            # is detected here — the exact point where a setup-hoisted
            # program relies on register retention.
            self._check_state_loss(device, site)
            self._faulty_launch_command(device, launch_fields)
        else:
            if launch_fields:
                self.charge(
                    device.spec.launch_field_instrs_cached(tuple(launch_fields)),
                    device.launch_config_label,
                )
            launch = device.spec.launch_instrs_cached()
            if launch:  # empty for a launch-semantic interface (Gemmini)
                self.charge(launch, device.launch_label)
        token = device.launch(
            self.host_time, launch_fields or {}, functional=self.functional
        )
        if self.faults is not None and launch_fields:
            # Launch-carried fields land in the register file and persist;
            # they are part of what a re-setup must be able to restore.
            self._shadow.setdefault(device.name, {}).update(
                {name: int(value) for name, value in launch_fields.items()}
            )
        _, _, start, end, _ = token
        self.timeline.record(accelerator, SpanKind.ACCEL, start, end, "macro-op")
        return token

    def exec_await(self, token: LaunchToken) -> None:
        """Perform one ``accfg.await``: poll until the launch completes."""
        device = token.device
        self.charge(device.spec.sync_instrs_cached(), device.await_label)
        if self.faults is not None:
            self._watchdog_await(device)
        self.stall_until(token.end, device.await_label)

    # -- fault injection and the recovery runtime ---------------------------
    #
    # Everything below runs identically under the tree interpreter and the
    # compiled trace engine — the protocol lives here, in the simulator, so
    # the two engines cannot diverge on fault schedules or recovery actions.

    def exec_reset(self, accelerator: str) -> None:
        """An intentional ``accfg.reset``: the host *chose* to forget the
        register contents, so the recovery shadow forgets them too."""
        if accelerator in self._shadow:
            self._shadow[accelerator].clear()
        device = self._devices.get(accelerator)
        if device is not None:
            device.registers.clear()
            device.staged.clear()

    def _faulty_setup(
        self,
        device: AcceleratorDevice,
        fields: dict[str, int],
        site: "Operation | int | None",
    ) -> None:
        self._check_state_loss(device, site)
        self._verified_write(device, fields, device.setup_label)

    def _check_state_loss(
        self, device: AcceleratorDevice, site: "Operation | int | None"
    ) -> None:
        """Draw, detect, and (when enabled) repair spontaneous state loss.

        Every configuration-plane interaction — a setup's register writes or
        the launch command itself — is a detection point: the device may
        have power-cycled at any time since the host last talked to it, and
        the epoch read surfaces that now.
        """
        from ..faults.model import FaultKind

        if self.faults.should(FaultKind.STATE_LOSS, device.name):
            device.power_cycle()
        self.charge_one(
            sync_instr("epoch", device.name), f"epoch-check {device.name}"
        )
        self.recovery_stats.verify_reads += 1
        if self._epoch_seen.get(device.name, 0) != device.hw_epoch:
            self._epoch_seen[device.name] = device.hw_epoch
            self.recovery_stats.state_losses += 1
            if not self.recovery.enabled:
                self.recovery_stats.unrecovered += 1
                raise FaultError(
                    f"state loss detected on '{device.name}' "
                    f"(hardware epoch advanced to {device.hw_epoch})"
                )
            self._resetup(device, site)

    def _resetup(
        self, device: AcceleratorDevice, site: "Operation | int | None"
    ) -> None:
        """Re-issue lost configuration after a detected power cycle."""
        shadow = self._shadow.get(device.name, {})
        strategy = self.recovery.resetup
        if strategy == "minimal" and site is not None and self.reliance is not None:
            restore = self.reliance.restore_set(site)
            names = sorted(name for name in shadow if restore.contains(name))
            known = self.reliance.known_retained(site)
        else:
            # Full re-setup: replay the host's entire shadow register file.
            names = sorted(shadow)
            known = frozenset()
        if not names:
            return
        stats = self.recovery_stats
        stats.resetup_fields += len(names)
        stats.resetup_known_fields += sum(1 for name in names if name in known)
        stats.resetup_bytes += device.spec.config_bytes(list(names))
        self._verified_write(
            device,
            {name: shadow[name] for name in names},
            f"re-setup {device.name}",
        )

    def _verified_write(
        self,
        device: AcceleratorDevice,
        fields: dict[str, int],
        label: str,
    ) -> None:
        """Write fields with read-back verification and bounded retry."""
        from ..faults.model import FaultKind

        faults = self.faults
        policy = self.recovery
        stats = self.recovery_stats
        spec = device.spec
        pending = {name: int(value) for name, value in fields.items()}
        attempt = 0
        while True:
            landed: dict[str, int] = {}
            injected = 0
            for name, value in pending.items():
                if faults.should(FaultKind.DROP_WRITE, device.name, name):
                    injected += 1
                    continue
                if faults.should(FaultKind.CORRUPT_WRITE, device.name, name):
                    injected += 1
                    field_spec = spec.fields.get(name)
                    bits = field_spec.bits if field_spec is not None else 64
                    landed[name] = faults.corrupt(value, bits)
                else:
                    landed[name] = value
            stats.write_faults += injected
            # The host issues every write instruction either way; faults are
            # in what *lands* in the registers.
            start = device.write_fields(landed, self.host_time)
            self.stall_until(start, "sequential-config stall")
            self.charge(spec.setup_instrs_cached(tuple(pending)), label)
            # Read-back verification: one status/register read per field.
            self.charge(
                [sync_instr("verify", device.name)] * len(pending),
                f"verify {device.name}",
            )
            stats.verify_reads += len(pending)
            effective = device.effective_config()
            failed = {
                name: value
                for name, value in pending.items()
                if effective.get(name) != value
            }
            if not failed:
                break
            if not policy.enabled:
                stats.unrecovered += 1
                raise FaultError(
                    f"configuration write verification failed on "
                    f"'{device.name}' (fields {', '.join(sorted(failed))})"
                )
            if attempt >= policy.max_retries:
                stats.unrecovered += 1
                raise FaultError(
                    f"unrecoverable configuration writes on '{device.name}' "
                    f"after {attempt} retries "
                    f"(fields {', '.join(sorted(failed))})"
                )
            stats.write_retries += 1
            if device.concurrent_now:
                count = self._staged_faults.get(device.name, 0) + 1
                self._staged_faults[device.name] = count
                if count >= policy.degrade_after:
                    self._degrade(device)
            self.stall_until(
                self.host_time + policy.backoff(attempt),
                f"write-retry backoff {device.name}",
            )
            pending = failed
            attempt += 1
        self._shadow.setdefault(device.name, {}).update(
            {name: int(value) for name, value in fields.items()}
        )

    def _degrade(self, device: AcceleratorDevice) -> None:
        """Concurrent -> sequential degradation after repeated staged-path
        faults: wait out the in-flight computation, commit what staging
        holds, then treat the device as sequentially configured."""
        self.stall_until(device.busy_until, f"degrade {device.name}")
        device.registers.update(device.staged)
        device.staged.clear()
        device.force_sequential = True
        self.recovery_stats.degradations += 1

    def _faulty_launch_command(
        self,
        device: AcceleratorDevice,
        launch_fields: dict[str, int] | None,
    ) -> None:
        """Issue the launch command, re-issuing on interface rejection."""
        from ..faults.model import FaultKind

        policy = self.recovery
        stats = self.recovery_stats
        attempt = 0
        while True:
            if launch_fields:
                self.charge(
                    device.spec.launch_field_instrs_cached(tuple(launch_fields)),
                    device.launch_config_label,
                )
            launch = device.spec.launch_instrs_cached()
            if launch:
                self.charge(launch, device.launch_label)
            # Acknowledge read: did the interface accept the command?
            self.charge_one(
                sync_instr("launch-ack", device.name),
                f"launch-ack {device.name}",
            )
            stats.verify_reads += 1
            if not self.faults.should(FaultKind.LAUNCH_REJECT, device.name):
                return
            stats.launch_rejects += 1
            if not policy.enabled:
                stats.unrecovered += 1
                raise FaultError(f"launch rejected on '{device.name}'")
            if attempt >= policy.max_retries:
                stats.unrecovered += 1
                raise FaultError(
                    f"launch on '{device.name}' rejected "
                    f"{attempt + 1} times (giving up)"
                )
            self.stall_until(
                self.host_time + policy.backoff(attempt),
                f"launch-retry backoff {device.name}",
            )
            attempt += 1

    def _watchdog_await(self, device: AcceleratorDevice) -> None:
        """Bounded-retry watchdog for a stalled completion poll."""
        from ..faults.model import FaultKind

        if not self.faults.should(FaultKind.AWAIT_STALL, device.name):
            return
        policy = self.recovery
        stats = self.recovery_stats
        stats.await_stalls += 1
        if not policy.enabled:
            stats.unrecovered += 1
            raise FaultError(
                f"await on '{device.name}' stalled "
                "(completion poll kept reading busy)"
            )
        polls = self.faults.stall_polls()
        for attempt in range(min(polls, policy.max_retries)):
            self.stall_until(
                self.host_time + policy.backoff(attempt),
                f"watchdog backoff {device.name}",
            )
            self.charge(
                device.spec.sync_instrs_cached(), f"watchdog poll {device.name}"
            )
            stats.watchdog_polls += 1
        if polls > policy.max_retries:
            stats.unrecovered += 1
            raise FaultError(
                f"await watchdog timeout on '{device.name}' after "
                f"{policy.max_retries} polls"
            )

    # -- results ------------------------------------------------------------

    @property
    def total_cycles(self) -> float:
        device_end = max(
            (device.busy_until for device in self._devices.values()), default=0.0
        )
        return max(self.host_time, device_end)

    @property
    def total_ops(self) -> int:
        return sum(device.total_ops for device in self._devices.values())

    def performance(self) -> float:
        """Achieved throughput in ops/cycle."""
        cycles = self.total_cycles
        return self.total_ops / cycles if cycles else 0.0
