"""The fault-injection and recovery protocol inside the co-simulator.

These tests drive :class:`CoSimulator`'s config-plane verbs directly with a
*scripted* injector (exact faults at exact interactions) so every branch of
the recovery runtime — read-back retry, launch re-issue, the await watchdog,
state-loss detection at setup *and* launch sites, degradation, and the
detect-only mode — is pinned without depending on random draws.
"""

import numpy as np
import pytest

from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultRates,
    RecoveryPolicy,
)
from repro.isa import HostCostModel, InstrCategory
from repro.sim import CoSimulator, Memory
from repro.sim.device import FaultError


class ScriptedInjector(FaultInjector):
    """Fault decisions popped from per-kind scripts instead of drawn.

    ``script`` maps a :class:`FaultKind` to the decision sequence for that
    kind's interactions (missing / exhausted entries mean "no fault"), and
    ``polls`` fixes what :meth:`stall_polls` returns.
    """

    def __init__(self, script=None, polls=1):
        super().__init__(seed=0, rates=FaultRates())
        self._script = {
            FaultKind(kind): list(decisions)
            for kind, decisions in (script or {}).items()
        }
        self._polls = polls

    def should(self, kind, accelerator, detail=""):
        index = self._next_index(kind.value)
        queue = self._script.get(kind, [])
        fired = bool(queue.pop(0)) if queue else False
        if fired:
            self.log.append(FaultEvent(kind, index, accelerator, detail))
        return fired

    def stall_polls(self):
        return self._polls


def vector_setup(name="toyvec", **sim_kwargs):
    memory = Memory()
    x = memory.place(np.arange(32, dtype=np.int32))
    y = memory.place(np.arange(32, dtype=np.int32))
    out = memory.alloc(32, np.int32)
    sim = CoSimulator(
        memory=memory, cost_model=HostCostModel(1.0), **sim_kwargs
    )
    config = {
        "ptr_x": x.addr,
        "ptr_y": y.addr,
        "ptr_out": out.addr,
        "n": 32,
        "op": 0,
    }
    return sim, name, config, out


class TestDevicePowerCycle:
    def test_clears_registers_and_bumps_epoch(self):
        sim, name, config, _ = vector_setup()
        device = sim.device(name)
        sim.exec_setup(name, config)
        token = sim.exec_launch(name)
        assert device.registers or device.staged
        epoch = device.hw_epoch
        device.power_cycle()
        assert device.registers == {}
        assert device.staged == {}
        assert device.hw_epoch == epoch + 1
        # The compute plane is unaffected: the in-flight launch keeps its
        # snapshotted configuration and completion time.
        assert device.busy_until == token.end


class TestVerifiedWrites:
    def test_dropped_write_is_retried_and_lands(self):
        injector = ScriptedInjector({FaultKind.DROP_WRITE: [True]})
        sim, name, config, _ = vector_setup(faults=injector)
        sim.exec_setup(name, config)
        assert sim.device(name).effective_config()["ptr_x"] == config["ptr_x"]
        stats = sim.recovery_stats
        assert stats.write_faults == 1
        assert stats.write_retries == 1
        assert stats.unrecovered == 0
        # The shadow register file reflects the verified values.
        assert sim._shadow[name]["n"] == 32

    def test_corrupted_write_is_detected_and_rewritten(self):
        injector = ScriptedInjector({FaultKind.CORRUPT_WRITE: [True]})
        sim, name, config, _ = vector_setup(faults=injector)
        sim.exec_setup(name, config)
        assert sim.device(name).effective_config() == config
        assert sim.recovery_stats.write_retries == 1

    def test_retry_pays_backoff_stall(self):
        injector = ScriptedInjector({FaultKind.DROP_WRITE: [True]})
        policy = RecoveryPolicy(backoff_base=64.0)
        clean_sim, name, config, _ = vector_setup()
        clean_sim.exec_setup(name, config)
        sim, name, config, _ = vector_setup(faults=injector, recovery=policy)
        sim.exec_setup(name, config)
        assert sim.host_time > clean_sim.host_time + policy.backoff(0)

    def test_detect_only_raises_instead_of_repairing(self):
        injector = ScriptedInjector({FaultKind.DROP_WRITE: [True]})
        sim, name, config, _ = vector_setup(
            faults=injector, recovery=RecoveryPolicy(enabled=False)
        )
        with pytest.raises(FaultError, match="verification failed"):
            sim.exec_setup(name, config)
        assert sim.recovery_stats.unrecovered == 1

    def test_exhausted_retry_budget_raises(self):
        injector = FaultInjector(seed=1, rates=FaultRates(drop_write=1.0))
        sim, name, config, _ = vector_setup(
            faults=injector, recovery=RecoveryPolicy(max_retries=2)
        )
        with pytest.raises(FaultError, match="unrecoverable"):
            sim.exec_setup(name, config)
        assert sim.recovery_stats.unrecovered == 1


class TestStateLoss:
    def test_loss_before_setup_restores_shadow(self):
        # STATE_LOSS interactions: setup #0 clean, setup #1 power-cycles.
        injector = ScriptedInjector({FaultKind.STATE_LOSS: [False, True]})
        sim, name, config, _ = vector_setup(faults=injector)
        sim.exec_setup(name, config)
        sim.exec_setup(name, {"op": 1})
        # Full re-setup (no reliance plan): the whole shadow is replayed, so
        # the earlier pointers survive the power cycle.
        effective = sim.device(name).effective_config()
        assert effective["ptr_x"] == config["ptr_x"]
        assert effective["op"] == 1
        stats = sim.recovery_stats
        assert stats.state_losses == 1
        assert stats.resetup_fields == len(config)
        assert stats.resetup_bytes > 0

    def test_loss_detected_at_launch_site(self):
        # The hoisted-setup idiom: one setup, then launches relying on
        # retention.  STATE_LOSS streams: setup #0 clean, launch's epoch
        # check (#1) fires — detection must happen at the *launch*.
        injector = ScriptedInjector({FaultKind.STATE_LOSS: [False, True]})
        sim, name, config, out = vector_setup(faults=injector)
        sim.exec_setup(name, config)
        token = sim.exec_launch(name)
        sim.exec_await(token)
        assert sim.recovery_stats.state_losses == 1
        # Recovery re-issued the configuration before the launch committed,
        # so the computation still produced the right answer.
        assert (out.array == np.arange(32) * 2).all()

    def test_loss_without_recovery_raises(self):
        injector = ScriptedInjector({FaultKind.STATE_LOSS: [False, True]})
        sim, name, config, _ = vector_setup(
            faults=injector, recovery=RecoveryPolicy(enabled=False)
        )
        sim.exec_setup(name, config)
        with pytest.raises(FaultError, match="state loss"):
            sim.exec_launch(name)
        assert sim.recovery_stats.unrecovered == 1

    def test_reset_also_forgets_the_shadow(self):
        # An intentional accfg.reset clears the recovery shadow: a state
        # loss right after it has nothing to restore.
        injector = ScriptedInjector({FaultKind.STATE_LOSS: [False, True]})
        sim, name, config, _ = vector_setup(faults=injector)
        sim.exec_setup(name, config)
        sim.exec_reset(name)
        sim.exec_setup(name, {"n": 16})
        assert sim.recovery_stats.state_losses == 1
        assert sim.recovery_stats.resetup_fields == 0


class TestLaunchReject:
    def test_rejected_launch_is_reissued(self):
        injector = ScriptedInjector({FaultKind.LAUNCH_REJECT: [True]})
        sim, name, config, out = vector_setup(faults=injector)
        sim.exec_setup(name, config)
        token = sim.exec_launch(name)
        sim.exec_await(token)
        assert sim.recovery_stats.launch_rejects == 1
        assert sim.device(name).launch_count == 1
        assert (out.array == np.arange(32) * 2).all()

    def test_reject_without_recovery_raises(self):
        injector = ScriptedInjector({FaultKind.LAUNCH_REJECT: [True]})
        sim, name, config, _ = vector_setup(
            faults=injector, recovery=RecoveryPolicy(enabled=False)
        )
        sim.exec_setup(name, config)
        with pytest.raises(FaultError, match="launch rejected"):
            sim.exec_launch(name)


class TestAwaitWatchdog:
    def run_await(self, polls, policy):
        injector = ScriptedInjector(
            {FaultKind.AWAIT_STALL: [True]}, polls=polls
        )
        sim, name, config, _ = vector_setup(faults=injector, recovery=policy)
        sim.exec_setup(name, config)
        token = sim.exec_launch(name)
        sim.exec_await(token)
        return sim

    def test_stall_within_budget_recovers(self):
        sim = self.run_await(polls=2, policy=RecoveryPolicy(max_retries=8))
        stats = sim.recovery_stats
        assert stats.await_stalls == 1
        assert stats.watchdog_polls == 2
        assert stats.unrecovered == 0

    def test_stall_beyond_budget_times_out(self):
        with pytest.raises(FaultError, match="watchdog timeout"):
            self.run_await(polls=5, policy=RecoveryPolicy(max_retries=3))

    def test_stall_without_recovery_raises(self):
        with pytest.raises(FaultError, match="stalled"):
            self.run_await(polls=1, policy=RecoveryPolicy(enabled=False))


class TestDegradation:
    def test_repeated_staged_faults_force_sequential(self):
        # toyvec configures concurrently; a faulting round in each of two
        # setups with degrade_after=2 flips it to sequential configuration.
        # Drop draws in order: setup #1's five fields (first drops), the
        # retried field (clean), then setup #2's single field (drops).
        injector = ScriptedInjector(
            {FaultKind.DROP_WRITE: [True, False, False, False, False, False, True]}
        )
        sim, name, config, _ = vector_setup(
            faults=injector, recovery=RecoveryPolicy(degrade_after=2)
        )
        device = sim.device(name)
        assert device.concurrent_now
        sim.exec_setup(name, config)
        sim.exec_setup(name, {"op": 1})
        assert device.force_sequential
        assert not device.concurrent_now
        assert sim.recovery_stats.degradations == 1
        # Degradation committed the staged writes; nothing was lost.
        assert device.effective_config()["op"] == 1


class TestFaultRecordsPerDevice:
    """The epoch, verify and launch-ack reads are records held on the
    device, charged with its labels: a faulted run's record table does not
    grow with the number of checks it makes."""

    @staticmethod
    def faulted_run(size: int) -> CoSimulator:
        from repro.backends import get_accelerator
        from repro.engine import run_module_traced
        from repro.faults import ReliancePlan
        from repro.passes import pipeline_by_name
        from repro.workloads import build_opengemm_matmul

        workload = build_opengemm_matmul(size)
        pipeline_by_name("full").run(workload.module)
        sim = CoSimulator(
            memory=workload.memory,
            cost_model=get_accelerator("opengemm").host_cost_model(),
            faults=FaultInjector(5, FaultRates(state_loss=0.1)),
            reliance=ReliancePlan(workload.module),
        )
        run_module_traced(workload.module, sim, args=workload.main_args)
        assert workload.check()
        return sim

    def test_the_record_table_does_not_grow_with_the_checks(self):
        small, large = self.faulted_run(32), self.faulted_run(64)
        assert large.recovery_stats.verify_reads > 3 * small.recovery_stats.verify_reads
        assert len(large.trace.records) <= len(small.trace.records)
        for sim in (small, large):
            device = sim.device("opengemm")
            held = [
                *device.sync_stream,
                *device.epoch_stream,
                device.verify_instr,
                *device.ack_stream,
            ]
            sync_records = [
                instr
                for instr in sim.trace.records.values()
                if instr.category is InstrCategory.SYNC
            ]
            assert {id(instr) for instr in sync_records} == {id(i) for i in held}

    def test_the_reads_carry_the_device_labels(self):
        sim = self.faulted_run(32)
        labels = {span.label for span in sim.timeline.spans if span.actor == "host"}
        assert {
            "epoch-check opengemm",
            "verify opengemm",
            "launch-ack opengemm",
        } <= labels
