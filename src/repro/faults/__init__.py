"""Deterministic fault injection and the recovery runtime.

``repro.faults`` threads a seed-driven fault model through the co-simulation
so the configuration cost of *resilience* becomes measurable: dropped and
corrupted configuration-register writes, launch rejection, await stalls, and
spontaneous device state loss — the failure that breaks the register-retention
assumption the dedup pass (paper Section 5.4) is built on.

* :mod:`repro.faults.model` — :class:`FaultInjector`: per-site deterministic
  draws (schedule is a pure function of the fault seed) and a replayable
  fault-event log.
* :mod:`repro.faults.recovery` — :class:`RecoveryPolicy` knobs,
  :class:`RecoveryStats` accounting, and :class:`ReliancePlan`, the static
  minimal-re-setup planner built on ``KnownFieldsAnalysis`` /
  ``ObservedFieldsAnalysis``.
* :mod:`repro.faults.campaign` — the seeded correctness campaign behind
  ``python -m repro faults``.

See ``docs/ROBUSTNESS.md`` for the fault models and guarantees.
"""

from .model import DrawStreams, FaultEvent, FaultInjector, FaultKind, FaultRates
from .recovery import (
    RecoveryPolicy,
    RecoveryStats,
    ReliancePlan,
    ReliancePlanMismatch,
)

__all__ = [
    "DrawStreams",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultRates",
    "RecoveryPolicy",
    "RecoveryStats",
    "ReliancePlan",
    "ReliancePlanMismatch",
]
