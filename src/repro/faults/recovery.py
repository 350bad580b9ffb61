"""Recovery policy, accounting, and the static minimal-re-setup planner.

The recovery *mechanisms* live in :class:`~repro.sim.cosim.CoSimulator` (so
the tree interpreter and the compiled trace engine share one implementation
bit for bit); this module holds the pieces the mechanisms are parameterized
by:

* :class:`RecoveryPolicy` — the knobs: bounded retry with exponential
  backoff, the re-setup strategy after state loss, and when to degrade a
  concurrent-configuration device to sequential writes.
* :class:`RecoveryStats` — what resilience cost: verification reads, retries,
  re-issued configuration fields/bytes.
* :class:`ReliancePlan` — the static planner for *minimal* re-setup.  After a
  detected state loss at a setup site it answers "which retained registers
  does the program still rely on from here?", combining
  :class:`~repro.analysis.dataflow.RegisterLivenessAnalysis` (which register
  fields some later launch may read before any rewrite — the sound restore
  set, aware that every SSA state chain shares one physical register file)
  with :class:`~repro.analysis.dataflow.KnownFieldsAnalysis` (the dedup
  pass's own retention reasoning, classifying which of the restored fields
  were exactly the ones dedup assumed retained).  A site is the op itself
  (tree interpreter) or its site number (compiled traces); the plan resolves
  numbers against its own module, which must be the module being run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.dataflow import (
    FieldSet,
    KnownFieldsAnalysis,
    RegisterLivenessAnalysis,
)
from ..dialects import accfg, func
from ..ir.operation import Operation


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the runtime responds to detected faults.

    With ``enabled=False`` detection stays on (read-back verification and
    epoch checks still run whenever an injector is attached) but every
    detected fault raises :class:`~repro.sim.device.FaultError` instead of
    being repaired — faults are *never* silent.
    """

    enabled: bool = True
    #: bounded retry budget per faulting interaction
    max_retries: int = 8
    #: host cycles of the first backoff stall; doubles each retry
    backoff_base: float = 16.0
    backoff_factor: float = 2.0
    #: re-setup strategy after detected state loss: "minimal" restores only
    #: the fields the program still relies on (ReliancePlan), "full" replays
    #: the host's entire shadow register file
    resetup: str = "minimal"
    #: staged-path write faults on one device before it is degraded from
    #: concurrent to sequential configuration
    degrade_after: int = 2

    def backoff(self, attempt: int) -> float:
        """Stall cycles before retry ``attempt`` (0-based)."""
        return self.backoff_base * (self.backoff_factor**attempt)


@dataclass
class RecoveryStats:
    """What detection and recovery cost over one run."""

    verify_reads: int = 0
    write_faults: int = 0
    write_retries: int = 0
    launch_rejects: int = 0
    await_stalls: int = 0
    watchdog_polls: int = 0
    state_losses: int = 0
    resetup_fields: int = 0
    resetup_bytes: int = 0
    #: restored fields that KnownFieldsAnalysis proves dedup assumed retained
    resetup_known_fields: int = 0
    degradations: int = 0
    unrecovered: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            name: getattr(self, name)
            for name in (
                "verify_reads",
                "write_faults",
                "write_retries",
                "launch_rejects",
                "await_stalls",
                "watchdog_polls",
                "state_losses",
                "resetup_fields",
                "resetup_bytes",
                "resetup_known_fields",
                "degradations",
                "unrecovered",
            )
        }


class ReliancePlanMismatch(ValueError):
    """A :class:`ReliancePlan` was handed to a run of another module.

    Its site numbers would name that other module's ops, so minimal
    re-setup could restore too few fields: such runs are refused.
    """


class ReliancePlan:
    """Static per-site restore sets for minimal re-setup.

    For a setup site ``S`` on accelerator ``A`` the sound minimal restore
    set after state loss is::

        shadow(A)  ∩  live_in(S)

    where ``live_in`` is :class:`RegisterLivenessAnalysis` — a may-analysis
    over the shared register file (not one SSA chain: a fresh state chain's
    partial setup still relies on registers an earlier chain wrote).  A
    field ``live_in`` excludes is rewritten on *every* path before any
    launch can read it, so skipping its restore cannot change a launch's
    committed configuration; ``S``'s own fields are excluded because ``S``
    writes them immediately anyway.  The plan also reports which restored
    fields ``KnownFieldsAnalysis`` (the analysis the dedup pass is built on)
    knows statically at the site — exactly the fields whose retention dedup
    assumed when it deleted their re-writes.
    """

    def __init__(self, module: Operation) -> None:
        self.module = module
        self._sites: list[Operation] | None = None
        self._liveness: dict[str, RegisterLivenessAnalysis] = {}
        self._known: dict[str, KnownFieldsAnalysis] = {}
        self._known_cache: dict[Operation, frozenset[str]] = {}

    def _live_in(self, accelerator: str) -> dict[Operation, FieldSet]:
        analysis = self._liveness.get(accelerator)
        if analysis is None:
            analysis = RegisterLivenessAnalysis(accelerator)
            for op in self.module.walk():
                if isinstance(op, func.FuncOp) and not op.is_declaration:
                    analysis.run_function(op)
            self._liveness[accelerator] = analysis
        return analysis.live_in

    @property
    def sites(self) -> list[Operation]:
        """The module's setup/launch ops, indexed by site number."""
        if self._sites is None:
            self._sites = accfg.config_sites(self.module)
        return self._sites

    def _op(self, site: "Operation | int") -> Operation:
        return self.sites[site] if isinstance(site, int) else site

    def restore_set(self, site: "Operation | int") -> FieldSet:
        """Fields (as a possibly co-finite set) to restore at ``site``."""
        site = self._op(site)
        if isinstance(site, (accfg.SetupOp, accfg.LaunchOp)):
            live = self._live_in(site.accelerator).get(site)
            if live is not None:
                return live
        # Unknown site: restore conservatively (everything shadowed).
        return FieldSet.top()

    def known_retained(self, site: "Operation | int") -> frozenset[str]:
        """Field names KnownFieldsAnalysis pins down entering ``site``."""
        site = self._op(site)
        cached = self._known_cache.get(site)
        if cached is not None:
            return cached
        names: frozenset[str] = frozenset()
        if isinstance(site, (accfg.SetupOp, accfg.LaunchOp)):
            accelerator = site.accelerator
            analysis = self._known.get(accelerator)
            if analysis is None:
                analysis = self._known[accelerator] = KnownFieldsAnalysis(
                    accelerator
                )
            in_state = (
                site.in_state
                if isinstance(site, accfg.SetupOp)
                else site.state
            )
            known = analysis.known(in_state)
            if not known.is_top:
                names = frozenset(known.fields)
        self._known_cache[site] = names
        return names
