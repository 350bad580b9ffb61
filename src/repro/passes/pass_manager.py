"""Pass management.

A :class:`ModulePass` transforms a ``builtin.module`` in place.  The
:class:`PassManager` runs an ordered list of passes and optionally verifies
the module between passes, which catches IR corruption right where it is
introduced.  Passes self-register by name so pipelines can be described as
comma-separated strings (``"canonicalize,cse,accfg-dedup"``), mirroring
``mlir-opt``.

Change reporting and analysis caching
-------------------------------------

Every pass implements ``apply(self, module, analyses=None)``, where
``analyses`` is the pipeline's :class:`~repro.analysis.AnalysisManager`,
and *reports what it mutated* from ``apply``:

* ``False``     — the module is untouched: cached analyses stay valid and
  the post-pass re-verification is skipped (nothing can have broken);
* ``True``/``None`` — the module (may have) changed anywhere: every cached
  analysis is invalidated and the module re-verified;
* an iterable of ops (usually ``func.func`` ops) — only those scopes
  changed: analyses over unrelated scopes survive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..ir.operation import Operation
from ..ir.verifier import verify_operation

PASS_REGISTRY: dict[str, type["ModulePass"]] = {}


def register_pass(cls: type["ModulePass"]) -> type["ModulePass"]:
    """Class decorator adding a pass to the pipeline registry."""
    if not cls.name:
        raise ValueError(f"pass class {cls.__name__} has no name")
    existing = PASS_REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(f"pass name '{cls.name}' registered twice")
    PASS_REGISTRY[cls.name] = cls
    return cls


def report_scopes(changed: bool, scopes, root_level: bool = False):
    """Build a pass change report from per-scope bookkeeping.

    ``scopes`` is an iterable of the top-level ops (usually ``func.func``)
    whose subtrees were mutated.  Falls back to the conservative ``True``
    when a change happened at root level, when scope tracking was
    unavailable, or when a reported scope was itself detached (its analyses
    could not be matched by ancestry anymore).
    """
    if not changed:
        return False
    if root_level or scopes is None:
        return True
    scopes = list(scopes)
    if any(scope.parent is None for scope in scopes):
        return True
    return scopes


class ModulePass:
    """Base class for module-level transformations.

    Subclasses implement ``apply(self, module, analyses=None)`` and report
    what they mutated (see the module docstring).
    """

    name: str = ""

    def apply(self, module: Operation, analyses=None):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<pass {self.name}>"


@dataclass(frozen=True)
class PassStatistics:
    """What one pass did to the module: wall time and op-count delta."""

    pass_name: str
    seconds: float
    ops_before: int
    ops_after: int

    @property
    def ops_delta(self) -> int:
        return self.ops_after - self.ops_before


class PassManager:
    """Runs a pipeline of passes over a module.

    With ``instrument=True``, per-pass wall time and IR-size deltas are
    collected in :attr:`statistics` (like ``mlir-opt -pass-statistics``).
    """

    def __init__(
        self,
        passes: list[ModulePass] | None = None,
        verify_each: "bool | str" = True,
        instrument: bool = False,
        lint: bool = False,
        analyses: "AnalysisManager | None" = None,
    ) -> None:
        self.passes: list[ModulePass] = list(passes or [])
        #: ``True`` — verify on entry and after every changed pass (catches
        #: corruption right where it is introduced; the debugging default).
        #: ``"final"`` — verify the whole module once, after the pipeline
        #: (the preset-pipeline policy: same soundness guarantee for the
        #: pipeline's *output*, one traversal instead of one per pass).
        #: ``False`` — no verification.
        if verify_each not in (True, False, "final"):
            raise ValueError(
                f"verify_each must be True, False or 'final', got {verify_each!r}"
            )
        self.verify_each = verify_each
        self.instrument = instrument
        #: with ``lint=True``, the accfg lint suite runs before and after
        #: the pipeline; a pipeline that *introduces* error-severity
        #: diagnostics fails the run (optimizations must not create hazards)
        self.lint = lint
        self.statistics: list[PassStatistics] = []
        #: per-pipeline analysis cache handed to passes that accept it;
        #: invalidated according to each pass's change report
        if analyses is None:
            from ..analysis.manager import AnalysisManager

            analyses = AnalysisManager()
        self.analyses = analyses

    @staticmethod
    def from_pipeline(pipeline: str, verify_each: bool = True) -> "PassManager":
        """Build a pass manager from ``"name1,name2,..."``."""
        passes: list[ModulePass] = []
        for name in pipeline.split(","):
            name = name.strip()
            if not name:
                continue
            cls = PASS_REGISTRY.get(name)
            if cls is None:
                known = ", ".join(sorted(PASS_REGISTRY))
                raise ValueError(f"unknown pass '{name}' (known: {known})")
            passes.append(cls())
        return PassManager(passes, verify_each)

    def add(self, pass_: ModulePass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(self, module: Operation) -> Operation:
        """Apply every pass in order; returns the module for chaining."""
        if self.verify_each is True:
            verify_operation(module)
        baseline_errors: dict[str, int] | None = None
        if self.lint:
            from ..analysis import error_code_counts, run_lints

            baseline_errors = error_code_counts(
                run_lints(module, analyses=self.analyses)
            )
        # Op counts chain from pass to pass: nothing mutates the module
        # between passes, so pass N's after-count is pass N+1's before-count,
        # and a pass reporting ``changed is False`` reuses its before-count —
        # one walk per *changing* pass instead of two walks per pass.
        op_count = sum(1 for _ in module.walk()) if self.instrument else 0
        for pass_ in self.passes:
            ops_before = op_count
            started = time.perf_counter() if self.instrument else 0.0
            changed = pass_.apply(module, self.analyses)
            if self.instrument:
                if changed is not False:
                    op_count = sum(1 for _ in module.walk())
                self.statistics.append(
                    PassStatistics(
                        pass_name=pass_.name,
                        seconds=time.perf_counter() - started,
                        ops_before=ops_before,
                        ops_after=op_count,
                    )
                )
            if changed is False:
                # Untouched module: cached analyses stay valid, and the
                # pre-pass verification still covers the current IR.
                continue
            scopes: list[Operation] | None
            if changed is True or changed is None:
                scopes = None
                self.analyses.invalidate()
            else:
                scopes = list(changed)
                self.analyses.invalidate(scopes)
            if self.verify_each is True:
                # Scope-granular re-verification: a pass that reported the
                # exact functions it mutated only pays for verifying those.
                targets = [module]
                if scopes is not None and all(
                    scope.parent is not None for scope in scopes
                ):
                    targets = scopes
                try:
                    for target in targets:
                        verify_operation(target)
                except Exception as error:
                    raise RuntimeError(
                        f"IR verification failed after pass '{pass_.name}': {error}"
                    ) from error
        if self.verify_each == "final":
            try:
                verify_operation(module)
            except Exception as error:
                raise RuntimeError(
                    f"IR verification failed after pipeline: {error}"
                ) from error
        if baseline_errors is not None:
            from ..analysis import error_code_counts, run_lints

            after = error_code_counts(run_lints(module, analyses=self.analyses))
            introduced = {
                code: count - baseline_errors.get(code, 0)
                for code, count in after.items()
                if count > baseline_errors.get(code, 0)
            }
            if introduced:
                detail = ", ".join(
                    f"{code} (+{delta})" for code, delta in sorted(introduced.items())
                )
                raise RuntimeError(
                    f"pipeline introduced lint errors: {detail}"
                )
        return module

    def format_statistics(self) -> str:
        """Human-readable per-pass report (requires ``instrument=True``)."""
        if not self.statistics:
            return "(no pass statistics collected)"
        lines = [f"{'pass':<24}{'time':>10}{'ops':>8}{'delta':>8}"]
        for stat in self.statistics:
            lines.append(
                f"{stat.pass_name:<24}{stat.seconds * 1e3:>8.2f}ms"
                f"{stat.ops_after:>8}{stat.ops_delta:>+8}"
            )
        return "\n".join(lines)
