"""The sweep pattern driver: the reference the worklist driver is held to.

:func:`repro.ir.rewriter.drive_patterns` is an incremental worklist driver.
Its correctness claim is that it reaches the normal form of the simplest
greedy driver, which re-walks the whole root, tries every pattern on every
op, and repeats until a sweep changes nothing.  This module keeps that
driver, and the cleanup pass's alternation of full sweeps and CSE, so the
tests can hold the worklist driver to them:

* :func:`sweep_pass_manager` swaps the two pattern-driven passes of a
  pipeline (``canonicalize`` and ``cleanup``) for their sweep versions;
* :func:`compare_seeded` runs every registered pipeline under each driver
  on the programs ``repro fuzz --seed 0`` draws, and lists the programs
  whose two optimized modules differ.

Run as a script, it compares all of the fuzz run's programs and exits
non-zero on any divergence::

    PYTHONPATH=src python -m tests.properties.sweep_reference
"""

from __future__ import annotations

import random
import sys
from typing import Iterator, Sequence

from repro.ir import structural_key
from repro.ir.operation import IRError, Operation
from repro.ir.rewriter import (
    MAX_PATTERN_ITERATIONS,
    DriverResult,
    PatternRewriter,
    RewritePattern,
    _warn_nonconvergence,
)
from repro.passes import PIPELINES, PassManager, cse_root
from repro.passes.canonicalize import DEFAULT_PATTERNS, CanonicalizePass
from repro.passes.cleanup import MAX_CLEANUP_ROUNDS, CleanupPass
from repro.passes.pass_manager import ModulePass
from repro.testing.fuzz import program_seed
from repro.testing.generator import PROFILES, ProgramSpec, build_spec, generate_spec

#: the fuzz run the comparison replays: ``repro fuzz --seed 0
#: --iterations 200`` (CI's acceptance run), at the fuzzer's default size
SEED = 0
ITERATIONS = 200
MAX_STMTS = 6


def _sweep_patterns(
    root: Operation,
    patterns: Sequence[RewritePattern],
    max_iterations: int,
) -> DriverResult:
    """The legacy driver: full re-walk per sweep, every pattern on every op.

    Kept as the differential oracle for the worklist driver — both reach
    the same normal form.  Does not track per-scope changes.
    """
    def still_attached(op: Operation) -> bool:
        current: Operation | None = op
        while current is not None:
            if current is root:
                return True
            current = current.parent_op
        return False

    changed_any = False
    for _ in range(max_iterations):
        rewriter = PatternRewriter()
        sweep_changed = False
        for op in list(root.walk()):
            if op is not root and not still_attached(op):
                continue  # erased by an earlier pattern in this sweep
            for pattern in patterns:
                try:
                    fired = pattern.match_and_rewrite(op, rewriter)
                except IRError:
                    raise
                if fired or rewriter.changed:
                    sweep_changed = True
                    rewriter.changed = False
                    break  # op may be gone; move to next op
        if not sweep_changed:
            return DriverResult(changed_any, scopes=None)
        changed_any = True
    _warn_nonconvergence("sweep", patterns, sum(1 for _ in root.walk()))
    return DriverResult(changed_any, scopes=None)


class SweepCanonicalizePass(CanonicalizePass):
    """``canonicalize`` on the sweep driver."""

    def apply(self, module: Operation, analyses=None):
        return _sweep_patterns(
            module, DEFAULT_PATTERNS, MAX_PATTERN_ITERATIONS
        ).report()


class SweepCleanupPass(CleanupPass):
    """``cleanup`` on the sweep driver."""

    def apply(self, module: Operation, analyses=None):
        """Alternate full sweeps and CSE to the same joint fixpoint (no
        scope tracking — sweeps do not report scopes)."""
        changed_any = _sweep_patterns(
            module, DEFAULT_PATTERNS, MAX_PATTERN_ITERATIONS
        ).changed
        for _ in range(MAX_CLEANUP_ROUNDS):
            if not cse_root(module):
                break
            changed_any = True
            _sweep_patterns(module, DEFAULT_PATTERNS, MAX_PATTERN_ITERATIONS)
        return True if changed_any else False


def _sweep_version(pass_: ModulePass) -> ModulePass:
    if type(pass_) is CanonicalizePass:
        return SweepCanonicalizePass()
    if type(pass_) is CleanupPass:
        return SweepCleanupPass()
    return pass_


def sweep_pass_manager(manager: PassManager) -> PassManager:
    """``manager`` with ``canonicalize`` and ``cleanup`` on the sweep
    driver; every other pass, and the verification policy, stay."""
    return PassManager(
        [_sweep_version(pass_) for pass_ in manager.passes],
        verify_each=manager.verify_each,
    )


def seeded_programs(iterations: int) -> Iterator[tuple[str, ProgramSpec, int]]:
    """``(label, spec, program seed)`` of each program the first
    ``iterations`` iterations of ``repro fuzz --seed 0`` draw, in its
    order."""
    for iteration in range(iterations):
        for backend in sorted(PROFILES):
            pseed = program_seed(SEED, backend, iteration)
            spec = generate_spec(
                random.Random(pseed), backend, max_stmts=MAX_STMTS
            )
            yield f"{backend} iteration {iteration}", spec, pseed


def _normal_form(module: Operation, manager: PassManager):
    """The optimized module's structural key, or the error that stopped
    the pipeline."""
    try:
        manager.run(module)
    except Exception as error:  # noqa: BLE001 - compared, not raised
        return f"{type(error).__name__}: {error}"
    return structural_key(module)


def compare_seeded(iterations: int) -> list[str]:
    """Every (program, pipeline) pair of the first ``iterations`` seed-0
    fuzz iterations whose worklist and sweep normal forms differ."""
    divergences: list[str] = []
    for label, spec, pseed in seeded_programs(iterations):
        base = build_spec(spec, memory_seed=pseed).module
        for name, factory in PIPELINES.items():
            worklist = _normal_form(base.clone(), factory())
            sweep = _normal_form(base.clone(), sweep_pass_manager(factory()))
            if worklist != sweep:
                divergences.append(f"{label}, pipeline {name!r}")
    return divergences


def main() -> int:
    divergences = compare_seeded(ITERATIONS)
    for divergence in divergences:
        print(f"drivers diverge: {divergence}")
    print(
        f"seed {SEED}: {ITERATIONS * len(PROFILES)} programs x "
        f"{len(PIPELINES)} pipelines, {len(divergences)} divergence(s)"
    )
    return 1 if divergences else 0


if __name__ == "__main__":
    sys.exit(main())
