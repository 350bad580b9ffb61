"""Differential equivalence oracles.

A :class:`Subject` is a program under test: a factory that produces a *fresh*
``(module, memory, args)`` triple on every call (pass pipelines mutate
modules in place, so each pipeline runs against its own build).  For every
registered pipeline, :func:`check_subject` asserts three things the paper
claims its optimizations guarantee:

* **functional** — function results, final memory image, and per-device
  launch counts match the unoptimized (``none``) run bit-exactly
  (Section 5: the passes never change program semantics);
* **timing** — optimized total cycles never materially exceed the
  cleanups-only ``baseline`` run (Eq. 2/3 accounting: removing configuration
  work cannot slow the program down).  A small additive slack covers the
  ``lb < ub`` guards hoisting inserts around possibly-zero-trip loops, and
  the comparison is skipped for the baseline pipelines themselves;
* **lint** — pipelines never *introduce* error-severity ACCFG diagnostics
  (reusing :mod:`repro.analysis`, the same gate as
  ``PassManager(lint=True)``).

A fourth oracle, **static-cost**, holds the static cost engine
(:mod:`repro.analysis.cost`) to the simulator on every executed run: the
symbolic prediction of instruction counts, configuration bytes, and launch
counts — evaluated at the run's concrete arguments — must *bound* what the
simulator measured, and on programs whose trip counts the engine resolves
exactly the bounds collapse to equality.  Programs containing ops the
engine does not model are skipped (the model makes no claim about them).

Any crash while optimizing or executing is reported as a ``crash``
oracle finding; ``trace-vs-tree`` cross-checks the trace-compiled
execution engine against the reference tree interpreter (see *Engines*
below).

Hot-path structure
------------------

``check_subject`` builds and verifies the subject **once**, then clones the
module per pipeline (cloning is far cheaper than rebuilding, and dodges the
41%-of-wall re-verification the old build-per-pipeline flow paid).
Pipelines run with per-pass verification off and a single post-pipeline
verify; when that verify fails, the pipeline is re-run on a fresh clone with
per-pass verification to attribute the corruption to the offending pass.
Optimized modules are then keyed by :func:`repro.ir.structural_key` (an
exact tuple of ints and strings from one walk of the module): distinct
pipelines routinely converge to identical IR, and key hits skip execution
and linting entirely — the key is also handed to the engine's
compiled-trace cache, whose in-memory tier uses the same key, so the
module is never walked twice.

Engines
-------

``engine`` selects how modules execute:

* ``"tree"``  — the reference tree-walking interpreter only;
* ``"trace"`` (default) — the trace-compiled engine (:mod:`repro.engine`),
  with the unoptimized run of every subject *also* executed by the tree
  interpreter and compared bit-for-bit (results, memory image, launch
  counts, instruction trace, timeline spans, total cycles) — any mismatch
  is a ``trace-vs-tree`` failure;
* ``"both"``  — cross-check every pipeline's run, not just ``none``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from ..analysis import error_code_counts, run_lints
from ..interp import run_module
from ..ir import structural_key, verify_operation
from ..passes import PIPELINES, PassManager
from ..sim import CoSimulator
from ..sim.memory import Memory, MemorySnapshot
from .generator import ProgramSpec, build_memory, build_spec

#: Pipelines that make no faster-than-baseline promise: the timing oracle
#: does not apply to them.  ``volatile-baseline`` deliberately withholds LICM
#: and ``licm`` withholds CSE — each runs a strict subset of ``baseline``'s
#: cleanups, so either may legitimately be slower than it.
BASELINE_PIPELINES = frozenset({"none", "baseline", "volatile-baseline", "licm"})

#: Multiplicative tolerance of the timing oracle.
TIMING_EPSILON = 0.001

#: The error-severity lint rules (ACCFG002 double-await, ACCFG003
#: use-after-reset, ACCFG004/005 linearity).  The lint oracle compares
#: error counts only, so oracle runs skip the warning-only rules — the
#: diagnostics they would add are filtered out by ``error_code_counts``
#: anyway.
ERROR_LINT_CODES = frozenset({"ACCFG002", "ACCFG003", "ACCFG004", "ACCFG005"})

#: Default execution engine for oracle runs (see module docstring).
DEFAULT_ENGINE = "trace"

ENGINES = ("tree", "trace", "both")


@dataclass(frozen=True)
class OracleFailure:
    """One oracle violation for one pipeline."""

    #: "functional" | "timing" | "lint" | "static-cost" | "crash"
    #: | "trace-vs-tree"
    oracle: str
    pipeline: str
    message: str

    def format(self) -> str:
        return f"[{self.oracle}] pipeline '{self.pipeline}': {self.message}"


@dataclass
class RunOutcome:
    """Everything one (build, optimize, execute) run observed."""

    results: list[int]
    image: MemorySnapshot | list[np.ndarray]
    total_cycles: float
    launch_counts: dict[str, int]
    lint_errors: dict[str, int]


@dataclass
class Subject:
    """A program under differential test.

    ``fresh()`` must return an independent build each time: a verified
    module, the memory image it references, and the ``main`` arguments.
    ``fresh_memory()``, when provided, rebuilds just the ``(memory, args)``
    pair — the fast path for re-executing an already-optimized module
    without rebuilding its IR; without it the oracles fall back to
    ``fresh()`` and discard the module.
    """

    fresh: Callable[[], tuple[object, Memory, list[int]]]
    zero_trip_sites: int = 0
    name: str = "<subject>"
    fresh_memory: Callable[[], tuple[Memory, list[int]]] | None = None


def subject_for_spec(spec: ProgramSpec, memory_seed: int = 0) -> Subject:
    """Wrap a generated program spec as an oracle subject."""

    def fresh():
        built = build_spec(spec, memory_seed)
        return built.module, built.memory, built.args

    def fresh_memory():
        # Addresses and contents are a pure function of (backend,
        # memory_seed); building the module is not needed to rebuild them.
        memory, _ = build_memory(spec.backend, memory_seed)
        return memory, [int(spec.cond_value), 0]

    return Subject(
        fresh=fresh,
        zero_trip_sites=spec.zero_trip_sites(),
        name=f"spec:{spec.backend}",
        fresh_memory=fresh_memory,
    )


def _fresh_memory(subject: Subject) -> tuple[Memory, list[int]]:
    if subject.fresh_memory is not None:
        return subject.fresh_memory()
    _module, memory, args = subject.fresh()
    return memory, args


def _pass_state_key(pass_) -> tuple | None:
    """A hashable fingerprint of a pass's behavior, or None when opaque.

    Two passes with equal keys are the same class in the same configuration,
    so they transform any given module identically — the property pipeline
    prefix sharing rests on.  Any attribute we cannot fingerprint faithfully
    (callables, IR references, ...) disables sharing for that pass.
    """
    items: list[tuple] = []
    for attr, value in sorted(vars(pass_).items()):
        if value is None or isinstance(value, (bool, int, float, str)):
            items.append((attr, value))
        elif isinstance(value, (set, frozenset)) and all(
            isinstance(v, str) for v in value
        ):
            items.append((attr, ("set", tuple(sorted(value)))))
        elif isinstance(value, (list, tuple)) and all(
            isinstance(v, (bool, int, float, str)) for v in value
        ):
            items.append((attr, ("seq", tuple(value))))
        else:
            return None
    return (type(pass_), tuple(items))


def _shared_prefixes(
    pipelines: Mapping[str, Callable[[], PassManager]]
) -> tuple[frozenset[tuple], dict[tuple, int]]:
    """Pass-key prefixes shared by at least two of the given pipelines.

    These are the (and the only) intermediate pipeline states worth
    snapshotting: the preset pipelines all open with the same cleanup
    sequence, and dedup/overlap/full additionally share state tracing (and
    dedup), so most of their pass executions are redundant across pipelines.

    Returns ``(resume_points, resume_counts)``: ``resume_counts`` maps each
    resume point to the number of pipelines it is the resume point *of*, so
    the runner can hand the snapshot to its final sharer by move instead of
    by clone.
    """
    counts: dict[tuple, int] = {}
    key_lists: list[list[tuple]] = []
    for factory in pipelines.values():
        try:
            pipeline = factory()
        except Exception:  # noqa: BLE001 - the runner will report it
            continue
        if pipeline.lint or pipeline.instrument:
            continue
        keys = [_pass_state_key(p) for p in pipeline.passes]
        if any(key is None for key in keys):
            continue
        key_lists.append(keys)
        for length in range(1, len(keys) + 1):
            prefix = tuple(keys[:length])
            counts[prefix] = counts.get(prefix, 0) + 1
    # Snapshot only each pipeline's *longest* shared prefix (its resume
    # point); shorter shared prefixes would be cloned but never resumed
    # from, since every sharer prefers the longer state.
    resume_counts: dict[tuple, int] = {}
    for keys in key_lists:
        for length in range(len(keys), 0, -1):
            prefix = tuple(keys[:length])
            if counts.get(prefix, 0) >= 2:
                resume_counts[prefix] = resume_counts.get(prefix, 0) + 1
                break
    return frozenset(resume_counts), resume_counts


def _execute(module, memory, args, engine, key=None):
    """Run ``module`` under the selected engine; returns ``(results, sim)``.

    ``key`` is an optional precomputed structural key for the trace cache.
    """
    sim = CoSimulator(memory=memory)
    if engine == "tree":
        return run_module(module, sim, args=args)[0], sim
    from ..engine import TRACE_CACHE, TraceExecutor

    compiled = TRACE_CACHE.get_or_compile(module, key=key)
    return TraceExecutor(compiled, sim).run("main", args), sim


def _first_mismatch(xs, ys) -> int:
    for index, (x, y) in enumerate(zip(xs, ys)):
        if x != y:
            return index
    return min(len(xs), len(ys))


def _engine_divergences(
    trace_results, trace_sim, trace_memory, tree_results, tree_sim, tree_memory
) -> list[str]:
    """Every observable difference between a trace-engine run and a
    tree-interpreter run of the same module (empty = bit-identical)."""
    problems: list[str] = []
    if trace_results != tree_results:
        problems.append(f"results {trace_results} != {tree_results}")
    if trace_sim.total_cycles != tree_sim.total_cycles:
        problems.append(
            f"total cycles {trace_sim.total_cycles:g} != "
            f"{tree_sim.total_cycles:g}"
        )
    trace_launches = {
        name: device.launch_count for name, device in trace_sim.devices.items()
    }
    tree_launches = {
        name: device.launch_count for name, device in tree_sim.devices.items()
    }
    if trace_launches != tree_launches:
        problems.append(f"launch counts {trace_launches} != {tree_launches}")
    if trace_sim.trace.instrs != tree_sim.trace.instrs:
        index = _first_mismatch(trace_sim.trace.instrs, tree_sim.trace.instrs)
        problems.append(
            f"instruction traces diverge at #{index} "
            f"({len(trace_sim.trace.instrs)} vs "
            f"{len(tree_sim.trace.instrs)} instrs)"
        )
    if trace_sim.timeline.spans != tree_sim.timeline.spans:
        index = _first_mismatch(
            trace_sim.timeline.spans, tree_sim.timeline.spans
        )
        problems.append(f"timelines diverge at span #{index}")
    for i, (a, b) in enumerate(zip(trace_memory.buffers, tree_memory.buffers)):
        if a.array.shape != b.array.shape or not (a.array == b.array).all():
            problems.append(f"memory images diverge in buffer #{i}")
            break
    return problems


def _cross_check(
    name: str, module, subject: Subject, results, sim, memory
) -> OracleFailure | None:
    """Re-run ``module`` under the tree interpreter and compare."""
    try:
        tree_memory, tree_args = _fresh_memory(subject)
        tree_sim = CoSimulator(memory=tree_memory)
        tree_results = run_module(module, tree_sim, args=tree_args)[0]
    except Exception as error:  # noqa: BLE001 - any asymmetry is the finding
        return OracleFailure(
            "trace-vs-tree",
            name,
            f"tree interpreter raised {type(error).__name__}: {error} "
            "where the trace engine succeeded",
        )
    problems = _engine_divergences(
        results, sim, memory, tree_results, tree_sim, tree_memory
    )
    if problems:
        return OracleFailure("trace-vs-tree", name, "; ".join(problems))
    return None


def run_one(
    subject: Subject,
    pipeline: PassManager | None,
    engine: str = DEFAULT_ENGINE,
) -> RunOutcome | OracleFailure:
    """Build the subject, optionally optimize it, execute, and measure."""
    stage = "build"
    try:
        module, memory, args = subject.fresh()
        if pipeline is not None:
            stage = "optimize"
            pipeline.run(module)
            verify_operation(module)
        stage = "execute"
        results, sim = _execute(module, memory, args, engine)
        stage = "lint"
        lint_errors = error_code_counts(
            run_lints(module, codes=set(ERROR_LINT_CODES))
        )
    except Exception as error:  # noqa: BLE001 - every crash is a finding
        return OracleFailure(
            "crash", "?", f"{stage}: {type(error).__name__}: {error}"
        )
    return RunOutcome(
        results=results,
        image=memory.snapshot(),
        total_cycles=sim.total_cycles,
        launch_counts={
            name: device.launch_count for name, device in sim.devices.items()
        },
        lint_errors=lint_errors,
    )


def timing_slack(zero_trip_sites: int, cycles_per_instr: float = 3.0) -> float:
    """Additive cycles the optimized program may pay for soundness guards.

    Hoisting a setup out of a possibly-zero-trip loop inserts an ``lb < ub``
    guard (compare + branch, and the hoisted constants execute once even
    when the loop would not have run); each such site is allowed a small
    constant, never anything proportional to trip counts.
    """
    return 16.0 * cycles_per_instr * (zero_trip_sites + 1)


def _functional_failures(
    name: str, base: RunOutcome, out: RunOutcome
) -> Iterable[OracleFailure]:
    if out.results != base.results:
        yield OracleFailure(
            "functional",
            name,
            f"results diverge: {out.results} != {base.results}",
        )
        return
    for i, (a, b) in enumerate(zip(base.image, out.image)):
        if a.shape != b.shape or not (a == b).all():
            diverging = int((a != b).sum()) if a.shape == b.shape else -1
            yield OracleFailure(
                "functional",
                name,
                f"memory image diverges in buffer #{i} "
                f"({diverging} element(s) differ)",
            )
            return
    if out.launch_counts != base.launch_counts:
        yield OracleFailure(
            "functional",
            name,
            f"launch counts diverge: {out.launch_counts} != {base.launch_counts}",
        )


class _SubjectRunner:
    """Runs pipelines over clones of one verified base module, deduplicating
    identical optimized outputs through a per-subject outcome cache."""

    def __init__(
        self,
        subject: Subject,
        base_module,
        engine: str,
        shared_prefixes: frozenset[tuple] = frozenset(),
        resume_counts: dict[tuple, int] | None = None,
    ) -> None:
        self.subject = subject
        self.base_module = base_module
        self.engine = engine
        self.outcomes: dict[tuple, RunOutcome] = {}
        #: pipeline prefixes (see :func:`_shared_prefixes`) worth caching
        self.shared_prefixes = shared_prefixes
        #: resume point -> how many pipelines have yet to resume there; when
        #: a count is exhausted, the snapshot moves to its last sharer
        self._resume_counts = dict(resume_counts or {})
        #: prefix key tuple -> module state after running that prefix
        self._prefix_states: dict[tuple, object] = {}

    def _run_pipeline(self, pipeline: PassManager):
        """Optimize a clone of the base module, reusing shared prefix states.

        Resumes from the longest already-computed shared prefix and
        snapshots the module at each shared-prefix boundary it newly
        crosses, so pass sequences common to several pipelines execute once
        per subject instead of once per pipeline.
        """
        passes = pipeline.passes
        keys = [_pass_state_key(p) for p in passes]
        if (
            pipeline.lint
            or pipeline.instrument
            or any(key is None for key in keys)
        ):
            module = self.base_module.clone()
            pipeline.verify_each = False
            pipeline.run(module)
            return module
        count = len(passes)
        start, source = 0, self.base_module
        for length in range(count, 0, -1):
            cached = self._prefix_states.get(tuple(keys[:length]))
            if cached is not None:
                start, source = length, cached
                break
        # Account this pipeline against its resume point; when the count is
        # exhausted and we are resuming exactly there, the snapshot has no
        # future reader and moves to us instead of being cloned.
        moved = False
        for length in range(count, 0, -1):
            resume = tuple(keys[:length])
            if resume in self._resume_counts:
                remaining = self._resume_counts[resume] - 1
                self._resume_counts[resume] = remaining
                if (
                    remaining <= 0
                    and start == length
                    and source is not self.base_module
                ):
                    self._prefix_states.pop(resume, None)
                    moved = True
                break
        module = source if moved else source.clone()
        analyses = pipeline.analyses
        while start < count:
            stop = count
            for boundary in range(start + 1, count):
                prefix = tuple(keys[:boundary])
                if (
                    prefix not in self._prefix_states
                    and self._resume_counts.get(prefix, 0) > 0
                ):
                    stop = boundary
                    break
            PassManager(
                passes[start:stop], verify_each=False, analyses=analyses
            ).run(module)
            if stop < count:
                # Mid-pipeline snapshot: later passes keep mutating
                # ``module``, so the cached state must be an isolated clone.
                self._prefix_states[tuple(keys[:stop])] = module.clone()
            start = stop
        full = tuple(keys)
        if (
            full not in self._prefix_states
            and self._resume_counts.get(full, 0) > 0
        ):
            # The finished module is only read from here on (execute, lint,
            # snapshot sources are cloned or moved), so it is cached as-is.
            self._prefix_states[full] = module
        return module

    def run(
        self,
        name: str,
        factory: Callable[[], PassManager] | None,
        cross_check: bool,
        memory: Memory | None = None,
        args: list[int] | None = None,
    ) -> tuple[RunOutcome | OracleFailure, list[OracleFailure]]:
        """One pipeline's outcome plus any cross-check divergences
        (trace-vs-tree, static-cost)."""
        extras: list[OracleFailure] = []
        stage = "optimize"
        try:
            pipeline = factory() if factory is not None else None
            ran_passes = pipeline is not None and (
                pipeline.passes or pipeline.lint
            )
            if ran_passes:
                module = self._run_pipeline(pipeline)
            else:
                # No passes to run: the base module *is* this pipeline's
                # output (it is never mutated, so no clone is needed).
                module = self.base_module
            key = structural_key(module)
            cached = self.outcomes.get(key)
            if cached is not None:
                # An identical module already verified, executed, and linted
                # for this subject — nothing about this run can differ.
                return cached, extras
            if ran_passes:
                try:
                    verify_operation(module)
                except Exception:
                    # Attribute the corruption to the pass that introduced
                    # it: re-run on a fresh clone with per-pass verification
                    # (the slow path only failing pipelines pay).
                    factory().run(self.base_module.clone())
                    raise
            stage = "execute"
            if memory is None or args is None:
                memory, args = _fresh_memory(self.subject)
            results, sim = _execute(
                module, memory, args, self.engine, key
            )
            if cross_check:
                divergence = _cross_check(
                    name, module, self.subject, results, sim, memory
                )
                if divergence is not None:
                    extras.append(divergence)
            stage = "static-cost"
            from ..analysis.cost import compare_with_simulation

            mismatches = compare_with_simulation(module, sim, args)
            if mismatches:
                extras.append(
                    OracleFailure("static-cost", name, "; ".join(mismatches))
                )
            stage = "lint"
            lint_errors = error_code_counts(
                run_lints(module, codes=set(ERROR_LINT_CODES))
            )
        except Exception as error:  # noqa: BLE001 - every crash is a finding
            return (
                OracleFailure(
                    "crash", name, f"{stage}: {type(error).__name__}: {error}"
                ),
                extras,
            )
        outcome = RunOutcome(
            results=results,
            image=memory.snapshot(),
            total_cycles=sim.total_cycles,
            launch_counts={
                name_: device.launch_count
                for name_, device in sim.devices.items()
            },
            lint_errors=lint_errors,
        )
        self.outcomes[key] = outcome
        return outcome, extras


def check_subject(
    subject: Subject,
    pipelines: Mapping[str, Callable[[], PassManager]] | None = None,
    timing: bool = True,
    engine: str = DEFAULT_ENGINE,
) -> list[OracleFailure]:
    """Run every pipeline over the subject and collect oracle violations.

    ``pipelines`` maps pipeline names to :class:`PassManager` factories and
    defaults to every registered pipeline; a ``none`` entry (or an implicit
    unoptimized run) is the functional baseline, ``baseline`` the timing
    baseline.  ``engine`` selects trace/tree execution and the
    ``trace-vs-tree`` cross-check policy (see the module docstring).
    """
    if engine not in ENGINES:
        known = ", ".join(ENGINES)
        raise ValueError(f"unknown engine '{engine}' (known: {known})")
    pipelines = dict(pipelines if pipelines is not None else PIPELINES)
    failures: list[OracleFailure] = []

    # One build + one verification; every pipeline optimizes its own clone.
    stage = "build"
    try:
        base_module, base_memory, base_args = subject.fresh()
        stage = "optimize"
        verify_operation(base_module)
    except Exception as error:  # noqa: BLE001
        return [
            OracleFailure(
                "crash", "none", f"{stage}: {type(error).__name__}: {error}"
            )
        ]

    shared_prefixes, resume_counts = _shared_prefixes(pipelines)
    runner = _SubjectRunner(
        subject, base_module, engine, shared_prefixes, resume_counts
    )

    base, extras = runner.run(
        "none",
        pipelines.get("none"),
        cross_check=engine != "tree",
        memory=base_memory,
        args=base_args,
    )
    if isinstance(base, OracleFailure):
        # The *unoptimized* program crashed: either a generator bug or a
        # genuine interpreter/simulator defect — either way, report it.
        return [base]
    failures.extend(extras)

    # Run the timing baseline first so its cycle count is available no
    # matter where other pipeline names sort.
    baseline_out: RunOutcome | OracleFailure | None = None
    if "baseline" in pipelines:
        baseline_out, extras = runner.run(
            "baseline", pipelines["baseline"], cross_check=engine == "both"
        )
        if isinstance(baseline_out, OracleFailure):
            failures.append(baseline_out)
        failures.extend(extras)
    timing_base = (
        baseline_out if timing and isinstance(baseline_out, RunOutcome) else None
    )

    for name, factory in sorted(pipelines.items()):
        if name == "none":
            continue
        if name == "baseline":
            if not isinstance(baseline_out, RunOutcome):
                continue  # its crash is already reported
            out = baseline_out
        else:
            out, extras = runner.run(
                name, factory, cross_check=engine == "both"
            )
            failures.extend(extras)
            if isinstance(out, OracleFailure):
                failures.append(out)
                continue
        failures.extend(_functional_failures(name, base, out))
        introduced = {
            code: count - base.lint_errors.get(code, 0)
            for code, count in out.lint_errors.items()
            if count > base.lint_errors.get(code, 0)
        }
        if introduced:
            detail = ", ".join(
                f"{code} (+{delta})" for code, delta in sorted(introduced.items())
            )
            failures.append(
                OracleFailure("lint", name, f"introduced lint errors: {detail}")
            )
        if (
            timing
            and timing_base is not None
            and name not in BASELINE_PIPELINES
        ):
            budget = timing_base.total_cycles * (1 + TIMING_EPSILON) + timing_slack(
                subject.zero_trip_sites
            )
            if out.total_cycles > budget:
                failures.append(
                    OracleFailure(
                        "timing",
                        name,
                        f"{out.total_cycles:.0f} cycles > baseline "
                        f"{timing_base.total_cycles:.0f} (+ slack, budget "
                        f"{budget:.0f})",
                    )
                )
    return failures
