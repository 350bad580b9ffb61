"""The autotuner search driver behind ``python -m repro tune``.

Per (family, size) the driver:

1. enumerates the space's candidate **grid** (plus the hand-written default
   schedule, which is always a member and always validated);
2. **dedups** structurally identical candidates: every candidate is built
   once and keyed by its module fingerprint + pipeline, so two parameter
   spellings that produce the same IR share one surrogate evaluation and
   one persistent-cache entry;
3. **scores** every unseen key with the symbolic surrogate
   (:mod:`repro.tune.surrogate`), sharding the batch across worker
   processes via :func:`repro.testing.parallel.parallel_map` — scores are a
   pure function of the candidate, so the merged result is identical at any
   ``--jobs``;
4. runs ``refine_rounds`` of **greedy refinement**: neighbors of the
   current surrogate top-k are scored the same way;
5. **validates** the surrogate Pareto frontier (total estimated cycles vs
   configuration bytes) with real functional simulation, checking the
   numerical result *and* the static-vs-simulated oracle
   (:func:`repro.analysis.cost.compare_with_simulation`) on every point.

The final ranking of validated points uses *simulated* cycles — the
surrogate only chooses where to spend simulations, so a surrogate
approximation can never promote a loser to reported winner.

The JSON report is deterministic for a given (config, seed): no wall-clock
times and no job counts are recorded (timings go to stdout), and the
``evaluated`` score map doubles as the ``--resume`` state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.cost import compare_with_simulation
from ..backends.base import get_accelerator
from ..engine import run_module_traced
from ..engine.cache import module_fingerprint
from ..passes.pipeline import pipeline_by_name
from ..sim import CoSimulator
from ..testing.parallel import parallel_map, shard_ranges
from .cache import ScoreCache, score_key
from .space import Candidate, ScheduleSpace, get_space
from .surrogate import SurrogateError, score_candidate

REPORT_SCHEMA = "tune-report/1"

#: Most frontier points validated (simulated) per (family, size); the
#: report records how many were dropped, never silently.
VALIDATE_CAP = 10


@dataclass
class TuneConfig:
    """One ``repro tune`` invocation's search parameters."""

    families: tuple[str, ...] = ("opengemm", "gemmini")
    sizes: tuple[int, ...] | None = None  # None: per-space defaults
    quick: bool = False
    jobs: int = 1
    seed: int = 0
    refine_rounds: int = 2
    refine_top: int = 4

    def sizes_for(self, space: ScheduleSpace) -> tuple[int, ...]:
        if self.sizes is not None:
            return self.sizes
        return space.quick_sizes if self.quick else space.sizes

    def to_doc(self) -> dict:
        return {
            "families": list(self.families),
            "sizes": list(self.sizes) if self.sizes is not None else None,
            "quick": self.quick,
            "seed": self.seed,
            "refine_rounds": self.refine_rounds,
            "refine_top": self.refine_top,
        }


def _score_shard(payload: dict) -> list[dict]:
    """Worker entry point: score a shard of candidates (module-level so the
    pool can pickle it by name).  Returns one dict per candidate, in input
    order: the surrogate score, or ``{"error": ...}``."""
    space = get_space(payload["family"])
    size = payload["size"]
    seed = payload["seed"]
    results: list[dict] = []
    for doc in payload["cands"]:
        cand = Candidate.from_doc(doc)
        try:
            results.append(score_candidate(space, cand, size, seed=seed))
        except SurrogateError as error:
            results.append({"error": str(error)})
    return results


def _score_new(
    space: ScheduleSpace,
    size: int,
    cands: list[Candidate],
    config: TuneConfig,
    cache: ScoreCache,
    state: "_FamilyState",
) -> None:
    """Fingerprint-dedup ``cands``, pull cached scores, and shard the rest
    out to the surrogate workers."""
    pending: list[tuple[str, Candidate]] = []
    for cand in cands:
        if cand in state.key_of:
            continue
        built = space.build(cand, size, seed=config.seed)
        key = score_key(
            module_fingerprint(built.module),
            cand.pipeline,
            space.host_accelerator,
        )
        state.key_of[cand] = key
        if key in state.scores or any(k == key for k, _ in pending):
            state.deduped += 1
            continue
        cached = cache.get(key)
        if cached is not None:
            state.cache_hits += 1
            state.scores[key] = None if "error" in cached else cached
            continue
        pending.append((key, cand))

    if not pending:
        return
    shards = shard_ranges(len(pending), config.jobs)
    payloads = [
        {
            "family": space.family,
            "size": size,
            "seed": config.seed,
            "cands": [c.to_doc() for _, c in pending[start : start + count]],
        }
        for start, count in shards
    ]
    merged: list[dict] = []
    for shard in parallel_map(_score_shard, payloads, jobs=config.jobs):
        merged.extend(shard)
    for (key, cand), score in zip(pending, merged):
        state.scored += 1
        if "error" in score:
            state.failed += 1
            state.scores[key] = None
        else:
            state.scores[key] = score
        cache.put(key, score)


@dataclass
class _FamilyState:
    """Search bookkeeping for one (family, size)."""

    key_of: dict[Candidate, str] = field(default_factory=dict)
    scores: dict[str, dict | None] = field(default_factory=dict)
    cache_hits: int = 0
    scored: int = 0
    deduped: int = 0
    failed: int = 0

    def score(self, cand: Candidate) -> dict | None:
        return self.scores.get(self.key_of.get(cand, ""))

    def ranked(self) -> list[Candidate]:
        """Deduped candidates with scores, best estimated cycles first."""
        best_for_key: dict[str, Candidate] = {}
        for cand, key in self.key_of.items():
            best_for_key.setdefault(key, cand)
        scored = [
            cand
            for cand in best_for_key.values()
            if self.score(cand) is not None
        ]
        return sorted(
            scored,
            key=lambda c: (self.score(c)["total_cycles_est"], c.key),
        )


def _pareto_frontier(
    cands: list[Candidate], state: _FamilyState
) -> list[Candidate]:
    """Non-dominated candidates under (estimated cycles, config bytes)."""
    frontier: list[Candidate] = []
    for cand in cands:
        score = state.score(cand)
        dominated = False
        for other in cands:
            if other is cand:
                continue
            o = state.score(other)
            if (
                o["total_cycles_est"] <= score["total_cycles_est"]
                and o["config_bytes"] <= score["config_bytes"]
                and (
                    o["total_cycles_est"] < score["total_cycles_est"]
                    or o["config_bytes"] < score["config_bytes"]
                )
            ):
                dominated = True
                break
        if not dominated:
            frontier.append(cand)
    return frontier


def _validate(
    space: ScheduleSpace, cand: Candidate, size: int, seed: int
) -> dict:
    """Real (functional) simulation of one candidate + the oracle check."""
    built = space.build(cand, size, seed=seed)
    pipeline_by_name(cand.pipeline).run(built.module)
    spec = get_accelerator(space.host_accelerator)
    sim = CoSimulator(
        memory=built.memory,
        cost_model=spec.host_cost_model(),
        functional=True,
    )
    run_module_traced(built.module, sim, args=built.main_args)
    mismatches = compare_with_simulation(
        built.module, sim, args=built.main_args
    )
    return {
        "simulated_cycles": sim.total_cycles,
        "correct": bool(built.workload.check()),
        "mismatches": list(mismatches),
    }


def tune_family(
    space: ScheduleSpace,
    size: int,
    config: TuneConfig,
    cache: ScoreCache,
    progress=None,
) -> dict:
    """Run the full search for one (family, size); returns a report section."""
    say = progress or (lambda message: None)
    state = _FamilyState()
    default = space.default(size)
    grid = space.grid(size, quick=config.quick)
    say(f"[{space.family} n={size}] grid: {len(grid)} candidates")
    _score_new(space, size, grid, config, cache, state)

    for round_index in range(config.refine_rounds):
        top = state.ranked()[: config.refine_top]
        moves: list[Candidate] = []
        for cand in top:
            moves.extend(space.neighbors(cand, size))
        fresh = [c for c in moves if c not in state.key_of]
        if not fresh:
            break
        say(
            f"[{space.family} n={size}] refine round {round_index + 1}: "
            f"{len(fresh)} neighbor(s)"
        )
        _score_new(space, size, fresh, config, cache, state)

    ranked = state.ranked()
    frontier = _pareto_frontier(ranked, state)
    frontier.sort(key=lambda c: (state.score(c)["total_cycles_est"], c.key))
    dropped = max(0, len(frontier) - VALIDATE_CAP)
    to_validate = frontier[:VALIDATE_CAP]
    if default not in to_validate:
        to_validate.append(default)
    say(
        f"[{space.family} n={size}] validating {len(to_validate)} point(s)"
        + (f" ({dropped} frontier point(s) beyond cap skipped)" if dropped else "")
    )

    validated: list[dict] = []
    mismatch_total = 0
    for cand in to_validate:
        result = _validate(space, cand, size, config.seed)
        mismatch_total += len(result["mismatches"])
        validated.append(
            {
                "candidate": cand.to_doc(),
                "key": cand.key,
                "estimate": state.score(cand),
                **result,
            }
        )
    validated.sort(key=lambda e: (e["simulated_cycles"], e["key"]))

    default_entry = next(
        e for e in validated if e["key"] == default.key
    )
    best = validated[0]
    default_cycles = default_entry["simulated_cycles"]
    improvement = (
        (default_cycles - best["simulated_cycles"]) / default_cycles * 100.0
        if default_cycles
        else 0.0
    )
    return {
        "family": space.family,
        "size": size,
        "stats": {
            "candidates": len(state.key_of),
            "unique": len(state.scores),
            "deduped": state.deduped,
            "cache_hits": state.cache_hits,
            "scored": state.scored,
            "failed": state.failed,
            "validated": len(validated),
            "frontier_dropped": dropped,
        },
        "default": default_entry,
        "best": best,
        "improvement_pct": round(improvement, 2),
        "oracle_mismatches": mismatch_total,
        "validated": validated,
    }


def run_tune(
    config: TuneConfig,
    cache_path: str | None = None,
    resume_scores: dict | None = None,
    progress=None,
) -> dict:
    """Run the sweep over every configured (family, size); returns the full
    report document (see module docstring for determinism guarantees)."""
    cache = ScoreCache(cache_path)
    if resume_scores:
        cache.seed(resume_scores)
    results = []
    evaluated: dict[str, dict] = {}
    for family in config.families:
        space = get_space(family)
        for size in config.sizes_for(space):
            section = tune_family(space, size, config, cache, progress)
            results.append(section)
    cache.save()
    for key, score in cache.scores.items():
        evaluated[key] = score
    total_hits = sum(s["stats"]["cache_hits"] for s in results)
    total_scored = sum(s["stats"]["scored"] for s in results)
    looked_up = total_hits + total_scored
    return {
        "schema": REPORT_SCHEMA,
        "config": config.to_doc(),
        "results": results,
        "cache": {
            "cache_hits": total_hits,
            "scored": total_scored,
            "hit_rate": round(total_hits / looked_up, 4) if looked_up else 0.0,
        },
        "evaluated": evaluated,
    }


def format_tune_table(report: dict) -> str:
    """Human-readable ranked table for the CLI."""
    lines: list[str] = []
    for section in report["results"]:
        family, size = section["family"], section["size"]
        stats = section["stats"]
        lines.append(
            f"== {family} n={size}: {stats['candidates']} candidates, "
            f"{stats['unique']} unique, {stats['cache_hits']} cached, "
            f"{stats['scored']} scored, {stats['validated']} validated =="
        )
        lines.append(
            f"{'rank':>4}  {'simulated':>11}  {'estimated':>11}  "
            f"{'cfg bytes':>9}  {'ok':>2}  candidate"
        )
        for rank, entry in enumerate(section["validated"], start=1):
            est = entry["estimate"]
            marker = " *" if entry["key"] == section["default"]["key"] else ""
            lines.append(
                f"{rank:>4}  {entry['simulated_cycles']:>11.0f}  "
                f"{est['total_cycles_est']:>11.0f}  "
                f"{est['config_bytes']:>9}  "
                f"{'y' if entry['correct'] else 'N':>2}  "
                f"{entry['key']}{marker}"
            )
        lines.append(
            f"best beats default by {section['improvement_pct']:.1f}% "
            f"({section['best']['simulated_cycles']:.0f} vs "
            f"{section['default']['simulated_cycles']:.0f} cycles); "
            f"oracle mismatches: {section['oracle_mismatches']}"
        )
        lines.append("")
    cache = report["cache"]
    lines.append(
        f"surrogate evaluations: {cache['scored']} scored, "
        f"{cache['cache_hits']} cache hits "
        f"(hit rate {cache['hit_rate']:.0%})"
    )
    return "\n".join(lines)
