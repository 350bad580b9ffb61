"""The symbolic-cost surrogate the search loop scores candidates with.

One surrogate evaluation is: build the candidate's IR, run its pipeline,
then *analyze* instead of simulate — the static cost engine
(:mod:`repro.analysis.cost`) prices the host instruction stream exactly
(our builders emit loops whose trip counts the engine resolves, so the
symbolic ranges are point intervals), and the space's analytic
``invocations`` hook supplies the accelerator-side compute cycles, with an
overlap correction when the pipeline hides configuration behind running
launches.

The surrogate is a *ranking* function: validation re-measures the frontier
with real simulation, so an approximation error here costs search quality,
never correctness of the reported winner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..analysis.cost import CostAnalysis, parameter_bindings
from ..backends.base import get_accelerator
from ..isa.instructions import InstrCategory
from ..passes.pipeline import pipeline_by_name

if TYPE_CHECKING:  # pragma: no cover
    from .space import BuiltCandidate, Candidate, ScheduleSpace

#: Bump when the scoring formula changes: persisted scores keyed under an
#: older version are ignored rather than silently reused.
SURROGATE_VERSION = 1

_CONFIG_CATEGORIES = (
    InstrCategory.SETUP,
    InstrCategory.LAUNCH,
    InstrCategory.CALC,
)


class SurrogateError(Exception):
    """The static model cannot price this candidate (unmodeled ops or
    unbounded symbolic counts) — the search drops it."""


def score_candidate(
    space: "ScheduleSpace", cand: "Candidate", size: int, seed: int = 0
) -> dict:
    """Build + optimize + statically score one candidate (no simulation)."""
    built = space.build(cand, size, seed=seed)
    pipeline_by_name(cand.pipeline).run(built.module)
    return score_built(space, cand, size, built)


def score_built(
    space: "ScheduleSpace",
    cand: "Candidate",
    size: int,
    built: "BuiltCandidate",
) -> dict:
    """Score an already-optimized module (see module docstring)."""
    summary = CostAnalysis(built.module).summary("main")
    if summary is None or not summary.is_modeled:
        raise SurrogateError(f"candidate {cand.key} has unmodeled ops")
    bindings = parameter_bindings(built.main_args)
    model = get_accelerator(space.host_accelerator).host_cost_model()

    host_cycles = 0.0
    config_cycles = 0.0
    for (_, category), count in summary.total.instrs.items():
        lo, hi = count.evaluate(bindings)
        if hi is None or hi != lo:
            raise SurrogateError(
                f"candidate {cand.key}: non-exact instruction count"
            )
        per = model.cycles_by_category[category]
        host_cycles += lo * per
        if category in _CONFIG_CATEGORIES:
            config_cycles += lo * per

    config_bytes = summary.total.config_bytes_total().evaluate(bindings)[0]
    launches = 0
    for count in summary.total.launches.values():
        launches += count.evaluate(bindings)[0]

    groups = space.invocations(cand, size)
    total_launch_sites = sum(count for count, _ in groups)
    if space.overlap_hides(cand) and total_launch_sites:
        # Overlap lets the next invocation's configuration run under the
        # current launch; approximate the hideable budget as the average
        # host work per launch.
        hidden = host_cycles / total_launch_sites
        accel_cycles = sum(
            count * max(0.0, cycles - hidden) for count, cycles in groups
        )
    else:
        accel_cycles = sum(count * cycles for count, cycles in groups)

    total = host_cycles + accel_cycles
    ops = built.total_ops
    return {
        "total_cycles_est": round(total, 3),
        "host_cycles": round(host_cycles, 3),
        "accel_cycles_exposed": round(accel_cycles, 3),
        "config_cycles": round(config_cycles, 3),
        "config_bytes": int(config_bytes),
        "launches": int(launches),
        "ops": int(ops),
        "i_oc": round(ops / config_bytes, 3) if config_bytes else None,
    }
