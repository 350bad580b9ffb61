"""CI gate: the autotuner's surrogate scores candidates far faster than
simulating them (the tune-smoke job).

Builds and optimizes the first 6 candidates of the OpenGeMM n=128 quick
grid once (either scoring path pays that cost on the search path, so both
sides leave it out), then times the two ways of attaching a number to each
optimized module:

* the static surrogate: 8 reps of ``repro.tune.score_built`` over the
  candidates, after one untimed rep that fills the instruction-tuple memo
  and the lazy imports;
* functional co-simulation: one rep of ``repro.interp.run_module``, the
  tree interpreter, over the same candidates.

The surrogate rate (candidates scored per second) over the simulation rate
must reach :data:`AUTOTUNE_MIN_SPEEDUP`. Both sides run on this machine in
this process, so the floor is absolute.

The denominator is the tree interpreter, not the trace engine
(``run_module_traced``) that the tuner's validation stage runs: the floor
holds against a cold tree interpreter, as it was set, and says nothing
about the engine the tuner uses. Run from the root of a checkout::

    PYTHONPATH=src python tools/surrogate_gate.py
"""

import sys
import time

sys.path.insert(0, "src")

from repro.backends.base import get_accelerator  # noqa: E402
from repro.interp import run_module  # noqa: E402
from repro.passes import pipeline_by_name  # noqa: E402
from repro.sim import CoSimulator  # noqa: E402
from repro.tune import get_space, score_built  # noqa: E402

#: generator seed of the candidates' operands
PINNED_SEED = 20260806
#: the gate fails below this surrogate-over-simulation speedup
AUTOTUNE_MIN_SPEEDUP = 50.0


def measure() -> dict:
    """Surrogate scoring vs simulation on one autotuner candidate batch."""
    space = get_space("opengemm")
    size = 128
    builds = []
    for cand in space.grid(size, quick=True)[:6]:
        built = space.build(cand, size, seed=PINNED_SEED)
        pipeline_by_name(cand.pipeline).run(built.module)
        builds.append((cand, built))

    # One untimed pass to populate the instruction-tuple memo and any lazy
    # imports, so the timed reps measure steady-state scoring throughput.
    for cand, built in builds:
        score_built(space, cand, size, built)

    started = time.perf_counter()
    scored = 0
    for _ in range(8):
        for cand, built in builds:
            score_built(space, cand, size, built)
            scored += 1
    surrogate_wall = time.perf_counter() - started

    cost_model = get_accelerator(space.host_accelerator).host_cost_model()
    started = time.perf_counter()
    simulated = 0
    for _, built in builds:
        sim = CoSimulator(
            memory=built.memory.duplicate(),
            cost_model=cost_model,
            functional=True,
        )
        run_module(built.module, sim, args=built.main_args)
        simulated += 1
    sim_wall = time.perf_counter() - started

    surrogate_rate = scored / surrogate_wall
    sim_rate = simulated / sim_wall
    return {
        "candidates": len(builds),
        "surrogate_per_s": surrogate_rate,
        "simulated_per_s": sim_rate,
        "speedup": surrogate_rate / sim_rate,
    }


def main() -> int:
    result = measure()
    print(
        f"surrogate-gate: {result['candidates']} candidates, surrogate "
        f"{result['surrogate_per_s']:.1f}/s, simulated "
        f"{result['simulated_per_s']:.2f}/s, {result['speedup']:.1f}x "
        f"(floor {AUTOTUNE_MIN_SPEEDUP:.0f}x)"
    )
    if result["speedup"] < AUTOTUNE_MIN_SPEEDUP:
        print(
            f"surrogate-gate: FAIL surrogate speedup {result['speedup']:.1f}x "
            f"below the required {AUTOTUNE_MIN_SPEEDUP:.0f}x",
            file=sys.stderr,
        )
        return 1
    print("surrogate-gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
