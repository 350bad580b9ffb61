"""Both engines under host cost models with a fractional CPI.

The built-in specs price a host instruction at 3.0 or 1.0 cycles, where
every sum of cycles is exact.  Under a CPI such as 1.1 the order of the
additions shows in the last bits, so each engine must advance the host
clock one record at a time: a loop back-edge's two records added as one
``2 * cycles`` step put an OpenGeMM 32×32 matmul at 1257.199999999997
total cycles against the tree interpreter's 1257.1999999999966.
"""

import random

import pytest

from repro.engine import run_module_traced
from repro.experiments import fig10_gemmini, fig11_opengemm
from repro.interp import run_module
from repro.isa import HostCostModel
from repro.passes import pipeline_by_name
from repro.sim import CoSimulator
from repro.testing.generator import PROFILES, build_spec, generate_spec
from repro.testing.oracles import _engine_divergences
from repro.workloads import build_gemmini_matmul, build_opengemm_matmul

CPIS = [0.3, 1 / 3, 1.1]

FIGURE_PIPELINES = [
    (build_gemmini_matmul, pipeline)
    for pipeline in (
        fig10_gemmini.BASELINE_PIPELINE,
        fig10_gemmini.OPTIMIZED_PIPELINE,
    )
] + [(build_opengemm_matmul, pipeline) for pipeline in fig11_opengemm.VARIANTS]


def _divergences(build_run, cpi: float) -> list[str]:
    """Run a fresh build on each engine under CPI ``cpi`` and compare.

    ``build_run`` returns (module, memory, args) of a fresh build.
    """
    runs = []
    for engine in (run_module_traced, run_module):
        module, memory, args = build_run()
        sim = CoSimulator(memory=memory, cost_model=HostCostModel(cpi))
        results, _ = engine(module, sim, args=list(args))
        runs.append((results, sim, memory))
    (trace_results, trace_sim, trace_memory), (tree_results, tree_sim, tree_memory) = (
        runs
    )
    return _engine_divergences(
        trace_results, trace_sim, trace_memory, tree_results, tree_sim, tree_memory
    )


@pytest.mark.parametrize("cpi", CPIS, ids=["0.3", "1/3", "1.1"])
@pytest.mark.parametrize("size", [16, 32, 64])
@pytest.mark.parametrize(
    "build, pipeline",
    FIGURE_PIPELINES,
    ids=[f"{build.__name__}-{pipeline}" for build, pipeline in FIGURE_PIPELINES],
)
def test_figure_programs(build, pipeline, size, cpi):
    def build_run():
        workload = build(size)
        pipeline_by_name(pipeline).run(workload.module)
        return workload.module, workload.memory, workload.main_args

    assert _divergences(build_run, cpi) == []


@pytest.mark.parametrize("cpi", CPIS, ids=["0.3", "1/3", "1.1"])
@pytest.mark.parametrize("backend", sorted(PROFILES))
@pytest.mark.parametrize("seed", range(8))
def test_generated_programs(backend, seed, cpi):
    spec = generate_spec(random.Random(seed), backend)
    pipeline = ("none", "baseline", "dedup", "full")[seed % 4]

    def build_run():
        built = build_spec(spec, memory_seed=seed)
        pipeline_by_name(pipeline).run(built.module)
        return built.module, built.memory, built.args

    assert _divergences(build_run, cpi) == []
