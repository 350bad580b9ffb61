"""Shared experiment plumbing: run one workload through one pipeline on the
right host model and collect metrics.

Workloads execute on the trace engine (:func:`repro.engine.run_module_traced`),
which compiles every verified module and is bit-identical to the tree
interpreter."""

from __future__ import annotations

from dataclasses import dataclass

from ..backends import get_accelerator
from ..engine import run_module_traced
from ..passes import pipeline_by_name
from ..sim import CoSimulator
from ..sim.metrics import RunMetrics, collect_metrics
from ..workloads.matmul import MatmulWorkload


@dataclass(frozen=True)
class ExperimentRun:
    """One (workload, pipeline) measurement."""

    accelerator: str
    size: int
    pipeline: str
    metrics: RunMetrics
    correct: bool

    @property
    def cycles(self) -> float:
        return self.metrics.total_cycles

    @property
    def performance(self) -> float:
        return self.metrics.performance


def run_workload(
    workload: MatmulWorkload,
    pipeline: str,
    functional: bool = True,
    check: bool = True,
) -> ExperimentRun:
    """Optimize ``workload`` with the named pipeline, co-simulate it, and
    verify the numerical result against numpy."""
    pipeline_by_name(pipeline).run(workload.module)
    spec = get_accelerator(workload.accelerator)
    sim = CoSimulator(
        memory=workload.memory,
        cost_model=spec.host_cost_model(),
        functional=functional,
    )
    run_module_traced(workload.module, sim, args=workload.main_args)
    metrics = collect_metrics(sim, workload.accelerator)
    correct = workload.check() if (functional and check) else True
    return ExperimentRun(
        accelerator=workload.accelerator,
        size=workload.size,
        pipeline=pipeline,
        metrics=metrics,
        correct=correct,
    )
