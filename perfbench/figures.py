"""``paper_figures``: Figures 10 and 11 at their default sizes.

Each operation is one ``run(sizes=(size,))`` call of
``repro.experiments.fig10_gemmini`` or ``fig11_opengemm`` with functional
emulation on: the figure module checks every matmul against numpy and
raises on a mismatch.  The benchmark seed picks the operand matrices; the
simulated cycle, instruction, byte and launch totals do not depend on
them, so every sweep must reproduce :data:`EXPECTED` exactly.
"""

from __future__ import annotations

import contextlib
import functools
import time

from common import (
    HostSpeed,
    cold_start_s,
    floor_cosim_empty_us,
    layer_metrics,
    own_peak_rss_mb,
)
from layers import Tracer
from metrics import Tally, median, percentile

SIZES = (16, 32, 64, 128, 256)
FIGURES = ("fig10", "fig11")

#: (figure, size) -> simulated (cycles, setup instrs, config bytes, launches)
#: summed over the point's pipelines, as recorded at the benchmark's first
#: commit.  A change to host speed alone must leave every value identical.
EXPECTED = {
    ("fig10", 16): (658.0, 52, 320, 10),
    ("fig10", 32): (2600.0, 158, 1056, 56),
    ("fig10", 64): (14968.0, 862, 5792, 352),
    ("fig10", 128): (102536.0, 5918, 39072, 2432),
    ("fig10", 256): (760168.0, 44062, 286880, 17920),
    ("fig11", 16): (760.0, 296, 1248, 16),
    ("fig11", 32): (2768.0, 968, 4128, 64),
    ("fig11", 64): (11500.0, 3656, 15648, 256),
    ("fig11", 128): (51828.0, 14408, 61728, 1024),
    ("fig11", 256): (262256.0, 57416, 246048, 4096),
}

#: geomeans over the default sizes, recorded with :data:`EXPECTED`
EXPECTED_GEOMEAN = {"fig10": 1.240867108131048, "fig11": 1.9755433496352917}
#: the paper's reported geomeans, printed beside the reproduced ones
PAPER_GEOMEAN = {"fig10": 1.11, "fig11": 1.99}


@contextlib.contextmanager
def seeded_inputs(seed: int):
    """Rebind the matmul builders the figure modules call, so their operand
    matrices come from ``seed``."""
    from repro.experiments import fig10_gemmini, fig11_opengemm

    saved = (fig10_gemmini.build_gemmini_matmul, fig11_opengemm.build_opengemm_matmul)
    fig10_gemmini.build_gemmini_matmul = functools.partial(saved[0], seed=seed)
    fig11_opengemm.build_opengemm_matmul = functools.partial(saved[1], seed=seed)
    try:
        yield
    finally:
        fig10_gemmini.build_gemmini_matmul, fig11_opengemm.build_opengemm_matmul = saved


def _point_runs(figure: str, row) -> list:
    if figure == "fig10":
        return [row.baseline, row.optimized]
    return list(row.runs.values())


def _sim_totals(runs) -> tuple:
    return (
        sum(run.metrics.total_cycles for run in runs),
        sum(run.metrics.setup_instrs for run in runs),
        sum(run.metrics.config_bytes for run in runs),
        sum(run.metrics.launch_count for run in runs),
    )


def sweep(tally: Tally, host: HostSpeed | None = None) -> tuple[dict, list]:
    """One pass over both figures at every size.

    Returns the simulated totals and geomeans of the pass and, when
    ``host`` is given, each point's (raw, reference-speed) seconds.
    """
    from repro.experiments import fig10_gemmini, fig11_opengemm

    modules = {"fig10": fig10_gemmini, "fig11": fig11_opengemm}
    rows = {figure: [] for figure in FIGURES}
    totals = {}
    times = []
    for figure in FIGURES:
        for size in SIZES:
            point = functools.partial(modules[figure].run, sizes=(size,))
            try:
                if host is None:
                    result = point()
                else:
                    result, raw, at_reference = host.timed(point)
                    times.append((raw, at_reference))
            except AssertionError as error:
                tally.record(False, f"{figure} size {size}: {error}")
                continue
            (row,) = result.rows
            runs = _point_runs(figure, row)
            point = _sim_totals(runs)
            totals[(figure, size)] = point
            expected = EXPECTED[(figure, size)]
            if not all(run.correct for run in runs):
                tally.record(False, f"{figure} size {size}: numpy mismatch")
            elif point != expected:
                tally.record(
                    False, f"{figure} size {size}: simulated {point} != {expected}"
                )
            else:
                tally.record(True)
            rows[figure].append(row)
    geomeans = {}
    if len(rows["fig10"]) == len(SIZES):
        geomeans["fig10"] = fig10_gemmini.Fig10Result(rows["fig10"]).geomean_uplift
    if len(rows["fig11"]) == len(SIZES):
        geomeans["fig11"] = fig11_opengemm.Fig11Result(rows["fig11"]).geomean_speedup()
    for figure, value in geomeans.items():
        if value != EXPECTED_GEOMEAN[figure]:
            tally.record(
                False, f"{figure} geomean {value!r} != {EXPECTED_GEOMEAN[figure]!r}"
            )
    return {"totals": totals, "geomeans": geomeans}, times


def _sim_metrics(outcome: dict) -> dict[str, float]:
    totals = list(outcome["totals"].values())
    return {
        "sim.cycles": sum(t[0] for t in totals),
        "sim.setup_instrs": sum(t[1] for t in totals),
        "sim.config_bytes": sum(t[2] for t in totals),
        "sim.launches": sum(t[3] for t in totals),
        "sim.fig10_uplift_geomean": outcome["geomeans"].get("fig10", 0.0),
        "sim.fig11_speedup_geomean": outcome["geomeans"].get("fig11", 0.0),
    }


def _describe(outcome: dict) -> None:
    for figure, value in sorted(outcome["geomeans"].items()):
        print(
            f"{figure} geomean {value:.4f}x (paper: {PAPER_GEOMEAN[figure]:.2f}x)"
        )


def _warm_up() -> None:
    """First-touch imports and kernel memos, outside any measurement."""
    from repro.experiments import fig10_gemmini, fig11_opengemm

    fig10_gemmini.run(sizes=(16,))
    fig11_opengemm.run(sizes=(16,))


def _summary(per_sweep: list[list[float]]) -> dict[str, float]:
    # Each statistic is taken per sweep and then over sweeps by median, so
    # one sweep slowed by the host does not move it; the points of a sweep
    # differ in size by two orders of magnitude, so percentiles pooled over
    # several sweeps would sit on the edge between sizes.
    return {
        "throughput_per_s": median([len(s) / sum(s) for s in per_sweep]),
        "latency_p50_ms": median([percentile(s, 50) for s in per_sweep]) * 1e3,
        "latency_p98_ms": median([percentile(s, 98) for s in per_sweep]) * 1e3,
    }


def run(seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    tally = Tally()
    if not trace:
        host = HostSpeed()
        setup_s = cold_start_s(
            "import repro.experiments.fig10_gemmini, repro.experiments.fig11_opengemm",
            host,
        )
        sweeps = []
        with seeded_inputs(seed):
            _warm_up()
            started = time.perf_counter()
            while not sweeps or time.perf_counter() - started < seconds:
                outcome, times = sweep(tally, host)
                if times:
                    sweeps.append(times)
        _describe(outcome)
        print(f"raw: {_summary([[raw for raw, _ in s] for s in sweeps])}")
        return tally, {
            "setup_s": setup_s,
            "peak_rss_mb": own_peak_rss_mb(),
            **_summary([[at_ref for _, at_ref in s] for s in sweeps]),
        }

    from repro.workloads.matmul import build_gemmini_matmul, build_opengemm_matmul

    with seeded_inputs(seed):
        _warm_up()
        started = time.perf_counter()
        sweep(tally)
        untraced_wall = time.perf_counter() - started
    with Tracer() as tracer, seeded_inputs(seed):
        started = time.perf_counter()
        traced, _ = sweep(tally)
        traced_wall = time.perf_counter() - started
        snapshot = tracer.snapshot()
    _describe(traced)
    memories = [
        build(size, seed=seed).memory
        for build in (build_gemmini_matmul, build_opengemm_matmul)
        for size in SIZES
    ]
    out = layer_metrics(snapshot, traced_wall, untraced_wall)
    out.update(_sim_metrics(traced))
    out["floor.cosim_empty_us"] = floor_cosim_empty_us(memories)
    return tally, out
