"""``fuzz_oracles``: a seeded differential fuzz sweep.

Each operation is one ``repro.testing.fuzz.fuzz`` call for one program of
one backend (iterations are taken in order, backends round robin), over
every registered pipeline, with shrinking and the corpus off.  The program
seeds are exactly those ``repro fuzz --seed SEED`` draws.  A finding fails
the operation unless it belongs to the known defect class
(:func:`known_defect`); every finding is counted and printed.
"""

from __future__ import annotations

import sys
import time

from common import (
    HostSpeed,
    cold_start_s,
    floor_cosim_empty_us,
    layer_metrics,
    own_peak_rss_mb,
)
from layers import Tracer
from metrics import Tally, percentile

#: programs per traced pass, per second of ``--seconds``
TRACED_PROGRAMS_PER_S = 10
#: programs timed between two host-speed probes
PROBE_EVERY = 8
#: iteration index of the warm-up programs, far from any measured one
WARM_UP_ITERATION = 1_000_000


def _backends() -> tuple[str, ...]:
    from repro.testing.generator import PROFILES

    return tuple(sorted(PROFILES))


def known_defect(failure) -> bool:
    """The defect the benchmark's first commit is known to have: on a
    pipeline that runs configuration dedup, a ``functional`` divergence or
    a ``timing`` regression against ``baseline`` (together about one
    program in 500).  It does not fail the operation; any other finding
    does."""
    from repro.passes import PIPELINES

    factory = PIPELINES.get(failure.pipeline)
    return (
        failure.oracle in ("functional", "timing")
        and factory is not None
        and any(p.name == "accfg-dedup" for p in factory().passes)
    )


def fuzz_one(
    seed: int, backend: str, iteration: int, tally: Tally, findings: list
) -> float:
    """Fuzz one program, appending its findings; returns its wall time."""
    from repro.testing.fuzz import fuzz

    started = time.perf_counter()
    report = fuzz(
        seed=seed,
        iterations=1,
        backends=(backend,),
        corpus_dir=None,
        shrink=False,
        start_iteration=iteration,
    )
    elapsed = time.perf_counter() - started
    findings.extend(report.failures)
    if report.programs_run != 1:
        tally.record(False, f"{backend} iteration {iteration}: no program ran")
    elif report.failures and not known_defect(report.failures[0].failure):
        tally.record(False, report.failures[0].format())
    else:
        tally.record(True)
    return elapsed


def _schedule(count: int, backends: tuple[str, ...]):
    """The first ``count`` (backend, iteration) pairs of the sweep."""
    for index in range(count):
        yield backends[index % len(backends)], index // len(backends)


def _warm_up(seed: int, backends: tuple[str, ...]) -> None:
    for backend in backends:
        fuzz_one(seed, backend, WARM_UP_ITERATION, Tally(), [])


def _fixed_pass(seed: int, count: int, tally: Tally, findings: list) -> float:
    from repro.engine import TRACE_CACHE

    TRACE_CACHE.clear()
    started = time.perf_counter()
    for backend, iteration in _schedule(count, _backends()):
        fuzz_one(seed, backend, iteration, tally, findings)
    return time.perf_counter() - started


def _report(findings: list) -> None:
    for finding in findings:
        print(f"perfbench: fuzz finding: {finding.format()}", file=sys.stderr)


def _summary(program_s: list[float]) -> dict[str, float]:
    return {
        "throughput_per_s": len(program_s) / sum(program_s),
        "latency_p50_ms": percentile(program_s, 50) * 1e3,
        "latency_p98_ms": percentile(program_s, 98) * 1e3,
    }


def run(seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    tally = Tally()
    findings: list = []
    backends = _backends()
    if not trace:
        host = HostSpeed()
        setup_s = cold_start_s("import repro.testing.fuzz, repro.passes", host)
        _warm_up(seed, backends)
        raw_s: list[float] = []
        program_s: list[float] = []
        schedule = _schedule(1 << 30, backends)
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            batch = [next(schedule) for _ in range(PROBE_EVERY)]
            times, raw, at_reference = host.timed(
                lambda: [fuzz_one(seed, b, i, tally, findings) for b, i in batch]
            )
            raw_s.extend(times)
            program_s.extend(t * at_reference / raw for t in times)
        _report(findings)
        print(f"raw: {_summary(raw_s)}")
        return tally, {
            "setup_s": setup_s,
            "peak_rss_mb": own_peak_rss_mb(),
            **_summary(program_s),
        }

    from repro.engine import TRACE_CACHE
    from repro.testing.fuzz import program_seed
    from repro.testing.generator import build_memory

    count = max(len(backends), int(TRACED_PROGRAMS_PER_S * seconds))
    _warm_up(seed, backends)
    untraced_wall = _fixed_pass(seed, count, tally, [])
    with Tracer() as tracer:
        traced_wall = _fixed_pass(seed, count, tally, findings)
        snapshot = tracer.snapshot()
    TRACE_CACHE.clear()
    _report(findings)
    memories = [
        build_memory(backend, program_seed(seed, backend, iteration))[0]
        for backend, iteration in _schedule(count, backends)
    ]
    out = layer_metrics(snapshot, traced_wall, untraced_wall)
    out["testing.findings"] = len(findings)
    out["floor.cosim_empty_us"] = floor_cosim_empty_us(memories, reps=2)
    return tally, out
