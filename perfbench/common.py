"""Plumbing every workload shares: where the sources are, how child
processes are started, cold-start timing, and the per-layer metric table."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time

from layers import LAYER_NAMES
from metrics import median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: cold starts per run; ``setup_s`` is their median
SETUP_REPS = 5

#: iterations of the host-speed probe, a pure-Python loop that uses no repro
PROBE_LOOPS = 200_000
#: seconds the probe takes on the reference host (a quiet phase of the
#: 2-vCPU container the benchmark was defined on)
REFERENCE_PROBE_S = 0.013


def probe_s() -> float:
    """Wall time of one host-speed probe."""
    started = time.perf_counter()
    total = 0
    for value in range(PROBE_LOOPS):
        total += value * value
    return time.perf_counter() - started


class HostSpeed:
    """Host-speed probes taken between measurements.

    The benchmark's host drifts by tens of percent over minutes, and a
    pure-Python loop drifts with it (CPU time drifts too, so this is not
    time slicing).  End-to-end timings are reported at the reference host
    speed: each duration is multiplied by the reference probe time over
    the probes taken around it, so runs made in slow and fast phases
    compare.  The raw figures are printed beside them.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self) -> float:
        value = probe_s()
        self.samples.append(value)
        return value

    def timed(self, work):
        """Run ``work()`` between two probes; returns its result, its raw
        seconds and its seconds at the reference host speed."""
        before = self.probe()
        started = time.perf_counter()
        result = work()
        raw = time.perf_counter() - started
        after = self.probe()
        return result, raw, self.at_reference(raw, before, after)

    @staticmethod
    def at_reference(seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between probes ``before`` and ``after``, at
        the reference host speed."""
        return seconds * REFERENCE_PROBE_S / ((before + after) / 2)

    def scale(self) -> float:
        """Reference over the median probe: multiplies a duration."""
        return REFERENCE_PROBE_S / median(self.samples)


#: pass slots of the preset pipelines (``PassManager`` statistics names)
PASS_NAMES = (
    "accfg-dedup",
    "accfg-overlap",
    "accfg-trace-states",
    "canonicalize",
    "cleanup",
    "dce",
    "licm",
    "unroll",
)

#: every per-layer metric the traced run prints, with its unit; a layer a
#: workload never enters reads 0
PER_LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer in LAYER_NAMES},
    "interp.runs": "count",
    "ir.identity_calls": "count",
    "engine.compiles": "count",
    "engine.trace_cache_hit_rate": "ratio",
    "engine.trace_cache_lookups": "count",
    "passes.pipeline_runs": "count",
    **{f"passes.{name}_s": "s" for name in PASS_NAMES},
    "sim.cycles": "cycles",
    "sim.setup_instrs": "count",
    "sim.config_bytes": "bytes",
    "sim.launches": "count",
    "sim.fig10_uplift_geomean": "x",
    "sim.fig11_speedup_geomean": "x",
    "testing.findings": "count",
    "serve.service_ms_p50": "ms",
    "serve.transport_ms_p50": "ms",
    "serve.hit_ms_p50": "ms",
    "serve.miss_ms_p50": "ms",
    "serve.dedup_hit_rate": "ratio",
    "serve.module_hits": "count",
    "serve.coalesced": "count",
    "serve.errors": "count",
    "floor.ping_ms": "ms",
    "floor.cosim_empty_us": "us",
    "other_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p98_ms": "ms",
}


def child_env() -> dict[str, str]:
    """Environment for ``repro`` child processes: this checkout's sources,
    and no persistent trace cache (it would write outside the checkout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("REPRO_CACHE_DIR", None)
    return env


def cold_start_s(statement: str, host: HostSpeed, reps: int = SETUP_REPS) -> float:
    """Median time of a fresh interpreter running ``statement``, at the
    reference host speed."""

    def start() -> None:
        subprocess.run(
            [sys.executable, "-c", statement],
            cwd=ROOT,
            env=child_env(),
            check=True,
            stdout=subprocess.DEVNULL,
        )

    return median([host.timed(start)[2] for _ in range(reps)])


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(
    snapshot: dict, wall_s: float, untraced_wall_s: float
) -> dict[str, float]:
    """Per-layer metrics from a :meth:`layers.Tracer.snapshot`.

    ``wall_s`` is the traced wall the layer self times must add up to (one
    span stack per thread, so several busy threads count once each);
    ``other_s`` is what no wrapped layer accounts for.
    """
    self_s = snapshot["self_s"]
    calls = snapshot["calls"]
    out: dict[str, float] = {
        f"{layer}_s": self_s.get(layer, 0.0) for layer in LAYER_NAMES
    }
    out["interp.runs"] = calls.get("interp.run", 0)
    out["ir.identity_calls"] = calls.get("ir.identity", 0)
    out["engine.compiles"] = calls.get("engine.compile", 0)
    out["passes.pipeline_runs"] = calls.get("passes.pipeline", 0)
    hits, misses = snapshot["trace_cache"]
    out["engine.trace_cache_lookups"] = hits + misses
    out["engine.trace_cache_hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    for name in PASS_NAMES:
        out[f"passes.{name}_s"] = snapshot["pass_s"].get(name, 0.0)
    out["other_s"] = wall_s - sum(self_s.values())
    out["trace.wall_s"] = wall_s
    out["trace.untraced_wall_s"] = untraced_wall_s
    out["trace.overhead_s"] = wall_s - untraced_wall_s
    return out


def floor_cosim_empty_us(memories, reps: int = 20) -> float:
    """Median cost of an empty ``CoSimulator`` over a duplicated memory
    image: the per-program floor under every dispatch."""
    from repro.sim import CoSimulator

    samples = []
    for _ in range(reps):
        for memory in memories:
            started = time.perf_counter()
            CoSimulator(memory=memory.duplicate())
            samples.append((time.perf_counter() - started) * 1e6)
    return median(samples)
