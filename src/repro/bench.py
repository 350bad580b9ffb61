"""Performance benchmark harness behind ``python -m repro bench``.

Times the three throughput-bound paths of the reproduction on *pinned*
workloads (fixed generator seeds, fixed rep counts, so numbers are
comparable run to run):

* ``compile``   — build + full pass pipeline over one pinned program per
  backend (the per-pipeline cost every fuzz iteration and sweep point pays);
* ``pattern_driver`` — the greedy rewrite driver alone on pinned modules;
* ``simulate_cold`` — timing simulation of one pinned program per backend
  with the trace cache disabled, so every run pays compile + simulate
  (what a fuzz shard pays on first sight of a module).  Functional device
  emulation is off: this trio measures the cycle-accounting engine the
  paper's sweeps run on, and the (separately priced) functional work is
  ``simulate_functional``;
* ``simulate_warm`` — the same programs through a warm in-process trace
  cache (the steady state of repeated sweeps);
* ``simulate_functional`` — warm-cache execution *with* functional device
  emulation (the differential-oracle hot loop).  Its gap to
  ``simulate_warm`` is the price of functional emulation, which the old
  conflated ``simulate`` number hid;
* ``persistent_cache`` — two-phase: a subprocess populates an on-disk
  store (``REPRO_CACHE_DIR``), then fresh in-process caches replay the
  workload against it.  ``persistent_hit_rate`` is reported separately
  from the in-process ``cache_hit_rate`` — a warm cross-process run never
  inflates the in-memory number;
* ``static_cost`` — the static configuration-cost engine analyzing the
  same pinned programs (prediction throughput vs ``simulate_warm``'s
  measurement throughput);
* ``serve`` — a duplicate-heavy multi-client workload against a real
  :class:`~repro.serve.ReproServer` (8 connections, mixed compile/cost
  requests over a few distinct modules), compared to the same request
  stream handled one at a time with the request-level dedup tiers off.
  ``speedup_vs_serial`` is the headline: under the GIL it comes from
  in-flight coalescing and the outcome cache, not from threading, so it
  measures exactly what the serving layer adds;
* ``fuzz_iteration`` — end-to-end ``repro.testing.fuzz`` iterations across
  all backends and all registered pipelines.

Results are written to ``BENCH_engine.json``::

    {
      "schema": "bench-engine/2",
      "meta": {... python/host info, calibration_ops_per_s ...},
      "workloads": {name: {"wall_s", "programs_per_s", "cache_hit_rate"}},
      "pass_breakdown": {pass_name: {"seconds", "runs", "ops_delta"}},
      "seed_baseline": {...}   # frozen pre-engine numbers, never overwritten
    }

``pass_breakdown`` aggregates ``PassManager(instrument=True)`` statistics
over the ``full`` pipeline: per pass slot, total seconds, run count, and net
op-count delta — the compile-side bottleneck map.

``cache_hit_rate`` reports the compiled-trace cache of :mod:`repro.engine`
(0.0 when the engine is absent or cold).  ``--check FILE`` implements the CI
regression gate: the current ``fuzz_iteration`` throughput must stay within
25% of the committed number after scaling both by the machine-speed
calibration, so the gate compares machines on equal footing; it also
requires the ``serve`` workload's ``speedup_vs_serial`` to stay at or above
:data:`SERVE_MIN_SPEEDUP` — an absolute floor, no calibration needed, since
both sides of the ratio run on the same machine in the same process.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from .ioutil import atomic_write_json

#: Tolerated fractional throughput loss before ``--check`` fails (the CI
#: gate: "fails if fuzz-iteration throughput regresses >25%").
REGRESSION_TOLERANCE = 0.25

SCHEMA = "bench-engine/2"

#: Pinned per-workload generator seeds; changing these invalidates every
#: recorded baseline, so don't.
PINNED_SEED = 20260806


def calibrate(loops: int = 300_000) -> float:
    """Machine-speed probe: pure-Python integer ops per second.

    Used to rescale committed throughput numbers when the checking machine
    is faster/slower than the recording machine.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc = (acc + i * 3) & 0xFFFFFFFF
    wall = time.perf_counter() - started
    return loops / wall if wall > 0 else float("inf")


def _trace_cache_stats() -> tuple[int, int]:
    """(hits, misses) of the engine's compiled-trace cache, if present."""
    try:
        from .engine import TRACE_CACHE
    except ImportError:
        return (0, 0)
    return (TRACE_CACHE.hits, TRACE_CACHE.misses)


def _hit_rate(before: tuple[int, int], after: tuple[int, int]) -> float:
    hits = after[0] - before[0]
    misses = after[1] - before[1]
    total = hits + misses
    return hits / total if total else 0.0


def _pinned_programs() -> list:
    """One pinned mid-size program spec per backend profile."""
    import random
    import zlib

    from .testing.generator import PROFILES, generate_spec

    specs = []
    for backend in sorted(PROFILES):
        rng = random.Random(PINNED_SEED + zlib.crc32(backend.encode()) % 1000)
        specs.append(generate_spec(rng, backend, max_stmts=6))
    return specs


def bench_compile(quick: bool = False) -> dict:
    """Build + optimize (``full`` pipeline) pinned programs, repeatedly."""
    from .passes import PIPELINES
    from .testing.generator import build_spec

    specs = _pinned_programs()
    reps = 4 if quick else 40
    cache_before = _trace_cache_stats()
    started = time.perf_counter()
    programs = 0
    for _ in range(reps):
        for spec in specs:
            built = build_spec(spec, memory_seed=PINNED_SEED)
            PIPELINES["full"]().run(built.module)
            programs += 1
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 4),
        "programs_per_s": round(programs / wall, 3) if wall else 0.0,
        "cache_hit_rate": round(_hit_rate(cache_before, _trace_cache_stats()), 4),
    }


def bench_simulate_cold(quick: bool = False) -> dict:
    """Timing-simulate pinned programs with the trace cache disabled.

    Every run pays compile + simulate against a fresh memory image — the
    uncached per-program cost a sweep pays on first sight of a module.
    Functional device emulation is off (its price is measured by
    ``simulate_functional``).
    """
    from .engine import run_module_traced
    from .sim import CoSimulator
    from .testing.generator import build_spec

    bases = [
        build_spec(spec, memory_seed=PINNED_SEED) for spec in _pinned_programs()
    ]
    reps = 8 if quick else 100
    started = time.perf_counter()
    programs = 0
    for _ in range(reps):
        for built in bases:
            sim = CoSimulator(memory=built.memory.duplicate(), functional=False)
            run_module_traced(
                built.module, sim, args=built.args, cache=False
            )
            programs += 1
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 4),
        "programs_per_s": round(programs / wall, 3) if wall else 0.0,
        "cache_hit_rate": 0.0,  # cache disabled by construction
        "functional": False,
    }


def bench_simulate_warm(quick: bool = False) -> dict:
    """Timing-simulate pinned programs through a warm in-process cache.

    A private :class:`~repro.engine.TraceCache` isolates the measurement
    from whatever the other workloads left in the process-wide cache; only
    the first rep per program compiles, the rest dispatch cached traces.
    Cache keys are precomputed once per program, matching how the fuzz
    oracles reuse one structural key across repeated executions (keying on
    every call would walk the module again each run, which for small
    modules costs more than compiling them).
    """
    from .engine import TraceCache, TraceExecutor
    from .ir import structural_key
    from .sim import CoSimulator
    from .testing.generator import build_spec

    bases = [
        build_spec(spec, memory_seed=PINNED_SEED) for spec in _pinned_programs()
    ]
    keys = [structural_key(built.module) for built in bases]
    cache = TraceCache()
    reps = 16 if quick else 200
    started = time.perf_counter()
    programs = 0
    for _ in range(reps):
        for built, key in zip(bases, keys):
            compiled = cache.get_or_compile(built.module, key=key)
            sim = CoSimulator(memory=built.memory.duplicate(), functional=False)
            TraceExecutor(compiled, sim).run(args=built.args)
            programs += 1
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 4),
        "programs_per_s": round(programs / wall, 3) if wall else 0.0,
        "cache_hit_rate": round(cache.hit_rate, 4),
        "functional": False,
    }


def bench_simulate_functional(quick: bool = False) -> dict:
    """The differential-oracle hot loop: warm cache, functional devices on.

    Same programs and cache discipline as ``simulate_warm`` but with
    functional device emulation enabled — the gap between the two numbers
    is the price of emulating accelerator semantics, which the old
    conflated ``simulate`` workload hid inside one number.
    """
    from .engine import TraceCache, TraceExecutor
    from .ir import structural_key
    from .sim import CoSimulator
    from .testing.generator import build_spec

    bases = [
        build_spec(spec, memory_seed=PINNED_SEED) for spec in _pinned_programs()
    ]
    keys = [structural_key(built.module) for built in bases]
    cache = TraceCache()
    reps = 8 if quick else 100
    started = time.perf_counter()
    programs = 0
    for _ in range(reps):
        for built, key in zip(bases, keys):
            compiled = cache.get_or_compile(built.module, key=key)
            sim = CoSimulator(memory=built.memory.duplicate(), functional=True)
            TraceExecutor(compiled, sim).run(args=built.args)
            programs += 1
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 4),
        "programs_per_s": round(programs / wall, 3) if wall else 0.0,
        "cache_hit_rate": round(cache.hit_rate, 4),
        "functional": True,
    }


def bench_persistent_cache(quick: bool = False) -> dict:
    """Two-phase cross-process measurement of the persistent trace cache.

    Phase 1 runs the pinned programs in a *subprocess* with
    ``REPRO_CACHE_DIR`` pointing at a throwaway store, so compiled traces
    land on disk exactly the way a fuzz shard publishes them.  Phase 2
    replays the workload in this process through fresh in-memory caches
    (one per rep — each rep simulates a new process) backed by the same
    directory.  ``persistent_hit_rate`` therefore measures only disk loads;
    the in-process ``cache_hit_rate`` stays 0 by construction, keeping the
    two tiers' numbers separate.
    """
    import os
    import subprocess
    import tempfile

    from .engine import TraceCache, TraceExecutor
    from .engine.pcache import PersistentStore
    from .sim import CoSimulator
    from .testing.generator import build_spec

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    phase1_script = (
        "from repro.bench import PINNED_SEED, _pinned_programs\n"
        "from repro.engine import run_module_traced\n"
        "from repro.sim import CoSimulator\n"
        "from repro.testing.generator import build_spec\n"
        "for spec in _pinned_programs():\n"
        "    built = build_spec(spec, memory_seed=PINNED_SEED)\n"
        "    run_module_traced(built.module, CoSimulator(memory=built.memory),\n"
        "                      args=built.args)\n"
    )
    reps = 3 if quick else 12
    with tempfile.TemporaryDirectory(prefix="repro-bench-pcache-") as cache_dir:
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = cache_dir
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        phase1_started = time.perf_counter()
        phase1 = subprocess.run(
            [sys.executable, "-c", phase1_script],
            env=env,
            capture_output=True,
            text=True,
        )
        phase1_wall = time.perf_counter() - phase1_started

        bases = [
            build_spec(spec, memory_seed=PINNED_SEED)
            for spec in _pinned_programs()
        ]
        hits = misses = rejected = 0
        started = time.perf_counter()
        programs = 0
        for _ in range(reps):
            store = PersistentStore(cache_dir)
            cache = TraceCache(store=store)
            for built in bases:
                compiled = cache.get_or_compile(built.module)
                executor = TraceExecutor(
                    compiled, CoSimulator(memory=built.memory.duplicate())
                )
                executor.run(args=built.args)
                programs += 1
            hits += store.hits
            misses += store.misses
            rejected += store.rejected
        wall = time.perf_counter() - started
    total = hits + misses
    return {
        "wall_s": round(wall, 4),
        "programs_per_s": round(programs / wall, 3) if wall else 0.0,
        "cache_hit_rate": 0.0,  # fresh in-memory cache per rep
        "persistent_hit_rate": round(hits / total, 4) if total else 0.0,
        "persistent_rejected": rejected,
        "phase1_wall_s": round(phase1_wall, 4),
        "phase1_ok": phase1.returncode == 0,
    }


def bench_pattern_driver(quick: bool = False) -> dict:
    """The worklist pattern driver on pinned modules.

    Isolates the rewrite-driver cost (canonicalization pattern set, the one
    every pipeline pays): each program is rebuilt per run and only the
    ``drive_patterns`` call is timed.
    """
    from .ir.rewriter import drive_patterns
    from .passes.canonicalize import DEFAULT_PATTERNS
    from .testing.generator import build_spec

    specs = _pinned_programs()
    wall = 0.0
    programs = 0
    for _ in range(8 if quick else 80):
        for spec in specs:
            built = build_spec(spec, memory_seed=PINNED_SEED)
            started = time.perf_counter()
            drive_patterns(built.module, DEFAULT_PATTERNS)
            wall += time.perf_counter() - started
            programs += 1
    return {
        "wall_s": round(wall, 4),
        "programs_per_s": round(programs / wall, 3) if wall else 0.0,
        "cache_hit_rate": 0.0,  # no execution: the trace cache never engages
    }


def bench_pass_breakdown(quick: bool = False) -> dict:
    """Aggregated per-pass wall time of the ``full`` pipeline.

    Feeds the ``pass_breakdown`` section of BENCH_engine.json from
    ``PassManager(instrument=True)`` statistics: for each pass slot the
    total seconds across all runs, the run count, and the net op-count
    delta — the compile-side answer to "which pass is the bottleneck".
    """
    from .passes import PIPELINES
    from .testing.generator import build_spec

    specs = _pinned_programs()
    reps = 2 if quick else 10
    totals: dict[str, dict] = {}
    for _ in range(reps):
        for spec in specs:
            built = build_spec(spec, memory_seed=PINNED_SEED)
            manager = PIPELINES["full"]()
            manager.instrument = True
            manager.run(built.module)
            for stat in manager.statistics:
                entry = totals.setdefault(
                    stat.pass_name, {"seconds": 0.0, "runs": 0, "ops_delta": 0}
                )
                entry["seconds"] += stat.seconds
                entry["runs"] += 1
                entry["ops_delta"] += stat.ops_delta
    return {
        name: {
            "seconds": round(entry["seconds"], 4),
            "runs": entry["runs"],
            "ops_delta": entry["ops_delta"],
        }
        for name, entry in sorted(totals.items())
    }


def bench_fuzz(quick: bool = False) -> dict:
    """End-to-end fuzz iterations (all backends, all pipelines, no corpus)."""
    from .testing import fuzz

    # Quick mode still needs enough iterations to amortize per-run setup,
    # or the --check gate would compare a cold quick number against the
    # committed steady-state one.
    iterations = 8 if quick else 25
    cache_before = _trace_cache_stats()
    started = time.perf_counter()
    report = fuzz(
        seed=0,
        iterations=iterations,
        corpus_dir=None,
        shrink=False,
    )
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 4),
        "programs_per_s": round(report.programs_run / wall, 3) if wall else 0.0,
        "cache_hit_rate": round(_hit_rate(cache_before, _trace_cache_stats()), 4),
    }


def bench_fuzz_acceptance(quick: bool = False) -> dict:
    """The acceptance workload: 200 fuzz iterations, all backends, shrink
    and corpus on defaults — the exact shape of
    ``python -m repro fuzz --seed 0 --iterations 200`` (minus corpus I/O).
    Quick mode scales the count down and notes it in the result."""
    from .testing import fuzz

    iterations = 20 if quick else 200
    cache_before = _trace_cache_stats()
    started = time.perf_counter()
    report = fuzz(seed=0, iterations=iterations, corpus_dir=None)
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 4),
        "programs_per_s": round(report.programs_run / wall, 3) if wall else 0.0,
        "cache_hit_rate": round(_hit_rate(cache_before, _trace_cache_stats()), 4),
        "iterations": iterations,
    }


def bench_static_cost(quick: bool = False) -> dict:
    """The static cost engine: programs analyzed per second.

    Each rep runs a fresh :class:`~repro.analysis.cost.CostAnalysis` over
    the pinned programs (summaries for every function, rendered through the
    same report the CLI prints; no caching between reps).  Read it against
    the ``simulate_functional`` workload, which executes the same pinned
    programs: the ratio is the price of a prediction vs a measurement.
    """
    from .analysis.cost import CostAnalysis, format_cost_table
    from .testing.generator import build_spec

    specs = _pinned_programs()
    reps = 8 if quick else 100
    builds = [build_spec(spec, memory_seed=PINNED_SEED) for spec in specs]
    started = time.perf_counter()
    programs = 0
    for _ in range(reps):
        for built in builds:
            format_cost_table(CostAnalysis(built.module))
            programs += 1
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 4),
        "programs_per_s": round(programs / wall, 3) if wall else 0.0,
        "cache_hit_rate": 0.0,  # pure analysis: the trace cache never engages
    }


#: ``--check`` floor for the autotuner's surrogate-vs-simulation ratio: the
#: whole point of the symbolic surrogate is scoring candidates much faster
#: than simulating them, so the ratio is gated absolutely (both sides run
#: on this machine; no calibration applies).
AUTOTUNE_MIN_SPEEDUP = 50.0


def bench_autotune(quick: bool = False) -> dict:
    """Surrogate scoring vs simulation on one autotuner candidate batch.

    Builds and optimizes a slice of the OpenGeMM schedule grid once (the
    cost either scoring path pays on the search path is identical, so it is
    excluded), then times the two ways of attaching a number to each
    optimized module: the static surrogate (:mod:`repro.tune.surrogate`)
    and the functional co-simulation the tuner's validation stage uses —
    what every candidate would cost if the search scored by simulating.
    ``programs_per_s`` is the surrogate rate — candidates scored per
    second — and ``surrogate_speedup`` is the headline ratio the
    ``--check`` gate enforces at :data:`AUTOTUNE_MIN_SPEEDUP`.
    """
    from .interp import run_module
    from .passes import pipeline_by_name
    from .sim import CoSimulator
    from .tune import get_space, score_built

    space = get_space("opengemm")
    size = 128
    cands = space.grid(size, quick=True)[: 6 if quick else 12]
    builds = []
    for cand in cands:
        built = space.build(cand, size, seed=PINNED_SEED)
        pipeline_by_name(cand.pipeline).run(built.module)
        builds.append((cand, built))

    # One untimed pass to populate the instruction-tuple memo and any lazy
    # imports, so the timed reps measure steady-state scoring throughput.
    for cand, built in builds:
        score_built(space, cand, size, built)

    surrogate_reps = 8 if quick else 40
    started = time.perf_counter()
    scored = 0
    for _ in range(surrogate_reps):
        for cand, built in builds:
            score_built(space, cand, size, built)
            scored += 1
    surrogate_wall = time.perf_counter() - started

    from .backends.base import get_accelerator

    cost_model = get_accelerator(space.host_accelerator).host_cost_model()
    sim_reps = 1 if quick else 3
    started = time.perf_counter()
    simulated = 0
    for _ in range(sim_reps):
        for _, built in builds:
            sim = CoSimulator(
                memory=built.memory.duplicate(),
                cost_model=cost_model,
                functional=True,
            )
            run_module(built.module, sim, args=built.main_args)
            simulated += 1
    sim_wall = time.perf_counter() - started

    surrogate_rate = scored / surrogate_wall if surrogate_wall else 0.0
    sim_rate = simulated / sim_wall if sim_wall else 0.0
    return {
        "wall_s": round(surrogate_wall, 4),
        "programs_per_s": round(surrogate_rate, 3),
        "cache_hit_rate": 0.0,  # pure analysis: the trace cache never engages
        "candidates": len(builds),
        "simulated_per_s": round(sim_rate, 3),
        "surrogate_speedup": round(surrogate_rate / sim_rate, 2)
        if sim_rate
        else 0.0,
    }


#: Concurrent serve clients (and the per-request tenant fan-out width).
SERVE_CLIENTS = 8

#: ``--check`` floor for the serve workload's duplicate-heavy speedup.
SERVE_MIN_SPEEDUP = 2.0


def bench_serve(quick: bool = False) -> dict:
    """Duplicate-heavy concurrent serving vs one-at-a-time handling.

    Builds a request stream that cycles a few distinct pinned modules
    through mixed ``compile``/``cost`` requests from several tenants — the
    shape a fleet of similar clients produces, where most requests are
    duplicates of one another.  The serial baseline hands the exact same
    stream, one request at a time, to a service with the request-level
    dedup tiers off (``dedup=False``: no in-flight coalescing, no outcome
    or module cache; the engine trace cache stays, as it predates the
    server).  The concurrent side drives a real TCP server with
    :data:`SERVE_CLIENTS` client connections against the full service.
    Both sides get private trace caches so neither inherits the other's
    warm state.  Under the GIL, threads add no compute parallelism —
    ``speedup_vs_serial`` is purely the dedup tiers earning their keep.
    """
    import queue
    import threading

    from .engine import TraceCache
    from .serve import CompileService, ReproClient, ReproServer, encode
    from .testing.generator import build_spec

    specs = _pinned_programs()[: 2 if quick else 4]
    texts = []
    for spec in specs:
        built = build_spec(spec, memory_seed=PINNED_SEED)
        texts.append(str(built.module))

    requests = []
    total = 24 if quick else 96
    for index in range(total):
        op = "cost" if index % 4 == 3 else "compile"
        request = {
            "id": index,
            "op": op,
            "module": texts[index % len(texts)],
            "tenant": f"tenant{index % SERVE_CLIENTS}",
        }
        if op == "compile":
            request["pipeline"] = "full"
        requests.append(request)

    # Untimed warm-up: first-touch import and kernel-memo costs land on a
    # throwaway service so neither measured side pays them.
    warmup = CompileService(cache=TraceCache())
    for text in texts:
        warmup.handle({"op": "compile", "module": text, "pipeline": "full"})

    serial = CompileService(cache=TraceCache(), dedup=False)
    serial_errors = 0
    serial_started = time.perf_counter()
    for request in requests:
        response = json.loads(serial.handle_line(encode(request)))
        if not response.get("ok"):
            serial_errors += 1
    serial_wall = time.perf_counter() - serial_started

    # The measured concurrent service runs with the whole resilience layer
    # armed (deadline accounting, circuit breaker) exactly as production
    # would, so the throughput gate prices the fault-free overhead of the
    # chaos-hardening machinery — a regression here means the resilience
    # layer got onto the hot path.
    service = CompileService(cache=TraceCache(), default_deadline_ms=30_000)
    pending: queue.SimpleQueue = queue.SimpleQueue()
    for request in requests:
        pending.put(request)
    errors = []

    def client_worker(host: str, port: int) -> None:
        with ReproClient(host, port) as client:
            while True:
                try:
                    request = pending.get_nowait()
                except queue.Empty:
                    return
                response = client.request(**request)
                if not response.get("ok"):
                    errors.append(response)

    with ReproServer(service=service) as server:
        host, port = server.address
        started = time.perf_counter()
        threads = [
            threading.Thread(target=client_worker, args=(host, port))
            for _ in range(SERVE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        stats = service.stats()

    serial_rate = total / serial_wall if serial_wall else 0.0
    concurrent_rate = total / wall if wall else 0.0
    return {
        "wall_s": round(wall, 4),
        "programs_per_s": round(concurrent_rate, 3),
        "cache_hit_rate": round(service.cache.hit_rate, 4),
        "requests": total,
        "distinct_modules": len(texts),
        "clients": SERVE_CLIENTS,
        "errors": len(errors) + serial_errors,
        "dedup_hit_rate": round(stats["dedup_hit_rate"], 4),
        "coalesced": stats["coalesced"],
        "outcome_hits": stats["outcome_hits"],
        "serial_wall_s": round(serial_wall, 4),
        "serial_requests_per_s": round(serial_rate, 3),
        "speedup_vs_serial": round(concurrent_rate / serial_rate, 2)
        if serial_rate
        else 0.0,
    }


WORKLOADS = {
    "compile": bench_compile,
    "static_cost": bench_static_cost,
    "autotune": bench_autotune,
    "pattern_driver": bench_pattern_driver,
    "simulate_cold": bench_simulate_cold,
    "simulate_warm": bench_simulate_warm,
    "simulate_functional": bench_simulate_functional,
    "persistent_cache": bench_persistent_cache,
    "serve": bench_serve,
    "fuzz_iteration": bench_fuzz,
    "fuzz_200_acceptance": bench_fuzz_acceptance,
}


def run_bench(quick: bool = False) -> dict:
    """Run every workload; returns the full BENCH_engine.json document."""
    meta = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": quick,
        "calibration_ops_per_s": round(calibrate(), 1),
    }
    workloads = {}
    for name, runner in WORKLOADS.items():
        workloads[name] = runner(quick=quick)
    return {
        "schema": SCHEMA,
        "meta": meta,
        "workloads": workloads,
        "pass_breakdown": bench_pass_breakdown(quick=quick),
    }


def check_regression(current: dict, committed: dict) -> list[str]:
    """CI gate: compare fuzz-iteration throughput against the committed
    baseline, rescaled by the machine-speed calibration.  Returns a list of
    human-readable problems (empty means the gate passes)."""
    problems: list[str] = []
    ref = committed.get("workloads", {}).get("fuzz_iteration")
    if not ref:
        return ["committed baseline has no fuzz_iteration workload"]
    measured = current["workloads"]["fuzz_iteration"]["programs_per_s"]
    ref_cal = committed.get("meta", {}).get("calibration_ops_per_s") or 0.0
    cur_cal = current.get("meta", {}).get("calibration_ops_per_s") or 0.0
    scale = (cur_cal / ref_cal) if ref_cal and cur_cal else 1.0
    floor = ref["programs_per_s"] * scale * (1.0 - REGRESSION_TOLERANCE)
    if measured < floor:
        problems.append(
            f"fuzz_iteration throughput regressed: {measured:.2f} programs/s "
            f"< floor {floor:.2f} (committed {ref['programs_per_s']:.2f} "
            f"x machine scale {scale:.2f} x {1 - REGRESSION_TOLERANCE:.2f})"
        )
    autotune = current.get("workloads", {}).get("autotune")
    if autotune is not None:
        # Absolute floor, like the serve gate: both sides of the ratio ran
        # on this machine in this process.
        speedup = autotune.get("surrogate_speedup") or 0.0
        if speedup < AUTOTUNE_MIN_SPEEDUP:
            problems.append(
                f"autotune surrogate speedup {speedup:.1f}x below the "
                f"required {AUTOTUNE_MIN_SPEEDUP:.0f}x (symbolic scoring vs "
                "simulated scoring of the same candidates)"
            )
    serve = current.get("workloads", {}).get("serve")
    if serve is not None:
        # Absolute floor: both sides of the ratio ran on this machine, so
        # no calibration scaling applies.
        speedup = serve.get("speedup_vs_serial") or 0.0
        if speedup < SERVE_MIN_SPEEDUP:
            problems.append(
                f"serve dedup speedup {speedup:.2f}x below the required "
                f"{SERVE_MIN_SPEEDUP:.1f}x (duplicate-heavy concurrent "
                "workload vs serial handling)"
            )
        if serve.get("errors"):
            problems.append(
                f"serve workload saw {serve['errors']} failed request(s)"
            )
    return problems


def _merge_with_existing(doc: dict, out_path: str, freeze_baseline: bool) -> dict:
    """Preserve a previously frozen ``seed_baseline`` section (or freeze the
    current numbers as one when asked and none exists yet)."""
    existing: dict = {}
    try:
        with open(out_path) as handle:
            existing = json.load(handle)
    except (OSError, ValueError):
        pass
    if "seed_baseline" in existing:
        doc["seed_baseline"] = existing["seed_baseline"]
    elif freeze_baseline:
        doc["seed_baseline"] = {
            "meta": doc["meta"],
            "workloads": doc["workloads"],
        }
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="benchmark compile/simulate/fuzz throughput",
    )
    parser.add_argument(
        "--quick", action="store_true", help="fewer reps (CI smoke mode)"
    )
    parser.add_argument(
        "--out", default="BENCH_engine.json", help="where to write results"
    )
    parser.add_argument(
        "--check",
        metavar="FILE",
        help="also compare against a committed BENCH_engine.json; exit 1 on "
        f">{REGRESSION_TOLERANCE:.0%} fuzz-iteration throughput regression",
    )
    parser.add_argument(
        "--freeze-baseline",
        action="store_true",
        help="record these numbers as the immutable seed_baseline section "
        "(no-op if one is already present in --out)",
    )
    args = parser.parse_args(argv)

    doc = run_bench(quick=args.quick)
    doc = _merge_with_existing(doc, args.out, args.freeze_baseline)
    atomic_write_json(args.out, doc)

    for name, result in doc["workloads"].items():
        line = (
            f"{name:20s} wall {result['wall_s']:8.3f}s   "
            f"{result['programs_per_s']:8.2f} programs/s   "
            f"cache hit rate {result['cache_hit_rate']:.0%}"
        )
        if "persistent_hit_rate" in result:
            line += f"   persistent hit rate {result['persistent_hit_rate']:.0%}"
        if "speedup_vs_serial" in result:
            line += f"   vs serial {result['speedup_vs_serial']:.2f}x"
        if "surrogate_speedup" in result:
            line += f"   vs simulated {result['surrogate_speedup']:.1f}x"
        print(line)
    breakdown = doc.get("pass_breakdown") or {}
    if breakdown:
        print("pass breakdown (full pipeline):")
        for name, entry in sorted(
            breakdown.items(), key=lambda item: -item[1]["seconds"]
        ):
            print(
                f"  {name:24s} {entry['seconds'] * 1e3:8.1f}ms over "
                f"{entry['runs']} run(s)   ops delta {entry['ops_delta']:+d}"
            )
    print(f"wrote {args.out}")

    if args.check:
        try:
            with open(args.check) as handle:
                committed = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"error: cannot read baseline {args.check}: {error}",
                  file=sys.stderr)
            return 2
        problems = check_regression(doc, committed)
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("regression check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
