"""Command-line interface.

An ``mlir-opt``-style driver for the accfg flow plus shortcuts to the
paper's experiments::

    python -m repro opt --pipeline full program.mlir     # optimize IR
    python -m repro lint program.mlir                    # hazard diagnostics
    python -m repro cost program.mlir                    # symbolic cost table
    python -m repro report program.mlir                  # static config cost
    python -m repro run program.mlir                     # co-simulate
    python -m repro serve [--port N]                     # compile server
    python -m repro chaos [--seed N] [--scenario all]    # serve chaos campaign
    python -m repro multitenant [--quick]                # scheduler sweep
    python -m repro experiments [--quick]                # all tables/figures
    python -m repro fig2|fig4|fig10|fig11|fig12|table1|example46
    python -m repro outlook-os | outlook-shapes | outlook-tradeoff
"""

from __future__ import annotations

import argparse
import sys

from .backends.lowering import static_config_report
from .interp import InterpreterError, run_module
from .ir import ParseError, VerifyError, parse_module, verify_operation
from .passes import PIPELINES, pipeline_by_name
from .sim import CoSimulator


class InputError(Exception):
    """Input a subcommand cannot read: reported on one line, exit status 2."""


def _read_module(path: str):
    filename = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as handle:
                text = handle.read()
        module = parse_module(text, filename)
        verify_operation(module)
    except OSError as error:
        raise InputError(f"{filename}: {error.strerror}") from error
    except UnicodeDecodeError as error:
        raise InputError(
            f"{filename}: not UTF-8 text (byte {error.start})"
        ) from error
    except (ParseError, VerifyError) as error:
        message = str(error)
        # A located verifier message already starts with the file name.
        if not message.startswith(f"{filename}:"):
            message = f"{filename}: {message}"
        raise InputError(message) from error
    return module


def cmd_opt(args: argparse.Namespace) -> int:
    module = _read_module(args.input)
    pipeline_by_name(args.pipeline).run(module)
    print(module)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import LINT_RULES, Severity, run_lints

    module = _read_module(args.input)
    if args.pipeline:
        pipeline_by_name(args.pipeline).run(module)
    codes = set(args.filter) if args.filter else None
    try:
        diagnostics = run_lints(module, target=args.target, codes=codes)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    warnings = sum(1 for d in diagnostics if d.severity is Severity.WARNING)
    checked = len(codes) if codes is not None else len(LINT_RULES)
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "diagnostics": [d.to_dict() for d in diagnostics],
                    "checks": checked,
                    "errors": errors,
                    "warnings": warnings,
                },
                indent=2,
            )
        )
    else:
        for diag in diagnostics:
            print(diag.format())
            print()
        print(
            f"{checked} check(s): {errors} error(s), {warnings} warning(s)"
        )
    if errors or (args.werror and warnings):
        return 1
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    from .analysis.cost import CostAnalysis, format_cost_table

    module = _read_module(args.input)
    if args.pipeline:
        pipeline_by_name(args.pipeline).run(module)
    print(format_cost_table(CostAnalysis(module)), end="")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    module = _read_module(args.input)
    if args.pipeline:
        pipeline_by_name(args.pipeline).run(module)
    print(static_config_report(module).format())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    module = _read_module(args.input)
    if args.pipeline:
        pipeline_by_name(args.pipeline).run(module)
    sim = CoSimulator(functional=False)
    try:
        results = run_module(module, sim, args=args.args)[0]
    except InterpreterError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    stats = sim.trace.stats(sim.cost_model)
    print(f"results      : {results}")
    print(f"total cycles : {sim.total_cycles:.0f}")
    print(f"instructions : {stats.total_instrs} "
          f"(setup {stats.setup_instrs}, calc {stats.calc_instrs})")
    print(f"config bytes : {stats.config_bytes}")
    if sim.devices:
        for name, device in sim.devices.items():
            print(f"{name:13s}: {device.launch_count} launches, "
                  f"{device.total_ops} ops, busy {device.busy_cycles:.0f} cycles")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .testing import DEFAULT_CORPUS_DIR, fuzz, replay, run_selftest

    store = None
    if args.cache_dir:
        from .engine.cache import configure_persistent_cache

        # Also exports REPRO_CACHE_DIR, so --jobs workers attach the same
        # directory (their hit counters live in the worker processes).
        store = configure_persistent_cache(args.cache_dir)
    if args.min_persistent_hit_rate is not None:
        if store is None:
            print(
                "error: --min-persistent-hit-rate requires --cache-dir",
                file=sys.stderr,
            )
            return 2
        if args.jobs > 1:
            print(
                "error: --min-persistent-hit-rate gates this process's "
                "cache counters and is not meaningful with --jobs > 1",
                file=sys.stderr,
            )
            return 2

    if args.replay:
        try:
            failures = replay(args.replay)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if not failures:
            print(f"{args.replay}: replays clean (failure no longer reproduces)")
            return 0
        for failure in failures:
            print(f"{args.replay}: {failure.format()}")
        return 1

    if args.selftest:
        result = run_selftest(
            seed=args.seed,
            iterations=max(args.iterations, 25),
            corpus_dir=None if args.no_corpus else args.corpus_dir,
        )
        print(result.summary())
        return 0 if result.ok else 1

    pipeline_names = None
    if args.pipeline:
        # The functional/timing oracles are differential: they always need
        # the reference pipelines next to the ones under test.
        pipeline_names = tuple(sorted({"none", "baseline", *args.pipeline}))
    if args.jobs > 1:
        from .testing import fuzz_sharded

        report = fuzz_sharded(
            jobs=args.jobs,
            seed=args.seed,
            iterations=args.iterations,
            backends=tuple(args.backend) if args.backend else None,
            pipeline_names=pipeline_names,
            corpus_dir=None if args.no_corpus else args.corpus_dir,
            shrink=not args.no_shrink,
            max_stmts=args.max_stmts,
            on_progress=print,
            engine=args.engine,
            iteration_timeout=args.iteration_timeout,
            inject_hang=args.inject_hang,
        )
    else:
        pipelines = (
            {name: PIPELINES[name] for name in pipeline_names}
            if pipeline_names is not None
            else None
        )
        report = fuzz(
            seed=args.seed,
            iterations=args.iterations,
            backends=tuple(args.backend) if args.backend else None,
            pipelines=pipelines,
            corpus_dir=None if args.no_corpus else args.corpus_dir,
            shrink=not args.no_shrink,
            max_stmts=args.max_stmts,
            on_progress=print,
            engine=args.engine,
            iteration_timeout=args.iteration_timeout,
            inject_hang=args.inject_hang,
        )
    print(report.summary())
    if store is not None:
        print(
            f"persistent cache: {store.hits} hit(s), {store.misses} miss(es), "
            f"{store.stores} store(s), {store.rejected} rejected, "
            f"hit rate {store.hit_rate:.1%}"
        )
        if (
            args.min_persistent_hit_rate is not None
            and store.hit_rate < args.min_persistent_hit_rate
        ):
            print(
                f"error: persistent hit rate {store.hit_rate:.1%} below "
                f"required {args.min_persistent_hit_rate:.1%}",
                file=sys.stderr,
            )
            return 1
    return 0 if report.ok else 1


def cmd_faults(args: argparse.Namespace) -> int:
    from .faults.campaign import DEFAULT_RATES, run_campaign
    from .faults.model import FaultRates
    from .faults.recovery import RecoveryPolicy

    rates = FaultRates.uniform(args.rate) if args.rate is not None else DEFAULT_RATES
    policy = RecoveryPolicy(resetup=args.resetup)

    def progress(done: int, report) -> None:
        if done % 10 == 0 or done == args.iterations:
            print(
                f"iteration {done}/{args.iterations}: {report.runs} runs, "
                f"{report.faults_injected} faults injected, "
                f"{len(report.findings)} finding(s)"
            )

    report = run_campaign(
        seed=args.seed,
        iterations=args.iterations,
        backends=args.backend or None,
        pipelines=args.pipeline or None,
        rates=rates,
        policy=policy,
        max_findings=args.max_findings,
        on_progress=progress,
    )
    print(report.summary())
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from .serve import CircuitBreakerPolicy, CompileService, ReproServer

    service = CompileService(
        dedup=not args.no_dedup,
        max_pending=args.max_pending,
        max_pending_per_tenant=args.max_pending_per_tenant,
        default_deadline_ms=args.deadline_ms,
        breaker=CircuitBreakerPolicy(enabled=not args.no_breaker),
    )
    server = ReproServer(
        host=args.host,
        port=args.port,
        service=service,
        max_frame_bytes=args.max_frame_bytes,
    )
    server.serve_forever()
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .serve import (
        MIXED_RATES,
        ChaosRates,
        run_cache_corruption,
        run_campaign,
        run_quota_storm,
    )

    rates = (
        ChaosRates.uniform(args.rate) if args.rate is not None else MIXED_RATES
    )
    scenarios = (
        ("mixed", "quota-storm", "cache-corruption")
        if args.scenario == "all"
        else (args.scenario,)
    )
    ok = True
    for scenario in scenarios:
        if scenario == "mixed":
            report = run_campaign(
                seed=args.seed,
                clients=args.clients,
                requests=args.requests,
                rates=rates,
                deadline_ms=args.deadline_ms,
            )
            print(report.format())
            if report.schedule:
                print("fired-fault schedule (byte-reproducible from the seed):")
                for line in report.schedule:
                    print(f"  {line}")
            ok = ok and report.passed
        elif scenario == "quota-storm":
            result = run_quota_storm(seed=args.seed)
            print(json.dumps(result, indent=2, sort_keys=True))
            ok = ok and result["passed"]
        elif scenario == "cache-corruption":
            result = run_cache_corruption(seed=args.seed)
            print(json.dumps(result, indent=2, sort_keys=True))
            ok = ok and result["passed"]
    print(f"chaos: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_multitenant(args: argparse.Namespace) -> int:
    from .experiments import multitenant

    multitenant.main(quick=args.quick, out=args.out)
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    import json
    import os
    import time

    from .ioutil import atomic_write_json
    from .tune import TuneConfig, format_tune_table, run_tune

    config = TuneConfig(
        families=tuple(args.families.split(",")),
        sizes=tuple(int(s) for s in args.sizes.split(",")) if args.sizes else None,
        quick=args.quick,
        jobs=args.jobs,
        seed=args.seed,
        refine_rounds=args.refine_rounds,
    )
    cache_path = (
        os.path.join(args.cache_dir, "tune-scores.json")
        if args.cache_dir
        else None
    )
    resume_scores = None
    if args.resume:
        try:
            with open(args.out) as handle:
                previous = json.load(handle)
        except (OSError, ValueError):
            previous = {}
        resume_scores = previous.get("evaluated") or None
        if resume_scores:
            print(
                f"resuming: {len(resume_scores)} previously evaluated "
                f"candidate(s) from {args.out}"
            )
    started = time.perf_counter()
    report = run_tune(
        config,
        cache_path=cache_path,
        resume_scores=resume_scores,
        progress=print,
    )
    wall = time.perf_counter() - started
    atomic_write_json(args.out, report)
    print(format_tune_table(report))
    print(f"wrote {args.out} ({wall:.1f}s)")

    failed = False
    mismatches = sum(s["oracle_mismatches"] for s in report["results"])
    if mismatches:
        print(f"error: {mismatches} oracle mismatch(es) on validated points")
        failed = True
    incorrect = [
        entry["key"]
        for section in report["results"]
        for entry in section["validated"]
        if not entry["correct"]
    ]
    if incorrect:
        print(f"error: {len(incorrect)} validated point(s) computed wrong results")
        failed = True
    if args.require_improvement:
        for section in report["results"]:
            if section["family"] == "mlp":
                continue  # gate applies to the matmul families
            best = section["best"]["simulated_cycles"]
            default = section["default"]["simulated_cycles"]
            if not best < default:
                print(
                    f"error: no improvement for {section['family']} "
                    f"n={section['size']} (best {best:.0f} vs default "
                    f"{default:.0f} cycles)"
                )
                failed = True
    return 1 if failed else 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import runner

    argv = ["--quick"] if args.quick else []
    if args.jobs != 1:
        argv.extend(["--jobs", str(args.jobs)])
    runner.main(argv)
    return 0


def _experiment_command(module_name: str):
    def run(args: argparse.Namespace) -> int:
        from . import experiments

        getattr(experiments, module_name).main()
        return 0

    return run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="The Configuration Wall reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    opt = sub.add_parser("opt", help="optimize accfg IR and print it")
    opt.add_argument("input", help="path to a .mlir file, or - for stdin")
    opt.add_argument(
        "--pipeline",
        default="full",
        choices=sorted(PIPELINES),
        help="optimization level (default: full)",
    )
    opt.set_defaults(func=cmd_opt)

    lint = sub.add_parser(
        "lint", help="statically check a module for configuration hazards"
    )
    lint.add_argument("input", help="path to a .mlir file, or - for stdin")
    lint.add_argument(
        "--pipeline",
        default="",
        choices=["", *sorted(PIPELINES)],
        help="optimize before linting (e.g. trace states first)",
    )
    lint.add_argument(
        "--target",
        default=None,
        help="restrict target-specific lints to one accelerator",
    )
    lint.add_argument(
        "--werror", action="store_true", help="treat warnings as errors"
    )
    lint.add_argument(
        "--filter",
        action="append",
        metavar="CODE",
        help="run only the given diagnostic code(s), e.g. ACCFG001",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable diagnostics (code, severity, loc, fix-it)",
    )
    lint.set_defaults(func=cmd_lint)

    cost = sub.add_parser(
        "cost",
        help="static per-function cost summary from the symbolic cost engine",
    )
    cost.add_argument("input", help="path to a .mlir file, or - for stdin")
    cost.add_argument(
        "--pipeline",
        default="",
        choices=["", *sorted(PIPELINES)],
        help="optimize before analyzing",
    )
    cost.set_defaults(func=cmd_cost)

    report = sub.add_parser(
        "report", help="static configuration-cost report for a module"
    )
    report.add_argument("input")
    report.add_argument(
        "--pipeline",
        default="",
        choices=["", *sorted(PIPELINES)],
        help="optimize first",
    )
    report.set_defaults(func=cmd_report)

    run = sub.add_parser("run", help="co-simulate a module (timing only)")
    run.add_argument("input")
    run.add_argument(
        "--pipeline",
        default="",
        choices=["", *sorted(PIPELINES)],
        help="optimize first",
    )
    run.add_argument(
        "--args", nargs="*", type=int, default=[], help="main() arguments"
    )
    run.set_defaults(func=cmd_run)

    from .testing.corpus import DEFAULT_CORPUS_DIR
    from .testing.generator import PROFILES

    fuzz = sub.add_parser(
        "fuzz",
        help="differentially fuzz the pass pipelines against random programs",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    fuzz.add_argument(
        "--iterations",
        type=int,
        default=100,
        help="programs per backend (default 100)",
    )
    fuzz.add_argument(
        "--backend",
        action="append",
        choices=sorted(PROFILES),
        help="restrict to one backend profile (repeatable; default: all)",
    )
    fuzz.add_argument(
        "--pipeline",
        action="append",
        choices=sorted(PIPELINES),
        help="restrict to one pipeline under test (repeatable; default: all; "
        "'none' and 'baseline' are always run as references)",
    )
    fuzz.add_argument(
        "--corpus-dir",
        default=DEFAULT_CORPUS_DIR,
        help=f"where shrunk reproducers are written (default: {DEFAULT_CORPUS_DIR})",
    )
    fuzz.add_argument(
        "--no-corpus",
        action="store_true",
        help="do not write reproducer files",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true", help="keep failing programs as found"
    )
    fuzz.add_argument(
        "--max-stmts",
        type=int,
        default=6,
        help="top-level statement budget per generated program (default 6)",
    )
    fuzz.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; the iteration range is sharded by seed, so "
        "the findings match a sequential run (default 1)",
    )
    fuzz.add_argument(
        "--engine",
        default="trace",
        choices=["trace", "tree", "both"],
        help="execution engine for the oracles: 'trace' (compiled traces, "
        "cross-checked against the tree interpreter), 'tree', or 'both' "
        "(default: trace)",
    )
    fuzz.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="attach a persistent on-disk compiled-trace cache (shared with "
        "--jobs workers via REPRO_CACHE_DIR); created if missing",
    )
    fuzz.add_argument(
        "--min-persistent-hit-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="exit non-zero when the persistent cache's hit rate ends below "
        "RATE (0..1); requires --cache-dir, single-process runs only",
    )
    fuzz.add_argument(
        "--iteration-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per fuzz iteration; a slower iteration is "
        "reported as a 'timeout' finding and the run continues (default: "
        "no budget)",
    )
    fuzz.add_argument(
        "--inject-hang",
        type=int,
        default=None,
        metavar="ITERATION",
        help="testing hook: hang forever at the given iteration "
        "(exercises --iteration-timeout and worker isolation)",
    )
    fuzz.add_argument(
        "--replay",
        metavar="FILE",
        help="replay one corpus reproducer instead of fuzzing",
    )
    fuzz.add_argument(
        "--selftest",
        action="store_true",
        help="verify the oracles catch a deliberately broken pass",
    )
    fuzz.set_defaults(func=cmd_fuzz)

    faults = sub.add_parser(
        "faults",
        help="run the seeded fault-injection correctness campaign",
    )
    faults.add_argument(
        "--seed", type=int, default=0, help="fault/program seed (default 0)"
    )
    faults.add_argument(
        "--iterations",
        type=int,
        default=100,
        help="programs per backend (default 100)",
    )
    faults.add_argument(
        "--backend",
        action="append",
        choices=sorted(PROFILES),
        help="restrict to one backend profile (repeatable; default: all)",
    )
    faults.add_argument(
        "--pipeline",
        action="append",
        choices=sorted(PIPELINES),
        help="restrict to one pipeline (repeatable; default: all)",
    )
    faults.add_argument(
        "--rate",
        type=float,
        default=None,
        help="uniform per-interaction fault rate for every fault kind "
        "(default: the campaign's mixed rates)",
    )
    faults.add_argument(
        "--resetup",
        default="minimal",
        choices=["minimal", "full"],
        help="re-setup strategy after detected state loss (default: minimal)",
    )
    faults.add_argument(
        "--max-findings",
        type=int,
        default=10,
        help="stop after this many findings (default 10)",
    )
    faults.set_defaults(func=cmd_faults)

    serve = sub.add_parser(
        "serve",
        help="long-lived concurrent compile/simulate/lint/cost server "
        "(JSON lines over TCP; see docs/SERVING.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port; 0 picks a free port and prints it (default 0)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="global in-flight request cap before admission rejects (default 64)",
    )
    serve.add_argument(
        "--max-pending-per-tenant",
        type=int,
        default=8,
        help="per-tenant in-flight request cap (default 8)",
    )
    serve.add_argument(
        "--no-dedup",
        action="store_true",
        help="disable request-level dedup tiers (in-flight coalescing and "
        "the outcome/module caches); for baseline measurements",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline in ms (requests may override "
        "with their own 'deadline_ms'; default: none)",
    )
    serve.add_argument(
        "--no-breaker",
        action="store_true",
        help="disable the per-tenant circuit breaker",
    )
    serve.add_argument(
        "--max-frame-bytes",
        type=int,
        default=1024 * 1024,
        help="reject request frames larger than this with a typed "
        "'protocol' error (default 1 MiB)",
    )
    serve.set_defaults(func=cmd_serve)

    chaos = sub.add_parser(
        "chaos",
        help="seeded chaos campaign against the serving layer: deterministic "
        "fault injection, recovery invariants, zero-silent-corruption gate "
        "(see docs/ROBUSTNESS.md)",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--clients", type=int, default=8, help="concurrent clients (default 8)"
    )
    chaos.add_argument(
        "--requests",
        type=int,
        default=25,
        help="requests per client (default 25)",
    )
    chaos.add_argument(
        "--rate",
        type=float,
        default=None,
        help="uniform per-kind injection rate (default: the mixed profile)",
    )
    chaos.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline for the campaign service",
    )
    chaos.add_argument(
        "--scenario",
        choices=("mixed", "quota-storm", "cache-corruption", "all"),
        default="mixed",
        help="which scenario to run (default: the mixed campaign)",
    )
    chaos.set_defaults(func=cmd_chaos)

    multitenant = sub.add_parser(
        "multitenant",
        help="multi-tenant scheduler sweep: re-paid configuration cycles, "
        "FIFO vs config-aware vs oracle",
    )
    multitenant.add_argument(
        "--quick", action="store_true", help="smaller tenant sweep"
    )
    multitenant.add_argument("--out", default="multitenant.json")
    multitenant.set_defaults(func=cmd_multitenant)

    tune = sub.add_parser(
        "tune",
        help="autotune schedules with the symbolic-cost surrogate, "
        "validating the frontier by simulation",
    )
    tune.add_argument(
        "--families",
        default="opengemm,gemmini,mlp",
        help="comma-separated workload families (default: all)",
    )
    tune.add_argument(
        "--sizes",
        default=None,
        help="comma-separated problem sizes (default: per-family presets)",
    )
    tune.add_argument("--quick", action="store_true", help="smaller grids")
    tune.add_argument(
        "--jobs", type=int, default=1, help="surrogate worker processes"
    )
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument(
        "--refine-rounds", type=int, default=2, help="greedy refinement rounds"
    )
    tune.add_argument("--out", default="tune.json", help="JSON report path")
    tune.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the persistent surrogate-score cache",
    )
    tune.add_argument(
        "--resume",
        action="store_true",
        help="seed the score cache from a previous --out report",
    )
    tune.add_argument(
        "--require-improvement",
        action="store_true",
        help="exit 1 unless the tuner strictly beats the default schedule "
        "for every matmul family/size (CI gate)",
    )
    tune.set_defaults(func=cmd_tune)

    experiments = sub.add_parser(
        "experiments", help="regenerate every table and figure"
    )
    experiments.add_argument("--quick", action="store_true")
    experiments.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the size sweeps (one sweep point per "
        "worker; default 1)",
    )
    experiments.set_defaults(func=cmd_experiments)

    for name, module_name in (
        ("table1", "table1_fields"),
        ("example46", "example_4_6"),
        ("fig2", "fig2_timeline"),
        ("fig4", "figure4_rooflines"),
        ("fig10", "fig10_gemmini"),
        ("fig11", "fig11_opengemm"),
        ("fig12", "fig12_roofline"),
        ("fault-recovery", "fault_recovery"),
        ("outlook-os", "outlook_os_gemmini"),
        ("outlook-shapes", "outlook_shapes"),
        ("outlook-tradeoff", "outlook_tradeoff"),
        ("serve-chaos", "serve_chaos"),
    ):
        cmd = sub.add_parser(name, help=f"regenerate {name}")
        cmd.set_defaults(func=_experiment_command(module_name))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
