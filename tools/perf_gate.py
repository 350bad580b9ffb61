"""CI timing gate: a perfbench result against the committed baseline.

Reads the last line ``perfbench/run.py`` prints (one JSON object) on
standard input and checks it against ``results/perfbench-baseline.json``::

    python3 perfbench/run.py --workload fuzz_oracles --seed 1 --seconds 10 \\
        --trace 0 | tail -n 1 | python3 tools/perf_gate.py fuzz_oracles

The run fails unless it is correct with no failed operation, and unless
every metric the baseline lists for the workload is no worse than the
baseline value by more than that metric's ``bound``. ``bound`` and
``better`` are read from ``BENCHMARK.json``'s ``end_to_end`` table, the
bounds the benchmark itself declares. perfbench reports its timings at the
reference host speed (``HostSpeed`` in ``perfbench/common.py``), so the
gate compares them to the baseline as they are. Exit status: 0 pass,
1 fail, 2 unreadable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "results", "perfbench-baseline.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def load_bounds() -> dict[str, dict]:
    """End-to-end metric name -> its ``BENCHMARK.json`` entry."""
    with open(BENCHMARK) as handle:
        return {entry["name"]: entry for entry in json.load(handle)["end_to_end"]}


def check(
    result: dict, workload: str, baseline: dict, bounds: dict[str, dict]
) -> list[str]:
    """Problems with one perfbench ``result``; empty means the gate passes."""
    problems = []
    if not result.get("correct"):
        problems.append("the run reports incorrect results")
    if result.get("failed"):
        problems.append(f"{result['failed']} operation(s) failed")
    reference = baseline.get("workloads", {}).get(workload)
    if reference is None:
        return [*problems, f"the baseline has no {workload} workload"]
    for name, committed in sorted(reference["metrics"].items()):
        bound = bounds.get(name)
        if bound is None:
            problems.append(f"{name} has no bound in BENCHMARK.json")
            continue
        metric = result.get("metrics", {}).get(name)
        if metric is None:
            problems.append(f"the run reports no {name}")
            continue
        measured = metric["value"]
        if bound["better"] == "higher":
            limit = committed * (1 - bound["bound"])
            worse = measured < limit
        else:
            limit = committed * (1 + bound["bound"])
            worse = measured > limit
        if worse:
            problems.append(
                f"{workload} {name} {measured:.4g} {bound['unit']} is more than "
                f"{bound['bound']:.0%} worse than the baseline {committed:.4g} "
                f"(limit {limit:.4g})"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="the perfbench workload that ran")
    args = parser.parse_args(argv)
    lines = sys.stdin.read().strip().splitlines()
    try:
        result = json.loads(lines[-1])
        with open(BASELINE) as handle:
            baseline = json.load(handle)
    except (IndexError, OSError, ValueError) as error:
        print(f"perf-gate: error: {error!r}", file=sys.stderr)
        return 2
    problems = check(result, args.workload, baseline, load_bounds())
    for problem in problems:
        print(f"perf-gate: FAIL {problem}", file=sys.stderr)
    if problems:
        return 1
    measured = ", ".join(
        f"{name} {result['metrics'][name]['value']:.4g} (baseline {value:.4g})"
        for name, value in sorted(
            baseline["workloads"][args.workload]["metrics"].items()
        )
    )
    print(f"perf-gate: ok: {args.workload} {measured}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
