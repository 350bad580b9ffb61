"""The repository benchmark: three end-to-end workloads over ``repro``'s
public API, with a traced mode that splits time by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs a fixed amount of the workload twice, untraced then with
every layer wrapped (see ``layers.py``), and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for
what each workload exercises and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from common import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, SRC

WORKLOADS = {
    "paper_figures": "figures",
    "fuzz_oracles": "fuzzing",
    "serve_mixed": "serving",
}


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    # The persistent trace cache attaches at import from this variable and
    # would write outside the checkout.
    os.environ.pop("REPRO_CACHE_DIR", None)
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no repro sources under {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    _import_repro()

    workload = importlib.import_module(WORKLOADS[args.workload])
    tally, measured = workload.run(args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    unknown = set(measured) - set(units)
    if unknown:
        raise KeyError(f"unlisted metrics: {sorted(unknown)}")
    for message in tally.messages:
        print(f"perfbench: failed: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": measured.get(name, 0), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
