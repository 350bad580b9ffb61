"""CI gate: ``python -m repro cost`` over every shipped example, as a golden.

Prints the cost table of each example's IR (the modules
``tools/lint_examples.py`` builds), unoptimized and under every registered
pipeline, each after a ``== cost <example>.mlir [--pipeline NAME]`` line.
The output does not depend on ``PYTHONHASHSEED``.  ``results/cost-examples.log``
holds it, and CI diffs a fresh run against that file, so any drift in a
predicted count, range or verdict shows.

Run from the repository root::

    PYTHONPATH=src python tools/cost_examples.py > cost-examples.log
    diff -u results/cost-examples.log cost-examples.log
"""

import sys
import tempfile
from pathlib import Path

from lint_examples import example_modules

from repro.__main__ import main
from repro.passes import PIPELINES


def run() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in example_modules().items():
            path = Path(tmp) / f"{name}.mlir"
            path.write_text(text)
            for pipeline in ("", *sorted(PIPELINES)):
                flags = ["--pipeline", pipeline] if pipeline else []
                print(" ".join(["== cost", f"{name}.mlir", *flags]))
                if main(["cost", *flags, str(path)]) != 0:
                    return 1
    return 0


if __name__ == "__main__":
    sys.exit(run())
