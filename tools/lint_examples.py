"""CI gate: ``python -m repro lint --werror`` over every shipped example.

Each example's generated IR is written to a ``.mlir`` file and pushed
through the real CLI. The examples deliberately demonstrate the
*unoptimized* idiom, so the three by-design pedagogical warnings
(ACCFG010 config-roofline, ACCFG011 retention-hazard, ACCFG014
serialized-setup) are excluded via ``--filter``; every other code runs
under ``--werror``, so any error-severity hazard or any unexpected
warning fails the gate. ``tests/analysis/test_examples_clean.py`` pins
the exact by-design profile per example; this script is the cheap CLI
front line for CI.

Run from the repository root: ``PYTHONPATH=src python tools/lint_examples.py``.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"
sys.path.insert(0, str(EXAMPLES))

from repro.__main__ import main  # noqa: E402
from repro.analysis import LINT_RULES  # noqa: E402
from repro.ir import parse_module  # noqa: E402
from repro.passes import ConvertLinalgToAccfgPass  # noqa: E402
from repro.workloads import build_opengemm_matmul  # noqa: E402
from repro.workloads.network import build_mlp  # noqa: E402

#: Warnings the examples exist to demonstrate (see test_examples_clean.py).
BY_DESIGN = {"ACCFG010", "ACCFG011", "ACCFG014"}


def _import_example(name: str):
    with contextlib.redirect_stdout(io.StringIO()):
        return __import__(name)


def example_modules() -> dict[str, str]:
    """Example name -> its generated IR, printed as parseable text."""
    modules: dict[str, str] = {}
    modules["quickstart"] = _import_example("quickstart").PROGRAM
    modules["linalg_pipeline"] = _import_example("linalg_pipeline").SOURCE
    modules["multi_accelerator"] = str(
        _import_example("multi_accelerator").module
    )
    modules["custom_accelerator"] = str(
        _import_example("custom_accelerator").module
    )
    modules["opengemm_tiled_matmul"] = str(
        _import_example("opengemm_tiled_matmul").workload.module
    )
    # mlp_inference.py and timeline_visualization.py run co-simulations on
    # import; lint the same IR they build instead of importing the scripts.
    mlp = build_mlp([32, 64, 64, 32, 8], batch=16, seed=11)
    ConvertLinalgToAccfgPass().apply(mlp.module)
    modules["mlp_inference"] = str(mlp.module)
    modules["timeline_visualization"] = str(build_opengemm_matmul(16).module)
    return modules


def run() -> int:
    gated = sorted(set(LINT_RULES) - BY_DESIGN)
    filters = [arg for code in gated for arg in ("--filter", code)]
    failures = []
    modules = example_modules()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in modules.items():
            parse_module(text)  # the emitted IR must round-trip
            path = Path(tmp) / f"{name}.mlir"
            path.write_text(text)
            print(f"== lint --werror {name}.mlir ({len(gated)} checks)")
            if main(["lint", "--werror", *filters, str(path)]) != 0:
                failures.append(name)
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"OK: {len(modules)} examples lint-clean under --werror")
    return 0


if __name__ == "__main__":
    sys.exit(run())
