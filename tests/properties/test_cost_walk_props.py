"""Property: the block-count cost walk equals the op-by-op fold.

``block_cost`` tallies each run of straight-line ops as plain ints and turns
them into ranges only before region ops, calls and unmodeled ops and at the
block end.  Folding ``op_cost`` over every op one by one must give the same
summary: totals equal as dicts and in key order, sites equal field by field.
Checked on generated programs (every backend, every pipeline), on every
shipped example's IR, and on a program that reaches the unmodeled paths.
"""

import contextlib
import dataclasses
import io
import random
import sys
from pathlib import Path

import pytest

from repro.analysis import cost
from repro.analysis.cost import CostAnalysis, CostVector
from repro.ir import parse_module
from repro.passes import PIPELINES, ConvertLinalgToAccfgPass, pipeline_by_name
from repro.testing.generator import PROFILES, build_spec, generate_spec
from repro.workloads import build_opengemm_matmul
from repro.workloads.network import build_mlp

EXAMPLES = Path(__file__).resolve().parent.parent.parent / "examples"

EDGES = """
func.func @helper(%n : index) -> () {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  scf.for %i = %c0 to %n step %c1 {
    %v = arith.constant 4 : i64
    %s = accfg.setup on "toyvec" ("n" = %v : i64) : !accfg.state<"toyvec">
    %t = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t
    scf.yield
  }
  func.return
}
func.func @main(%x : i64, %n : index) -> (i64) {
  "libc.printf"() {accfg.effects = "none"} : () -> ()
  %c = arith.constant 3 : i64
  %s = accfg.setup on "toyvec" ("n" = %c : i64) : !accfg.state<"toyvec">
  accfg.reset %s
  %u = accfg.setup on "mystery9000" ("n" = %c : i64) : !accfg.state<"mystery9000">
  "mystery.op"() : () -> ()
  func.call @helper(%n) : (index) -> ()
  %y = arith.addi %x, %c : i64
  func.return %y : i64
}
"""


def fold_block_cost(self, block):
    total = CostVector()
    for op in block.ops:
        total.iadd(self.op_cost(op))
    return total


def assert_walks_agree(module):
    fast = CostAnalysis(module).summaries()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cost._FunctionWalker, "block_cost", fold_block_cost)
        folded = CostAnalysis(module).summaries()
    assert [s.name for s in fast] == [s.name for s in folded]
    for mine, theirs in zip(fast, folded):
        for name in ("instrs", "config_bytes", "launches", "ops"):
            ours, reference = getattr(mine.total, name), getattr(theirs.total, name)
            assert ours == reference, name
            assert list(ours) == list(reference), f"{name} key order"
        assert mine.total.indeterminate_ops == theirs.total.indeterminate_ops
        assert mine.total.unmodeled == theirs.total.unmodeled
        assert len(mine.sites) == len(theirs.sites)
        for site, expected in zip(mine.sites, theirs.sites):
            for field in dataclasses.fields(site):
                assert getattr(site, field.name) == getattr(
                    expected, field.name
                ), field.name


@pytest.mark.parametrize("backend", sorted(PROFILES))
@pytest.mark.parametrize("seed", range(6))
def test_generated_programs_under_every_pipeline(backend, seed):
    spec = generate_spec(random.Random(seed), backend)
    assert_walks_agree(build_spec(spec, memory_seed=seed).module)
    for pipeline in sorted(PIPELINES):
        built = build_spec(spec, memory_seed=seed)
        pipeline_by_name(pipeline).run(built.module)
        assert_walks_agree(built.module)


def example_modules():
    names = (
        "quickstart",
        "linalg_pipeline",
        "multi_accelerator",
        "custom_accelerator",
        "opengemm_tiled_matmul",
    )
    sys.path.insert(0, str(EXAMPLES))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            examples = {name: __import__(name) for name in names}
    finally:
        sys.path.remove(str(EXAMPLES))
    # mlp_inference.py and timeline_visualization.py simulate on import;
    # build the IR they run instead (as tools/lint_examples.py does).
    mlp = build_mlp([32, 64, 64, 32, 8], batch=16, seed=11)
    ConvertLinalgToAccfgPass().apply(mlp.module)
    return [
        parse_module(examples["quickstart"].PROGRAM),
        parse_module(examples["linalg_pipeline"].SOURCE),
        examples["multi_accelerator"].module,
        examples["custom_accelerator"].module,
        examples["opengemm_tiled_matmul"].workload.module,
        mlp.module,
        build_opengemm_matmul(16).module,
    ]


def test_every_example_before_and_after_the_full_pipeline():
    for module in example_modules():
        assert_walks_agree(module)
        optimized = module.clone()  # the examples' own modules stay intact
        pipeline_by_name("full").run(optimized)
        assert_walks_agree(optimized)


def test_unmodeled_and_call_paths():
    module = parse_module(EDGES)
    summary = CostAnalysis(module).summary("main")
    assert summary.total.unmodeled == {
        "setup on unknown accelerator 'mystery9000'",
        "'mystery.op'",
    }
    assert [site.kind for site in summary.sites] == ["setup", "reset"]
    assert_walks_agree(module)
