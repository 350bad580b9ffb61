"""Tests for pass manager and preset pipelines."""

import pytest

from repro.dialects import accfg
from repro.ir import parse_module, verify_operation
from repro.passes import (
    ModulePass,
    PASS_REGISTRY,
    PassManager,
    pipeline_by_name,
    register_pass,
)
from repro.workloads import build_gemmini_matmul, build_opengemm_matmul

PROGRAM = """
func.func @f(%x : i64) -> () {
  %c0 = arith.constant 0 : index
  %c1 = arith.constant 1 : index
  %c8 = arith.constant 8 : index
  scf.for %i = %c0 to %c8 step %c1 {
    %s = accfg.setup on "toyvec" ("ptr_x" = %x : i64, "n" = %i : index) : !accfg.state<"toyvec">
    %t = accfg.launch %s : !accfg.token<"toyvec">
    accfg.await %t
    scf.yield
  }
  func.return
}
"""


class TestPassManager:
    def test_from_pipeline_string(self):
        pm = PassManager.from_pipeline("canonicalize, cse, dce")
        assert [p.name for p in pm.passes] == ["canonicalize", "cse", "dce"]

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown pass"):
            PassManager.from_pipeline("no-such-pass")

    def test_verify_each_catches_corruption(self):
        class CorruptingPass(ModulePass):
            name = "corrupting-test-pass"

            def apply(self, module, analyses=None):
                # Move a terminator to a non-terminal position.
                fn = module.body_block.ops[0]
                body = fn.regions[0].block
                ret = body.ops[-1]
                body.detach_op(ret)
                body.insert_op_at(0, ret)

        module = parse_module(PROGRAM)
        pm = PassManager([CorruptingPass()], verify_each=True)
        with pytest.raises(RuntimeError, match="verification failed after"):
            pm.run(module)

    def test_register_duplicate_name_rejected(self):
        class Dup(ModulePass):
            name = "canonicalize"

            def apply(self, module, analyses=None):
                pass

        with pytest.raises(ValueError, match="registered twice"):
            register_pass(Dup)

    def test_registry_contains_all_documented_passes(self):
        for name in (
            "canonicalize",
            "cse",
            "dce",
            "licm",
            "accfg-trace-states",
            "accfg-dedup",
            "accfg-overlap",
        ):
            assert name in PASS_REGISTRY


class TestPresetPipelines:
    @pytest.mark.parametrize(
        "name", ["none", "baseline", "volatile-baseline", "dedup", "overlap", "full"]
    )
    def test_pipelines_run_clean(self, name):
        module = parse_module(PROGRAM)
        pipeline_by_name(name).run(module)

    @pytest.mark.parametrize(
        "build, size",
        [(build_opengemm_matmul, 128), (build_gemmini_matmul, 64)],
        ids=["opengemm-128", "gemmini-64"],
    )
    def test_full_pipeline_on_the_largest_evaluation_workloads(self, build, size):
        workload = build(size)
        pipeline_by_name("full").run(workload.module)
        verify_operation(workload.module)

    def test_unknown_pipeline(self):
        with pytest.raises(ValueError, match="unknown pipeline"):
            pipeline_by_name("turbo")

    def test_full_pipeline_hoists_invariants(self):
        module = parse_module(PROGRAM)
        pipeline_by_name("full").run(module)
        # ptr_x must no longer be written inside the loop.
        from repro.dialects import scf

        loop = next(op for op in module.walk() if isinstance(op, scf.ForOp))
        for op in loop.body.ops:
            if isinstance(op, accfg.SetupOp):
                assert "ptr_x" not in op.field_names

    def test_baseline_pipeline_keeps_setup_fields(self):
        module = parse_module(PROGRAM)
        pipeline_by_name("baseline").run(module)
        setups = [op for op in module.walk() if isinstance(op, accfg.SetupOp)]
        assert sum(len(s.fields) for s in setups) == 2
