"""Tests for the matmul workload generators."""

import numpy as np
import pytest

from repro.dialects import accfg
from repro.experiments.common import run_workload
from repro.ir import verify_operation
from repro.workloads import (
    build_gemmini_loop_ws_matmul,
    build_gemmini_matmul,
    build_opengemm_matmul,
)


class TestOpenGeMMWorkload:
    def test_ir_verifies(self):
        wl = build_opengemm_matmul(16)
        verify_operation(wl.module)

    def test_size_validation(self):
        with pytest.raises(ValueError, match="multiple"):
            build_opengemm_matmul(12)

    def test_one_setup_per_tile(self):
        wl = build_opengemm_matmul(32)
        setups = [op for op in wl.module.walk() if isinstance(op, accfg.SetupOp)]
        # All setups live inside the tile loop: one static setup op.
        assert len(setups) == 1
        assert len(setups[0].fields) == 25

    @pytest.mark.parametrize("pipeline", ["none", "baseline", "dedup", "overlap", "full"])
    def test_numerically_correct_under_all_pipelines(self, pipeline):
        result = run_workload(build_opengemm_matmul(16), pipeline)
        assert result.correct

    def test_deterministic_inputs(self):
        a = build_opengemm_matmul(16, seed=7)
        b = build_opengemm_matmul(16, seed=7)
        assert (a.a.array == b.a.array).all()
        c = build_opengemm_matmul(16, seed=8)
        assert not (a.a.array == c.a.array).all()

    def test_total_ops(self):
        assert build_opengemm_matmul(32).total_ops == 2 * 32**3

    def test_expected_and_check(self):
        wl = build_opengemm_matmul(16)
        assert not wl.check()  # not run yet
        run_workload(wl, "none")
        assert wl.check()
        wl.reset_output()
        assert not wl.check()

    def test_reset_output_writes_through_memory(self):
        """A snapshot taken before the reset keeps the product, and a tile
        accumulated after it reads the zeros."""
        from repro.backends import GEMMINI
        from repro.backends.gemmini import OP_COMPUTE

        wl = build_gemmini_matmul(32)
        run_workload(wl, "full")
        product = wl.c.array.copy()
        before = wl.memory.snapshot()
        wl.reset_output()
        assert not wl.c.array.any()
        (index,) = [i for i, b in enumerate(wl.memory.buffers) if b is wl.c]
        assert (before[index] == product).all()
        GEMMINI.execute(
            {
                "op": OP_COMPUTE,
                "ld_addr": wl.a.addr,
                "preload_addr": wl.b.addr,
                "st_addr": wl.c.addr,
                "stride_A": 32,
                "stride_B": 32,
                "stride_C": 32,
                "acc": 1,
            },
            wl.memory,
        )
        tile = wl.a.array[:16, :16].astype(np.int32) @ wl.b.array[:16, :16]
        assert (wl.c.array[:16, :16] == tile).all()
        assert not wl.c.array[16:].any()


class TestGemminiFineGrainedWorkload:
    def test_ir_verifies(self):
        wl = build_gemmini_matmul(32)
        verify_operation(wl.module)

    def test_size_validation(self):
        with pytest.raises(ValueError, match="multiple"):
            build_gemmini_matmul(20)

    def test_runtime_size_argument(self):
        wl = build_gemmini_matmul(32)
        assert wl.main_args == [32]

    @pytest.mark.parametrize("pipeline", ["none", "volatile-baseline", "full"])
    def test_numerically_correct(self, pipeline):
        result = run_workload(build_gemmini_matmul(32), pipeline)
        assert result.correct

    def test_single_preamble_setup(self):
        wl = build_gemmini_matmul(32)
        setups = [op for op in wl.module.walk() if isinstance(op, accfg.SetupOp)]
        assert len(setups) == 1  # mode config once; moves/tiles are launches

    def test_launches_cover_moves_and_tiles(self):
        wl = build_gemmini_matmul(32)
        launches = [op for op in wl.module.walk() if isinstance(op, accfg.LaunchOp)]
        # mvin-B + mvin-A + preload + compute + mvout, each a static launch op
        assert len(launches) == 5


class TestGemminiLoopWsWorkload:
    def test_ir_verifies(self):
        wl = build_gemmini_loop_ws_matmul(64)
        verify_operation(wl.module)

    @pytest.mark.parametrize("pipeline", ["none", "full"])
    def test_numerically_correct_single_chunk(self, pipeline):
        result = run_workload(build_gemmini_loop_ws_matmul(32), pipeline)
        assert result.correct

    def test_numerically_correct_multi_chunk(self):
        # 128 > chunk edge 64: exercises the k-accumulation via D = C.
        result = run_workload(build_gemmini_loop_ws_matmul(128), "full")
        assert result.correct

    def test_table1_fields_configured(self):
        wl = build_gemmini_loop_ws_matmul(64)
        setup = next(op for op in wl.module.walk() if isinstance(op, accfg.SetupOp))
        for name in ("A", "B", "D", "C", "I", "J", "K", "stride_A", "act"):
            assert name in setup.field_names


class TestCrossPipelineEquivalence:
    """The optimized binary must compute exactly what the baseline does."""

    @pytest.mark.parametrize("size", [16, 24])
    def test_opengemm_all_pipelines_agree(self, size):
        reference = None
        for pipeline in ("none", "baseline", "dedup", "overlap", "full"):
            wl = build_opengemm_matmul(size, seed=3)
            run_workload(wl, pipeline)
            if reference is None:
                reference = wl.result().copy()
            else:
                assert (wl.result() == reference).all(), pipeline

    def test_gemmini_pipelines_agree(self):
        reference = None
        for pipeline in ("none", "volatile-baseline", "dedup", "full"):
            wl = build_gemmini_matmul(32, seed=3)
            run_workload(wl, pipeline)
            if reference is None:
                reference = wl.result().copy()
            else:
                assert (wl.result() == reference).all(), pipeline
