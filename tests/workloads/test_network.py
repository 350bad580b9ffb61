"""Tests for the MLP network workload."""

import numpy as np
import pytest

from repro.backends import get_accelerator
from repro.interp import run_module
from repro.ir import parse_module, verify_operation
from repro.passes import ConvertLinalgToAccfgPass, pipeline_by_name
from repro.sim import CoSimulator
from repro.workloads.network import build_mlp


def run_mlp(layers, pipeline, batch=8, seed=0):
    workload = build_mlp(layers, batch=batch, seed=seed)
    ConvertLinalgToAccfgPass().apply(workload.module)
    verify_operation(workload.module)
    pipeline_by_name(pipeline).run(workload.module)
    sim = CoSimulator(
        memory=workload.memory,
        cost_model=get_accelerator("opengemm").host_cost_model(),
    )
    run_module(workload.module, sim)
    return workload, sim


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError, match="multiples"):
            build_mlp([10, 16])
        with pytest.raises(ValueError, match="batch"):
            build_mlp([16, 16], batch=5)
        with pytest.raises(ValueError, match="at least"):
            build_mlp([16])

    def test_total_macs(self):
        workload = build_mlp([16, 32, 8], batch=8)
        assert workload.total_macs == 8 * 16 * 32 + 8 * 32 * 8

    def test_ir_round_trips(self):
        workload = build_mlp([16, 16], batch=8)
        printed = str(workload.module)
        assert str(parse_module(printed)) == printed


class TestExecution:
    @pytest.mark.parametrize("pipeline", ["baseline", "dedup", "full"])
    def test_two_layer_correct(self, pipeline):
        workload, _ = run_mlp([16, 32, 16], pipeline)
        assert workload.check()

    def test_deep_network_correct(self):
        workload, _ = run_mlp([16, 24, 32, 24, 8], "full", seed=3)
        assert workload.check()

    def test_single_layer(self):
        workload, _ = run_mlp([16, 8], "full")
        assert workload.check()

    def test_multiple_accelerators_used(self):
        _, sim = run_mlp([16, 16, 16], "full")
        assert set(sim.devices) == {"opengemm", "toyvec"}
        assert sim.device("opengemm").launch_count > 0
        assert sim.device("toyvec").launch_count > 0


class TestOptimizationGains:
    def test_full_pipeline_speeds_up_inference(self):
        baseline_wl, baseline_sim = run_mlp([16, 32, 16, 8], "baseline")
        full_wl, full_sim = run_mlp([16, 32, 16, 8], "full")
        assert baseline_wl.check() and full_wl.check()
        assert full_sim.total_cycles < baseline_sim.total_cycles

    def test_intro_mlp_speeds_up_under_each_optimization(self):
        # The intro's motivating workload: quantized MLP inference through
        # the complete Figure 8 flow, outputs bit-exact against numpy.
        cycles = {}
        for pipeline in ("baseline", "dedup", "full"):
            workload, sim = run_mlp([32, 64, 64, 32, 8], pipeline, batch=16, seed=11)
            assert workload.check()
            cycles[pipeline] = sim.total_cycles
        assert cycles["dedup"] < cycles["baseline"]
        assert cycles["full"] < cycles["dedup"]
        assert cycles["baseline"] / cycles["full"] > 1.2

    def test_dedup_cuts_config_bytes_across_layers(self):
        _, baseline_sim = run_mlp([16, 16, 16, 16], "baseline")
        _, dedup_sim = run_mlp([16, 16, 16, 16], "dedup")
        assert (
            dedup_sim.trace.config_bytes() < baseline_sim.trace.config_bytes()
        )


class TestResetOutput:
    """``reset_output`` zeroes through ``Memory``: a snapshot taken before
    keeps the old contents, and a product afterwards reads the zeros."""

    def test_snapshot_keeps_and_product_reads_the_reset(self):
        from repro.backends import OPENGEMM

        workload, _ = run_mlp([16, 24, 8], "full")
        memory = workload.memory
        (mirror,) = [b for b in workload.scratch if b.array.dtype == np.int8]
        assert mirror.addr in memory._images  # the second layer read it
        cleared = (workload.output, *workload.scratch)
        old = [buffer.array.copy() for buffer in cleared]
        assert any(values.any() for values in old)
        before = memory.snapshot()
        workload.reset_output()
        index = {id(b): i for i, b in enumerate(memory.buffers)}
        for buffer, values in zip(cleared, old):
            assert (before[index[id(buffer)]] == values).all()
            assert not buffer.array.any()
        out = memory.alloc((8, 8), np.int32)
        OPENGEMM.execute(
            {
                "M": 8,
                "K": 24,
                "N": 8,
                "ptr_A": mirror.addr,
                "ptr_B": workload.weights[1].addr,
                "ptr_C": out.addr,
            },
            memory,
        )
        assert not out.array.any()
