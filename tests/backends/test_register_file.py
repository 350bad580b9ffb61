"""A spec's ``execute`` reads its device's live register file.

A device hands ``execute`` its register file itself, not a copy, so a
spec must only read it.  Every registered spec's ``execute`` runs here on
a read-only ``types.MappingProxyType`` of its configuration, for each of
its macro-operations, and leaves the memory image a plain dict leaves;
then figure runs and generated programs of every backend run with every
launch's configuration read-only.
"""

import random
from types import MappingProxyType

import numpy as np
import pytest

from repro.backends import (
    GemminiSpec,
    OpenGeMMSpec,
    ToyVecSpec,
    get_accelerator,
    registered_accelerators,
)
from repro.backends.gemmini import ARRAY_DIM
from repro.engine import run_module_traced
from repro.experiments import common
from repro.interp import run_module
from repro.passes import pipeline_by_name
from repro.sim import CoSimulator, Memory
from repro.testing.generator import PROFILES, build_spec, generate_spec
from repro.workloads import build_gemmini_matmul, build_opengemm_matmul


def _gemmini_configs(memory: Memory) -> list[dict]:
    rng = np.random.default_rng(0)
    dim = ARRAY_DIM
    a = memory.place(rng.integers(-128, 128, (2 * dim, 2 * dim), dtype=np.int8))
    b = memory.place(rng.integers(-128, 128, (2 * dim, 2 * dim), dtype=np.int8))
    d = memory.place(rng.integers(-9, 9, (2 * dim, 2 * dim), dtype=np.int32))
    c = memory.alloc((2 * dim, 2 * dim), np.int32)
    loop_ws = {
        "op": 0,
        "A": a.addr,
        "B": b.addr,
        "D": d.addr,
        "C": c.addr,
        "I": 2,
        "J": 2,
        "K": 2,
        "act": 1,
    }
    tile = {"ld_addr": a.addr, "preload_addr": b.addr, "st_addr": c.addr}
    tile.update(stride_A=2 * dim, stride_B=2 * dim, stride_C=2 * dim)
    return [
        loop_ws,
        {**loop_ws, "A_transpose": 1, "B_transpose": 1, "D": 0},
        {"op": 1, "ld_addr": a.addr},  # mvin
        {"op": 2, "ld_addr": c.addr},  # mvout
        {"op": 3, **tile},  # preload
        {"op": 4, **tile},  # compute
        {"op": 4, "acc": 1, **tile},
        {"op": 5, "acc": 1, **tile},  # output-stationary compute
    ]


def _opengemm_configs(memory: Memory) -> list[dict]:
    rng = np.random.default_rng(1)
    a = memory.place(rng.integers(-128, 128, (8, 32), dtype=np.int8))
    b = memory.place(rng.integers(-128, 128, (32, 8), dtype=np.int8))
    c = memory.alloc((8, 8), np.int32)
    base = {"M": 8, "K": 32, "N": 8, "ptr_A": a.addr, "ptr_B": b.addr, "ptr_C": c.addr}
    return [base, {**base, "subtractions": 3 | (255 << 8)}]


def _toyvec_configs(memory: Memory) -> list[dict]:
    x = memory.place(np.arange(-8, 8, dtype=np.int32))
    y = memory.place(np.arange(16, dtype=np.int32)[::-1].copy())
    out = memory.alloc(16, np.int32)
    base = {"ptr_x": x.addr, "ptr_y": y.addr, "ptr_out": out.addr, "n": 16}
    return [{**base, "op": op} for op in (0, 1, 2)] + [{**base, "n": 0}]


#: each built-in spec family and the configurations of its macro-ops
FAMILIES = (
    (GemminiSpec, _gemmini_configs),
    (OpenGeMMSpec, _opengemm_configs),
    (ToyVecSpec, _toyvec_configs),
)


def _configs_for(spec):
    for family, configs in FAMILIES:
        if isinstance(spec, family):
            return configs
    raise AssertionError(f"no configurations for {spec!r}: add its family here")


def _image(memory: Memory) -> list[np.ndarray]:
    return [buffer.array.copy() for buffer in memory.buffers]


@pytest.mark.parametrize("name", registered_accelerators())
def test_execute_runs_on_a_read_only_register_file(name):
    spec = get_accelerator(name)
    configs = _configs_for(spec)
    read_only, plain = Memory(), Memory()
    for proxied, config in zip(configs(read_only), configs(plain)):
        spec.execute(MappingProxyType(proxied), read_only)
        spec.execute(dict(config), plain)
        for got, want in zip(_image(read_only), _image(plain)):
            assert np.array_equal(got, want)


@pytest.fixture
def read_only_launches(monkeypatch):
    """Every built-in family's ``execute`` sees a read-only configuration."""
    for family, _ in FAMILIES:
        original = family.execute

        def execute(self, config, memory, original=original):
            original(self, MappingProxyType(config), memory)

        monkeypatch.setattr(family, "execute", execute)


@pytest.mark.parametrize("build", [build_gemmini_matmul, build_opengemm_matmul])
def test_figure_runs_read_the_register_file_only(build, read_only_launches):
    for pipeline in ("baseline", "full"):
        assert common.run_workload(build(32), pipeline).correct


@pytest.mark.parametrize("engine", [run_module_traced, run_module])
@pytest.mark.parametrize("backend", sorted(PROFILES))
def test_generated_programs_read_the_register_file_only(
    backend, engine, read_only_launches
):
    for seed in range(12):
        spec = generate_spec(random.Random(7000 + seed), backend)
        built = build_spec(spec, memory_seed=seed)
        pipeline_by_name(("none", "full", "overlap")[seed % 3]).run(built.module)
        engine(built.module, CoSimulator(memory=built.memory), args=list(built.args))


def test_execute_reads_the_live_register_file(monkeypatch):
    seen = []
    original = ToyVecSpec.execute

    def execute(self, config, memory):
        seen.append(config)
        original(self, config, memory)

    monkeypatch.setattr(ToyVecSpec, "execute", execute)
    sim = CoSimulator()
    sim.exec_setup("toyvec", {"n": 0})
    sim.exec_await(sim.exec_launch("toyvec"))
    device = sim.device("toyvec")
    assert seen == [{"n": 0}] and seen[0] is device.registers
