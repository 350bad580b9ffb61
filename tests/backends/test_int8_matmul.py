"""The exact int8 product (:func:`repro.backends.base.int8_matmul`) and the
kernels that use it, against the int32 expressions they replaced.

The helper runs a product through float64 BLAS only while the float64
result is provably exact; past that bound it must wrap as numpy's int32
product does.  The reference here is the old code, kept verbatim: the
int32 product expressions, and the Gemmini and OpenGeMM kernels that held
them.  Swapped in for the current kernels, they must leave the same
memory image on every figure pipeline and on generated programs of every
backend, on both engines.
"""

import contextlib
import random

import numpy as np
import pytest

from repro.backends import GEMMINI, OPENGEMM, GemminiSpec, OpenGeMMSpec
from repro.backends.base import int8_matmul
from repro.backends.gemmini import ARRAY_DIM, OP_COMPUTE, OP_LOOP_WS
from repro.engine import run_module_traced
from repro.experiments import common, fig10_gemmini, fig11_opengemm
from repro.interp import InterpreterError, run_module
from repro.passes import pipeline_by_name
from repro.sim import CoSimulator, Memory
from repro.testing.generator import PROFILES, build_spec, generate_spec
from repro.workloads import build_gemmini_matmul, build_opengemm_matmul

ZERO_POINTS = (0, 1, 2, 255)


# -- the old code, verbatim ---------------------------------------------------


def reference_product(a, b):
    """Gemmini's product and the numpy check's."""
    return a.astype(np.int32) @ b.astype(np.int32)


def reference_zero_point_product(a, b, a_zp, b_zp):
    """OpenGeMM's product, on operands it had read as int32."""
    a = a.astype(np.int32)
    b = b.astype(np.int32)
    return (a - a_zp) @ (b - b_zp)


def reference_gemmini_execute(self, config, memory):
    op = config.get("op", OP_LOOP_WS)
    if op in (1, 2, 3):  # mvin, mvout, preload
        return
    if op in (OP_COMPUTE, 5):
        reference_fine_grained(self, config, memory)
        return
    tiles_i = max(1, config.get("I", 1))
    tiles_j = max(1, config.get("J", 1))
    tiles_k = max(1, config.get("K", 1))
    rows = tiles_i * ARRAY_DIM - config.get("pad_I", 0)
    cols = tiles_j * ARRAY_DIM - config.get("pad_J", 0)
    inner = tiles_k * ARRAY_DIM - config.get("pad_K", 0)
    a = memory.read_matrix(
        config["A"], rows, inner, config.get("stride_A", inner), np.int8
    )
    if config.get("A_transpose"):
        a = a.T
        rows, inner = a.shape
    b = memory.read_matrix(
        config["B"], inner, cols, config.get("stride_B", cols), np.int8
    )
    if config.get("B_transpose"):
        b = b.T
    acc = a.astype(np.int32) @ b.astype(np.int32)
    d_addr = config.get("D", 0)
    if d_addr:
        acc = acc + memory.read_matrix(
            d_addr, rows, cols, config.get("stride_D", cols), np.int32
        )
    if config.get("act") == 1:  # ReLU
        acc = np.maximum(acc, 0)
    memory.write_matrix(config["C"], acc, config.get("stride_C", cols))


def reference_fine_grained(self, config, memory):
    dim = ARRAY_DIM
    stride_a = config.get("stride_A", dim)
    stride_b = config.get("stride_B", dim)
    stride_c = config.get("stride_C", dim)
    a = memory.read_matrix(config["ld_addr"], dim, dim, stride_a, np.int8)
    b = memory.read_matrix(config["preload_addr"], dim, dim, stride_b, np.int8)
    product = a.astype(np.int32) @ b.astype(np.int32)
    if config.get("acc"):
        product = product + memory.read_matrix(
            config["st_addr"], dim, dim, stride_c, np.int32
        )
    memory.write_matrix(config["st_addr"], product, stride_c)


def reference_opengemm_execute(self, config, memory):
    m = config.get("M", 8)
    k = config.get("K", 8)
    n = config.get("N", 8)
    subtraction = config.get("subtractions", 0)
    a_zp = subtraction & 0xFF
    b_zp = (subtraction >> 8) & 0xFF
    a = memory.read_matrix(
        config["ptr_A"], m, k, config.get("stride_A", k), np.int8
    ).astype(np.int32)
    b = memory.read_matrix(
        config["ptr_B"], k, n, config.get("stride_B", n), np.int8
    ).astype(np.int32)
    acc = (a - a_zp) @ (b - b_zp)
    memory.write_matrix(config["ptr_C"], acc, config.get("stride_C", n))


@contextlib.contextmanager
def old_kernels():
    """Run the body on the old kernels."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GemminiSpec, "execute", reference_gemmini_execute)
        patch.setattr(GemminiSpec, "_execute_fine_grained", reference_fine_grained)
        patch.setattr(OpenGeMMSpec, "execute", reference_opengemm_execute)
        yield


def on_both(run) -> tuple:
    """``run()`` on the current kernels, then on the old ones."""
    new = run()
    with old_kernels():
        old = run()
    return new, old


def image(memory: Memory) -> list[np.ndarray]:
    return [buffer.array.copy() for buffer in memory.buffers]


def assert_same_image(got: list[np.ndarray], want: list[np.ndarray]) -> None:
    assert len(got) == len(want)
    for index, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype and np.array_equal(g, w), f"buffer {index}"


def assert_same_int32(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == np.int32 == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def k_at_bound(a_zp: int, b_zp: int) -> int:
    """The largest K the float64 path takes."""
    return (2**31 - 1) // ((128 + a_zp) * (128 + b_zp))


# -- the helper -------------------------------------------------------------


def operands(kind: str, m: int, k: int, n: int, seed: int = 0):
    if kind == "random":
        rng = np.random.default_rng(seed)
        a = rng.integers(-128, 128, (m, k), dtype=np.int8)
        b = rng.integers(-128, 128, (k, n), dtype=np.int8)
    elif kind == "mixed":  # the largest-magnitude terms, both signs
        a = np.full((m, k), -128, np.int8)
        a[1::2] = 127
        b = np.full((k, n), -128, np.int8)
        b[:, 1::2] = 127
    else:
        value = {"min": -128, "max": 127}[kind]
        a = np.full((m, k), value, np.int8)
        b = np.full((k, n), value, np.int8)
    return a, b


@pytest.mark.parametrize("kind", ["random", "min", "max", "mixed"])
@pytest.mark.parametrize("k", [1, 16, 256])
def test_matches_the_int32_product(kind, k):
    a, b = operands(kind, 5, k, 3, seed=k)
    want = reference_product(a, b)
    assert_same_int32(int8_matmul(a, b), want)
    assert_same_int32(reference_zero_point_product(a, b, 0, 0), want)


@pytest.mark.parametrize("kind", ["random", "min", "max", "mixed"])
@pytest.mark.parametrize("k", [1, 16, 256])
def test_zero_points_match_the_int32_product(k, kind):
    a, b = operands(kind, 4, k, 6, seed=k)
    for a_zp in ZERO_POINTS:
        for b_zp in ZERO_POINTS:
            assert_same_int32(
                int8_matmul(a, b, a_zp, b_zp),
                reference_zero_point_product(a, b, a_zp, b_zp),
            )


@pytest.mark.parametrize("past", [0, 1], ids=["at-bound", "past-bound"])
@pytest.mark.parametrize("kind", ["min", "max", "mixed"])
@pytest.mark.parametrize("a_zp, b_zp", [(0, 0), (255, 255), (1, 255), (2, 0)])
def test_at_and_past_the_float64_bound(a_zp, b_zp, kind, past):
    """At the bound the float64 path runs and the largest sum still fits
    int32; one term more and the int32 product must wrap as before."""
    k = k_at_bound(a_zp, b_zp) + past
    a, b = operands(kind, 2, k, 2)
    assert_same_int32(
        int8_matmul(a, b, a_zp, b_zp),
        reference_zero_point_product(a, b, a_zp, b_zp),
    )


def test_the_bound_is_load_bearing():
    """Past the bound the float64 result does not fit int32: the sum of
    20,000 terms of 383² wraps, where a float64 cast reads -2**31."""
    a = np.full((1, 20_000), -128, np.int8)
    b = np.full((20_000, 1), -128, np.int8)
    got = int8_matmul(a, b, 255, 255)
    assert got.dtype == np.int32
    assert got[0, 0] == -1_361_187_296
    assert_same_int32(got, reference_zero_point_product(a, b, 255, 255))


@pytest.mark.parametrize("a_zp, b_zp", [(0, 0), (2, 255)])
def test_transposed_and_strided_views(a_zp, b_zp):
    rng = np.random.default_rng(7)
    big_a = rng.integers(-128, 128, (40, 50), dtype=np.int8)
    big_b = rng.integers(-128, 128, (60, 30), dtype=np.int8)
    views = [
        (big_a[:16, :24], big_b[:24, :8]),  # row-strided slices
        (big_a[::2, 1::3][:16, :16], big_b[1::3, ::2][:16, :15]),  # strided
        (big_a[:24, :16].T, big_b[:24, :12]),  # transposed A
        (big_a[:8, :16], big_b[:12, :16].T),  # transposed B
        (big_a[::3, ::2].T[:10, :13], big_b[::4, ::2][:13, :9]),
    ]
    for a, b in views:
        assert_same_int32(
            int8_matmul(a, b, a_zp, b_zp),
            reference_zero_point_product(a, b, a_zp, b_zp),
        )
        if not (a_zp or b_zp):
            assert_same_int32(int8_matmul(a, b), reference_product(a, b))


def test_operands_are_not_changed():
    a, b = operands("random", 3, 16, 4)
    a_before, b_before = a.copy(), b.copy()
    int8_matmul(a, b, 2, 255)
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


# -- the kernels ------------------------------------------------------------


def _accumulation_memory(c_value: int, operand: int):
    """A, B and an int32 C of one 16x16 tile each.  C sits near ±2**31 and
    every product pushes it past."""
    memory = Memory()
    a = memory.place(np.full((ARRAY_DIM, ARRAY_DIM), operand, np.int8))
    b = memory.place(np.full((ARRAY_DIM, ARRAY_DIM), 127, np.int8))
    c = memory.place(np.full((ARRAY_DIM, ARRAY_DIM), c_value, np.int32))
    return memory, a, b, c


NEAR_INT32_LIMITS = [(2**31 - 1000, 127), (-(2**31) + 1000, -128)]


@pytest.mark.parametrize("c_value, operand", NEAR_INT32_LIMITS)
def test_fine_grained_accumulation_wraps_as_before(c_value, operand):
    def run():
        memory, a, b, c = _accumulation_memory(c_value, operand)
        config = {
            "op": OP_COMPUTE,
            "ld_addr": a.addr,
            "preload_addr": b.addr,
            "st_addr": c.addr,
            "acc": 1,
        }
        GEMMINI.execute(config, memory)
        return image(memory)

    new, old = on_both(run)
    assert_same_image(new, old)
    # Every sum left int32 and wrapped to the other sign.
    assert (np.sign(new[2]) == -np.sign(c_value)).all()


@pytest.mark.parametrize("relu", [0, 1])
@pytest.mark.parametrize("c_value, operand", NEAR_INT32_LIMITS)
def test_loop_ws_bias_wraps_as_before(c_value, operand, relu):
    def run():
        memory, a, b, d = _accumulation_memory(c_value, operand)
        c = memory.alloc((ARRAY_DIM, ARRAY_DIM), np.int32)
        config = {
            "op": OP_LOOP_WS,
            "A": a.addr,
            "B": b.addr,
            "D": d.addr,
            "C": c.addr,
            "act": relu,
        }
        GEMMINI.execute(config, memory)
        return image(memory)

    assert_same_image(*on_both(run))


@pytest.mark.parametrize(
    "subtractions", [0, 1, 2 << 8, 255 | (255 << 8), 7 | (1 << 8)]
)
@pytest.mark.parametrize("k", [8, 64, 256])
def test_opengemm_zero_points_as_before(subtractions, k):
    def run():
        memory = Memory()
        rng = np.random.default_rng(k)
        a = memory.place(rng.integers(-128, 128, (8, k), dtype=np.int8))
        b = memory.place(rng.integers(-128, 128, (k, 8), dtype=np.int8))
        c = memory.alloc((8, 8), np.int32)
        config = {
            "M": 8,
            "K": k,
            "N": 8,
            "ptr_A": a.addr,
            "ptr_B": b.addr,
            "ptr_C": c.addr,
            "subtractions": subtractions,
        }
        OPENGEMM.execute(config, memory)
        return image(memory)

    assert_same_image(*on_both(run))


FIGURE_PIPELINES = [
    (build_gemmini_matmul, pipeline)
    for pipeline in (
        fig10_gemmini.BASELINE_PIPELINE,
        fig10_gemmini.OPTIMIZED_PIPELINE,
    )
] + [(build_opengemm_matmul, pipeline) for pipeline in fig11_opengemm.VARIANTS]


@pytest.mark.parametrize("size", [16, 32, 64])
@pytest.mark.parametrize(
    "build, pipeline",
    FIGURE_PIPELINES,
    ids=[f"{build.__name__}-{pipeline}" for build, pipeline in FIGURE_PIPELINES],
)
def test_figure_runs_leave_the_old_image(build, pipeline, size):
    def run():
        workload = build(size)
        result = common.run_workload(workload, pipeline)
        assert result.correct
        return result.metrics, image(workload.memory)

    (new_metrics, new_image), (old_metrics, old_image) = on_both(run)
    assert new_metrics == old_metrics
    assert_same_image(new_image, old_image)


@pytest.mark.parametrize("engine", [run_module_traced, run_module])
@pytest.mark.parametrize("backend", sorted(PROFILES))
def test_generated_programs_leave_the_old_image(backend, engine):
    launches = 0
    for seed in range(24):
        spec = generate_spec(random.Random(5000 + seed), backend)
        pipeline = ("none", "baseline", "dedup", "overlap", "full")[seed % 5]

        def run():
            built = build_spec(spec, memory_seed=seed)
            pipeline_by_name(pipeline).run(built.module)
            sim = CoSimulator(memory=built.memory)
            try:
                results, _ = engine(built.module, sim, args=list(built.args))
            except InterpreterError as error:
                results = f"error: {error}"
            count = sum(device.launch_count for device in sim.devices.values())
            return results, count, image(built.memory)

        (new_results, count, new_image), (old_results, _, old_image) = on_both(run)
        assert new_results == old_results
        assert_same_image(new_image, old_image)
        launches += count
    assert launches
