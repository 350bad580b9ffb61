"""Workload sweeps and the rectangular-matmul generator.

The evaluation uses square matrices; real inference layers are rectangular,
so the library also provides an M x K x N OpenGeMM generator plus sweep
helpers the experiments and benchmarks share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..backends import opengemm as opengemm_backend
from ..sim.memory import Memory
from .irgen import build_function, new_module
from .matmul import MatmulWorkload


@dataclass
class RectMatmulWorkload(MatmulWorkload):
    """An M x K x N matmul; ``size`` holds M for compatibility."""

    m: int = 0
    k: int = 0
    n: int = 0

    @property
    def total_ops(self) -> int:  # type: ignore[override]
        return 2 * self.m * self.k * self.n


def build_opengemm_rect_matmul(
    m: int, k: int, n: int, memory: Memory | None = None, seed: int = 0
) -> RectMatmulWorkload:
    """Rectangular tiled matmul for OpenGeMM (tile shape 8 x k x 8)."""
    mesh = opengemm_backend.MESH
    if m % mesh or n % mesh:
        raise ValueError(f"M and N must be multiples of {mesh}")
    if k % mesh:
        raise ValueError(f"K must be a multiple of {mesh}")
    memory = memory or Memory()
    rng = np.random.default_rng(seed)
    a_values = rng.integers(-8, 8, size=(m, k), dtype=np.int8)
    b_values = rng.integers(-8, 8, size=(k, n), dtype=np.int8)
    a = memory.place(a_values)
    b = memory.place(b_values)
    c = memory.alloc((m, n), np.int32)

    module = new_module()
    with build_function(module, "main") as (gen, _):
        zero = gen.const(0)
        one = gen.const(1)
        m_tiles = gen.const(m // mesh)
        n_tiles = gen.const(n // mesh)
        with gen.loop(zero, m_tiles, one) as (_, ti):
            with gen.loop(zero, n_tiles, one) as (_, tj):
                c8 = gen.const(mesh)
                k_c = gen.const(k)
                n_c = gen.const(n)
                row = gen.mul(ti, c8)
                col = gen.mul(tj, c8)
                ptr_a = gen.add(gen.const(a.addr), gen.mul(row, k_c))
                ptr_b = gen.add(gen.const(b.addr), col)
                c_elems = gen.add(gen.mul(row, n_c), col)
                ptr_c = gen.add(gen.const(c.addr), gen.mul(c_elems, gen.const(4)))
                fields = [
                    ("M", c8),
                    ("K", k_c),
                    ("N", c8),
                    ("ptr_A", ptr_a),
                    ("ptr_B", ptr_b),
                    ("ptr_C", ptr_c),
                    ("stride_A", k_c),
                    ("stride_B", n_c),
                    ("stride_C", n_c),
                    ("subtractions", gen.const(0)),
                ]
                state = gen.setup("opengemm", fields)
                gen.await_(gen.launch(state))

    workload = RectMatmulWorkload(
        module, memory, "opengemm", m, a, b, c, m=m, k=k, n=n
    )
    return workload


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep, lazily constructing its workload."""

    label: str
    build: Callable[[], MatmulWorkload]


def square_sweep(
    builder: Callable[[int], MatmulWorkload], sizes: tuple[int, ...]
) -> Iterator[SweepPoint]:
    """Standard square-matmul size sweep, as in Figures 10 and 11."""
    for size in sizes:
        yield SweepPoint(f"{size}x{size}x{size}", lambda s=size: builder(s))


def aspect_ratio_sweep(
    volume: int = 2**15, ratios: tuple[int, ...] = (1, 4, 16)
) -> Iterator[SweepPoint]:
    """Constant-volume rectangular sweep: same total ops, varying shapes.

    Skinny shapes have more tiles per op (lower I_OC), so they sit deeper in
    the configuration-bound region — a library-level extension of the
    paper's analysis.
    """
    for ratio in ratios:
        k = 8 * ratio
        edge_sq = volume // k
        edge = max(8, int(round(edge_sq**0.5 / 8)) * 8)
        m = n = edge
        yield SweepPoint(
            f"{m}x{k}x{n}",
            lambda m=m, k=k, n=n: build_opengemm_rect_matmul(m, k, n),
        )
