"""Tiled matrix-multiplication workload generators.

These produce the accfg IR the paper's evaluation runs (Section 6): square
``size x size`` int8 matmuls, tiled for the target accelerator, with the
per-invocation configuration written out exactly as a straightforward
frontend (step 1 of the compilation flow) would emit it — every field, every
invocation, with explicit address arithmetic and Listing-1-style bit packing.
What the optimization pipelines then remove or hide is the measured subject
of the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from ..backends import gemmini as gemmini_backend
from ..backends import opengemm as opengemm_backend
from ..backends.base import int8_matmul
from ..dialects.builtin import ModuleOp
from ..ir.attributes import index
from ..sim.memory import Buffer, Memory
from .irgen import IRGen, build_function, new_module


@dataclass
class MatmulWorkload:
    """A generated workload: IR plus the memory image it runs against."""

    module: ModuleOp
    memory: Memory
    accelerator: str
    size: int
    a: Buffer
    b: Buffer
    c: Buffer
    main_args: list[int] = dataclass_field(default_factory=list)

    @property
    def total_ops(self) -> int:
        return 2 * self.size**3

    def expected(self) -> np.ndarray:
        return int8_matmul(self.a.array, self.b.array)

    def result(self) -> np.ndarray:
        return self.c.array

    def check(self) -> bool:
        """Whether the memory image holds the correct product."""
        return bool((self.result() == self.expected()).all())

    def reset_output(self) -> None:
        self.c.array[...] = 0


def _make_inputs(size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(-8, 8, size=(size, size), dtype=np.int8)
    b = rng.integers(-8, 8, size=(size, size), dtype=np.int8)
    return a, b


# ---------------------------------------------------------------------------
# OpenGeMM: K x K matmul in tile_m x K x tile_n tiles (Section 6.2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpenGemmSchedule:
    """One point of the OpenGeMM matmul schedule space.

    ``tile_m``/``tile_n`` give the output-tile shape (multiples of the mesh
    edge that divide the problem size); the inner dimension is never tiled
    because OpenGeMM's ``execute`` overwrites C — there is no accumulation
    across invocations.  ``loop_order`` selects the tile-loop structure:
    ``flat`` is the naive single loop with div/rem index recovery, ``ij``
    and ``ji`` are two-level nests (whose induction arithmetic LICM can
    hoist).  The default reproduces the hand-written workload exactly.
    """

    tile_m: int = opengemm_backend.MESH
    tile_n: int = opengemm_backend.MESH
    loop_order: str = "flat"  # flat | ij | ji

    def validate(self, size: int) -> None:
        mesh = opengemm_backend.MESH
        for name, tile in (("tile_m", self.tile_m), ("tile_n", self.tile_n)):
            if tile % mesh or tile <= 0:
                raise ValueError(f"{name} must be a positive multiple of {mesh}")
            if size % tile:
                raise ValueError(f"{name}={tile} must divide size={size}")
        if self.loop_order not in ("flat", "ij", "ji"):
            raise ValueError(f"bad loop_order '{self.loop_order}'")

    def scratchpad_bytes(self, size: int) -> int:
        """Scratchpad footprint of one invocation: int8 A and B panels plus
        the int32 output tile."""
        return (
            self.tile_m * size + size * self.tile_n + 4 * self.tile_m * self.tile_n
        )


def build_opengemm_matmul(
    size: int,
    memory: Memory | None = None,
    seed: int = 0,
    schedule: OpenGemmSchedule | None = None,
) -> MatmulWorkload:
    """Tiled matmul for OpenGeMM: one accelerator invocation per
    ``tile_m x tile_n`` output tile with the full inner dimension (tile
    shape 8 x size x 8 by default, as in the paper's OpenGeMM evaluation).

    The emitted IR re-configures every CSR for every tile — sizes, strides,
    streamer bounds, pointers — because a stateless lowering cannot know
    what the registers already hold.  Only the three pointers actually change
    between tiles; everything else is the dedup pass's harvest.
    """
    mesh = opengemm_backend.MESH
    schedule = schedule or OpenGemmSchedule()
    if size % mesh:
        raise ValueError(f"size must be a multiple of {mesh}")
    schedule.validate(size)
    memory = memory or Memory()
    a_values, b_values = _make_inputs(size, seed)
    a = memory.place(a_values)
    b = memory.place(b_values)
    c = memory.alloc((size, size), np.int32)

    module = new_module()
    tile_m, tile_n = schedule.tile_m, schedule.tile_n
    m_tiles = size // tile_m
    n_tiles = size // tile_n
    with build_function(module, "main") as (gen, _):
        zero = gen.const(0)
        one = gen.const(1)

        def tile_body(gen: IRGen, ti, tj) -> None:
            tm_c = gen.const(tile_m)
            tn_c = tm_c if tile_n == tile_m else gen.const(tile_n)
            row = gen.mul(ti, tm_c)
            col = gen.mul(tj, tn_c)
            size_c = gen.const(size)
            # Byte addresses: A, B are int8; C is int32 (4 bytes/elem).
            ptr_a = gen.add(gen.const(a.addr), gen.mul(row, size_c))
            ptr_b = gen.add(gen.const(b.addr), col)
            c_elems = gen.add(gen.mul(row, size_c), col)
            ptr_c = gen.add(
                gen.const(c.addr), gen.mul(c_elems, gen.const(4))
            )
            # Streamer programming, recomputed per tile by the naive
            # frontend: bounds/strides derived from the tile geometry.
            if tile_m == mesh:
                mesh_c = tm_c
            elif tile_n == mesh:
                mesh_c = tn_c
            else:
                mesh_c = gen.const(mesh)
            k_bound = gen.div(size_c, mesh_c)
            elem_stride = gen.const(1)
            row_bytes = size_c  # int8: one byte per element
            n_vecs = one if tile_n == mesh else gen.const(tile_n // mesh)
            fields = [
                ("M", tm_c),
                ("K", size_c),
                ("N", tn_c),
                ("ptr_A", ptr_a),
                ("ptr_B", ptr_b),
                ("ptr_C", ptr_c),
                ("stride_A", size_c),
                ("stride_B", size_c),
                ("stride_C", size_c),
                ("subtractions", gen.const(0)),
                ("tbound0_A", k_bound),
                ("tbound1_A", tm_c),
                ("tstride0_A", mesh_c),
                ("tstride1_A", row_bytes),
                ("sstride_A", elem_stride),
                ("tbound0_B", k_bound),
                ("tbound1_B", tn_c),
                ("tstride0_B", row_bytes),
                ("tstride1_B", elem_stride),
                ("sstride_B", elem_stride),
                ("tbound0_C", tm_c),
                ("tbound1_C", n_vecs),
                ("tstride0_C", gen.mul(size_c, gen.const(4))),
                ("tstride1_C", gen.const(4)),
                ("sstride_C", gen.const(4)),
            ]
            state = gen.setup("opengemm", fields)
            token = gen.launch(state)
            gen.await_(token)

        if schedule.loop_order == "flat":
            tile_total = gen.const(m_tiles * n_tiles)
            tiles_c = gen.const(n_tiles)
            # One flattened tile loop, as the lowered tiling loop emits it:
            # the 2-D tile index is recovered with a divide/remainder pair
            # per tile.
            with gen.loop(zero, tile_total, one) as (_, t):
                ti = gen.div(t, tiles_c)
                tj = gen.rem(t, tiles_c)
                tile_body(gen, ti, tj)
        elif schedule.loop_order == "ij":
            m_tiles_c = gen.const(m_tiles)
            n_tiles_c = gen.const(n_tiles)
            with gen.loop(zero, m_tiles_c, one) as (_, ti):
                with gen.loop(zero, n_tiles_c, one) as (_, tj):
                    tile_body(gen, ti, tj)
        else:  # ji
            n_tiles_c = gen.const(n_tiles)
            m_tiles_c = gen.const(m_tiles)
            with gen.loop(zero, n_tiles_c, one) as (_, tj):
                with gen.loop(zero, m_tiles_c, one) as (_, ti):
                    tile_body(gen, ti, tj)

    return MatmulWorkload(module, memory, "opengemm", size, a, b, c)


# ---------------------------------------------------------------------------
# Gemmini: loop_ws invocations over FSM-bounded chunks (Section 6.1)
# ---------------------------------------------------------------------------


def build_gemmini_matmul(
    size: int, memory: Memory | None = None, seed: int = 0
) -> MatmulWorkload:
    """Weight-stationary tiled matmul for Gemmini at fine (per-tile)
    granularity — the flow whose traced instruction counts the paper's
    Section 4.6 example reports (160 configuration RoCC instructions and 775
    parameter-calculation instructions for the 64x64x64 kernel).

    Matrix dimensions arrive as a *runtime argument* (as in Gemmini's
    ``tiled_matmul`` C API), so derived bounds, clip logic and Listing-1
    bit-packing cannot be constant folded away.  Per 16x16 tile the program
    issues mvin data moves (amortized per A/B tile), a weight preload, a
    compute launch, and an await; the whole mode configuration (config_ex /
    config_ld / config_st, strides, flags) is emitted once, as the C library
    does.

    ``main`` takes the matrix size as its single argument (pass
    ``workload.main_args``).
    """
    dim = gemmini_backend.ARRAY_DIM
    if size % dim:
        raise ValueError(f"size must be a multiple of {dim}")
    memory = memory or Memory()
    a_values, b_values = _make_inputs(size, seed)
    a = memory.place(a_values)
    b = memory.place(b_values)
    c = memory.alloc((size, size), np.int32)

    module = new_module()
    tiles = size // dim
    with build_function(module, "main", input_types=[index]) as (gen, args):
        (size_arg,) = args
        zero = gen.const(0)
        one = gen.const(1)
        n_tiles = gen.const(tiles)
        dim_c = gen.const(dim)
        four = gen.const(4)
        a_base = gen.const(a.addr)
        b_base = gen.const(b.addr)
        c_base = gen.const(c.addr)

        # Mode configuration, once per kernel call (packed from the runtime
        # size exactly like the C macros bit-pack their operands).
        row_bytes_i8 = gen.mul(size_arg, one)
        row_bytes_i32 = gen.mul(size_arg, gen.const(4))
        flags = gen.pack([(gen.const(0), 0), (gen.const(0), 6), (gen.const(0), 7)])
        preamble = [
            ("stride_A", size_arg),
            ("stride_B", size_arg),
            ("stride_D", size_arg),
            ("stride_C", size_arg),
            ("act", flags),
            ("A_transpose", gen.const(0)),
            ("B_transpose", gen.const(0)),
            ("ex_config", gen.pack([(gen.const(1), 0), (size_arg, 8)])),
            ("ld_A_config", row_bytes_i8),
            ("ld_B_config", row_bytes_i8),
            ("ld_D_config", row_bytes_i32),
            ("st_C_config", row_bytes_i32),
        ]
        state = gen.setup("gemmini", preamble)

        def tile_bounds(gen: IRGen, tile_index) -> "SSAValue":
            """Packed rows/cols clip for one tile: min(16, size - t*16)."""
            offset = gen.mul(tile_index, dim_c)
            remaining = gen.sub(size_arg, offset)
            rows = gen.min_(dim_c, remaining)
            return gen.pack([(rows, 0), (rows, 16)])

        def tile_addr(gen: IRGen, base, trow, tcol, elem_bytes=None):
            row = gen.mul(trow, dim_c)
            col = gen.mul(tcol, dim_c)
            elems = gen.add(gen.mul(row, size_arg), col)
            if elem_bytes is not None:
                elems = gen.mul(elems, elem_bytes)
            return gen.add(base, elems)

        def a_tile_addr(gen: IRGen, ti, tk):
            return tile_addr(gen, a_base, ti, tk)

        def b_tile_addr(gen: IRGen, tk, tj):
            return tile_addr(gen, b_base, tk, tj)

        def c_tile_addr(gen: IRGen, ti, tj):
            return tile_addr(gen, c_base, ti, tj, four)

        op_mvin = gen.const(gemmini_backend.OP_MVIN)
        # Move B (the weights) into the scratchpad, one mvin per tile.
        with gen.loop(zero, n_tiles, one) as (_, tk):
            with gen.loop(zero, n_tiles, one) as (_, tj):
                gen.launch(
                    state,
                    [
                        ("op", op_mvin),
                        ("ld_addr", b_tile_addr(gen, tk, tj)),
                        ("ld_bounds", tile_bounds(gen, tk)),
                    ],
                )
        # Move A in as well.
        with gen.loop(zero, n_tiles, one) as (_, ti):
            with gen.loop(zero, n_tiles, one) as (_, tk):
                gen.launch(
                    state,
                    [
                        ("op", op_mvin),
                        ("ld_addr", a_tile_addr(gen, ti, tk)),
                        ("ld_bounds", tile_bounds(gen, ti)),
                    ],
                )
        # Weight-stationary compute: preload B(k, j), multiply by A(i, k),
        # accumulate into C(i, j).
        op_preload = gen.const(gemmini_backend.OP_PRELOAD)
        op_compute = gen.const(gemmini_backend.OP_COMPUTE)
        with gen.loop(zero, n_tiles, one) as (_, ti):
            with gen.loop(zero, n_tiles, one) as (_, tj):
                with gen.loop(zero, n_tiles, one) as (_, tk):
                    acc = gen.select(gen.cmp("eq", tk, zero), zero, one)
                    gen.launch(
                        state,
                        [
                            ("op", op_preload),
                            ("preload_addr", b_tile_addr(gen, tk, tj)),
                            ("st_addr", c_tile_addr(gen, ti, tj)),
                            ("acc", acc),
                        ],
                    )
                    token = gen.launch(
                        state,
                        [("op", op_compute), ("ld_addr", a_tile_addr(gen, ti, tk))],
                    )
                    gen.await_(token)
        # Move the results out.
        op_mvout = gen.const(gemmini_backend.OP_MVOUT)
        with gen.loop(zero, n_tiles, one) as (_, ti):
            with gen.loop(zero, n_tiles, one) as (_, tj):
                gen.launch(
                    state,
                    [
                        ("op", op_mvout),
                        ("ld_addr", c_tile_addr(gen, ti, tj)),
                        ("ld_bounds", tile_bounds(gen, ti)),
                    ],
                )

    workload = MatmulWorkload(module, memory, "gemmini", size, a, b, c)
    workload.main_args = [size]
    return workload


def build_gemmini_os_matmul(
    size: int, memory: Memory | None = None, seed: int = 0
) -> MatmulWorkload:
    """Output-stationary tiled matmul for Gemmini.

    The paper does not evaluate this flow but predicts it benefits more from
    accfg than weight-stationary, because "it sets up a lot less parameters
    than its output-stationary counterpart" (Section 6.1) — i.e. the OS flow
    carries *more* per-invocation configuration.  We model the OS C macros
    re-issuing the execute/load/store mode configuration around every tile
    (shift, activation and bank settings travel with each compute in the OS
    API), all of it loop-invariant and therefore dedup's harvest.

    ``main`` takes the matrix size as its single argument.
    """
    dim = gemmini_backend.ARRAY_DIM
    if size % dim:
        raise ValueError(f"size must be a multiple of {dim}")
    memory = memory or Memory()
    a_values, b_values = _make_inputs(size, seed)
    a = memory.place(a_values)
    b = memory.place(b_values)
    c = memory.alloc((size, size), np.int32)

    module = new_module()
    tiles = size // dim
    with build_function(module, "main", input_types=[index]) as (gen, args):
        (size_arg,) = args
        zero = gen.const(0)
        one = gen.const(1)
        n_tiles = gen.const(tiles)
        dim_c = gen.const(dim)
        four = gen.const(4)
        a_base = gen.const(a.addr)
        b_base = gen.const(b.addr)
        c_base = gen.const(c.addr)
        row_bytes_i8 = gen.mul(size_arg, one)
        row_bytes_i32 = gen.mul(size_arg, four)

        def tile_addr(base, trow, tcol, elem_bytes=None):
            row = gen.mul(trow, dim_c)
            col = gen.mul(tcol, dim_c)
            elems = gen.add(gen.mul(row, size_arg), col)
            if elem_bytes is not None:
                elems = gen.mul(elems, elem_bytes)
            return gen.add(base, elems)

        # Strides once (as the C library's one-time setup).
        state = gen.setup(
            "gemmini",
            [
                ("stride_A", size_arg),
                ("stride_B", size_arg),
                ("stride_C", size_arg),
            ],
        )
        op_compute_os = gen.const(gemmini_backend.OP_COMPUTE_OS)
        op_mvout = gen.const(gemmini_backend.OP_MVOUT)
        with gen.loop(zero, n_tiles, one) as (_, ti):
            with gen.loop(zero, n_tiles, one) as (_, tj):
                with gen.loop(zero, n_tiles, one) as (_, tk):
                    # The OS macro re-issues the full mode configuration
                    # around every tile: execute config (shift/activation),
                    # both load configs, and the store config.  All of it is
                    # loop-invariant.
                    shift = gen.pack([(gen.const(0), 0), (gen.const(1), 32)])
                    mode = gen.setup(
                        "gemmini",
                        [
                            ("ex_config", shift),
                            ("ld_A_config", row_bytes_i8),
                            ("ld_B_config", row_bytes_i8),
                            ("ld_D_config", row_bytes_i32),
                            ("st_C_config", row_bytes_i32),
                            ("act", gen.const(0)),
                        ],
                        in_state=None,
                    )
                    acc = gen.select(gen.cmp("eq", tk, zero), zero, one)
                    token = gen.launch(
                        mode,
                        [
                            ("op", op_compute_os),
                            ("ld_addr", tile_addr(a_base, ti, tk)),
                            ("preload_addr", tile_addr(b_base, tk, tj)),
                            ("st_addr", tile_addr(c_base, ti, tj, four)),
                            ("acc", acc),
                        ],
                    )
                    gen.await_(token)
                # Move the finished output tile out.
                gen.launch(
                    state,
                    [("op", op_mvout), ("ld_addr", tile_addr(c_base, ti, tj, four))],
                )

    workload = MatmulWorkload(module, memory, "gemmini", size, a, b, c)
    workload.main_args = [size]
    return workload


@dataclass(frozen=True)
class GemminiLoopWsSchedule:
    """One point of the gemmini loop_ws schedule space.

    ``chunk`` is the cubic chunk edge one ``loop_ws`` invocation covers
    (``None`` means the FSM/capacity maximum, as the hand-written workload
    uses).  ``loop_order`` permutes the three chunk loops — correct under
    any permutation because the ``D = select(ck == 0, 0, C)`` accumulation
    only needs the k-chunks of each output chunk to run in increasing
    order.  ``specialize_size`` bakes the problem size into the IR as a
    constant instead of the C-API-style runtime argument, which lets
    constant folding (and full unrolling of the then-constant-trip chunk
    loops, pipeline ``unroll-full``) delete the Listing-1 parameter-
    calculation ladder the paper's Section 4.6 counts.
    """

    chunk: int | None = None
    loop_order: str = "ijk"  # permutation of "ijk"
    specialize_size: bool = False

    def validate(self, size: int) -> None:
        dim = gemmini_backend.ARRAY_DIM
        chunk = self.resolved_chunk(size)
        if chunk % dim or chunk <= 0:
            raise ValueError(f"chunk must be a positive multiple of {dim}")
        if chunk > gemmini_backend.max_invocation_edge(size):
            raise ValueError(f"chunk={chunk} exceeds the loop_ws FSM limit")
        if size % chunk:
            raise ValueError(f"chunk={chunk} must divide size={size}")
        if sorted(self.loop_order) != ["i", "j", "k"]:
            raise ValueError(f"bad loop_order '{self.loop_order}'")

    def resolved_chunk(self, size: int) -> int:
        return (
            self.chunk
            if self.chunk is not None
            else gemmini_backend.max_invocation_edge(size)
        )


def build_gemmini_loop_ws_matmul(
    size: int,
    memory: Memory | None = None,
    seed: int = 0,
    schedule: GemminiLoopWsSchedule | None = None,
) -> MatmulWorkload:
    """Weight-stationary tiled matmul for Gemmini using the coarse-grained
    ``gemmini_loop_ws`` macro-operation (Table 1).

    Matrix dimensions arrive as a *runtime argument* (as in Gemmini's
    ``tiled_matmul`` C API), so strides and derived bounds cannot be constant
    folded — mirroring why the paper measures hundreds of parameter-
    calculation instructions (Section 4.6).  The matmul is split into
    ``loop_ws`` invocations of at most :data:`LOOP_WS_MAX_TILES` tiles per
    dimension; each invocation re-emits the full Table 1 field set packed
    into 64-bit RoCC operands with an explicit shift/or ladder (Listing 1).

    ``main`` takes the matrix size as its single argument (pass
    ``workload.main_args``) — unless ``schedule.specialize_size`` bakes it
    in, in which case ``main`` is argument-free.
    """
    dim = gemmini_backend.ARRAY_DIM
    schedule = schedule or GemminiLoopWsSchedule()
    if size % dim:
        raise ValueError(f"size must be a multiple of {dim}")
    schedule.validate(size)
    chunk = schedule.resolved_chunk(size)
    memory = memory or Memory()
    a_values, b_values = _make_inputs(size, seed)
    a = memory.place(a_values)
    b = memory.place(b_values)
    c = memory.alloc((size, size), np.int32)

    module = new_module()
    chunks = size // chunk
    chunk_tiles = chunk // dim
    input_types = [] if schedule.specialize_size else [index]
    with build_function(module, "main", input_types=input_types) as (gen, args):
        if schedule.specialize_size:
            size_arg = gen.const(size)
        else:
            (size_arg,) = args
        zero = gen.const(0)
        one = gen.const(1)
        n_chunks = gen.const(chunks)

        def emit(ci, cj, ck) -> None:
            _emit_loop_ws_invocation(
                gen, size_arg, a, b, c, chunk, chunk_tiles, ci, cj, ck
            )

        # The three chunk loops, nested in schedule order (outermost first).
        indices: dict[str, object] = {}
        outer, middle, inner = schedule.loop_order
        with gen.loop(zero, n_chunks, one) as (_, iv_outer):
            indices[outer] = iv_outer
            with gen.loop(zero, n_chunks, one) as (_, iv_middle):
                indices[middle] = iv_middle
                with gen.loop(zero, n_chunks, one) as (_, iv_inner):
                    indices[inner] = iv_inner
                    emit(indices["i"], indices["j"], indices["k"])

    workload = MatmulWorkload(module, memory, "gemmini", size, a, b, c)
    workload.main_args = [] if schedule.specialize_size else [size]
    return workload


def _emit_loop_ws_invocation(
    gen: IRGen,
    size_arg,
    a: Buffer,
    b: Buffer,
    c: Buffer,
    chunk: int,
    chunk_tiles: int,
    ci,
    cj,
    ck,
) -> None:
    """One gemmini_loop_ws call: derive parameters, pack, configure, launch."""
    dim_c = gen.const(gemmini_backend.ARRAY_DIM)
    chunk_c = gen.const(chunk)
    # Chunk base offsets in elements, derived from runtime size (strides).
    row_off = gen.mul(ci, chunk_c)
    col_off = gen.mul(cj, chunk_c)
    inner_off = gen.mul(ck, chunk_c)
    addr_a = gen.add(
        gen.const(a.addr), gen.add(gen.mul(row_off, size_arg), inner_off)
    )
    addr_b = gen.add(
        gen.const(b.addr), gen.add(gen.mul(inner_off, size_arg), col_off)
    )
    c_elems = gen.add(gen.mul(row_off, size_arg), col_off)
    addr_c = gen.add(gen.const(c.addr), gen.mul(c_elems, gen.const(4)))
    # Accumulate across the ck loop: bias D = C except on the first k-chunk.
    first_k = gen.cmp("eq", ck, gen.const(0, ck.type))
    addr_d = gen.select(first_k, gen.const(0), addr_c)

    # Tile counts per invocation: derived from the runtime size the way the
    # C library clips its bounds (min against what remains).
    tiles_total = gen.div(size_arg, dim_c)
    chunk_tiles_c = gen.const(chunk_tiles)
    remaining = gen.sub(tiles_total, gen.mul(ci, chunk_tiles_c))
    tiles_i = gen.min_(chunk_tiles_c, remaining)
    remaining_j = gen.sub(tiles_total, gen.mul(cj, chunk_tiles_c))
    tiles_j = gen.min_(chunk_tiles_c, remaining_j)
    remaining_k = gen.sub(tiles_total, gen.mul(ck, chunk_tiles_c))
    tiles_k = gen.min_(chunk_tiles_c, remaining_k)
    # Padding: zero for exact tilings, still computed at runtime.
    pad = gen.rem(size_arg, dim_c)

    # Listing-1-style packing of the small fields into RoCC operand words.
    sizes_word = gen.pack([(tiles_i, 0), (tiles_j, 16), (tiles_k, 32)])
    pads_word = gen.pack([(pad, 0), (pad, 16), (pad, 32)])
    flags_word = gen.pack(
        [(gen.const(0), 0), (gen.const(0), 6), (gen.const(0), 7)]
    )  # act | A_transpose | B_transpose
    fields = [
        ("A", addr_a),
        ("B", addr_b),
        ("D", addr_d),
        ("C", addr_c),
        ("I", tiles_i),
        ("J", tiles_j),
        ("K", tiles_k),
        ("pad_I", pad),
        ("pad_J", pad),
        ("pad_K", pad),
        ("stride_A", size_arg),
        ("stride_B", size_arg),
        ("stride_D", size_arg),
        ("stride_C", size_arg),
        ("act", flags_word),
        ("A_transpose", gen.const(0)),
        ("B_transpose", gen.const(0)),
        # The mode configuration the C library re-issues on every call
        # (config_ex / config_ld x3 / config_st).
        ("ex_config", gen.pack([(gen.const(1), 0), (sizes_word, 8)])),
        ("ld_A_config", gen.mul(size_arg, gen.const(1))),
        ("ld_B_config", gen.mul(size_arg, gen.const(1))),
        ("ld_D_config", gen.mul(size_arg, gen.const(4))),
        ("st_C_config", gen.mul(size_arg, gen.const(4))),
        ("op", gen.const(gemmini_backend.OP_LOOP_WS)),
        ("ld_bounds", pads_word),
    ]
    state = gen.setup("gemmini", fields)
    token = gen.launch(state)
    gen.await_(token)
