"""The Gemmini target (paper, Sections 2.4 and 6.1).

Gemmini [19] couples a 16x16 weight-stationary systolic array to a 64-bit
Rocket host.  Configuration travels over custom RoCC instructions that carry
16 bytes each (rs1 + rs2); because RISC-V is a load/store architecture, each
RoCC write needs two extra instructions to stage its register operands, so
one 16-byte configuration write costs three host instructions — the paper's
``BW_config = 16 / (3 * 3) ≈ 1.77`` bytes/cycle with the 3-cycles/instruction
Rocket estimate.

Gemmini is *sequentially configured*: the accelerator cannot be reconfigured
while it is computing, so the configuration-overlap optimization does not
apply (only deduplication and generic cleanups help, Section 6.1).

The coarse-grained ``gemmini_loop_ws`` macro-instruction sequence performs a
weight-stationary tiled matrix multiplication ``C = A @ B + D``; its
configuration fields and bit widths follow Table 1 of the paper.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..isa.encoding import FieldSpec, pack_fields
from ..isa.instructions import Instr, InstrCategory, config_write
from .base import AcceleratorSpec, int8_matmul, register_accelerator

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.memory import Memory

#: Table 1 — fields of the gemmini_loop_ws sequence.
LOOP_WS_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("A", 64, "Address in main memory of matrix A"),
    FieldSpec("B", 64, "Address in main memory of matrix B"),
    FieldSpec("D", 64, "Address in main memory of matrix D"),
    FieldSpec("C", 64, "Address in main memory of matrix C"),
    FieldSpec("I", 16, "Size of the matrices (row tiles)"),
    FieldSpec("J", 16, "Size of the matrices (column tiles)"),
    FieldSpec("K", 16, "Size of the matrices (inner tiles)"),
    FieldSpec("pad_I", 16, "Padding applied to size I"),
    FieldSpec("pad_J", 16, "Padding applied to size J"),
    FieldSpec("pad_K", 16, "Padding applied to size K"),
    FieldSpec("stride_A", 64, "Row stride to access matrix A in memory"),
    FieldSpec("stride_B", 64, "Row stride to access matrix B in memory"),
    FieldSpec("stride_D", 64, "Row stride to access matrix D in memory"),
    FieldSpec("stride_C", 64, "Row stride to access matrix C in memory"),
    FieldSpec("act", 6, "Activation function application on output"),
    FieldSpec("A_transpose", 1, "Whether input matrix A is transposed"),
    FieldSpec("B_transpose", 1, "Whether input matrix B is transposed"),
)

#: Extra interface fields used by the data-movement macro-ops (mvin/mvout)
#: and the macro-op selector.  These are not part of Table 1 (which lists
#: only the loop_ws compute fields) but are part of Gemmini's RoCC interface.
EXTRA_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("op", 8, "Macro-operation selector: 0=loop_ws, 1=mvin, 2=mvout"),
    FieldSpec("ld_addr", 32, "Scratchpad-side address for a data-move tile"),
    FieldSpec("ld_bounds", 32, "Packed rows/cols for a data-move"),
    FieldSpec("ex_config", 64, "Execute-pipeline configuration (config_ex)"),
    FieldSpec("ld_A_config", 64, "Load-pipeline configuration for A (config_ld)"),
    FieldSpec("ld_B_config", 64, "Load-pipeline configuration for B (config_ld)"),
    FieldSpec("ld_D_config", 64, "Load-pipeline configuration for D (config_ld)"),
    FieldSpec("st_C_config", 64, "Store-pipeline configuration for C (config_st)"),
    FieldSpec("preload_addr", 32, "Weight (B) tile scratchpad address for preload"),
    FieldSpec("st_addr", 32, "Output (C) tile accumulator address"),
    FieldSpec("acc", 1, "Accumulate into the output instead of overwriting"),
)

OP_LOOP_WS = 0
OP_MVIN = 1
OP_MVOUT = 2
OP_PRELOAD = 3
OP_COMPUTE = 4
#: Output-stationary fine-grained tile compute: partial sums stay in the
#: array; both operands stream in (compute.accumulated in Gemmini's ISA).
OP_COMPUTE_OS = 5

#: Systolic array dimension (16x16 processing elements).
ARRAY_DIM = 16
#: Bytes one RoCC custom instruction conveys (rs1 + rs2).
ROCC_BYTES = 16
#: Host instructions per RoCC configuration write (2 operand stages + custom).
INSTRS_PER_ROCC_WRITE = 3
#: Scratchpad capacity in bytes (A and B tiles); drives invocation splitting.
SCRATCHPAD_BYTES = 256 * 1024
#: Accumulator capacity in bytes (C tiles, 32-bit).
ACCUMULATOR_BYTES = 64 * 1024


class GemminiSpec(AcceleratorSpec):
    """Target description for the Gemmini loop_ws macro-operation."""

    name = "gemmini"
    peak_ops_per_cycle = ARRAY_DIM * ARRAY_DIM * 2  # 512: one MAC per PE
    concurrent_config = False
    memory_bandwidth = 16.0  # 128-bit DMA port per cycle
    fields = {spec.name: spec for spec in (*LOOP_WS_FIELDS, *EXTRA_FIELDS)}

    # -- configuration interface -------------------------------------------

    def rocc_writes(self, field_names: list[str]) -> int:
        """RoCC instructions needed to convey the given fields (two packed
        64-bit words per instruction)."""
        specs = [self.field_spec(name) for name in field_names]
        words = pack_fields(specs, word_bits=64)
        return math.ceil(len(words) / 2)

    def setup_instrs(self, field_names: list[str]) -> list[Instr]:
        if not field_names:
            return []
        specs = [self.field_spec(name) for name in field_names]
        words = len(pack_fields(specs, word_bits=64))
        instrs: list[Instr] = []
        remaining = words
        while remaining > 0:
            staged = min(2, remaining)
            # One register-staging instruction per operand word actually
            # used, plus the custom RoCC instruction itself.
            for _ in range(staged):
                instrs.append(Instr("stage-rs", InstrCategory.SETUP))
            instrs.append(config_write("rocc-custom", self.name, ROCC_BYTES))
            remaining -= staged
        return instrs

    def launch_instrs(self) -> list[Instr]:
        # Launch-semantic interface: the final configuration instruction
        # implicitly launches; there is no dedicated launch instruction.
        return []

    def launch_field_instrs(self, field_names: list[str]) -> list[Instr]:
        # The macro-op selector is encoded in the custom instruction's funct
        # field, not in an operand word.
        payload = [n for n in field_names if n != "op"]
        if not payload:
            return [config_write("rocc-custom", self.name, ROCC_BYTES)]
        return self.setup_instrs(payload)

    def config_bytes(self, field_names: list[str]) -> int:
        # The interface always transfers whole 16-byte RoCC payloads.
        if not field_names:
            return 0
        return self.rocc_writes(field_names) * ROCC_BYTES

    # -- timing ------------------------------------------------------------

    def compute_cycles(self, config: dict[str, int]) -> float:
        op = config.get("op", OP_LOOP_WS)
        if op in (OP_MVIN, OP_MVOUT, OP_PRELOAD):
            # Data movement is explicitly *not* configuration overhead
            # (Section 2.3) and the Gemmini evaluation (Section 6.1) scores
            # configuration via instruction counts, not timing; the move is
            # modeled as overlapping with the FSM (zero exposed cycles).
            return 0.0
        if op == OP_COMPUTE:
            # One 16x16x16 fine-grained tile: stream + weight load.
            return 2 * ARRAY_DIM
        if op == OP_COMPUTE_OS:
            # Output-stationary: no weight reload, but both operands stream.
            return 2 * ARRAY_DIM
        tiles_i = max(1, config.get("I", 1))
        tiles_j = max(1, config.get("J", 1))
        tiles_k = max(1, config.get("K", 1))
        # One 16x16x16 tile streams through the array in ARRAY_DIM cycles at
        # peak; weight-stationary reloads add a fill per (j, k) tile pair.
        streaming = tiles_i * tiles_j * tiles_k * ARRAY_DIM
        weight_loads = tiles_j * tiles_k * ARRAY_DIM
        pipeline_latency = 2 * ARRAY_DIM
        return streaming + weight_loads + pipeline_latency

    def launch_ops(self, config: dict[str, int]) -> int:
        op = config.get("op", OP_LOOP_WS)
        if op in (OP_MVIN, OP_MVOUT, OP_PRELOAD):
            return 0
        if op in (OP_COMPUTE, OP_COMPUTE_OS):
            return 2 * ARRAY_DIM**3
        tiles_i = max(1, config.get("I", 1))
        tiles_j = max(1, config.get("J", 1))
        tiles_k = max(1, config.get("K", 1))
        rows = tiles_i * ARRAY_DIM
        cols = tiles_j * ARRAY_DIM
        inner = tiles_k * ARRAY_DIM
        return 2 * rows * cols * inner

    def static_launch_ops(self, config: dict[str, int]) -> int | None:
        op = config.get("op", OP_LOOP_WS)
        if op in (OP_MVIN, OP_MVOUT, OP_PRELOAD, OP_COMPUTE, OP_COMPUTE_OS):
            # Fine-grained macro-ops work on fixed 16x16 tiles: the op
            # selector alone determines the datapath work.
            return self.launch_ops(config)
        if all(name in config for name in ("I", "J", "K")):
            return self.launch_ops(config)
        return None  # loop_ws with runtime tile counts

    def launch_memory_bytes(self, config: dict[str, int]) -> int:
        op = config.get("op", OP_LOOP_WS)
        if op in (OP_MVIN, OP_MVOUT):
            # One 16x16 tile: int8 inbound, int32 outbound.
            return ARRAY_DIM * ARRAY_DIM * (4 if op == OP_MVOUT else 1)
        if op in (OP_PRELOAD, OP_COMPUTE, OP_COMPUTE_OS):
            return 0  # operands come from the scratchpad, not memory
        tiles_i = max(1, config.get("I", 1))
        tiles_j = max(1, config.get("J", 1))
        tiles_k = max(1, config.get("K", 1))
        a_bytes = tiles_i * tiles_k * ARRAY_DIM**2
        b_bytes = tiles_k * tiles_j * ARRAY_DIM**2
        c_bytes = 4 * tiles_i * tiles_j * ARRAY_DIM**2
        d_bytes = c_bytes if config.get("D", 0) else 0
        return a_bytes + b_bytes + c_bytes + d_bytes

    # -- functional semantics ------------------------------------------------

    def execute(self, config: dict[str, int], memory: "Memory") -> None:
        """Perform ``C = act(A @ B + D)`` on simulated memory.

        Addresses are byte addresses of int8 inputs (A, B) and int32
        bias/output (D, C); strides are in elements.  A zero D address means
        "no bias".
        """
        op = config.get("op", OP_LOOP_WS)
        if op in (OP_MVIN, OP_MVOUT, OP_PRELOAD):
            # Scratchpad traffic is not modeled; compute reads main memory
            # directly, so data moves (and the preload's weight staging,
            # which only records addresses in the register file) are
            # functional no-ops.
            return
        if op in (OP_COMPUTE, OP_COMPUTE_OS):
            self._execute_fine_grained(config, memory)
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
        acc = int8_matmul(a, b)
        d_addr = config.get("D", 0)
        if d_addr:
            acc = acc + memory.read_matrix(
                d_addr, rows, cols, config.get("stride_D", cols), np.int32
            )
        if config.get("act") == 1:  # ReLU
            acc = np.maximum(acc, 0)
        memory.write_matrix(config["C"], acc, config.get("stride_C", cols))

    def _execute_fine_grained(self, config: dict[str, int], memory: "Memory") -> None:
        """One preloaded 16x16x16 tile: ``C[st] (+)= A[ld] @ B[preload]``."""
        dim = ARRAY_DIM
        stride_a = config.get("stride_A", dim)
        stride_b = config.get("stride_B", dim)
        stride_c = config.get("stride_C", dim)
        a = memory.read_matrix(config["ld_addr"], dim, dim, stride_a, np.int8)
        b = memory.read_matrix(config["preload_addr"], dim, dim, stride_b, np.int8)
        product = int8_matmul(a, b)
        if config.get("acc"):
            product = product + memory.read_matrix(
                config["st_addr"], dim, dim, stride_c, np.int32
            )
        memory.write_matrix(config["st_addr"], product, stride_c)


GEMMINI = register_accelerator(GemminiSpec())

#: The loop_ws FSM iterates a bounded number of tiles per invocation; larger
#: matmuls are split into multiple invocations by the software (the paper's
#: "smaller sizes only require a single invocation", Section 6.1).
LOOP_WS_MAX_TILES = 4  # per dimension -> max 64x64x64 elements per invocation


def max_invocation_edge(size: int) -> int:
    """Largest cubic chunk edge (in elements) one loop_ws invocation covers,
    bounded by the FSM iterator limit and the scratchpad/accumulator
    capacity."""
    edge = ARRAY_DIM
    best = ARRAY_DIM
    limit = LOOP_WS_MAX_TILES * ARRAY_DIM
    while edge <= min(size, limit):
        a_bytes = edge * edge  # int8
        b_bytes = edge * edge
        c_bytes = edge * edge * 4  # int32 accumulator
        if a_bytes + b_bytes <= SCRATCHPAD_BYTES and c_bytes <= ACCUMULATOR_BYTES:
            best = edge
            edge *= 2
        else:
            break
    return min(best, size)
