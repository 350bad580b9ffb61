"""The OpenGeMM target (paper, Section 6.2).

OpenGeMM [47] is a GeMM accelerator generator with lightweight RISC-V
control: a tiny in-order Snitch-class core [48] drives an 8x8 mesh of
8-element dot-product units (1024 ops/cycle peak) through CSR writes, with
tight scratchpad coupling.

OpenGeMM supports *concurrent configuration*: configuration CSRs are staged
while the accelerator computes and are committed at the next launch, so the
configuration-overlap optimization applies (Section 6.2) — this is the
platform where the paper reports the 2x geomean speedup.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..isa.encoding import FieldSpec
from ..isa.instructions import Instr, config_write, launch_instr, sync_instr
from .base import AcceleratorSpec, int8_matmul, register_accelerator

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.memory import Memory

#: Mesh geometry: MESH x MESH dot-product units of depth TILE_K each.
MESH = 8
PIPELINE_LATENCY = 16

#: Tightly-coupled scratchpad capacity in bytes (A and B panels plus the
#: int32 output tile of one invocation must fit) — the capacity bound the
#: autotuner's tile-shape space is filtered against.
SCRATCHPAD_BYTES = 128 * 1024

#: Configuration CSRs of the OpenGeMM control interface.  Beyond the GeMM
#: core's own registers, each of the three data streamers has temporal loop
#: bounds/strides plus a spatial stride — the streamer CSRs dominate the
#: per-invocation configuration volume, which is what makes OpenGeMM's
#: configuration interface a first-order performance concern.
CSR_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("M", 32, "Rows of the output tile"),
    FieldSpec("K", 32, "Inner (reduction) dimension"),
    FieldSpec("N", 32, "Columns of the output tile"),
    FieldSpec("ptr_A", 32, "Scratchpad address of matrix A"),
    FieldSpec("ptr_B", 32, "Scratchpad address of matrix B"),
    FieldSpec("ptr_C", 32, "Scratchpad address of matrix C"),
    FieldSpec("stride_A", 32, "Row stride of A in elements"),
    FieldSpec("stride_B", 32, "Row stride of B in elements"),
    FieldSpec("stride_C", 32, "Row stride of C in elements"),
    FieldSpec("subtractions", 32, "Packed zero-point corrections for A and B"),
    FieldSpec("tbound0_A", 32, "Streamer A: innermost temporal loop bound"),
    FieldSpec("tbound1_A", 32, "Streamer A: outer temporal loop bound"),
    FieldSpec("tstride0_A", 32, "Streamer A: innermost temporal stride"),
    FieldSpec("tstride1_A", 32, "Streamer A: outer temporal stride"),
    FieldSpec("sstride_A", 32, "Streamer A: spatial (lane) stride"),
    FieldSpec("tbound0_B", 32, "Streamer B: innermost temporal loop bound"),
    FieldSpec("tbound1_B", 32, "Streamer B: outer temporal loop bound"),
    FieldSpec("tstride0_B", 32, "Streamer B: innermost temporal stride"),
    FieldSpec("tstride1_B", 32, "Streamer B: outer temporal stride"),
    FieldSpec("sstride_B", 32, "Streamer B: spatial (lane) stride"),
    FieldSpec("tbound0_C", 32, "Streamer C: innermost temporal loop bound"),
    FieldSpec("tbound1_C", 32, "Streamer C: outer temporal loop bound"),
    FieldSpec("tstride0_C", 32, "Streamer C: innermost temporal stride"),
    FieldSpec("tstride1_C", 32, "Streamer C: outer temporal stride"),
    FieldSpec("sstride_C", 32, "Streamer C: spatial (lane) stride"),
)


class OpenGeMMSpec(AcceleratorSpec):
    """Target description for OpenGeMM macro GeMM operations."""

    name = "opengemm"
    peak_ops_per_cycle = MESH * MESH * MESH * 2  # 1024: 512 MACs per cycle
    concurrent_config = True
    fields = {spec.name: spec for spec in CSR_FIELDS}
    host_cycles_per_instr = 1.0  # Snitch-class in-order host, IPC close to 1
    memory_bandwidth = 64.0  # 512-bit scratchpad port per cycle

    def setup_instrs(self, field_names: list[str]) -> list[Instr]:
        # One csrw per field; the value itself is produced by IR arith
        # (charged separately as calc instructions).
        return [
            config_write("csrw", self.name, (self.field_spec(n).bits + 7) // 8)
            for n in field_names
        ]

    def launch_instrs(self) -> list[Instr]:
        # Start CSR write plus the fence that orders it after the staged
        # configuration writes.
        return [
            launch_instr("csrw-start", self.name, 4),
            launch_instr("fence", self.name),
        ]

    def sync_instrs(self) -> list[Instr]:
        # Busy-wait: read the status CSR, mask the busy bit, branch — the
        # poll loop makes two rounds on average before observing completion.
        one_round = [
            sync_instr("csrr-status", self.name),
            sync_instr("andi", self.name),
            sync_instr("bnez", self.name),
        ]
        return one_round * 2

    # -- timing ------------------------------------------------------------

    def compute_cycles(self, config: dict[str, int]) -> float:
        m = max(1, config.get("M", MESH))
        k = max(1, config.get("K", MESH))
        n = max(1, config.get("N", MESH))
        tiles = math.ceil(m / MESH) * math.ceil(n / MESH)
        cycles_per_tile = math.ceil(k / MESH)
        return tiles * cycles_per_tile + PIPELINE_LATENCY

    def launch_ops(self, config: dict[str, int]) -> int:
        m = max(1, config.get("M", MESH))
        k = max(1, config.get("K", MESH))
        n = max(1, config.get("N", MESH))
        return 2 * m * k * n

    def static_launch_ops(self, config: dict[str, int]) -> int | None:
        if all(name in config for name in ("M", "K", "N")):
            return self.launch_ops(config)
        return None

    def launch_memory_bytes(self, config: dict[str, int]) -> int:
        m = max(1, config.get("M", MESH))
        k = max(1, config.get("K", MESH))
        n = max(1, config.get("N", MESH))
        return m * k + k * n + 4 * m * n  # int8 inputs, int32 output

    # -- functional semantics ------------------------------------------------

    def execute(self, config: dict[str, int], memory: "Memory") -> None:
        """``C = (A - a_zp) @ (B - b_zp)`` with int8 inputs, int32 output."""
        m = config.get("M", MESH)
        k = config.get("K", MESH)
        n = config.get("N", MESH)
        subtraction = config.get("subtractions", 0)
        a_zp = subtraction & 0xFF
        b_zp = (subtraction >> 8) & 0xFF
        a = memory.read_matrix(
            config["ptr_A"], m, k, config.get("stride_A", k), np.int8
        )
        b = memory.read_matrix(
            config["ptr_B"], k, n, config.get("stride_B", n), np.int8
        )
        acc = int8_matmul(a, b, a_zp, b_zp)
        memory.write_matrix(config["ptr_C"], acc, config.get("stride_C", n))


OPENGEMM = register_accelerator(OpenGeMMSpec())
