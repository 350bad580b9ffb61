"""A miniature vector accelerator used by examples and tests.

The paper claims the accfg dialect and passes are target-agnostic; this toy
element-wise engine (not taken from the paper) exercises that claim with a
third, deliberately different interface: MMIO-style writes of whole 64-bit
registers, selectable sequential/concurrent behaviour, and a dedicated start
doorbell.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..isa.encoding import FieldSpec
from ..isa.instructions import Instr, config_write, launch_instr
from .base import AcceleratorSpec, register_accelerator

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.memory import Memory

TOYVEC_FIELDS: tuple[FieldSpec, ...] = (
    FieldSpec("ptr_x", 64, "Byte address of input vector x"),
    FieldSpec("ptr_y", 64, "Byte address of input vector y"),
    FieldSpec("ptr_out", 64, "Byte address of the output vector"),
    FieldSpec("n", 32, "Number of elements"),
    FieldSpec("op", 2, "0 = add, 1 = multiply, 2 = maximum"),
)


class ToyVecSpec(AcceleratorSpec):
    """An element-wise int32 vector engine, 8 lanes wide."""

    name = "toyvec"
    peak_ops_per_cycle = 8
    concurrent_config = True
    fields = {spec.name: spec for spec in TOYVEC_FIELDS}
    timing_fields = ("n",)
    host_cycles_per_instr = 1.0
    memory_bandwidth = 32.0

    def setup_instrs(self, field_names: list[str]) -> list[Instr]:
        # MMIO: one store per register write (64-bit bus).
        return [
            config_write("mmio-store", self.name, (self.field_spec(n).bits + 7) // 8)
            for n in field_names
        ]

    def launch_instrs(self) -> list[Instr]:
        return [launch_instr("mmio-doorbell", self.name)]

    def compute_cycles(self, config: dict[str, int]) -> float:
        n = max(1, config.get("n", 1))
        return -(-n // 8) + 4  # ceil(n / lanes) plus a short pipeline

    def launch_ops(self, config: dict[str, int]) -> int:
        return max(1, config.get("n", 1))

    def static_launch_ops(self, config: dict[str, int]) -> int | None:
        if "n" in config:
            return self.launch_ops(config)
        return None  # runtime-sized vector: op count unknown statically

    def launch_memory_bytes(self, config: dict[str, int]) -> int:
        return 3 * 4 * max(0, config.get("n", 0))  # two reads + one write

    def execute(self, config: dict[str, int], memory: "Memory") -> None:
        n = config.get("n", 0)
        if n <= 0:
            return
        x = memory.read_matrix(config["ptr_x"], 1, n, n, np.int32)[0]
        y = memory.read_matrix(config["ptr_y"], 1, n, n, np.int32)[0]
        op = config.get("op", 0)
        if op == 0:
            out = x + y
        elif op == 1:
            out = x * y
        elif op == 2:
            out = np.maximum(x, y)
        else:
            raise ValueError(f"toyvec: unknown op code {op}")
        memory.write_matrix(config["ptr_out"], out.reshape(1, n), n)


TOYVEC = register_accelerator(ToyVecSpec())


class SequentialToyVecSpec(ToyVecSpec):
    """The same engine without staging registers (sequential configuration);
    lets tests compare the two schemes on identical workloads."""

    name = "toyvec-seq"
    concurrent_config = False


TOYVEC_SEQ = register_accelerator(SequentialToyVecSpec())


class QueuedToyVecSpec(ToyVecSpec):
    """The same engine behind a 4-deep launch FIFO, modeling queue-based
    configuration schemes like Cohort's software-defined pipelines (the
    paper's Section 8 outlook): the host can enqueue several configured
    launches before it has to wait for a slot."""

    name = "toyvec-queued"
    launch_queue_depth = 4


TOYVEC_QUEUED = register_accelerator(QueuedToyVecSpec())
