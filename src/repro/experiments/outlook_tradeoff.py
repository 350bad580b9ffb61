"""Beyond the paper: quantifying the reconfigurability trade-off (Figure 1).

The paper's framing claim: "every added configuration option also directly
reduces the achievable performance without proper optimizations — a more
reconfigurable accelerator may result in the system performing worse as a
whole."  This experiment measures that curve directly: a family of vector
engines that differ only in how many configuration knobs their interface
exposes runs the same workload, naively and through the accfg pipeline.

Expected shape: baseline utilization decays with knob count (the wall grows
with flexibility); the optimized curve stays nearly flat because the added
knobs are invocation-invariant and deduplication removes their rewrites —
the compiler buys back the flexibility.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..backends import get_accelerator_or_none, register_accelerator
from ..backends.toyvec import ToyVecSpec
from ..core import format_series
from ..engine import run_module_traced
from ..ir import i64
from ..isa.encoding import FieldSpec
from ..passes import pipeline_by_name
from ..sim import CoSimulator
from ..sim.metrics import collect_metrics
from ..workloads import build_function, new_module

DEFAULT_KNOB_COUNTS = (0, 4, 16, 32)
CHUNKS = 16
CHUNK_LENGTH = 64


def _knobbed_spec(extra_knobs: int) -> str:
    """A toyvec variant whose interface adds ``extra_knobs`` 32-bit CSRs."""
    name = f"toyvec-k{extra_knobs}"
    if get_accelerator_or_none(name) is None:
        fields = dict(ToyVecSpec.fields)
        for index in range(extra_knobs):
            spec = FieldSpec(f"knob{index}", 32, "A flexibility option")
            fields[spec.name] = spec
        cls = type(
            f"KnobbedToyVec{extra_knobs}",
            (ToyVecSpec,),
            {"name": name, "fields": fields},
        )
        register_accelerator(cls())
    return name


def _build_workload(accelerator: str, extra_knobs: int):
    """Chunked vector work where the naive frontend re-writes every knob."""
    import numpy as np

    from repro.sim import Memory

    memory = Memory()
    x = memory.place(np.arange(CHUNKS * CHUNK_LENGTH, dtype=np.int32))
    y = memory.place(np.arange(CHUNKS * CHUNK_LENGTH, dtype=np.int32))
    out = memory.alloc(CHUNKS * CHUNK_LENGTH, np.int32)
    module = new_module()
    with build_function(module, "main") as (gen, _):
        zero = gen.const(0)
        one = gen.const(1)
        chunks = gen.const(CHUNKS)
        with gen.loop(zero, chunks, one) as (_, i):
            bytes_off = gen.mul(gen.mul(i, gen.const(CHUNK_LENGTH)), gen.const(4))
            fields = [
                ("ptr_x", gen.add(gen.const(x.addr), bytes_off)),
                ("ptr_y", gen.add(gen.const(y.addr), bytes_off)),
                ("ptr_out", gen.add(gen.const(out.addr), bytes_off)),
                ("n", gen.const(CHUNK_LENGTH)),
                ("op", gen.const(0)),
            ]
            for index in range(extra_knobs):
                fields.append((f"knob{index}", gen.const(index, i64)))
            state = gen.setup(accelerator, fields)
            gen.await_(gen.launch(state))
    return module, memory, (x, y, out)


@dataclass(frozen=True)
class TradeoffRow:
    knobs: int
    baseline_utilization: float
    optimized_utilization: float

    @property
    def recovered(self) -> float:
        """How much of the flexibility tax the compiler buys back."""
        return self.optimized_utilization / self.baseline_utilization


@dataclass(frozen=True)
class TradeoffResult:
    rows: list[TradeoffRow]

    @property
    def baseline_decay(self) -> float:
        """Utilization ratio, most- vs least-configurable, unoptimized."""
        return self.rows[-1].baseline_utilization / self.rows[0].baseline_utilization

    @property
    def optimized_decay(self) -> float:
        return self.rows[-1].optimized_utilization / self.rows[0].optimized_utilization


def _utilization(accelerator: str, extra_knobs: int, pipeline: str) -> float:
    module, memory, buffers = _build_workload(accelerator, extra_knobs)
    pipeline_by_name(pipeline).run(module)
    spec = get_accelerator_or_none(accelerator)
    sim = CoSimulator(memory=memory, cost_model=spec.host_cost_model())
    run_module_traced(module, sim)
    x, y, out = buffers
    assert (out.array == x.array + y.array).all()
    return collect_metrics(sim, accelerator).utilization


def run(knob_counts=DEFAULT_KNOB_COUNTS) -> TradeoffResult:
    rows = []
    for knobs in knob_counts:
        accelerator = _knobbed_spec(knobs)
        rows.append(
            TradeoffRow(
                knobs=knobs,
                baseline_utilization=_utilization(accelerator, knobs, "baseline"),
                optimized_utilization=_utilization(accelerator, knobs, "full"),
            )
        )
    return TradeoffResult(rows)


def main(knob_counts=DEFAULT_KNOB_COUNTS) -> None:
    result = run(knob_counts)
    print("Outlook — the reconfigurability trade-off (Figure 1's claim)")
    print("(same workload; the interface grows by N invariant knobs)\n")
    print(
        format_series(
            ("extra knobs", "base util", "accfg util", "recovered"),
            [
                (
                    row.knobs,
                    row.baseline_utilization,
                    row.optimized_utilization,
                    row.recovered,
                )
                for row in result.rows
            ],
        )
    )
    print(
        f"\nadding {result.rows[-1].knobs} knobs costs the baseline "
        f"{(1 - result.baseline_decay) * 100:.0f}% of its utilization but the "
        f"optimized flow only {(1 - result.optimized_decay) * 100:.0f}% — the "
        "compiler buys the flexibility back."
    )


if __name__ == "__main__":
    main()
