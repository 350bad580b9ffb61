"""A small neural-network workload built on the linalg frontend.

The paper's introduction motivates the configuration wall with neural
network inference: many small offloaded kernels, each dragging its
configuration cost along.  This module builds an N-layer MLP —
``x_{i+1} = relu(x_i @ W_i + b_i)`` — as one linalg-level module, so the
whole network flows through the standard pipeline: step-1 conversion, state
tracing, deduplication (consecutive layers share most of their
configuration), and overlap.

ReLU is expressed with the vector engine's ``max`` against a zero vector;
the bias addition uses its ``add``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from ..dialects import linalg
from ..dialects.builtin import ModuleOp
from ..sim.memory import Buffer, Memory
from .irgen import IRGen, build_function, new_module


@dataclass(frozen=True)
class LayerSpec:
    """One fully-connected layer of a :class:`NetworkSpec`.

    ``width`` is the layer's output width.  ``accelerator`` picks the matmul
    target for *this layer* (``None`` defers to the lowering pass's default),
    and ``tile_m``/``tile_n`` pin the OpenGeMM lowering tile shape — both
    travel as attributes on the emitted ``linalg.matmul``, so a layer graph
    with per-layer accelerator choices needs no hand-edited IR.
    """

    width: int
    accelerator: str | None = None
    tile_m: int | None = None
    tile_n: int | None = None


@dataclass(frozen=True)
class NetworkSpec:
    """A configurable MLP layer graph: builder input for :func:`build_network`.

    The network computes ``x_{i+1} = relu(x_i @ W_i + b_i)`` (no ReLU after
    the last layer) over ``batch`` rows, starting from ``input_width``
    features; one :class:`LayerSpec` per layer.
    """

    input_width: int
    layers: tuple[LayerSpec, ...]
    batch: int = 8
    seed: int = 0

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_width, *(layer.width for layer in self.layers)]

    def validate(self) -> None:
        if self.batch % 8:
            raise ValueError("batch must be a multiple of 8")
        if any(size % 8 for size in self.layer_sizes):
            raise ValueError("layer widths must be multiples of 8")
        if not self.layers:
            raise ValueError("need at least one layer")


@dataclass
class MLPWorkload:
    """An N-layer MLP: IR plus its memory image and a numpy reference."""

    module: ModuleOp
    memory: Memory
    input: Buffer
    weights: list[Buffer]
    biases: list[Buffer]
    output: Buffer
    batch: int
    layer_sizes: list[int]
    scratch: list[Buffer] = dataclass_field(default_factory=list)
    spec: NetworkSpec | None = None

    @property
    def total_macs(self) -> int:
        macs = 0
        for a, b in zip(self.layer_sizes, self.layer_sizes[1:]):
            macs += self.batch * a * b
        return macs

    def expected(self) -> np.ndarray:
        x = self.input.array.astype(np.int32)
        for index, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x @ w.array.astype(np.int32)
            x = x + b.array.reshape(1, -1)
            if index < len(self.weights) - 1:
                x = np.maximum(x, 0)
                # Model the int8 requantization between layers exactly.
                x = x.astype(np.int8).astype(np.int32)
        return x

    def check(self) -> bool:
        return bool((self.output.array == self.expected()).all())

    def reset_output(self) -> None:
        for buffer in (self.output, *self.scratch):
            self.memory.clear(buffer)


def build_mlp(
    layer_sizes: list[int],
    batch: int = 8,
    memory: Memory | None = None,
    seed: int = 0,
) -> MLPWorkload:
    """Build an MLP with the given layer widths (all multiples of 8) using
    the default accelerator assignment for every layer.  Thin wrapper over
    :func:`build_network`."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output widths")
    spec = NetworkSpec(
        input_width=layer_sizes[0],
        layers=tuple(LayerSpec(width) for width in layer_sizes[1:]),
        batch=batch,
        seed=seed,
    )
    return build_network(spec, memory=memory)


def build_network(
    spec: NetworkSpec, memory: Memory | None = None
) -> MLPWorkload:
    """Build the layer graph ``spec`` describes as one linalg-level module.

    The activations between layers are int32; matmul inputs must be int8,
    so each layer's output is stored once as int32 (for bias/ReLU on the
    vector engine) and mirrored into an int8 buffer for the next matmul.
    To keep the simulated memory model simple we clamp activations into
    int8 range by construction (small weights and inputs).

    Each layer's :class:`LayerSpec` choices (accelerator, lowering tile
    shape) are attached to its ``linalg.matmul`` as attributes, which the
    ``convert-linalg-to-accfg`` pass honors per op.
    """
    spec.validate()
    layer_sizes = spec.layer_sizes
    batch = spec.batch
    memory = memory or Memory()
    rng = np.random.default_rng(spec.seed)
    x0 = memory.place(rng.integers(0, 3, (batch, layer_sizes[0]), dtype=np.int8))
    weights = [
        memory.place(rng.integers(-1, 2, (a, b), dtype=np.int8))
        for a, b in zip(layer_sizes, layer_sizes[1:])
    ]
    biases = [
        memory.place(rng.integers(-2, 3, size, dtype=np.int32))
        for size in layer_sizes[1:]
    ]
    # int32 accumulators and int8 mirrors for each layer's activation.
    accs = [memory.alloc((batch, size), np.int32) for size in layer_sizes[1:]]
    zeros = [memory.alloc(batch * size, np.int32) for size in layer_sizes[1:-1]]
    mirrors = [
        memory.alloc((batch, size), np.int8) for size in layer_sizes[1:-1]
    ]

    module = new_module()
    with build_function(module, "main") as (gen, _):
        current_int8 = x0
        for index, (w, b) in enumerate(zip(weights, biases)):
            acc = accs[index]
            last = index == len(weights) - 1
            _emit_layer(gen, current_int8, w, b, acc, batch,
                        layer_sizes[index], layer_sizes[index + 1],
                        relu_zero=None if last else zeros[index],
                        layer=spec.layers[index])
            if not last:
                _emit_requantize(gen, acc, mirrors[index], batch,
                                 layer_sizes[index + 1])
                current_int8 = mirrors[index]

    return MLPWorkload(
        module=module,
        memory=memory,
        input=x0,
        weights=weights,
        biases=biases,
        output=accs[-1],
        batch=batch,
        layer_sizes=list(layer_sizes),
        scratch=accs[:-1] + mirrors,
        spec=spec,
    )


def _emit_layer(gen: IRGen, x, w, b, acc, batch, in_size, out_size, relu_zero,
                layer: LayerSpec | None = None):
    """matmul + broadcast bias add (+ ReLU when not the last layer)."""
    x_addr = gen.const(x.addr)
    w_addr = gen.const(w.addr)
    acc_addr = gen.const(acc.addr)
    gen.builder.insert(
        linalg.MatmulOp.create(
            x_addr, w_addr, acc_addr, batch, in_size, out_size,
            target=layer.accelerator if layer else None,
            tile_m=layer.tile_m if layer else None,
            tile_n=layer.tile_n if layer else None,
        )
    )
    # Bias add: one elementwise per batch row (the bias vector repeats).
    zero = gen.const(0)
    one = gen.const(1)
    rows = gen.const(batch)
    row_bytes = gen.const(out_size * 4)
    with gen.loop(zero, rows, one) as (_, row):
        row_addr = gen.add(acc_addr, gen.mul(row, row_bytes))
        gen.builder.insert(
            linalg.ElementwiseOp.create(
                row_addr, gen.const(b.addr), row_addr, out_size, "add"
            )
        )
    if relu_zero is not None:
        total = batch * out_size
        gen.builder.insert(
            linalg.ElementwiseOp.create(
                acc_addr, gen.const(relu_zero.addr), acc_addr, total, "max"
            )
        )


def _emit_requantize(gen: IRGen, acc, mirror, batch, size) -> None:
    """Copy the int32 activation into the next layer's int8 input buffer.

    Modeled as a host-side copy op (a DMA in a real system); values stay in
    int8 range by construction, so this is a pure type change.
    """
    gen.builder.insert(
        RequantizeOp.create(
            gen.const(acc.addr), gen.const(mirror.addr), batch * size
        )
    )


# A tiny host-side helper op: narrows int32 activations to int8 in memory.
from ..dialects.accfg import HostEffect, set_effects  # noqa: E402
from ..ir.attributes import IndexType, IntegerAttr, IntegerType  # noqa: E402
from ..ir.operation import Operation, VerifyError  # noqa: E402
from ..ir.printer import Printer  # noqa: E402
from ..ir.registry import register_custom_parser, register_op  # noqa: E402
from ..isa.instructions import Instr, InstrCategory  # noqa: E402

#: what the host pays per 8 elements copied
_DMA_WORD = Instr("dma-word", InstrCategory.COMPUTE)


def _requantize(memory: Memory, src: int, dst: int, n: int) -> None:
    """``dst_int8[i] = int8(src_int32[i])`` for ``n`` elements."""
    values = memory.read_matrix(src, 1, n, n, np.int32)[0]
    memory.write_matrix(dst, values.astype(np.int8).reshape(1, -1), n)


@register_op
class RequantizeOp(Operation):
    """``dst_int8[i] = int8(src_int32[i])`` for ``n`` elements (host DMA)."""

    name = "net.requantize"
    custom_printed_attrs = frozenset(["n"])

    @staticmethod
    def create(src, dst, n: int) -> "RequantizeOp":
        op = RequantizeOp(operands=[src, dst])
        op.attributes["n"] = IntegerAttr(n)
        # A plain data move: never touches configuration registers.
        set_effects(op, "none")
        return op

    @property
    def n(self) -> int:
        attr = self.attributes["n"]
        assert isinstance(attr, IntegerAttr)
        return attr.value

    def verify_(self) -> None:
        if len(self.operands) != 2:
            raise VerifyError("net.requantize needs src and dst")
        for operand in self.operands:
            if not isinstance(operand.type, (IntegerType, IndexType)):
                raise VerifyError(
                    "net.requantize addresses must be integers, "
                    f"got {operand.type}"
                )
        attr = self.attributes.get("n")
        if not isinstance(attr, IntegerAttr) or attr.value <= 0:
            raise VerifyError("net.requantize needs a positive 'n'")

    def print_custom(self, printer: Printer) -> None:
        printer.emit("net.requantize ")
        printer.print_value(self.operands[0])
        printer.emit(" -> ")
        printer.print_value(self.operands[1])
        printer.emit(f" n({self.n})")

    def host_effect(self) -> HostEffect:
        """One host word per 8 elements, and the copy on functional runs.

        A timing-only simulation moves no data, as accelerator launches
        there do not.
        """
        n = self.n
        return HostEffect((_DMA_WORD,) * max(1, n // 8), _requantize, (n,))


@register_custom_parser("net.requantize")
def _parse_requantize(parser) -> RequantizeOp:
    src = parser.parse_value_use()
    parser.expect("->")
    dst = parser.parse_value_use()
    parser.expect("n")
    parser.expect("(")
    n = parser.parse_int()
    parser.expect(")")
    return RequantizeOp.create(src, dst, n)
