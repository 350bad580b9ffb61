"""Accelerator target abstraction and registry.

An :class:`AcceleratorSpec` is everything the compiler and co-simulator need
to know about one accelerator:

* its *configuration interface* — which fields exist (name, bit width), how
  many host instructions writing a set of fields costs, and whether the
  accelerator supports concurrent (staged) configuration;
* its *timing* — peak ops/cycle and the cycle count of one launched
  macro-operation as a function of the committed configuration;
* its *semantics* — a functional ``execute`` that performs the macro-op on
  the simulated memory, so optimized programs can be checked bit-exactly
  against numpy references.

Lowering passes ask the spec how to translate ``accfg`` ops into instruction
records (step 5 of the flow); the overlap pass consults
``concurrent_config`` before pipelining (step 4).
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from ..isa.encoding import FieldSpec
from ..isa.instructions import HostCostModel, Instr

if TYPE_CHECKING:  # pragma: no cover
    from typing import Sequence

    from ..sim.memory import Memory


class AcceleratorSpec(ABC):
    """Target description for one accelerator."""

    #: unique name, matching the accfg ``accelerator`` attribute
    name: str = ""
    #: peak datapath throughput in ops/cycle (P_peak of the roofline)
    peak_ops_per_cycle: int = 1
    #: True when the accelerator supports concurrent configuration
    #: (staging registers; Section 2.2)
    concurrent_config: bool = False
    #: Launches the interface can queue before the host must wait.  1 models
    #: the paper's single-level staging (a launch is a barrier on the
    #: previous computation); >1 models FIFO/queue-based schemes such as
    #: Cohort's software-defined pipelines (Section 8 outlook).  Only
    #: meaningful for concurrent-configuration targets.
    launch_queue_depth: int = 1
    #: Sustainable memory bandwidth in bytes/cycle (BW_memory of Eq. 1/5),
    #: used only for roofline accounting — data movement is never part of
    #: configuration overhead (Section 2.3) and its latency is assumed
    #: hidden in these experiments.  None = not modeled.
    memory_bandwidth: float | None = None
    #: field name -> FieldSpec (bit widths; e.g. Table 1 for Gemmini)
    fields: dict[str, FieldSpec] = {}
    #: average cycles per host instruction (paper footnote 4 gives 3 for the
    #: Rocket host; in-order single-issue hosts like Snitch are close to 1)
    host_cycles_per_instr: float = 3.0

    def host_cost_model(self) -> HostCostModel:
        """The host cost model to co-simulate this target with."""
        return HostCostModel(self.host_cycles_per_instr)

    # -- configuration interface costs -------------------------------------

    @abstractmethod
    def setup_instrs(self, field_names: list[str]) -> list[Instr]:
        """Host instructions that write the given fields' registers.

        Only the register-write instructions themselves — parameter
        computation is charged separately from the IR's arith ops.
        """

    @abstractmethod
    def launch_instrs(self) -> list[Instr]:
        """Host instructions that start the accelerator."""

    def launch_field_instrs(self, field_names: list[str]) -> list[Instr]:
        """Host instructions conveying launch-semantic configuration fields
        (configuration carried by the launching instruction itself,
        Section 2.4).  Defaults to the ordinary setup cost."""
        return self.setup_instrs(field_names)

    def sync_instrs(self) -> list[Instr]:
        """Host instructions for one completion check (poll of a status
        register by default)."""
        from ..isa.instructions import sync_instr

        return [sync_instr("poll", self.name)]

    # -- memoized instruction streams ---------------------------------------
    #
    # Instruction streams are pure functions of the field names and Instr
    # records are frozen, so each spec hands out one shared tuple per stream.
    # The co-simulator resolves a stream's cycles once per simulator, keyed
    # on that tuple.

    @functools.cached_property
    def _setup_streams(self) -> dict[tuple[str, ...], tuple[Instr, ...]]:
        return {}

    @functools.cached_property
    def _launch_field_streams(self) -> dict[tuple[str, ...], tuple[Instr, ...]]:
        return {}

    @functools.cached_property
    def _launch_stream(self) -> tuple[Instr, ...]:
        return tuple(self.launch_instrs())

    @functools.cached_property
    def _sync_stream(self) -> tuple[Instr, ...]:
        return tuple(self.sync_instrs())

    def setup_instrs_cached(self, field_names: "Sequence[str]") -> tuple[Instr, ...]:
        """Memoized :meth:`setup_instrs` (the simulator hot path)."""
        key = tuple(field_names)
        stream = self._setup_streams.get(key)
        if stream is None:
            stream = tuple(self.setup_instrs(list(key)))
            self._setup_streams[key] = stream
        return stream

    def launch_field_instrs_cached(
        self, field_names: "Sequence[str]"
    ) -> tuple[Instr, ...]:
        """Memoized :meth:`launch_field_instrs`."""
        key = tuple(field_names)
        stream = self._launch_field_streams.get(key)
        if stream is None:
            stream = tuple(self.launch_field_instrs(list(key)))
            self._launch_field_streams[key] = stream
        return stream

    def launch_instrs_cached(self) -> tuple[Instr, ...]:
        """Memoized :meth:`launch_instrs`."""
        return self._launch_stream

    def sync_instrs_cached(self) -> tuple[Instr, ...]:
        """Memoized :meth:`sync_instrs`."""
        return self._sync_stream

    def config_bytes(self, field_names: list[str]) -> int:
        """Configuration payload in bytes for the given fields."""
        total = 0
        for name in field_names:
            spec = self.fields.get(name)
            total += (spec.bits + 7) // 8 if spec else 8
        return total

    # -- timing and semantics ------------------------------------------------

    @abstractmethod
    def compute_cycles(self, config: dict[str, int]) -> float:
        """Cycles one launch occupies the accelerator, given its config."""

    @abstractmethod
    def launch_ops(self, config: dict[str, int]) -> int:
        """Useful datapath operations one launch performs (for roofline
        accounting: multiply-accumulate counts as two ops)."""

    def static_launch_ops(self, config: dict[str, int]) -> int | None:
        """Like :meth:`launch_ops`, but for *static* analysis: ``config``
        holds only the fields a compiler could constant-fold, so a spec must
        return ``None`` when those do not pin the op count down (e.g. a
        runtime-sized vector).  Used by the configuration-roofline lint."""
        return None

    def launch_memory_bytes(self, config: dict[str, int]) -> int:
        """Bytes of data one launch moves (for the I_operational axis of the
        combined roofsurface, Eq. 5).  Zero by default (not modeled)."""
        return 0

    def execute(self, config: dict[str, int], memory: "Memory") -> None:
        """Perform the macro-operation functionally on simulated memory.

        Optional: specs without functional semantics (pure timing studies)
        may leave this a no-op.
        """

    def field_spec(self, name: str) -> FieldSpec:
        spec = self.fields.get(name)
        if spec is None:
            raise KeyError(f"accelerator '{self.name}' has no field '{name}'")
        return spec

    def __repr__(self) -> str:
        kind = "concurrent" if self.concurrent_config else "sequential"
        return f"<AcceleratorSpec {self.name} ({kind}, {self.peak_ops_per_cycle} ops/cycle)>"


def int8_matmul(
    a: np.ndarray, b: np.ndarray, a_zero: int = 0, b_zero: int = 0
) -> np.ndarray:
    """``(a - a_zero) @ (b - b_zero)`` of int8 matrices, as numpy's int32
    product computes it, wraparound included.

    Each term is at most ``(128 + |a_zero|) * (128 + |b_zero|)`` in
    magnitude.  While ``K`` of them stay below 2**31, every product and
    partial sum is an integer that float64 holds exactly, in any summation
    order, and the result fits int32: the product then runs through
    float64 BLAS, several times faster than numpy's int32 loop, and casts
    exactly.  Past that bound the int32 product runs and wraps.
    """
    if a.shape[-1] * (128 + abs(a_zero)) * (128 + abs(b_zero)) < 2**31:
        a = a.astype(np.float64)
        b = b.astype(np.float64)
        if a_zero:
            a -= a_zero
        if b_zero:
            b -= b_zero
        return (a @ b).astype(np.int32)
    return (a.astype(np.int32) - a_zero) @ (b.astype(np.int32) - b_zero)


_REGISTRY: dict[str, AcceleratorSpec] = {}


def register_accelerator(spec: AcceleratorSpec, replace: bool = False) -> AcceleratorSpec:
    """Add a spec to the global registry (used by passes and simulators)."""
    if not spec.name:
        raise ValueError("accelerator spec needs a name")
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"accelerator '{spec.name}' already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_accelerator(name: str) -> AcceleratorSpec:
    _ensure_builtin_targets()
    spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown accelerator '{name}' (known: {known})")
    return spec


def get_accelerator_or_none(name: str) -> AcceleratorSpec | None:
    _ensure_builtin_targets()
    return _REGISTRY.get(name)


def registered_accelerators() -> list[str]:
    _ensure_builtin_targets()
    return sorted(_REGISTRY)


def _ensure_builtin_targets() -> None:
    """Import the built-in target modules so they self-register."""
    from . import gemmini, opengemm, toyvec  # noqa: F401
