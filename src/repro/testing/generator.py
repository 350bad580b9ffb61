"""Typed random accfg program generation.

Two generators live here:

* the **fuzz generator** — a seeded (``random.Random``) generator of typed
  program specs (:class:`ProgramSpec`) covering the full dialect surface:
  nested ``scf.for``/``scf.if``, multi-accelerator modules, and partial
  setup-field writes that rely on configuration-register retention.  It is
  parameterized over backend profiles for all three targets (Gemmini,
  OpenGeMM, toyvec) and powers ``python -m repro fuzz``;
* the **property generator** — the hypothesis strategies the property
  tests draw from (toyvec only, straight-line plus one loop level).
  Hypothesis is imported lazily so the shipped package never requires it
  at import time.

Every generated program is *valid by construction*: field values are drawn
from per-backend choice tables (buffer addresses of pre-allocated regions,
legal sizes, legal op codes), so a functional run can never fault on memory
and any observed divergence is attributable to the pass under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

import numpy as np

from ..ir import i1, i64, index
from ..sim.memory import Buffer, Memory
from ..workloads import build_function, new_module
from ..workloads.irgen import IRGen

if TYPE_CHECKING:  # pragma: no cover
    from ..dialects.builtin import ModuleOp
    from ..ir.ssa import SSAValue

# ---------------------------------------------------------------------------
# Backend profiles: what a valid program for each target looks like
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BufferPool:
    """A family of same-shaped simulated-memory regions."""

    label: str
    count: int
    shape: tuple[int, int]  # rows x cols
    dtype: str  # "int8" | "int32"
    fill: str = "random"  # "random" | "zero"


@dataclass(frozen=True)
class FieldOption:
    """The legal values one configuration field may take.

    ``pool`` draws buffer base addresses from the named pool (optionally with
    a leading literal 0, e.g. Gemmini's "no bias" D pointer); ``values`` are
    literal choices.  ``dynamic_mod > 0`` marks small enum-like fields whose
    value may also be *computed* from the innermost loop induction variable
    (``(iv + c) mod dynamic_mod``), exercising calc categorization and the
    not-loop-invariant guards of the hoisting passes.
    """

    name: str
    pool: str | None = None
    include_zero: bool = False
    values: tuple[int, ...] = ()
    dynamic_mod: int = 0


@dataclass(frozen=True)
class BackendProfile:
    """Everything the generator needs to emit valid programs for one target."""

    name: str
    accelerators: tuple[str, ...]  # first entry is the primary target
    pools: tuple[BufferPool, ...]
    options: dict[str, tuple[FieldOption, ...]]  # accelerator -> fields


_VEC_LEN = 16
_MAT = 64

_TOYVEC_POOLS = (
    BufferPool("vec_in", 3, (1, _VEC_LEN), "int32"),
    BufferPool("vec_out", 2, (1, _VEC_LEN), "int32", fill="zero"),
)

_TOYVEC_OPTIONS: tuple[FieldOption, ...] = (
    FieldOption("ptr_x", pool="vec_in"),
    FieldOption("ptr_y", pool="vec_in"),
    FieldOption("ptr_out", pool="vec_out"),
    FieldOption("n", values=(4, 8, _VEC_LEN)),
    FieldOption("op", values=(0, 1, 2), dynamic_mod=3),
)

_GEMMINI_POOLS = (
    BufferPool("mat_a", 2, (_MAT, _MAT), "int8"),
    BufferPool("mat_b", 2, (_MAT, _MAT), "int8"),
    BufferPool("mat_d", 1, (_MAT, _MAT), "int32"),
    BufferPool("mat_c", 2, (_MAT, _MAT), "int32", fill="zero"),
)

_GEMMINI_OPTIONS: tuple[FieldOption, ...] = (
    FieldOption("A", pool="mat_a"),
    FieldOption("B", pool="mat_b"),
    FieldOption("D", pool="mat_d", include_zero=True),
    FieldOption("C", pool="mat_c"),
    FieldOption("I", values=(1, 2)),
    FieldOption("J", values=(1, 2)),
    FieldOption("K", values=(1, 2)),
    FieldOption("pad_I", values=(0,)),
    FieldOption("pad_J", values=(0,)),
    FieldOption("pad_K", values=(0,)),
    FieldOption("stride_A", values=(_MAT,)),
    FieldOption("stride_B", values=(_MAT,)),
    FieldOption("stride_D", values=(_MAT,)),
    FieldOption("stride_C", values=(_MAT,)),
    FieldOption("act", values=(0, 1), dynamic_mod=2),
)

_OPENGEMM_POOLS = (
    BufferPool("og_a", 2, (_MAT, _MAT), "int8"),
    BufferPool("og_b", 2, (_MAT, _MAT), "int8"),
    BufferPool("og_c", 2, (_MAT, _MAT), "int32", fill="zero"),
)

_OPENGEMM_OPTIONS: tuple[FieldOption, ...] = (
    FieldOption("M", values=(8, 16, 24)),
    FieldOption("K", values=(8, 16, 24)),
    FieldOption("N", values=(8, 16, 24)),
    FieldOption("ptr_A", pool="og_a"),
    FieldOption("ptr_B", pool="og_b"),
    FieldOption("ptr_C", pool="og_c"),
    FieldOption("stride_A", values=(_MAT,)),
    FieldOption("stride_B", values=(_MAT,)),
    FieldOption("stride_C", values=(_MAT,)),
    FieldOption("subtractions", values=(0, 1, 2), dynamic_mod=3),
    FieldOption("tbound0_A", values=(8,)),
    FieldOption("tstride0_A", values=(1,)),
    FieldOption("sstride_A", values=(1,)),
    FieldOption("tbound0_B", values=(8,)),
    FieldOption("tbound0_C", values=(8,)),
)

#: The three backend profiles of the evaluation.  Each non-toyvec profile
#: also carries the toy vector engine as a secondary device so fuzzing
#: exercises true multi-accelerator modules (independent state chains,
#: cross-device overlap) on every backend.
PROFILES: dict[str, BackendProfile] = {
    "toyvec": BackendProfile(
        name="toyvec",
        accelerators=("toyvec", "toyvec-seq", "toyvec-queued"),
        pools=_TOYVEC_POOLS,
        options={
            "toyvec": _TOYVEC_OPTIONS,
            "toyvec-seq": _TOYVEC_OPTIONS,
            "toyvec-queued": _TOYVEC_OPTIONS,
        },
    ),
    "gemmini": BackendProfile(
        name="gemmini",
        accelerators=("gemmini", "toyvec"),
        pools=(*_GEMMINI_POOLS, *_TOYVEC_POOLS),
        options={"gemmini": _GEMMINI_OPTIONS, "toyvec": _TOYVEC_OPTIONS},
    ),
    "opengemm": BackendProfile(
        name="opengemm",
        accelerators=("opengemm", "toyvec"),
        pools=(*_OPENGEMM_POOLS, *_TOYVEC_POOLS),
        options={"opengemm": _OPENGEMM_OPTIONS, "toyvec": _TOYVEC_OPTIONS},
    ),
}


# ---------------------------------------------------------------------------
# Program specs: a typed AST the shrinker can transform structurally
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldWrite:
    """One field of a partial setup: ``choice`` indexes the option's legal
    values; ``dynamic`` derives the value from the loop induction variable
    instead (only honored for ``dynamic_mod`` fields inside a loop)."""

    name: str
    choice: int
    dynamic: bool = False


@dataclass(frozen=True)
class Invoke:
    """One setup (optionally + launch + await) with a subset of fields."""

    accelerator: str
    fields: tuple[FieldWrite, ...]
    launch: bool = True


@dataclass(frozen=True)
class Loop:
    """``scf.for``; ``trips == ZERO_TRIPS`` emits an opaque zero-trip loop
    (upper bound is a runtime argument that is always 0), so hoisting guards
    stay exercised."""

    trips: int
    body: tuple["Stmt", ...]


@dataclass(frozen=True)
class Branch:
    """``scf.if %cond`` on the opaque runtime condition argument."""

    then: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...] = ()


Stmt = Union[Invoke, Loop, Branch]

#: Sentinel trip count for a loop whose bound is the opaque runtime zero.
ZERO_TRIPS = -1


@dataclass(frozen=True)
class ProgramSpec:
    """A complete generated program for one backend."""

    backend: str
    stmts: tuple[Stmt, ...]
    cond_value: bool = True

    def count_invokes(self) -> int:
        return sum(1 for _ in walk_invokes(self.stmts))

    def zero_trip_sites(self) -> int:
        def count(stmts: tuple[Stmt, ...]) -> int:
            total = 0
            for stmt in stmts:
                if isinstance(stmt, Loop):
                    total += (stmt.trips == ZERO_TRIPS) + count(stmt.body)
                elif isinstance(stmt, Branch):
                    total += count(stmt.then) + count(stmt.orelse)
            return total

        return count(self.stmts)


def walk_invokes(stmts: tuple[Stmt, ...]):
    for stmt in stmts:
        if isinstance(stmt, Invoke):
            yield stmt
        elif isinstance(stmt, Loop):
            yield from walk_invokes(stmt.body)
        elif isinstance(stmt, Branch):
            yield from walk_invokes(stmt.then)
            yield from walk_invokes(stmt.orelse)


# ---------------------------------------------------------------------------
# Seeded generation
# ---------------------------------------------------------------------------


def generate_spec(
    rng: random.Random,
    backend: str,
    max_stmts: int = 6,
    max_depth: int = 2,
) -> ProgramSpec:
    """Draw one random-but-valid program spec for ``backend``."""
    profile = PROFILES[backend]

    def gen_invoke() -> Invoke:
        # The primary target dominates; secondaries keep multi-accelerator
        # interleavings in the mix.
        if rng.random() < 0.65 or len(profile.accelerators) == 1:
            accelerator = profile.accelerators[0]
        else:
            accelerator = rng.choice(profile.accelerators[1:])
        options = profile.options[accelerator]
        count = rng.randint(0, min(4, len(options)))
        chosen = rng.sample(range(len(options)), count)
        fields = []
        for option_index in sorted(chosen):
            option = options[option_index]
            n_choices = len(option.values) + (
                _pool_count(profile, option.pool) if option.pool else 0
            ) + (1 if option.include_zero else 0)
            dynamic = bool(option.dynamic_mod) and rng.random() < 0.3
            fields.append(
                FieldWrite(option.name, rng.randrange(max(1, n_choices)), dynamic)
            )
        return Invoke(accelerator, tuple(fields), launch=rng.random() < 0.75)

    def gen_stmts(budget: int, depth: int) -> tuple[Stmt, ...]:
        stmts: list[Stmt] = []
        n = rng.randint(1, max(1, budget))
        for _ in range(n):
            roll = rng.random()
            if depth < max_depth and roll < 0.18:
                trips = rng.choice([ZERO_TRIPS, 1, 2, 3])
                stmts.append(Loop(trips, gen_stmts(max(1, budget // 2), depth + 1)))
            elif depth < max_depth and roll < 0.36:
                then = gen_stmts(max(1, budget // 2), depth + 1)
                orelse = (
                    gen_stmts(max(1, budget // 3), depth + 1)
                    if rng.random() < 0.4
                    else ()
                )
                stmts.append(Branch(then, orelse))
            else:
                stmts.append(gen_invoke())
        return tuple(stmts)

    return ProgramSpec(
        backend=backend,
        stmts=gen_stmts(max_stmts, 0),
        cond_value=rng.random() < 0.5,
    )


def _pool_count(profile: BackendProfile, label: str | None) -> int:
    for pool in profile.pools:
        if pool.label == label:
            return pool.count
    raise KeyError(f"profile '{profile.name}' has no buffer pool '{label}'")


# ---------------------------------------------------------------------------
# Building: memory image + IR emission
# ---------------------------------------------------------------------------

_DTYPES = {"int8": np.int8, "int32": np.int32}

#: (backend, memory_seed) -> the generated buffer contents, in allocation
#: order (None = zero-filled).  The oracles rebuild the same image several
#: times per fuzzed program (one per executed pipeline plus the
#: trace-vs-tree cross-check); copying cached arrays is a memcpy where
#: regenerating them pays RNG setup and sampling.  Entries for past
#: programs are useless, so the cache stays tiny.
_IMAGE_CACHE: dict[tuple[str, int], list["np.ndarray | None"]] = {}


def build_memory(
    backend: str, memory_seed: int = 0
) -> tuple[Memory, dict[str, list[Buffer]]]:
    """A fresh, deterministic memory image for ``backend``.

    Buffer addresses depend only on the profile (allocation order and
    alignment), and contents only on ``memory_seed`` — which is what makes
    textual ``.mlir`` reproducers self-contained: replaying rebuilds an
    identical image from ``(backend, memory_seed)`` alone.
    """
    profile = PROFILES[backend]
    key = (backend, memory_seed)
    arrays = _IMAGE_CACHE.get(key)
    if arrays is None:
        from ..engine.cache import active_persistent_store

        store = active_persistent_store()
        if store is not None:
            loaded = store.load("image", f"{backend}-{memory_seed}")
            if isinstance(loaded, list):
                arrays = loaded
        if arrays is None:
            rng = np.random.default_rng(memory_seed)
            arrays = []
            for pool in profile.pools:
                dtype = _DTYPES[pool.dtype]
                for _ in range(pool.count):
                    if pool.fill == "zero":
                        arrays.append(None)
                    else:
                        arrays.append(
                            rng.integers(-20, 20, pool.shape).astype(dtype)
                        )
            if store is not None:
                store.save("image", f"{backend}-{memory_seed}", arrays)
        if len(_IMAGE_CACHE) >= 16:
            _IMAGE_CACHE.clear()
        _IMAGE_CACHE[key] = arrays
    memory = Memory()
    pools: dict[str, list[Buffer]] = {}
    index = 0
    for pool in profile.pools:
        dtype = _DTYPES[pool.dtype]
        buffers = []
        for _ in range(pool.count):
            array = arrays[index]
            index += 1
            if array is None:
                buffers.append(memory.alloc(pool.shape, dtype))
            else:
                buffers.append(memory.place(array.copy()))
        pools[pool.label] = buffers
    return memory, pools


@dataclass
class BuiltFuzzProgram:
    """A spec lowered to IR plus the memory image it runs against."""

    spec: ProgramSpec
    module: "ModuleOp"
    memory: Memory
    pools: dict[str, list[Buffer]]
    args: list[int] = field(default_factory=list)

    @property
    def zero_trip_sites(self) -> int:
        return self.spec.zero_trip_sites()


def _option_for(profile: BackendProfile, accelerator: str, name: str) -> FieldOption:
    for option in profile.options[accelerator]:
        if option.name == name:
            return option
    raise KeyError(f"accelerator '{accelerator}' has no generated field '{name}'")


def _static_value(
    option: FieldOption, choice: int, pools: dict[str, list[Buffer]]
) -> int:
    choices: list[int] = []
    if option.include_zero:
        choices.append(0)
    if option.pool is not None:
        choices.extend(buffer.addr for buffer in pools[option.pool])
    choices.extend(option.values)
    return choices[choice % len(choices)]


def build_spec(spec: ProgramSpec, memory_seed: int = 0) -> BuiltFuzzProgram:
    """Emit the IR module for ``spec`` over a fresh memory image."""
    profile = PROFILES[spec.backend]
    memory, pools = build_memory(spec.backend, memory_seed)
    module = new_module()

    with build_function(module, "main", input_types=[i1, index]) as (gen, args):
        cond, rt_zero = args
        # A full initial configuration per accelerator, so later partial
        # updates always act on defined registers (register retention).
        for accelerator in profile.accelerators:
            gen.setup(
                accelerator,
                [
                    (option.name, gen.const(_static_value(option, 0, pools), i64))
                    for option in profile.options[accelerator]
                ],
            )
        zero = gen.const(0)
        one = gen.const(1)

        def emit_invoke(gen: IRGen, invoke: Invoke, iv: "SSAValue | None") -> None:
            fields = []
            for write in invoke.fields:
                option = _option_for(profile, invoke.accelerator, write.name)
                if write.dynamic and option.dynamic_mod and iv is not None:
                    # value = (iv + choice) mod m — loop-variant on purpose.
                    shifted = gen.add(iv, gen.const(write.choice))
                    value = gen.rem(shifted, gen.const(option.dynamic_mod))
                else:
                    value = gen.const(_static_value(option, write.choice, pools), i64)
                fields.append((write.name, value))
            state = gen.setup(invoke.accelerator, fields)
            if invoke.launch:
                gen.await_(gen.launch(state))

        def emit_stmts(
            gen: IRGen, stmts: tuple[Stmt, ...], iv: "SSAValue | None"
        ) -> None:
            from ..dialects import scf
            from ..ir.builder import Builder

            for stmt in stmts:
                if isinstance(stmt, Invoke):
                    emit_invoke(gen, stmt, iv)
                elif isinstance(stmt, Loop):
                    ub = (
                        rt_zero
                        if stmt.trips == ZERO_TRIPS
                        else gen.const(stmt.trips)
                    )
                    with gen.loop(zero, ub, one) as (_, inner_iv):
                        emit_stmts(gen, stmt.body, inner_iv)
                elif isinstance(stmt, Branch):
                    from ..ir.block import Block

                    if_op = gen.builder.insert(
                        scf.IfOp.create(
                            cond,
                            else_block=Block() if stmt.orelse else None,
                        )
                    )
                    then_gen = IRGen(Builder.at_end(if_op.then_block))
                    emit_stmts(then_gen, stmt.then, iv)
                    then_gen.builder.insert(scf.YieldOp.create())
                    if stmt.orelse:
                        else_gen = IRGen(Builder.at_end(if_op.else_block))
                        emit_stmts(else_gen, stmt.orelse, iv)
                        else_gen.builder.insert(scf.YieldOp.create())

        emit_stmts(gen, spec.stmts, None)

    return BuiltFuzzProgram(
        spec=spec,
        module=module,
        memory=memory,
        pools=pools,
        args=[int(spec.cond_value), 0],
    )


# ---------------------------------------------------------------------------
# The promoted property-test generator (toyvec, hypothesis-based)
# ---------------------------------------------------------------------------

VECTOR_LENGTH = 16
FIELD_NAMES = ("ptr_x", "ptr_y", "ptr_out", "n", "op")


@dataclass(frozen=True)
class Invocation:
    """One setup(+launch+await) with a subset of fields."""

    fields: tuple[tuple[str, int], ...]  # name -> symbolic value index
    launch: bool
    # 0 = straight-line; >0 = loop with that many trips; -1 = a loop whose
    # bounds make it execute ZERO times (registers must stay untouched).
    loop_trips: int
    guarded: bool = False  # wrapped in `scf.if %cond`
    accelerator: str = "toyvec"  # or the sequential twin "toyvec-seq"


@dataclass
class GeneratedProgram:
    invocations: tuple[Invocation, ...]
    cond_value: bool = True  # runtime value of the opaque branch condition


def invocations():
    """Hypothesis strategy for one :class:`Invocation` (lazy import)."""
    from hypothesis import strategies as st

    @st.composite
    def _invocations(draw) -> Invocation:
        chosen = draw(
            st.lists(
                st.sampled_from(FIELD_NAMES), min_size=0, max_size=5, unique=True
            )
        )
        fields = tuple(
            (name, draw(st.integers(min_value=0, max_value=2))) for name in chosen
        )
        launch = draw(st.booleans())
        loop_trips = draw(st.sampled_from([0, 0, 0, 1, 2, 3, -1]))
        guarded = draw(st.sampled_from([False, False, False, True]))
        accelerator = draw(st.sampled_from(["toyvec", "toyvec", "toyvec-seq"]))
        return Invocation(fields, launch, loop_trips, guarded, accelerator)

    return _invocations()


def programs():
    """Hypothesis strategy for whole :class:`GeneratedProgram` values."""
    from hypothesis import strategies as st

    return st.builds(
        GeneratedProgram,
        st.lists(invocations(), min_size=1, max_size=6).map(tuple),
        st.booleans(),
    )


@dataclass
class BuiltProgram:
    module: object
    memory: Memory
    buffers: list
    out_buffers: list


def build(program: GeneratedProgram, seed: int = 0) -> BuiltProgram:
    """Emit the IR for a generated program, with a fresh memory image."""
    memory = Memory()
    rng = np.random.default_rng(seed)
    buffers = [
        memory.place(rng.integers(-100, 100, VECTOR_LENGTH, dtype=np.int32))
        for _ in range(2)
    ]
    out_buffers = [memory.alloc(VECTOR_LENGTH, np.int32) for _ in range(2)]
    module = new_module()

    def field_value(gen: IRGen, name: str, value_index: int) -> object:
        if name == "ptr_x" or name == "ptr_y":
            return gen.const(buffers[value_index % len(buffers)].addr, i64)
        if name == "ptr_out":
            return gen.const(out_buffers[value_index % len(out_buffers)].addr, i64)
        if name == "n":
            return gen.const((4, 8, VECTOR_LENGTH)[value_index % 3], i64)
        return gen.const(value_index % 3, i64)  # op

    # main(%cond : i1, %rt_zero : index) — %rt_zero is always 0 at runtime
    # but opaque to the optimizer (used as a zero-trip loop bound).
    with build_function(module, "main", input_types=[i1, index]) as (gen, args):
        (cond, rt_zero) = args
        # A safe initial full configuration (per accelerator) so partial
        # updates always act on defined registers.
        for accel in ("toyvec", "toyvec-seq"):
            gen.setup(
                accel,
                [
                    ("ptr_x", gen.const(buffers[0].addr, i64)),
                    ("ptr_y", gen.const(buffers[1].addr, i64)),
                    ("ptr_out", gen.const(out_buffers[0].addr, i64)),
                    ("n", gen.const(VECTOR_LENGTH, i64)),
                    ("op", gen.const(0, i64)),
                ],
            )
        zero = gen.const(0)
        one = gen.const(1)
        for invocation in program.invocations:
            def emit_body(gen: IRGen) -> None:
                fields = [
                    (name, field_value(gen, name, value_index))
                    for name, value_index in invocation.fields
                ]
                inner = gen.setup(invocation.accelerator, fields)
                if invocation.launch:
                    token = gen.launch(inner)
                    gen.await_(token)

            def emit_maybe_looped(gen: IRGen) -> None:
                if invocation.loop_trips == -1:
                    # A zero-trip loop: ub = the opaque runtime zero, so the
                    # optimizer cannot prove the trip count and the hoisting
                    # guards stay exercised.
                    with gen.loop(zero, rt_zero, one):
                        emit_body(gen)
                elif invocation.loop_trips:
                    trips = gen.const(invocation.loop_trips)
                    with gen.loop(zero, trips, one):
                        emit_body(gen)
                else:
                    emit_body(gen)

            if invocation.guarded:
                from ..dialects import scf
                from ..ir.builder import Builder

                if_op = gen.builder.insert(scf.IfOp.create(cond))
                inner_gen = IRGen(Builder.at_end(if_op.then_block))
                emit_maybe_looped(inner_gen)
                inner_gen.builder.insert(scf.YieldOp.create())
            else:
                emit_maybe_looped(gen)
    return BuiltProgram(module, memory, buffers, out_buffers)


def golden_result(program: GeneratedProgram, seed: int = 0) -> list[np.ndarray]:
    """Reference semantics: simulate the register file in plain Python."""
    built = build(program, seed)  # fresh image, never executed
    memory = built.memory
    register_files = {
        accel: {
            "ptr_x": built.buffers[0].addr,
            "ptr_y": built.buffers[1].addr,
            "ptr_out": built.out_buffers[0].addr,
            "n": VECTOR_LENGTH,
            "op": 0,
        }
        for accel in ("toyvec", "toyvec-seq")
    }

    def value_of(name: str, value_index: int) -> int:
        if name in ("ptr_x", "ptr_y"):
            return built.buffers[value_index % 2].addr
        if name == "ptr_out":
            return built.out_buffers[value_index % 2].addr
        if name == "n":
            return (4, 8, VECTOR_LENGTH)[value_index % 3]
        return value_index % 3

    def do_launch(registers: dict) -> None:
        n = registers["n"]
        x = memory.read_matrix(registers["ptr_x"], 1, n, n, np.int32)[0]
        y = memory.read_matrix(registers["ptr_y"], 1, n, n, np.int32)[0]
        op = registers["op"]
        out = x + y if op == 0 else x * y if op == 1 else np.maximum(x, y)
        memory.write_matrix(registers["ptr_out"], out.reshape(1, n), n)

    for invocation in program.invocations:
        if invocation.guarded and not program.cond_value:
            continue
        if invocation.loop_trips == -1:
            continue  # a zero-trip loop never runs its body
        registers = register_files[invocation.accelerator]
        trips = invocation.loop_trips if invocation.loop_trips else 1
        for _ in range(trips):
            for name, value_index in invocation.fields:
                registers[name] = value_of(name, value_index)
            if invocation.launch:
                do_launch(registers)
    return [buf.array.copy() for buf in built.out_buffers]
