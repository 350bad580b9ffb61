"""Property: one structural walk gives a module's identity.

:func:`repro.ir.structural_key` is the only identity walk: the in-memory
trace cache and the fuzz oracles key on it, and
:func:`repro.engine.cache.module_fingerprint` digests it for the disk tier,
serve's ``compile`` response and tune's score keys.  The reference below,
``fingerprint_operation``, is the serialization the digest hashed before
that, kept verbatim from ``repro.ir.printer``; only
:func:`repro.ir.printer.format_attribute` is shared with the code under
test.

Two operations must get equal keys exactly when their reference texts are
equal.  Every operation of every module is checked as a root, so nested
roots whose operands are defined outside them count too.  The modules are
generated programs of every backend under every pipeline, the Fig. 10/11
matmuls under their figures' pipelines, a lowered MLP, and pairs that
differ only in an operand type or an attribute key.  A clone and a
print→parse round trip must keep both the key and the digest.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import module_fingerprint
from repro.experiments import fig10_gemmini, fig11_opengemm
from repro.ir import parse_module, structural_key
from repro.ir.attributes import Attribute
from repro.ir.operation import Operation, UnregisteredOp
from repro.ir.printer import format_attribute
from repro.ir.ssa import SSAValue
from repro.passes import PIPELINES, ConvertLinalgToAccfgPass, pipeline_by_name
from repro.testing.generator import PROFILES, build_spec, generate_spec
from repro.workloads import build_gemmini_matmul, build_opengemm_matmul
from repro.workloads.network import build_mlp

# ---------------------------------------------------------------------------
# The reference serialization
# ---------------------------------------------------------------------------


def fingerprint_operation(root: Operation) -> str:
    """A compact, structurally lossless serialization for hashing.

    Produces the same string for two modules iff the pretty printer would
    (ops, operand/result wiring, attributes, types, and region structure all
    serialize; value names come from a plain visit counter), but skips the
    name-hint uniquing and indentation work that makes :class:`Printer`
    expensive — this is the hot fingerprint path of the differential
    oracles and the compiled-trace cache.
    """
    parts: list[str] = []
    names: dict[SSAValue, str] = {}
    type_strs: dict[Attribute, str] = {}
    # Keyed by id(): attributes stay alive for the duration of the call (the
    # module references them), and value-equal attributes format identically
    # anyway, so an id-keyed memo is a pure cache.
    attr_strs: dict[int, str] = {}

    def value_name(value: SSAValue) -> str:
        name = names.get(value)
        if name is None:
            name = str(len(names))
            names[value] = name
        return name

    def type_str(type_attr) -> str:
        text = type_strs.get(type_attr)
        if text is None:
            text = str(type_attr)
            type_strs[type_attr] = text
        return text

    def attr_str(attr) -> str:
        text = attr_strs.get(id(attr))
        if text is None:
            text = format_attribute(attr)
            attr_strs[id(attr)] = text
        return text

    def emit_op(op: Operation) -> None:
        operands = op._operands
        if op.results:
            parts.append(",".join(value_name(r) for r in op.results))
            parts.append("=")
        parts.append(op.op_name if isinstance(op, UnregisteredOp) else op.name)
        parts.append("(" + ",".join(value_name(o) for o in operands) + ")")
        if op.attributes:
            parts.append(
                "{"
                + ",".join(
                    f"{key}={attr_str(value)}"
                    for key, value in op.attributes.items()
                )
                + "}"
            )
        parts.append(
            ":"
            + ",".join(type_str(o.type) for o in operands)
            + ">"
            + ",".join(type_str(r.type) for r in op.results)
        )
        for region in op.regions:
            parts.append("[")
            for block in region.blocks:
                parts.append(
                    "^("
                    + ",".join(
                        value_name(arg) + ":" + type_str(arg.type)
                        for arg in block.args
                    )
                    + ")"
                )
                for nested in block.ops:
                    emit_op(nested)
                    parts.append(";")
            parts.append("]")

    emit_op(root)
    return "".join(parts)


# ---------------------------------------------------------------------------
# The modules
# ---------------------------------------------------------------------------

#: Pairs whose modules differ only in one operand's type (seen by the
#: ``func.return`` root, whose operand is defined outside it) or only in one
#: attribute key.
NEAR_TWINS = (
    """
    func.func @main(%x : i64) -> (i64) {
      func.return %x : i64
    }
    """,
    """
    func.func @main(%x : i32) -> (i32) {
      func.return %x : i32
    }
    """,
    """
    func.func @main() -> () {
      "test.op"() {a = 1 : i64} : () -> ()
      func.return
    }
    """,
    """
    func.func @main() -> () {
      "test.op"() {b = 1 : i64} : () -> ()
      func.return
    }
    """,
)


def corpus_modules() -> list:
    modules = []
    for backend in sorted(PROFILES):
        for seed in range(8):
            spec = generate_spec(random.Random(seed), backend)
            for pipeline in sorted(PIPELINES):
                built = build_spec(spec, memory_seed=seed)
                pipeline_by_name(pipeline).run(built.module)
                modules.append(built.module)
    figures = (
        (fig10_gemmini, build_gemmini_matmul, ("volatile-baseline", "full")),
        (fig11_opengemm, build_opengemm_matmul, fig11_opengemm.VARIANTS),
    )
    for figure, build, pipelines in figures:
        for size in figure.DEFAULT_SIZES:
            for pipeline in pipelines:
                workload = build(size)
                pipeline_by_name(pipeline).run(workload.module)
                modules.append(workload.module)
    for pipeline in ("none", "full"):
        mlp = build_mlp([16, 32, 16, 8])
        ConvertLinalgToAccfgPass().apply(mlp.module)
        pipeline_by_name(pipeline).run(mlp.module)
        modules.append(mlp.module)
    modules.extend(parse_module(text) for text in NEAR_TWINS)
    return modules


@pytest.fixture(scope="module")
def corpus() -> list:
    return corpus_modules()


# ---------------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------------


def assert_same_partition(roots) -> int:
    """Keys and reference texts group ``roots`` alike; returns the number
    of groups."""
    ref_of_key: dict[tuple, str] = {}
    key_of_ref: dict[str, tuple] = {}
    for root in roots:
        key = structural_key(root)
        ref = fingerprint_operation(root)
        assert ref_of_key.setdefault(key, ref) == ref, (key, ref)
        assert key_of_ref.setdefault(ref, key) == key, (ref, key)
    return len(ref_of_key)


def test_modules_get_equal_keys_iff_equal_reference_texts(corpus):
    groups = assert_same_partition(corpus)
    # Pipelines converge, so some modules share a key; most do not.
    assert len(corpus) // 2 < groups < len(corpus)


def test_every_nested_root_too(corpus):
    roots = [op for module in corpus for op in module.walk()]
    assert assert_same_partition(roots) > 1000


def test_keys_hold_only_ints_and_strings(corpus):
    for module in corpus:
        assert {type(part) for part in structural_key(module)} <= {int, str}


def test_digest_is_the_digest_of_the_key(corpus):
    digest_of_key: dict[tuple, str] = {}
    for module in corpus:
        key = structural_key(module)
        digest = module_fingerprint(module)
        assert module_fingerprint(module, key) == digest
        assert digest_of_key.setdefault(key, digest) == digest
    assert len(set(digest_of_key.values())) == len(digest_of_key)


def test_clone_keeps_key_and_digest(corpus):
    for module in corpus:
        clone = module.clone()
        assert structural_key(clone) == structural_key(module)
        assert module_fingerprint(clone) == module_fingerprint(module)


def test_print_parse_round_trip_keeps_key_and_digest(corpus):
    for module in corpus:
        reparsed = parse_module(str(module))
        assert structural_key(reparsed) == structural_key(module)
        assert module_fingerprint(reparsed) == module_fingerprint(module)
