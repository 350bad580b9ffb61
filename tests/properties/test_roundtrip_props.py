"""Property: textual round-trips are lossless for generated programs."""

from hypothesis import HealthCheck, given, settings

from repro.ir import parse_module, verify_operation
from repro.testing.generator import build, programs

RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@RELAXED
@given(programs())
def test_print_parse_print_fixpoint(program):
    built = build(program)
    printed = str(built.module)
    reparsed = parse_module(printed)
    verify_operation(reparsed)
    assert str(reparsed) == printed


@RELAXED
@given(programs())
def test_roundtrip_preserves_structure(program):
    built = build(program)
    original_ops = [op.name for op in built.module.walk()]
    reparsed = parse_module(str(built.module))
    assert [op.name for op in reparsed.walk()] == original_ops


@RELAXED
@given(programs())
def test_roundtrip_after_optimization(program):
    from repro.passes import pipeline_by_name

    built = build(program)
    pipeline_by_name("full").run(built.module)
    printed = str(built.module)
    reparsed = parse_module(printed)
    verify_operation(reparsed)
    assert str(reparsed) == printed
