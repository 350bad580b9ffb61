"""Property: textual round-trips are lossless for generated programs and
for any string in a quoted position."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


@RELAXED
@given(st.text(), st.text(), st.text(), st.text())
def test_any_string_survives_print_parse(accelerator, field, value, key):
    from repro.dialects import accfg, arith
    from repro.dialects.builtin import ModuleOp
    from repro.ir import StringAttr, UnitAttr, UnregisteredOp, i64

    const = arith.ConstantOp.create(1, i64)
    setup = accfg.SetupOp.create(accelerator, [(field, const.result)])
    launch = accfg.LaunchOp.create(setup.results[0])
    tagged = UnregisteredOp("test.op", attributes={key: StringAttr(value)})
    flagged = UnregisteredOp("test.op", attributes={key: UnitAttr()})
    printed = str(ModuleOp.create([const, setup, launch, tagged, flagged]))

    reparsed = parse_module(printed)
    _, setup2, launch2, tagged2, flagged2 = reparsed.body_block.ops
    assert setup2.accelerator == accelerator
    assert setup2.field_names == (field,)
    assert launch2.results[0].type == accfg.TokenType(accelerator)
    assert tagged2.attributes == {key: StringAttr(value)}
    assert flagged2.attributes == {key: UnitAttr()}
    assert str(reparsed) == printed
