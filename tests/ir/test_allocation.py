"""What the garbage collector tracks per op and per token.

An op holds its operands, results and regions in tuples (the shared ``()``
when it has none), a value makes its use list at its first use, a location
is text, and a token is an exact tuple.  The counts below are pinned on a
fixed corpus: each tracked object is one the collector scans again at every
collection it survives.  The growth tests check that growing a field
rebuilds it on its own op and keeps def-use chains whole.
"""

import gc
import random

import pytest

from repro.dialects import accfg, arith, scf
from repro.ir import Block, Region, SourceLoc, i64, parse_module, verify_operation
from repro.ir.parser import tokenize
from repro.passes import TraceStatesPass
from repro.testing.generator import PROFILES, build_spec, generate_spec

#: ops that held lists left 8.73 tracked objects per parsed op and 7.68 per
#: cloned op on this corpus; with tuples, 5.79 and 5.74
MAX_TRACKED_PER_OP = 6.0


def corpus() -> list[str]:
    rng = random.Random("allocation-pin")
    backends = sorted(PROFILES)
    return [
        str(build_spec(generate_spec(rng, backends[i % len(backends)])).module)
        for i in range(60)
    ]


def tracked_objects(build):
    """``build()``'s result and how many tracked objects it left alive."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        built = build()
        after = len(gc.get_objects())
    finally:
        gc.enable()
    return built, after - before


def assert_def_use(root) -> None:
    """Every operand slot is one recorded use, every recorded use is an
    operand slot, and every result knows its op and position."""
    verify_operation(root)
    for op in root.walk():
        for i, result in enumerate(op.results):
            assert result.op is op and result.index == i
            for use in result.uses:
                assert use.operation.operands[use.index] is result
        for region in op.regions:
            assert region.parent is op
            for block in region.blocks:
                for arg in block.args:
                    for use in arg.uses:
                        assert use.operation.operands[use.index] is arg
        for i, operand in enumerate(op.operands):
            slots = [u for u in operand.uses if u.operation is op and u.index == i]
            assert len(slots) == 1


class TestTrackedPerOp:
    @pytest.fixture(scope="class")
    def texts(self):
        texts = corpus()
        for text in texts:  # first parses fill the parser's and dialects' caches
            parse_module(text)
        return texts

    def test_parsed_op(self, texts):
        modules, tracked = tracked_objects(lambda: [parse_module(t) for t in texts])
        ops = sum(len(module.walk_list()) for module in modules)
        assert tracked / ops <= MAX_TRACKED_PER_OP

    def test_cloned_op(self, texts):
        modules = [parse_module(t) for t in texts]
        clones, tracked = tracked_objects(lambda: [m.clone() for m in modules])
        ops = sum(len(module.walk_list()) for module in clones)
        assert tracked / ops <= MAX_TRACKED_PER_OP


class TestUntrackedAtoms:
    def test_tokens_are_exact_untracked_tuples(self):
        tokens = tokenize(corpus()[0])
        gc.collect()
        assert tokens[-1][0] == "EOF"
        assert all(type(token) is tuple for token in tokens)
        assert not any(gc.is_tracked(token) for token in tokens)

    def test_location_is_exact_untracked_text(self):
        module = parse_module(corpus()[0], "pin.mlir")
        for op in module.walk():
            assert type(op.loc) is str and not gc.is_tracked(op.loc)
        assert module.loc == SourceLoc(1, 1, "pin.mlir") == "pin.mlir:1:1"


class TestSharedEmptyFields:
    def test_fieldless_op_holds_the_empty_tuple(self):
        yield_op = scf.YieldOp.create()
        for field in (yield_op.operands, yield_op.results, yield_op.regions):
            assert field == () and type(field) is tuple
        constant = arith.ConstantOp.create(1, i64)
        with pytest.raises(AttributeError):
            yield_op.regions.append(Region())
        with pytest.raises(AttributeError):
            yield_op.results.append(constant.result)
        assert constant.operands == () and constant.regions == ()
        assert constant.result.uses == ()

    def test_growing_one_op_leaves_the_others(self):
        a = arith.ConstantOp.create(1, i64)
        b = arith.ConstantOp.create(2, i64)
        a.add_region(Region([Block()]))
        assert len(a.regions) == 1 and a.regions[0].parent is a
        assert b.regions == ()
        a.set_operands([b.result])
        assert a.operands == (b.result,) and b.operands == ()
        c = arith.ConstantOp.create(3, i64)
        assert c.regions == () and c.operands == ()


class TestGrowingFields:
    def test_add_region(self):
        module = parse_module(
            """
            func.func @f(%c : i1, %x : i64) -> () {
              func.return
            }
            """
        )
        body = next(op for op in module.walk() if op.name == "func.func").regions[0].block
        c, x = body.args
        if_op = scf.IfOp(operands=[c])
        assert if_op.regions == ()
        then_region = Region([Block([arith.AddiOp.create(x, x), scf.YieldOp.create()])])
        if_op.add_region(then_region)
        held = if_op.regions
        if_op.add_region(Region([Block([scf.YieldOp.create()])]))
        assert held == (then_region,) and if_op.regions[0] is then_region
        assert len(if_op.regions) == 2
        assert all(region.parent is if_op for region in if_op.regions)
        body.insert_op_before(body.terminator, if_op)
        assert_def_use(module)

    def test_set_operand_and_set_operands(self):
        module = parse_module(
            """
            func.func @f(%a : i64, %b : i64) -> (i64) {
              %s = arith.addi %a, %b : i64
              %t = arith.muli %s, %a : i64
              func.return %t : i64
            }
            """
        )
        ops = {op.name: op for op in module.walk()}
        add, mul = ops["arith.addi"], ops["arith.muli"]
        a, b = add.operands
        held = mul.operands
        mul.set_operand(1, b)
        assert mul.operands == (add.result, b) and held == (add.result, a)
        assert_def_use(module)
        add.set_operands([b, b])
        assert add.operands == (b, b) and not [u for u in a.uses if u.operation is add]
        assert_def_use(module)
        mul.drop_all_references()
        assert mul.operands == () and not add.result.uses
        mul.set_operands([add.result, add.result])
        assert_def_use(module)

    def test_add_iter_arg(self):
        module = parse_module(
            """
            func.func @f(%x : i64) -> () {
              %lb = arith.constant 0 : index
              %ub = arith.constant 4 : index
              %st = arith.constant 1 : index
              scf.for %i = %lb to %ub step %st {
                scf.yield
              }
              func.return
            }
            """
        )
        loop = next(op for op in module.walk() if isinstance(op, scf.ForOp))
        x = loop.parent.args[0]
        assert loop.results == ()
        arg, result = loop.add_iter_arg(x, name_hint="acc")
        loop.yield_op.set_operands([arg])
        arg2, result2 = loop.add_iter_arg(x, yielded=x)
        assert loop.results == (result, result2)
        assert loop.iter_args == (arg, arg2) and loop.iter_inits == (x, x)
        assert type(loop.results) is tuple
        assert_def_use(module)

    def test_state_tracing_through_if(self):
        module = parse_module(
            """
            func.func @f(%c : i1, %x : i64) -> () {
              %s0 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              scf.if %c {
                %s1 = accfg.setup on "toyvec" ("op" = %x : i64) : !accfg.state<"toyvec">
                scf.yield
              }
              %s2 = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">
              func.return
            }
            """
        )
        if_op = next(op for op in module.walk() if isinstance(op, scf.IfOp))
        assert if_op.results == ()
        TraceStatesPass().apply(module)
        (state,) = if_op.results
        assert type(if_op.results) is tuple and len(if_op.regions) == 2
        assert isinstance(state.type, accfg.StateType) and state.index == 0
        post = [op for op in module.walk() if isinstance(op, accfg.SetupOp)][-1]
        assert post.in_state is state
        assert_def_use(module)
