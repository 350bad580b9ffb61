"""Scalar op semantics against a reference written out in full.

Each arith op declares its value and its charge once, and the trace
compiler, the tree interpreter, ``fold`` and the static cost engine all
read that declaration.  Trace-vs-tree cannot see a mistake the two engines
share, and the fuzzer seldom reaches ``cmpi`` or ``select``, so this file
keeps every rule as plain code that does not import it: the value of each
binary op and ``cmpi`` predicate, the wrap to the result type, and the
record each op charges.

Every case runs one module on both engines and folds the same op over
constants.  The module computes the op three times: one result feeds a
setup field, one a launch field and one only the return, so exactly the
first two must be charged as ``calc``.  The cost engine's prediction must
equal what each engine charged.
"""

import itertools

import pytest

from repro.analysis.cost import compare_with_simulation
from repro.engine import TraceExecutor, compile_module
from repro.interp import Interpreter, InterpreterError
from repro.ir import IntegerAttr, IntegerType, parse_module
from repro.isa import InstrCategory
from repro.sim import CoSimulator

CALC = InstrCategory.CALC
COMPUTE = InstrCategory.COMPUTE

# -- the reference ------------------------------------------------------------


def ref_mask(type_):
    """Wrap-around mask for a result type (None for unbounded ``index``)."""
    if isinstance(type_, IntegerType):
        return (1 << type_.width) - 1
    return None


def ref_truncate(value, type_):
    """Wrap ``value`` to the unsigned range of ``type_``."""
    mask = ref_mask(type_)
    if mask is None:
        return value
    return value & mask


def ref_predicate(predicate, lhs, rhs, width):
    """Evaluate on unsigned representations of the given bit-width."""

    def to_signed(value):
        sign_bit = 1 << (width - 1)
        return (value & (sign_bit - 1)) - (value & sign_bit)

    if predicate in ("slt", "sle", "sgt", "sge"):
        lhs, rhs = to_signed(lhs), to_signed(rhs)
    table = {
        "eq": lhs == rhs,
        "ne": lhs != rhs,
        "slt": lhs < rhs,
        "sle": lhs <= rhs,
        "sgt": lhs > rhs,
        "sge": lhs >= rhs,
        "ult": lhs < rhs,
        "ule": lhs <= rhs,
        "ugt": lhs > rhs,
        "uge": lhs >= rhs,
    }
    return table[predicate]


#: op name -> (its value before wrapping, the mnemonic it charges); a
#: division by zero or a negative shift count raises, as Python does
REF_BINARY = {
    "arith.addi": (lambda a, b: a + b, "addi"),
    "arith.subi": (lambda a, b: a - b, "subi"),
    "arith.muli": (lambda a, b: a * b, "muli"),
    "arith.divui": (lambda a, b: a // b, "divui"),
    "arith.remui": (lambda a, b: a % b, "remui"),
    "arith.andi": (lambda a, b: a & b, "andi"),
    "arith.ori": (lambda a, b: a | b, "ori"),
    "arith.xori": (lambda a, b: a ^ b, "xori"),
    "arith.shli": (lambda a, b: a << b, "shli"),
    "arith.shrui": (lambda a, b: a >> b, "shrui"),
    "arith.minui": (lambda a, b: min(a, b), "minui"),
    "arith.maxui": (lambda a, b: max(a, b), "maxui"),
}
PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")
TYPES = ("i1", "i8", "i32", "i64", "index")


def edge_values(type_text):
    """Values at and past the sign bit of each width; negative indices."""
    if type_text == "index":
        return (0, 1, 7, 2**63 - 1, 2**63, -1, -5, -(2**63))
    width = int(type_text[1:])
    half = 1 << (width - 1)
    candidates = (0, 1, half - 1, half, half + 1, (1 << width) - 1)
    return tuple(sorted({value for value in candidates if value < 1 << width}))


# -- running one case ---------------------------------------------------------

PROGRAM = """
func.func @main(%a : {t}, %b : {t}) -> ({r}, {r}, {r}) {{
  %n = arith.constant 4 : i64
  %fed = {op} %a, %b : {t}
  %launched = {op} %a, %b : {t}
  %free = {op} %a, %b : {t}
  %s = accfg.setup on "toyvec" ("n" = %n : i64, "ptr_x" = %fed : {r}) : !accfg.state<"toyvec">
  %tok = accfg.launch %s ("ptr_y" = %launched : {r}) : !accfg.token<"toyvec">
  accfg.await %tok
  func.return %fed, %launched, %free : {r}, {r}, {r}
}}
"""

FOLDED = """
func.func @main() -> ({r}) {{
  %a = arith.constant {a} : {t}
  %b = arith.constant {b} : {t}
  %v = {op} %a, %b : {t}
  func.return %v : {r}
}}
"""


def run_engines(module, compiled, args):
    """Each engine's (results or error, simulator), on fresh simulators."""
    outcomes = []
    for run in (
        lambda sim: Interpreter(module, sim).run("main", list(args)),
        lambda sim: TraceExecutor(compiled, sim).run("main", list(args)),
    ):
        sim = CoSimulator(functional=False)
        try:
            outcomes.append((run(sim), sim))
        except InterpreterError as error:
            outcomes.append((error, sim))
    return outcomes


def folded(op_text, type_text, result_text, lhs, rhs):
    """``fold`` of the op over two constants."""
    module = parse_module(
        FOLDED.format(op=op_text, t=type_text, r=result_text, a=lhs, b=rhs)
    )
    (fn,) = module.body_block.ops
    return fn.body.ops[2].fold()


def check_case(op_text, type_text, result_text, mnemonic, pairs, reference):
    """Run every pair through both engines and ``fold``; each must give
    ``reference(lhs, rhs)`` (wrapped to the result type) or trap where it
    raises, and charge ``mnemonic`` as calc exactly where it feeds."""
    module = parse_module(
        PROGRAM.format(op=op_text, t=type_text, r=result_text)
    )
    result_type = module.body_block.ops[0].function_type.results[0]
    compiled = compile_module(module)
    for lhs, rhs in pairs:
        try:
            expected = ref_truncate(reference(lhs, rhs), result_type)
        except (ZeroDivisionError, ValueError):
            expected = None
        tree, trace = run_engines(module, compiled, (lhs, rhs))
        fold = folded(op_text, type_text, result_text, lhs, rhs)
        case = f"{op_text} {lhs}, {rhs} : {type_text}"
        if expected is None:
            (tree_error, _), (trace_error, _) = tree, trace
            assert isinstance(tree_error, InterpreterError), case
            assert type(trace_error) is type(tree_error), case
            assert str(trace_error) == str(tree_error), case
            assert fold is None, case
            continue
        assert fold == [IntegerAttr(expected, result_type)], case
        for results, sim in (tree, trace):
            assert results == [expected] * 3, case
            assert all(type(value) is int for value in results), case
            charged = [(i.mnemonic, i.category) for i in sim.trace.instrs[:4]]
            assert charged == [
                ("li", CALC),
                (mnemonic, CALC),
                (mnemonic, CALC),
                (mnemonic, COMPUTE),
            ], case
            assert compare_with_simulation(module, sim, [lhs, rhs]) == [], case


def pairs_of(type_text):
    return tuple(itertools.product(edge_values(type_text), repeat=2))


# -- the cases ----------------------------------------------------------------


@pytest.mark.parametrize("type_text", TYPES)
@pytest.mark.parametrize("op_text", sorted(REF_BINARY))
def test_binary_ops_match_the_reference(op_text, type_text):
    reference, mnemonic = REF_BINARY[op_text]
    pairs = pairs_of(type_text)
    if op_text == "arith.shli":
        # Counts past the width are held by the shift-count tests
        # (tests/interp/test_runtime_errors.py): the reference would build
        # the wide value, and an index count of 64 or more traps.
        width = 64 if type_text == "index" else int(type_text[1:])
        pairs = tuple((a, b) for a, b in pairs if b < width)
    check_case(op_text, type_text, type_text, mnemonic, pairs, reference)


@pytest.mark.parametrize("type_text", TYPES)
@pytest.mark.parametrize("predicate", PREDICATES)
def test_cmpi_predicates_match_the_reference(predicate, type_text):
    width = 64 if type_text == "index" else int(type_text[1:])
    check_case(
        f"arith.cmpi {predicate},",
        type_text,
        "i1",
        "cmp",
        pairs_of(type_text),
        lambda a, b: int(ref_predicate(predicate, a, b, width)),
    )


SELECT_INTS = """
func.func @main(%c : i1, %a : i64, %b : i64) -> (i64, i64) {
  %fed = arith.select %c, %a, %b : i64
  %free = arith.select %c, %a, %b : i64
  %s = accfg.setup on "toyvec" ("n" = %fed : i64) : !accfg.state<"toyvec">
  func.return %fed, %free : i64, i64
}
"""

SELECT_STATES = """
func.func @main(%c : i1) -> (!accfg.state<"toyvec">) {
  %n1 = arith.constant 1 : i64
  %n2 = arith.constant 2 : i64
  %s1 = accfg.setup on "toyvec" ("n" = %n1 : i64) : !accfg.state<"toyvec">
  %s2 = accfg.setup on "toyvec" ("n" = %n2 : i64) : !accfg.state<"toyvec">
  %s = arith.select %c, %s1, %s2 : !accfg.state<"toyvec">
  %t = accfg.launch %s : !accfg.token<"toyvec">
  accfg.await %t
  func.return %s : !accfg.state<"toyvec">
}
"""


@pytest.mark.parametrize("cond", [0, 1])
def test_select_over_ints_matches_the_reference(cond):
    module = parse_module(SELECT_INTS)
    compiled = compile_module(module)
    for a, b in ((3, 9), (2**63, 2**64 - 1)):
        expected = a if cond else b
        for results, sim in run_engines(module, compiled, (cond, a, b)):
            assert results == [expected, expected]
            charged = [(i.mnemonic, i.category) for i in sim.trace.instrs[:2]]
            assert charged == [("select", CALC), ("select", COMPUTE)]
            assert compare_with_simulation(module, sim, [cond, a, b]) == []


@pytest.mark.parametrize("cond", [0, 1])
def test_select_over_states_matches_the_reference(cond):
    module = parse_module(SELECT_STATES)
    compiled = compile_module(module)
    for results, sim in run_engines(module, compiled, (cond,)):
        # the first setup makes state version 1, the second version 2
        assert [state.version for state in results] == [1 if cond else 2]
        charged = [
            (i.mnemonic, i.category)
            for i in sim.trace.instrs
            if i.category in (CALC, COMPUTE)
        ]
        assert charged == [("li", CALC), ("li", CALC), ("select", COMPUTE)]
        assert compare_with_simulation(module, sim, [cond]) == []


def test_every_scalar_op_is_covered():
    from repro.dialects import arith
    from repro.ir import OP_REGISTRY

    scalar = {
        name
        for name, cls in OP_REGISTRY.items()
        if issubclass(cls, arith.ScalarOp)
    }
    assert scalar == set(REF_BINARY) | {
        "arith.constant",
        "arith.cmpi",
        "arith.select",
    }
    assert set(arith.CMP_PREDICATES) == set(PREDICATES)


def test_compiled_value_functions_pickle():
    """The disk tier stores compiled traces, value functions included."""
    import pickle

    module = parse_module(
        """
        func.func @main(%a : i8, %b : index) -> (i1, i1, i8, index, i8) {
          %c = arith.constant 100 : i8
          %lt = arith.cmpi slt, %a, %c : i8
          %ult = arith.cmpi ult, %a, %c : i8
          %wide = arith.shli %a, %a : i8
          %shifted = arith.shli %b, %b : index
          %sum = arith.addi %a, %a : i8
          func.return %lt, %ult, %wide, %shifted, %sum : i1, i1, i8, index, i8
        }
        """
    )
    compiled = compile_module(module)
    loaded = pickle.loads(pickle.dumps(compiled))
    for a, b in ((3, 2), (200, 5)):
        expected = [
            int(ref_predicate("slt", a, 100, 8)),
            int(ref_predicate("ult", a, 100, 8)),
            ref_truncate(a << a, IntegerType(8)) if a < 8 else 0,
            b << b,
            ref_truncate(a + a, IntegerType(8)),
        ]
        for trace in (compiled, loaded):
            sim = CoSimulator(functional=False)
            assert TraceExecutor(trace, sim).run("main", [a, b]) == expected
