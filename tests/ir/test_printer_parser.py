"""Round-trip and error tests for the textual printer/parser pair."""

import pytest

from repro.ir import ParseError, parse_module, parse_operation, verify_operation
from repro.ir.parser import tokenize


def roundtrip(text: str) -> str:
    module = parse_module(text)
    verify_operation(module)
    printed = str(module)
    module2 = parse_module(printed)
    verify_operation(module2)
    assert str(module2) == printed, "second round-trip diverged"
    return printed


class TestTokenizer:
    def test_basic_tokens(self):
        kinds = [t[0] for t in tokenize('%x = "foo.bar"() : () -> ()')]
        assert kinds[:3] == ["PERCENT", "PUNCT", "STRING"]

    def test_comments_skipped(self):
        tokens = tokenize("// a comment\n%x")
        assert [t[0] for t in tokens] == ["PERCENT", "EOF"]

    def test_line_numbers(self):
        tokens = tokenize("\n\n%x")
        assert tokens[0][2] == 3

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize("€")

    def test_arrow_token(self):
        assert tokenize("->")[0][0] == "ARROW"


class TestRoundTrips:
    def test_constants_and_arith(self):
        roundtrip(
            """
            builtin.module {
              func.func @f(%a : i64) -> (i64) {
                %c = arith.constant 3 : i64
                %s = arith.shli %a, %c : i64
                %o = arith.ori %s, %c : i64
                %m = arith.muli %o, %o : i64
                func.return %m : i64
              }
            }
            """
        )

    def test_cmp_select(self):
        roundtrip(
            """
            builtin.module {
              func.func @f(%a : i64, %b : i64) -> (i64) {
                %c = arith.cmpi slt, %a, %b : i64
                %r = arith.select %c, %a, %b : i64
                func.return %r : i64
              }
            }
            """
        )

    def test_nested_loops_with_iter_args(self):
        roundtrip(
            """
            builtin.module {
              func.func @f() -> (index) {
                %c0 = arith.constant 0 : index
                %c1 = arith.constant 1 : index
                %c4 = arith.constant 4 : index
                %sum = scf.for %i = %c0 to %c4 step %c1 iter_args(%acc = %c0) -> (index) {
                  %inner = scf.for %j = %c0 to %c4 step %c1 iter_args(%acc2 = %acc) -> (index) {
                    %n = arith.addi %acc2, %j : index
                    scf.yield %n : index
                  }
                  scf.yield %inner : index
                }
                func.return %sum : index
              }
            }
            """
        )

    def test_if_else_with_results(self):
        roundtrip(
            """
            builtin.module {
              func.func @f(%cond : i1, %a : i64, %b : i64) -> (i64) {
                %r = scf.if %cond -> (i64) {
                  scf.yield %a : i64
                } else {
                  scf.yield %b : i64
                }
                func.return %r : i64
              }
            }
            """
        )

    def test_if_without_else(self):
        printed = roundtrip(
            """
            builtin.module {
              func.func @f(%cond : i1) -> () {
                scf.if %cond {
                  %c = arith.constant 1 : i64
                  scf.yield
                }
                func.return
              }
            }
            """
        )
        assert "else" not in printed

    def test_accfg_cluster(self):
        printed = roundtrip(
            """
            builtin.module {
              func.func @f(%v : i64) -> () {
                %s = accfg.setup on "toyvec" ("n" = %v : i64) : !accfg.state<"toyvec">
                %s2 = accfg.setup on "toyvec" from %s ("op" = %v : i64) : !accfg.state<"toyvec">
                %t = accfg.launch %s2 : !accfg.token<"toyvec">
                accfg.await %t
                accfg.reset %s2
                func.return
              }
            }
            """
        )
        assert 'accfg.setup on "toyvec" from' in printed

    def test_launch_with_fields(self):
        roundtrip(
            """
            builtin.module {
              func.func @f(%v : i64) -> () {
                %s = accfg.setup on "gemmini" () : !accfg.state<"gemmini">
                %t = accfg.launch %s ("op" = %v : i64) : !accfg.token<"gemmini">
                func.return
              }
            }
            """
        )

    def test_generic_unregistered_op(self):
        printed = roundtrip(
            """
            builtin.module {
              func.func @f(%a : i64) -> () {
                "foreign.barrier"(%a) {tag = 7 : i64} : (i64) -> ()
                func.return
              }
            }
            """
        )
        assert '"foreign.barrier"' in printed

    def test_function_call_and_declaration(self):
        roundtrip(
            """
            builtin.module {
              func.func @helper(i64) -> (i64)
              func.func @main(%a : i64) -> (i64) {
                %r = func.call @helper(%a) : (i64) -> (i64)
                func.return %r : i64
              }
            }
            """
        )

    def test_optimized_evaluation_workload(self):
        from repro.passes import pipeline_by_name
        from repro.workloads import build_opengemm_matmul

        workload = build_opengemm_matmul(64)
        pipeline_by_name("full").run(workload.module)
        text = str(workload.module)
        assert str(parse_module(text)) == text

    def test_bare_ops_without_module_wrapper(self):
        module = parse_module("func.func @f() -> () { func.return }")
        assert module.name == "builtin.module"

    def test_name_hints_preserved(self):
        printed = roundtrip(
            """
            builtin.module {
              func.func @f() -> () {
                %my_value = arith.constant 1 : i64
                func.return
              }
            }
            """
        )
        assert "%my_value" in printed

    @pytest.mark.parametrize(
        "source, key, value",
        [
            ('"test.op"() {s = "a\\"b"} : () -> ()', "s", 'a"b'),
            ('"test.op"() {s = "a\\\\nb"} : () -> ()', "s", "a\\nb"),
            ('"test.op"() {s = "a\\nb"} : () -> ()', "s", "a\nb"),
            ('"test.op"() {"a b" = 1 : i64} : () -> ()', "a b", 1),
        ],
    )
    def test_escaped_strings_and_quoted_keys(self, source, key, value):
        printed = roundtrip(source)
        (op,) = parse_module(printed).body_block.ops
        assert op.attributes[key].value == value

    def test_identifier_keys_print_bare_and_other_keys_quoted(self):
        printed = roundtrip(
            '"test.op"() {"a.b$c" = 1 : i64, "a-b" = 2 : i64, "1x"} : () -> ()'
        )
        assert "{a.b$c = 1 : i64, \"a-b\" = 2 : i64, \"1x\"}" in printed

    def test_scalar_types_are_shared_and_compare_by_value(self):
        from repro.ir import IntegerType, i64, structural_key

        text = 'func.func @f(%a : i64, %b : i64) -> () {\n  func.return\n}'
        one, two = parse_module(text), parse_module(text)
        a, b = one.body_block.ops[0].regions[0].block.args
        assert a.type is b.type is two.body_block.ops[0].regions[0].block.args[0].type
        assert a.type == IntegerType(64) == i64
        assert structural_key(one) == structural_key(two)
        odd = parse_module('func.func @g(%a : i7) -> () {\n  func.return\n}')
        assert odd.body_block.ops[0].regions[0].block.args[0].type == IntegerType(7)


class TestParseErrors:
    def test_undefined_value(self):
        with pytest.raises(ParseError, match="undefined value"):
            parse_module("func.func @f() -> () { %x = arith.addi %y, %y : i64 \n func.return }")

    def test_unknown_op(self):
        with pytest.raises(ParseError, match="unknown operation"):
            parse_module("func.func @f() -> () { frobnicate %x \n func.return }")

    def test_result_count_mismatch(self):
        with pytest.raises(ParseError, match="results"):
            parse_operation('%a, %b = "test.op"() : () -> (i64)')

    def test_operand_type_count_mismatch(self):
        with pytest.raises(ParseError, match="operand"):
            parse_module(
                """
                func.func @f(%a : i64) -> () {
                  "test.op"(%a) : (i64, i64) -> ()
                  func.return
                }
                """
            )

    def test_unknown_type(self):
        with pytest.raises(ParseError, match="unknown type"):
            parse_module("func.func @f(%a : floof) -> () { func.return }")

    def test_unknown_accfg_type_kind(self):
        with pytest.raises(ParseError, match="unknown accfg type"):
            parse_module('func.func @f(%a : !accfg.blah<"x">) -> () { func.return }')

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_operation("func.return }")


class TestValueNaming:
    def test_colliding_hints_get_suffixes(self):
        from repro.dialects import arith as _arith
        from repro.ir import Printer, i64

        a = _arith.ConstantOp.create(1, i64)
        b = _arith.ConstantOp.create(2, i64)
        a.result.name_hint = "x"
        b.result.name_hint = "x"
        printer = Printer()
        name_a = printer.assign_name(a.result)
        name_b = printer.assign_name(b.result)
        assert name_a == "x"
        assert name_b == "x_1"

    def test_invalid_hint_falls_back_to_number(self):
        from repro.dialects import arith as _arith
        from repro.ir import Printer, i64

        a = _arith.ConstantOp.create(1, i64)
        a.result.name_hint = "not a valid name!"
        assert Printer().assign_name(a.result) == "0"
