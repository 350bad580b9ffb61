"""Every ``ParseError`` the parser and the dialect parsers raise, pinned.

One row per raise site (and per dialect parser), with the exact message,
line and column.  Rows point at the token the parser stopped on; the two
marked rows point at the offending token itself: an undefined value at its
use, and a result-count mismatch at the op's first result name.
"""

import re

import pytest

from repro.ir import ParseError, parse_module, parse_operation


def body(*lines: str) -> str:
    """``lines`` as the body of ``@main(%x : i64)``; the first is line 2."""
    inner = "\n".join("  " + line for line in lines)
    return f"func.func @main(%x : i64) -> (i64) {{\n{inner}\n}}\n"


SETUP = '%s = accfg.setup on "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">'

#: (id, source, line, column, message after "line L:C: ")
MODULE_ERRORS = [
    # -- tokenizer
    (
        "unexpected-character",
        body("%y = arith.addi %x, %x : i64 €", "func.return %y : i64"),
        2, 32, "unexpected character '€'",
    ),
    (
        "unexpected-character-after-string",
        'func.func @f() -> () {\n  "test.op"() {s = "a"b"} : () -> ()\n}\n',
        2, 24, "unexpected character '\"'",
    ),
    (
        # Lines advance only at newline tokens, not inside a string literal.
        "unexpected-character-after-multiline-string",
        'func.func @f() -> () {\n  "test.op"() {s = "a\nb"} : () -> () €\n}\n',
        2, 38, "unexpected character '€'",
    ),
    # -- recursive descent
    (
        # At the use of the undefined value, not the token after it.
        "undefined-value",
        body("%y = arith.addi %x, %zz : i64", "func.return %y : i64"),
        2, 23, "use of undefined value %zz (found '%zz')",
    ),
    (
        # At the op's first result name, not the next op.
        "result-count",
        body("%a, %b = arith.addi %x, %x : i64", "func.return %a : i64"),
        2, 3,
        "op 'arith.addi' produces 1 results, but 2 names given (found '%a')",
    ),
    (
        "unknown-operation",
        body("%y = frobnicate %x", "func.return %y : i64"),
        2, 8, "unknown operation 'frobnicate' (found 'frobnicate')",
    ),
    (
        "expected-operation",
        body("%y = 3", "func.return %y : i64"),
        2, 8, "expected an operation (found '3')",
    ),
    (
        "expected-text",
        body("%y = arith.addi %x %x : i64", "func.return %y : i64"),
        2, 22, "expected ',' (found '%x')",
    ),
    (
        "expected-kind",
        body("%y = arith.addi %x, 4 : i64", "func.return %y : i64"),
        2, 23, "expected PERCENT (found '4')",
    ),
    (
        "unclosed-region",
        "func.func @main(%x : i64) -> (i64) {\n  func.return %x : i64\n",
        3, 1, "expected an operation (found '')",
    ),
    (
        "unknown-type",
        body("%y = arith.addi %x, %x : floof", "func.return %y : i64"),
        2, 28, "unknown type 'floof' (found 'floof')",
    ),
    (
        "no-type-parser",
        body('"test.op"(%x) : (!foo.bar) -> ()', "func.return %x : i64"),
        2, 20, "no type parser for dialect 'foo' (found '!foo.bar')",
    ),
    (
        "expected-type",
        body('"test.op"(%x) : (3) -> ()', "func.return %x : i64"),
        2, 20, "expected a type (found '3')",
    ),
    (
        "no-attribute-parser",
        body('"test.op"() {a = #foo.bar} : () -> ()', "func.return %x : i64"),
        2, 20, "no attribute parser for dialect 'foo' (found '#foo.bar')",
    ),
    (
        "expected-attribute",
        body('"test.op"() {a = }: () -> ()', "func.return %x : i64"),
        2, 20, "expected an attribute (found '}')",
    ),
    (
        "expected-attribute-name",
        body('"test.op"() {7 = 1} : () -> ()', "func.return %x : i64"),
        2, 16, "expected attribute name (found '7')",
    ),
    (
        "operand-type-count",
        body('"test.op"(%x) : (i64, i64) -> ()', "func.return %x : i64"),
        3, 3,
        "op 'test.op': 1 operands but 2 operand types (found 'func.return')",
    ),
    (
        "region-header",
        'func.func @f() -> () {\n  "test.op"() : () -> () {\n  ^bb(3 : i64):\n'
        "  }\n  func.return\n}\n",
        3, 7, "expected PERCENT (found '3')",
    ),
    (
        "module-trailing-input",
        "builtin.module {\n}\nfunc.return\n",
        3, 1, "unexpected trailing input (found 'func.return')",
    ),
    # -- dialect parsers
    (
        "arith-constant",
        body("%c = arith.constant x : i64", "func.return %c : i64"),
        2, 23, "expected INT (found 'x')",
    ),
    (
        "arith-cmpi-predicate",
        body("%c = arith.cmpi 3, %x, %x : i64", "func.return %x : i64"),
        2, 19, "expected ID (found '3')",
    ),
    (
        "arith-select",
        body("%c = arith.select %x %x, %x : i64", "func.return %x : i64"),
        2, 24, "expected ',' (found '%x')",
    ),
    (
        "func-signature",
        "func.func @main(%x : i64) (i64) {\n  func.return %x : i64\n}\n",
        1, 27, "expected '->' (found '(')",
    ),
    (
        "func-name",
        "func.func main(%x : i64) -> (i64) {\n  func.return %x : i64\n}\n",
        1, 11, "expected AT (found 'main')",
    ),
    (
        "func-call",
        body("%y = func.call @g(%x) -> i64", "func.return %y : i64"),
        2, 25, "expected ':' (found '->')",
    ),
    (
        "func-return",
        body("func.return %x i64"),
        2, 18, "expected ':' (found 'i64')",
    ),
    (
        "scf-for",
        body(
            "%c = arith.constant 1 : i64",
            "scf.for %i = %c until %c step %c {",
            "  scf.yield",
            "}",
            "func.return %x : i64",
        ),
        3, 19, "expected 'to' (found 'until')",
    ),
    (
        "scf-for-iter-args",
        body(
            "%c = arith.constant 1 : i64",
            "%r = scf.for %i = %c to %c step %c iter_args(%a = %x) {",
            "  scf.yield %a : i64",
            "}",
            "func.return %r : i64",
        ),
        3, 57, "expected '->' (found '{')",
    ),
    (
        "scf-if",
        body(
            "%c = arith.constant 1 : i1",
            "scf.if %c -> {",
            "  scf.yield",
            "}",
            "func.return %x : i64",
        ),
        3, 16, "expected a type (found '{')",
    ),
    (
        "accfg-setup",
        body(
            '%s = accfg.setup "toyvec" ("n" = %x : i64) : !accfg.state<"toyvec">',
            "func.return %x : i64",
        ),
        2, 20, "expected 'on' (found '\"toyvec\"')",
    ),
    (
        "accfg-field",
        body(
            '%s = accfg.setup on "toyvec" (n = %x : i64) : !accfg.state<"toyvec">',
            "func.return %x : i64",
        ),
        2, 33, "expected STRING (found 'n')",
    ),
    (
        "accfg-launch",
        body(
            SETUP,
            '%t = accfg.launch %s !accfg.token<"toyvec">',
            "func.return %x : i64",
        ),
        3, 24, "expected ':' (found '!accfg.token')",
    ),
    (
        "accfg-type",
        body(SETUP.replace("!accfg.state", "!accfg.blah"), "func.return %x : i64"),
        3, 3, "unknown accfg type 'blah' (found 'func.return')",
    ),
    (
        "accfg-type-name",
        body(SETUP.replace('state<"toyvec">', "state<toyvec>"), "func.return %x : i64"),
        2, 64, "expected STRING (found 'toyvec')",
    ),
    (
        "accfg-attribute",
        body(
            "%y = func.call @g(%x) : (i64) -> i64 "
            "{accfg.effects = #accfg.bogus<none>}",
            "func.return %y : i64",
        ),
        2, 69, "unknown accfg attribute '#accfg.bogus' (found '<')",
    ),
    (
        "accfg-await",
        body("accfg.await", "func.return %x : i64"),
        3, 3, "expected PERCENT (found 'func.return')",
    ),
    (
        "accfg-reset",
        body("accfg.reset 3", "func.return %x : i64"),
        2, 15, "expected PERCENT (found '3')",
    ),
    (
        "linalg-matmul",
        body(
            "linalg.matmul ins(%x, %x) outs(%x) dims(4 by 4 x 4)",
            "func.return %x : i64",
        ),
        2, 45, "expected 'x' (found 'by')",
    ),
    (
        "linalg-elementwise",
        body(
            "linalg.elementwise add ins(%x, %x) outs(%x) n(4)",
            "func.return %x : i64",
        ),
        2, 22, "expected STRING (found 'add')",
    ),
    (
        "net-requantize",
        body("net.requantize %x -> %x m(4)", "func.return %x : i64"),
        2, 27, "expected 'n' (found 'm')",
    ),
]


def located(error: ParseError) -> tuple[int, int, str]:
    match = re.fullmatch(r"line (\d+):(\d+): (.*)", str(error), re.S)
    assert match, f"unlocated ParseError: {error}"
    return int(match[1]), int(match[2]), match[3]


@pytest.mark.parametrize(
    "source, line, column, message",
    [row[1:] for row in MODULE_ERRORS],
    ids=[row[0] for row in MODULE_ERRORS],
)
def test_module_parse_error(source, line, column, message):
    with pytest.raises(ParseError) as info:
        parse_module(source)
    assert located(info.value) == (line, column, message)


def test_single_operation_trailing_input():
    with pytest.raises(ParseError) as info:
        parse_operation("func.return\n}")
    assert located(info.value) == (2, 1, "unexpected trailing input (found '}')")
