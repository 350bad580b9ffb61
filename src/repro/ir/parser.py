"""Textual IR parser.

Reads the format produced by :mod:`repro.ir.printer` back into IR objects.
Custom op syntax is resolved through the :mod:`repro.ir.registry` tables; any
op printed in the generic ``"dialect.op"(...)`` form parses without dialect
support (unknown names become :class:`UnregisteredOp`).
"""

from __future__ import annotations

import re

from .attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    FunctionType,
    IntegerAttr,
    IntegerType,
    StringAttr,
    SymbolRefAttr,
    TypeAttribute,
    UnitAttr,
    i1,
    i8,
    i16,
    i32,
    i64,
    index,
)
from .block import Block, Region
from .location import SourceLoc
from .operation import Operation, UnregisteredOp
from .printer import IDENTIFIER
from .registry import (
    CUSTOM_PARSERS,
    OP_REGISTRY,
    TYPE_PARSERS,
    load_deferred_dialect,
)
from .ssa import SSAValue


class ParseError(Exception):
    """Raised on malformed IR text, with line/column context."""


#: a token: ``(kind, text, line, column)``, read by position.  An exact
#: tuple of strings and ints, which the garbage collector stops tracking
#: (a named tuple it would keep tracking), and built without a Python call.
Token = tuple[str, str, int, int]


# Blanks are folded into the front of each match, and every position matches
# one alternative (``END`` at the end of the text, ``BAD`` at a character no
# token accepts), so ``finditer`` never searches ahead: one match is one
# token, newline, comment, error or the end, and the scan stays linear.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r]*
    (?:
    (?P<COMMENT>//[^\n]*)
  | (?P<NL>\n)
  | (?P<ARROW>->)
  | (?P<STRING>"(?:[^"\\]|\\.)*")
  | (?P<PERCENT>%[A-Za-z0-9_]+)
  | (?P<AT>@[A-Za-z0-9_.$-]+)
  | (?P<CARET>\^[A-Za-z0-9_]*)
  | (?P<BANGID>![A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)
  | (?P<HASHID>\#[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)
  | (?P<INT>-?\d+)
  | (?P<ID>"""
    + IDENTIFIER
    + r""")
  | (?P<PUNCT>[(){}\[\]<>=,:])
  | (?P<END>\Z)
  | (?P<BAD>.)
    )
    """,
    re.VERBOSE,
)
#: match kinds that are not tokens
_NOT_TOKENS = frozenset(("NL", "COMMENT", "END", "BAD"))


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens, ending with an ``EOF`` token.

    Lines advance only at newline tokens, so a string literal spanning a raw
    newline leaves later tokens on its starting line.
    """
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    pos = 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        pos = match.end()
        if kind not in _NOT_TOKENS:
            column = pos - len(value) - line_start + 1
            append((kind, value, line, column))
        elif kind == "NL":
            line += 1
            line_start = pos
        elif kind == "END":
            break
        elif kind == "BAD":
            column = pos - line_start  # one character, ending at ``pos``
            raise ParseError(f"line {line}:{column}: unexpected character {value!r}")
    append(("EOF", "", line, pos - line_start + 1))
    return tokens


_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", '"': '"', "\\": "\\"}


def _unescape(match: re.Match) -> str:
    """``\\n``, ``\\"`` and ``\\\\``; any other escape stays as written."""
    return _ESCAPES.get(match[1], match[0])


_INTEGER_TYPE_RE = re.compile(r"i(\d+)")
#: the predeclared scalar types by spelling; types compare by value, so
#: handing out one shared instance per spelling is invisible
_SCALAR_TYPES: dict[str, TypeAttribute] = {
    str(t): t for t in (index, i1, i8, i16, i32, i64)
}


class Parser:
    """Recursive-descent parser over the token stream.

    Value names are resolved through a stack of scopes; entering a region
    pushes a scope so names shadow correctly while enclosing definitions
    remain visible (matching MLIR's visibility rules for non-isolated ops).

    A token is a ``(kind, text, line, column)`` tuple: ``token[0]`` is its
    kind and ``token[1]`` its text.
    """

    def __init__(self, text: str, filename: str | None = None) -> None:
        self._tokens = tokenize(text)
        self._pos = 0
        #: the token at the cursor; kept in step with ``_pos``
        self.current: Token = self._tokens[0]
        self._scopes: list[dict[str, SSAValue]] = [{}]
        self._filename = filename

    # -- token access --------------------------------------------------------

    def advance(self) -> Token:
        token = self.current
        if token[0] != "EOF":
            self._pos += 1
            self.current = self._tokens[self._pos]
        return token

    def error(self, message: str, token: Token | None = None) -> ParseError:
        """A :class:`ParseError` located at ``token`` (default: the cursor)."""
        _, text, line, column = self.current if token is None else token
        return ParseError(f"line {line}:{column}: {message} (found {text!r})")

    # ``accept`` and ``expect`` advance inline: a matched text is never the
    # empty text of ``EOF``, so a next token always exists.

    def accept(self, text: str) -> bool:
        if self.current[1] != text:
            return False
        self._pos += 1
        self.current = self._tokens[self._pos]
        return True

    def expect(self, text: str) -> Token:
        token = self.current
        if token[1] != text:
            raise self.error(f"expected {text!r}")
        self._pos += 1
        self.current = self._tokens[self._pos]
        return token

    def expect_kind(self, kind: str) -> Token:
        if self.current[0] != kind:
            raise self.error(f"expected {kind}")
        return self.advance()

    # -- scopes ------------------------------------------------------------

    def push_scope(self) -> None:
        self._scopes.append({})

    def pop_scope(self) -> None:
        self._scopes.pop()

    def define_value(self, name: str, value: SSAValue) -> None:
        value.name_hint = name
        self._scopes[-1][name] = value

    def lookup_value(self, name: str, token: Token | None = None) -> SSAValue:
        """The value ``name`` is bound to; an error at ``token`` if none."""
        for scope in reversed(self._scopes):
            value = scope.get(name)
            if value is not None:
                return value
        raise self.error(f"use of undefined value %{name}", token)

    # -- common fragments --------------------------------------------------

    def parse_string(self) -> str:
        body = self.expect_kind("STRING")[1][1:-1]
        if "\\" in body:
            body = _ESCAPE_RE.sub(_unescape, body)
        return body

    def parse_int(self) -> int:
        return int(self.expect_kind("INT")[1])

    def parse_value_use(self) -> SSAValue:
        token = self.expect_kind("PERCENT")
        return self.lookup_value(token[1][1:], token)

    def parse_value_use_list(self, terminator: str) -> list[SSAValue]:
        values: list[SSAValue] = []
        if self.current[1] == terminator:
            return values
        values.append(self.parse_value_use())
        while self.accept(","):
            values.append(self.parse_value_use())
        return values

    # -- types -------------------------------------------------------------

    def parse_type(self) -> TypeAttribute:
        kind, text, _, _ = self.current
        if kind == "ID":
            type_attr = _SCALAR_TYPES.get(text)
            if type_attr is None:
                match = _INTEGER_TYPE_RE.fullmatch(text)
                if match is None:
                    raise self.error(f"unknown type '{text}'")
                type_attr = IntegerType(int(match.group(1)))
            self.advance()
            return type_attr
        if kind == "BANGID":
            dialect = text[1:].split(".", 1)[0]
            parser_fn = TYPE_PARSERS.get(dialect)
            if parser_fn is None:
                raise self.error(f"no type parser for dialect '{dialect}'")
            return parser_fn(self)
        if text == "(":
            return self.parse_function_type()
        raise self.error("expected a type")

    def parse_function_type(self) -> FunctionType:
        self.expect("(")
        inputs: list[TypeAttribute] = []
        if not self.accept(")"):
            inputs.append(self.parse_type())
            while self.accept(","):
                inputs.append(self.parse_type())
            self.expect(")")
        self.expect("->")
        results: list[TypeAttribute] = []
        if self.accept("("):
            if not self.accept(")"):
                results.append(self.parse_type())
                while self.accept(","):
                    results.append(self.parse_type())
                self.expect(")")
        else:
            results.append(self.parse_type())
        return FunctionType(tuple(inputs), tuple(results))

    def parse_type_list(self) -> list[TypeAttribute]:
        """Parse ``t`` or ``(t, t, ...)``."""
        types: list[TypeAttribute] = []
        if self.accept("("):
            if not self.accept(")"):
                types.append(self.parse_type())
                while self.accept(","):
                    types.append(self.parse_type())
                self.expect(")")
        else:
            types.append(self.parse_type())
        return types

    # -- attributes ------------------------------------------------------

    def parse_attribute(self) -> Attribute:
        kind, text, _, _ = self.current
        if kind == "STRING":
            return StringAttr(self.parse_string())
        if kind == "INT":
            value = self.parse_int()
            if self.accept(":"):
                return IntegerAttr(value, self.parse_type())
            return IntegerAttr(value)
        if kind == "AT":
            self.advance()
            return SymbolRefAttr(text[1:])
        if text == "true":
            self.advance()
            return BoolAttr(True)
        if text == "false":
            self.advance()
            return BoolAttr(False)
        if text == "unit":
            self.advance()
            return UnitAttr()
        if text == "[":
            self.advance()
            elements: list[Attribute] = []
            if not self.accept("]"):
                elements.append(self.parse_attribute())
                while self.accept(","):
                    elements.append(self.parse_attribute())
                self.expect("]")
            return ArrayAttr(tuple(elements))
        if kind == "HASHID":
            from .registry import ATTR_PARSERS

            dialect = text[1:].split(".", 1)[0]
            parser_fn = ATTR_PARSERS.get(dialect)
            if parser_fn is None:
                raise self.error(f"no attribute parser for dialect '{dialect}'")
            return parser_fn(self)
        if kind in ("ID", "BANGID") or text == "(":
            return self.parse_type()
        raise self.error("expected an attribute")

    def parse_attr_dict(self) -> dict[str, Attribute]:
        attrs: dict[str, Attribute] = {}
        if not self.accept("{"):
            return attrs
        if self.accept("}"):
            return attrs
        while True:
            key_kind = self.current[0]
            if key_kind not in ("ID", "STRING"):
                raise self.error("expected attribute name")
            key = self.parse_string() if key_kind == "STRING" else self.advance()[1]
            if self.accept("="):
                attrs[key] = self.parse_attribute()
            else:
                attrs[key] = UnitAttr()
            if not self.accept(","):
                break
        self.expect("}")
        return attrs

    # -- operations ------------------------------------------------------

    def parse_module(self) -> Operation:
        """Parse a whole input: a ``builtin.module`` or a bare op list."""
        from ..dialects.builtin import ModuleOp

        if self.current[1] == "builtin.module":
            op = self.parse_operation()
            if self.current[0] != "EOF":
                raise self.error("unexpected trailing input")
            if not isinstance(op, ModuleOp):
                raise self.error("expected builtin.module at top level")
            return op
        block = Block()
        while self.current[0] != "EOF":
            block.add_op(self.parse_operation())
        module = ModuleOp.create()
        for op in list(block.ops):
            block.detach_op(op)
            module.body_block.add_op(op)
        return module

    def parse_operation(self) -> Operation:
        start = self.current
        result_names: list[str] = []
        if start[0] == "PERCENT":
            result_names.append(self.advance()[1][1:])
            while self.accept(","):
                result_names.append(self.expect_kind("PERCENT")[1][1:])
            self.expect("=")
        op = self._parse_op_body()
        # Nested ops got their own locations during the recursive parse;
        # only the op this call produced is still unlocated.
        if op.loc is None:
            op.loc = SourceLoc(start[2], start[3], self._filename)
        if result_names:
            if len(result_names) != len(op.results):
                raise self.error(
                    f"op '{op.name}' produces {len(op.results)} results, "
                    f"but {len(result_names)} names given",
                    start,
                )
            for name, result in zip(result_names, op.results):
                self.define_value(name, result)
        return op

    def _parse_op_body(self) -> Operation:
        kind, text, _, _ = self.current
        if kind == "STRING":
            return self._parse_generic_op()
        if kind == "ID":
            custom = CUSTOM_PARSERS.get(text)
            if custom is None:
                load_deferred_dialect(text)
                custom = CUSTOM_PARSERS.get(text)
            if custom is not None:
                self.advance()
                op = custom(self)
                # Optional trailing attribute dictionary for annotations the
                # custom syntax does not carry (e.g. accfg.effects).  A bare
                # '{' can never start the next operation, so this is
                # unambiguous.
                if self.current[1] == "{" and op.name != "builtin.module":
                    op.attributes.update(self.parse_attr_dict())
                return op
            raise self.error(f"unknown operation '{text}'")
        raise self.error("expected an operation")

    def _parse_generic_op(self) -> Operation:
        name = self.parse_string()
        self.expect("(")
        operands = self.parse_value_use_list(")")
        self.expect(")")
        attrs = self.parse_attr_dict()
        self.expect(":")
        func_type = self.parse_function_type()
        if len(func_type.inputs) != len(operands):
            raise self.error(
                f"op '{name}': {len(operands)} operands but "
                f"{len(func_type.inputs)} operand types"
            )
        regions: list[Region] = []
        while self.current[1] == "{":
            regions.append(self.parse_region())
        op_class = OP_REGISTRY.get(name)
        if op_class is None:
            load_deferred_dialect(name)
            op_class = OP_REGISTRY.get(name)
        if op_class is None:
            return UnregisteredOp(
                name,
                operands=operands,
                result_types=func_type.results,
                attributes=attrs,
                regions=regions,
            )
        op = object.__new__(op_class)
        Operation.__init__(
            op, operands=operands, result_types=func_type.results, attributes=attrs
        )
        for region in regions:
            op.add_region(region)
        return op

    def parse_region(
        self, entry_args: list[tuple[str, TypeAttribute]] | None = None
    ) -> Region:
        """Parse ``{ ... }``.

        ``entry_args`` pre-declares entry block arguments whose names come
        from the op's custom syntax (e.g. the induction variable of
        ``scf.for``); otherwise an optional ``^bb(...):`` header is parsed.
        """
        self.expect("{")
        self.push_scope()
        block = Block()
        if entry_args:
            for arg_name, arg_type in entry_args:
                arg = block.add_arg(arg_type, arg_name)
                self.define_value(arg_name, arg)
        elif self.current[0] == "CARET":
            self.advance()
            self.expect("(")
            if not self.accept(")"):
                while True:
                    arg_token = self.expect_kind("PERCENT")
                    self.expect(":")
                    arg_type = self.parse_type()
                    arg_name = arg_token[1][1:]
                    arg = block.add_arg(arg_type, arg_name)
                    self.define_value(arg_name, arg)
                    if not self.accept(","):
                        break
                self.expect(")")
            self.expect(":")
        while self.current[1] != "}":
            block.add_op(self.parse_operation())
        self.expect("}")
        self.pop_scope()
        return Region([block])


def parse_module(text: str, filename: str | None = None) -> Operation:
    """Parse IR text into a ``builtin.module`` op."""
    # Importing the dialects registers ops, custom parsers, and type parsers.
    from .. import dialects  # noqa: F401

    return Parser(text, filename).parse_module()


def parse_operation(text: str, filename: str | None = None) -> Operation:
    """Parse a single operation from text (dialects must self-register)."""
    from .. import dialects  # noqa: F401

    parser = Parser(text, filename)
    op = parser.parse_operation()
    if parser.current[0] != "EOF":
        raise parser.error("unexpected trailing input")
    return op
