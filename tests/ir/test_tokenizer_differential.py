"""The tokenizer against a reference scanner.

``tokenize`` scans with one ``finditer`` pass and folds blanks into the
token pattern.  The reference below is the plain form of the same grammar:
blanks as their own token, one ``match`` call per token.  Both must return
the same ``(kind, text, line, column)`` list, or raise a ``ParseError`` with
the same message, on printed generated programs, on every example module,
and on single-character insertions and deletions of them.
"""

import contextlib
import functools
import io
import random
import re
import sys
import time
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir import ParseError
from repro.ir.parser import tokenize
from repro.testing.generator import build, programs

EXAMPLES = Path(__file__).resolve().parent.parent.parent / "examples"

REFERENCE_RE = re.compile(
    r"""
    (?P<WS>[ \t\r]+)
  | (?P<COMMENT>//[^\n]*)
  | (?P<NL>\n)
  | (?P<ARROW>->)
  | (?P<STRING>"(?:[^"\\]|\\.)*")
  | (?P<PERCENT>%[A-Za-z0-9_]+)
  | (?P<AT>@[A-Za-z0-9_.$-]+)
  | (?P<CARET>\^[A-Za-z0-9_]*)
  | (?P<BANGID>![A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)
  | (?P<HASHID>\#[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)
  | (?P<INT>-?\d+)
  | (?P<ID>[A-Za-z_][A-Za-z0-9_.$]*)
  | (?P<PUNCT>[(){}\[\]<>=,:])
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        match = REFERENCE_RE.match(text, pos)
        if match is None:
            column = pos - line_start + 1
            raise ParseError(f"line {line}:{column}: unexpected character {text[pos]!r}")
        kind = match.lastgroup or ""
        value = match.group()
        if kind == "NL":
            line += 1
            line_start = match.end()
        elif kind not in ("WS", "COMMENT"):
            tokens.append((kind, value, line, pos - line_start + 1))
        pos = match.end()
    tokens.append(("EOF", "", line, pos - line_start + 1))
    return tokens


def outcome(scan, text: str):
    try:
        return [(t[0], t[1], t[2], t[3]) for t in scan(text)]
    except ParseError as error:
        return f"ParseError: {error}"


def assert_same(text: str) -> None:
    assert outcome(tokenize, text) == outcome(reference_tokenize, text), repr(text)


@functools.lru_cache(maxsize=None)
def example_texts() -> tuple[str, ...]:
    """Every shipped example's IR, printed (or as the example writes it)."""
    from repro.passes import ConvertLinalgToAccfgPass
    from repro.workloads import build_opengemm_matmul
    from repro.workloads.network import build_mlp

    sys.path.insert(0, str(EXAMPLES))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            quickstart = __import__("quickstart")
            linalg_pipeline = __import__("linalg_pipeline")
            multi = __import__("multi_accelerator")
            custom = __import__("custom_accelerator")
            opengemm = __import__("opengemm_tiled_matmul")
    finally:
        sys.path.remove(str(EXAMPLES))
    mlp = build_mlp([32, 64, 64, 32, 8], batch=16, seed=11)
    ConvertLinalgToAccfgPass().apply(mlp.module)
    return (
        quickstart.PROGRAM,
        linalg_pipeline.SOURCE,
        str(multi.module),
        str(custom.module),
        str(opengemm.workload.module),
        str(mlp.module),
        str(build_opengemm_matmul(16).module),
    )


#: characters spliced into the examples: token starts, blanks, quotes and
#: escapes, and characters no token accepts (non-ASCII, controls)
SPLICED = '\n \t\r"\\/%@^!#-0xa_.$>(){}[]<>=,:;?`~é€ \x00\U0001f600'


def test_examples_tokenize_identically():
    for text in example_texts():
        assert_same(text)


def test_single_character_edits_of_examples():
    rng = random.Random(0)
    for text in example_texts():
        for _ in range(50):
            at = rng.randrange(len(text) + 1)
            assert_same(text[:at] + rng.choice(SPLICED) + text[at:])
            if text:
                at = rng.randrange(len(text))
                assert_same(text[:at] + text[at + 1 :])


def test_raw_newlines_and_escapes_inside_string_literals():
    rng = random.Random(1)
    for text in example_texts():
        quotes = [i for i, char in enumerate(text) if char == '"']
        for at in rng.sample(quotes, min(8, len(quotes))):
            for spliced in ("\n", "\\", '\\"', "\\n", "é", "\n\n"):
                assert_same(text[: at + 1] + spliced + text[at + 1 :])


def test_long_blank_runs_scan_in_linear_time():
    """Blanks before the end of the text or before a character no token
    accepts cost one match, not one failed search per blank."""
    for count in (5_000, 200_000):  # the small size fails fast if quadratic
        for tail in ("", "\u20ac", "\x00", "x"):
            text = " \t\r" * (count // 3) + tail
            started = time.perf_counter()
            result = outcome(tokenize, text)
            assert time.perf_counter() - started < 1.0, (count, tail)
            assert result == outcome(reference_tokenize, text)


RELAXED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@RELAXED
@given(programs())
def test_printed_programs_tokenize_identically(program):
    assert_same(str(build(program).module))


@RELAXED
@given(programs(), st.data())
def test_edits_of_printed_programs(program, data):
    text = str(build(program).module)
    at = data.draw(st.integers(0, len(text)))
    spliced = data.draw(st.characters() | st.sampled_from(SPLICED))
    assert_same(text[:at] + spliced + text[at:])
    assert_same(text[:at] + text[at + 1 :])
