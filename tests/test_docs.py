"""The documents name only files that exist.

README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md point readers at tests,
tools, sources, examples and committed results; a pointer to a moved or
deleted file fails here. A ``{a,b}`` group expands to each name and a
``*`` must match at least one file.
"""

import glob
import os
import re

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCUMENTS = sorted(
    ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
    + [
        os.path.relpath(path, REPO)
        for path in glob.glob(os.path.join(REPO, "docs", "*.md"))
    ]
)
_PATH = re.compile(
    r"(?<![\w./-])((?:tests|tools|src|examples|results|benchmarks)/[\w./{},*-]*)"
)
_GROUP = re.compile(r"\{([^{}]*)\}")


def expand(path: str) -> list[str]:
    """``a/{b,c}.py`` -> ``a/b.py``, ``a/c.py``."""
    match = _GROUP.search(path)
    if match is None:
        return [path]
    return [
        expanded
        for choice in match.group(1).split(",")
        for expanded in expand(path[: match.start()] + choice + path[match.end() :])
    ]


def named_paths(text: str) -> set[str]:
    return {match.group(1).rstrip(".,") for match in _PATH.finditer(text)}


def missing(path: str) -> bool:
    candidates = [os.path.join(REPO, candidate) for candidate in expand(path)]
    if "*" in path:
        return not any(glob.glob(candidate) for candidate in candidates)
    return not all(os.path.exists(candidate) for candidate in candidates)


@pytest.mark.parametrize("document", DOCUMENTS)
def test_named_files_exist(document):
    with open(os.path.join(REPO, document)) as handle:
        paths = named_paths(handle.read())
    assert sorted(path for path in paths if missing(path)) == []


def test_scanner_reads_groups_globs_and_pointers():
    text = (
        "see `src/repro/engine/{compiler,cache}.py`, tests/sim/test_*.py, "
        "`tests/test_cli.py::TestRun` and PYTHONPATH=src python -m repro."
    )
    assert named_paths(text) == {
        "src/repro/engine/{compiler,cache}.py",
        "tests/sim/test_*.py",
        "tests/test_cli.py",
    }
    assert not any(missing(path) for path in named_paths(text))
    assert missing("src/repro/engine/{compiler,gone}.py")
    assert missing("tests/sim/gone_*.py")
