"""No ``assert`` statement in ``src/altitude``: ``python -O`` strips them, so a
soundness check must raise instead (stdlib ``ast``; no linter is required)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "altitude"


def assert_lines(source: str) -> list[int]:
    """Line numbers of the ``assert`` statements in a module's source."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert))


def test_checker_finds_asserts() -> None:
    src = (
        "def f(x):\n    assert x, 'top'\n    if x:\n        assert x > 1\n"
        "    return 'assert x'  # assert in a string or comment is fine\n"
    )
    assert assert_lines(src) == [2, 4]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_assert(path: Path) -> None:
    assert assert_lines(path.read_text()) == []
