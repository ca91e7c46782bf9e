"""No new recursion in ``src/altitude``: a search that calls itself by name hits
Python's recursion limit on deep inputs, so searches use explicit stacks.  The
functions that still recurse are listed below until each is converted (stdlib
``ast``; no linter is required)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "altitude"

# "enclosing.function" for nested functions, "function" at module level.
STILL_RECURSIVE = {
    "density.py": ["zeta_exact.rec"],
    "exactf.py": ["edge_orbits.bt", "exact_f.rec", "longest_ending_at.back"],
}


def self_calling_functions(source: str) -> list[str]:
    """Names of the functions in a module's source that call themselves by name."""
    found = []

    def visit(node: ast.AST, enclosing: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls_itself = any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == child.name
                    for n in ast.walk(child)
                )
                if calls_itself:
                    found.append(child.name if enclosing is None else f"{enclosing}.{child.name}")
                visit(child, child.name)
            else:
                visit(child, enclosing)

    visit(ast.parse(source), None)
    return sorted(found)


def test_checker_finds_self_calls() -> None:
    src = (
        "def fact(n):\n    return 1 if n < 2 else n * fact(n - 1)\n"
        "def outer(x):\n"
        "    def walk(v):\n        for w in v:\n            walk(w)\n"
        "    def flat(v):\n        return fact(v)  # calls another function\n"
        "    return walk(x)\n"
        "class A:\n    def m(self):\n        return self.m()  # not a call by name\n"
        "s = 'fact(1)'  # a name in a string is fine\n"
    )
    assert self_calling_functions(src) == ["fact", "outer.walk"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_listed_functions_recurse(path: Path) -> None:
    assert self_calling_functions(path.read_text()) == STILL_RECURSIVE.get(path.name, [])
