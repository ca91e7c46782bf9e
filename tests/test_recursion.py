"""No recursion in ``src/altitude``: a search that calls itself by name hits
Python's recursion limit on deep inputs, so every search keeps an explicit
stack, and no function in the package calls itself (stdlib ``ast``; no linter
is required).  The searches run here under a recursion limit only 60 frames
above the caller."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import altitude as alt
from altitude.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "altitude"

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
    # No function is listed: none may call itself.
    assert self_calling_functions(path.read_text()) == []


def _frames_above(extra: int) -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth + extra


def _zeta_cli(tmp_path: Path) -> None:
    graph = tmp_path / "c120.txt"
    graph.write_text(alt.serialize_graph(alt.make_cycle(120)))
    assert main(["zeta", "--graph", str(graph), "--k", "5"]) == 0


LOW_LIMIT_RUNS = {
    "zeta_exact": lambda _: alt.zeta_exact(alt.make_cycle(120), 5),
    "edge_orbits": lambda _: alt.edge_orbits(alt.make_path(120)),
    "exact_f": lambda _: alt.exact_f(alt.sample_gnp(30, 0.2, 0), budget=300),
    "zeta-cli": _zeta_cli,
}


@pytest.mark.parametrize("name", sorted(LOW_LIMIT_RUNS))
def test_search_runs_under_a_low_recursion_limit(
    name: str, tmp_path: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames_above(60))
    try:
        LOW_LIMIT_RUNS[name](tmp_path)
    finally:
        sys.setrecursionlimit(old)
    assert capsys.readouterr().err == ""
