"""Every function and class defined in ``src/altitude`` is used somewhere in
``src/altitude`` (stdlib ``ast``; no linter is required).

A definition counts as used when some other code names it: a load of the
name, or an attribute of that name.  A name in ``__all__`` or in an import
does not count, and neither does a function naming itself from its own body.
The ``_cmd_*`` handlers that ``cli.build_parser`` names by string count as
used.  Dunder methods are called by Python itself and are not checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "altitude"

# (module, qualified name) -> why it stays although nothing in the package uses it
KEPT = {
    ("density", "rodl_criterion"): "the paper's density criterion as a public check; the "
                                   "acceptance battery and tests/test_density.py call it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree: ast.Module) -> list[str]:
    """Qualified names of every function and class, nested ones included."""
    out: list[str] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                out.append(prefix + child.name)
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def references(tree: ast.Module) -> set[str]:
    """Names the module loads or reads as attributes, outside the body of the
    definition of the same name; strings in ``build_parser`` count too."""
    out: set[str] = set()

    def visit(node: ast.AST, enclosing: frozenset[str]) -> None:
        if isinstance(node, _DEFS):
            if node.name == "build_parser":
                out.update(
                    n.value for n in ast.walk(node)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)
                )
            enclosing = enclosing | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in enclosing:
                out.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            out.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return out


def unreferenced(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, qualified name) of every non-dunder definition no module names."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = set().union(*(references(t) for t in trees.values()))
    return sorted(
        (mod, qual)
        for mod, tree in trees.items()
        for qual in definitions(tree)
        if not qual.rsplit(".", 1)[-1].startswith("__") and qual.rsplit(".", 1)[-1] not in used
    )


def test_checker_flags_unused_definitions() -> None:
    sources = {
        "a": (
            "__all__ = ['dead', 'Box']\n"
            "from .b import helper\n"
            "def dead():\n    return dead()\n"
            "def live():\n    return helper()\n"
            "class Box:\n    def __init__(self):\n        pass\n"
            "    def size(self):\n        return 1\n"
            "    def unused(self):\n        return self.size()\n"
        ),
        "b": (
            "def helper():\n    return outer().inner\n"
            "def outer():\n    def inner():\n        pass\n    return inner\n"
            "def build_parser():\n    return {'func': '_cmd_run'}\n"
            "def _cmd_run():\n    pass\n"
            "def main():\n    live()\n    Box()\n"
        ),
    }
    assert unreferenced(sources) == [
        ("a", "Box.unused"), ("a", "dead"), ("b", "build_parser"), ("b", "main"),
    ]


def test_every_definition_is_used_or_kept_for_a_reason() -> None:
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced(sources) == sorted(KEPT)
