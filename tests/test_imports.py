"""Every import in ``src/altitude`` is used and comes from the package or the
standard library (stdlib ``ast``; no linter is required)."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "altitude"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; names in ``__all__`` count as read."""
    tree = ast.parse(source)
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_checker_flags_unused_names() -> None:
    src = (
        "import os\nimport numpy as np\nfrom .graphs import Graph, make_path\n"
        "__all__ = ['make_path']\nx = np.zeros(1)\n"
    )
    assert unused_imports(src) == ["Graph", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path: Path) -> None:
    assert unused_imports(path.read_text()) == []


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports outside the standard library,
    function-local imports included; relative imports are the package's own."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return sorted(names - sys.stdlib_module_names)


def test_checker_flags_non_stdlib_imports() -> None:
    src = (
        "from __future__ import annotations\nimport math, os.path\nimport numpy as np\n"
        "from collections.abc import Iterator\nfrom scipy import sparse\nfrom . import graphs\n"
        "from .paths import psi\ndef f():\n    import networkx\n    from json import dumps\n"
    )
    assert non_stdlib_imports(src) == ["networkx", "numpy", "scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path: Path) -> None:
    assert non_stdlib_imports(path.read_text()) == []
