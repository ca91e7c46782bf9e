"""The README's "Command line" examples run as written, and its output
conventions name every schema the package writes."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from altitude.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src" / "altitude"


def command_lines() -> list[list[str]]:
    """The ``altitude ...`` lines of the first sh block under "## Command line"."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("altitude ")]


def test_readme_command_block_runs_in_order(capsys, monkeypatch: pytest.MonkeyPatch,
                                            tmp_path: Path) -> None:
    monkeypatch.chdir(tmp_path)  # the block writes q3.txt, best.txt and rows.csv
    argvs = command_lines()
    assert len(argvs) >= 10
    for argv in argvs:
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_output_conventions_name_every_schema() -> None:
    # a schema bump without its README line fails here
    section = README.read_text().split("\n### Output conventions\n", 1)[1].split("\n#", 1)[0]
    pattern = re.compile(r"altitude/[a-z][a-z0-9-]*/\d+")
    schemas = {s for p in SRC.glob("*.py") for s in pattern.findall(p.read_text())}
    assert len(schemas) >= 10
    assert sorted(s for s in schemas if f"`{s}`" not in section) == []
