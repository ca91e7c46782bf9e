"""The README's "Command line" examples run as written."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from altitude.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


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
