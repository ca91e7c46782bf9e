"""The README's "Command line" examples run as written, its output
conventions name every schema the package writes, and its mode table lists
the flags that ``cli._MODES`` says each mode reads."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from altitude.cli import _MODES, main

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


def test_mode_table_lists_the_flags_of_cli_modes() -> None:
    # the table under "Determinism and configuration" is kept by hand
    section = README.read_text().split("\n### Determinism and configuration\n", 1)[1]
    rows = [ln.split("|")[1:-1] for ln in section.split("\n#", 1)[0].splitlines()
            if ln.startswith("| ")][2:]  # after the header and its rule
    table: dict[str, set[str]] = {}
    for commands, _, reads in rows:
        if commands.strip():
            names = re.findall(r"`([a-z-]+)`", commands)
        for name in names:
            table.setdefault(name, set()).update(re.findall(r"`(--[a-z-]+)`", reads))
    want = {command: {"--" + flag.replace("_", "-") for flags in modes.values() for flag in flags}
            for command, (_, modes) in _MODES.items()}
    assert table == want
