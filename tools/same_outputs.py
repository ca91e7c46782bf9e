"""Check that another revision's ``src/altitude`` gives this checkout's outputs.

    python3 tools/same_outputs.py REV [--seed S]

Extracts ``src/altitude`` at the git revision REV with ``git archive`` into
a temporary directory and builds the items of every benchmark workload with
``bench/workloads.build`` at seed S (default 0).  It then runs every item
once through ``altitude.cli.main`` under REV's tree and under this
checkout's ``src``, each tree in a child process of its own.  An item's
output is its exit code, its stderr and its stdout, or the ``--out`` file
for ``exact-f``.  The ``wall_ms`` column is dropped from campaign CSVs and
the temporary directories are written as ``<tmp>`` and ``<src>``.

Prints each item whose output differs, with its first differing line, and
then the count.  Exits 0 when no item differs, 1 when some item does, and 2
when REV cannot be extracted.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent


def child(src: str) -> None:
    """Run the items read as JSON from stdin under ``src/altitude``; write
    each one's (code, stderr, text) as JSON to stdout."""
    sys.path.insert(0, src)
    import altitude.cli

    if Path(altitude.cli.__file__).resolve().parent != (Path(src) / "altitude").resolve():
        raise ImportError(f"altitude was imported from {altitude.cli.__file__}, not {src}")
    results = []
    for argv, out_file in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = altitude.cli.main(argv)
        except Exception as exc:  # a crash is this item's output
            code = None
            err.write(repr(exc))
        text = out.getvalue()
        if out_file and code in (0, 4):
            text = Path(out_file).read_text()
        results.append((code, err.getvalue(), text))
    json.dump(results, sys.stdout)


def run_tree(src: Path, items) -> list[tuple]:
    """Every item once under ``src``, in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import same_outputs; " \
           f"same_outputs.child({str(src)!r})"
    done = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps([[list(i.argv), i.out] for i in items]),
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def normalised(item, result, replace: dict[str, str]) -> tuple:
    """(code, stderr, text) with the temporary paths and ``wall_ms`` removed."""
    code, err, text = result
    if item.kind == "experiment":  # wall_ms is the last column of every line
        text = "\n".join(ln.rsplit(",", 1)[0] for ln in text.splitlines())
    for old, new in replace.items():
        err, text = err.replace(old, new), text.replace(old, new)
    return code, err, text


def first_difference(a: tuple, b: tuple) -> str:
    if a[0] != b[0]:
        return f"exit code {a[0]} -> {b[0]}"
    for name, x, y in (("stderr", a[1], b[1]), ("output", a[2], b[2])):
        xs, ys = x.splitlines(), y.splitlines()
        for i, (p, q) in enumerate(zip(xs, ys)):
            if p != q:
                return f"{name} line {i + 1}: {p[:120]!r} -> {q[:120]!r}"
        if len(xs) != len(ys):
            return f"{name} has {len(xs)} lines -> {len(ys)}"
    return "differs only in line endings"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the git revision to compare against, e.g. HEAD~1")
    ap.add_argument("--seed", type=int, default=0, help="the workload seed (default 0)")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        work = Path(tmp) / "work"
        base.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.rev, "src/altitude"], capture_output=True,
        )
        if archive.returncode != 0:
            print(f"error: cannot extract src/altitude at {args.rev}: "
                  f"{archive.stderr.decode().strip()}", file=sys.stderr)
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(base, filter="data")
        items = [(name, item) for name in workloads.WORKLOADS
                 for item in workloads.build(name, args.seed, work / name)]
        plain = [item for _, item in items]
        before = run_tree(base / "src", plain)
        after = run_tree(ROOT / "src", plain)
        replace = {str(work): "<tmp>", str(base / "src"): "<src>", str(ROOT / "src"): "<src>"}
        differ = 0
        for (name, item), old, new in zip(items, before, after):
            a, b = normalised(item, old, replace), normalised(item, new, replace)
            if a != b:
                differ += 1
                print(f"{name} {item.key}: {first_difference(a, b)}")
    print(f"{differ} of {len(items)} items differ between {args.rev} and the checkout "
          f"(seed {args.seed})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
