"""Record the reference brackets that the correctness gate compares against.

    python3 bench/record.py --seeds 0-2

For the psi-gnp and exact-small workloads, runs every item whose value no
workload seed changes and stores ``[lower, upper]`` per item key in
``expected.json``:

- psi: ``[v, v]`` when proved, else ``[length, increasing-trail bound]``;
- exact-f, run with ``RECORD_F_BUDGET`` nodes so that more items settle:
  ``[f, f]`` when proved, else ``[lower, f]``.

Each seed in the range runs a differently relabelled copy; the brackets of
all seeds are intersected, and an empty intersection stops the recording.
Run it only at a commit whose outputs are trusted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys

import run

RECORDED = ("psi-gnp", "exact-small")
RECORD_F_BUDGET = 100000


def bracket(cli, gate, judge, item) -> list[int]:
    if item.kind == "exact-f":
        argv = list(item.argv)
        argv[argv.index("--budget") + 1] = str(RECORD_F_BUDGET)
        item = dataclasses.replace(item, argv=tuple(argv))
    o = run.run_item(cli, item)
    why = o.error if o.code is None else judge.check(item, o.code, o.text)
    if why:
        raise SystemExit(f"{item.key}: {why}")
    doc = json.loads(o.text)
    if item.kind == "exact-f":
        return [doc["lower"], doc["f"]]
    if doc["exact"]:
        return [doc["length"]] * 2
    return [doc["length"], gate.trail_bound(judge.graph(item.graph), judge.ordering(item).rank)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-2", help="first-last, inclusive")
    args = ap.parse_args()
    first, _, last = args.seeds.partition("-")
    cli = run.load_program()
    import gate
    import workloads

    expected = {}
    workdir = run.OUT / "record"
    try:
        for workload in RECORDED:
            table: dict[str, list[int]] = {}
            for seed in range(int(first), int(last or first) + 1):
                judge = gate.Gate(table)
                for item in workloads.build(workload, seed, workdir / str(seed)):
                    if not item.invariant:
                        continue
                    lo, hi = bracket(cli, gate, judge, item)
                    old_lo, old_hi = table.get(item.key, (lo, hi))
                    if max(lo, old_lo) > min(hi, old_hi):
                        raise SystemExit(f"{workload} {item.key}: seed {seed} disagrees")
                    table[item.key] = [max(lo, old_lo), min(hi, old_hi)]
                print(f"{workload} seed {seed}: {len(table)} items", file=sys.stderr)
            expected[workload] = table
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
