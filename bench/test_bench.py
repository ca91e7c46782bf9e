"""Checks on the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The deterministic counters must repeat exactly between runs and between
traced and untraced runs, campaign CSVs must not depend on the worker count
(apart from wall_ms), and the gate must reject wrong answers while
accepting capped ones.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil

import pytest

import run

CLI = run.load_program()
PROBE = run.Probe()

import gate  # noqa: E402  (needs the program on sys.path)
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = run.OUT / "test" / re.sub(r"[^\w.-]", "_", request.node.name)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _items(workload: str, workdir, every: int):
    return workloads.build(workload, 3, workdir / workload)[::every]


@pytest.mark.parametrize("workload,every,layer", [("psi-gnp", 5, "paths"),
                                                   ("exact-small", 3, "exactf")])
def test_counters_repeat_and_match_the_trace(workdir, workload, every, layer):
    items = _items(workload, workdir, every)
    plain, _ = run.run_passes(CLI, items, 0, 2, PROBE)
    traced, span_sets = run.run_passes(CLI, items, 0, 2, PROBE, spans.Tracer())
    counts = [run.counters(items, outcomes) for outcomes in plain + traced]
    assert all(c == counts[0] for c in counts)
    assert counts[0]["capped"] > 0 and counts[0]["proven"] > 0
    per_pass = [spans.layer_metrics(s) for s in span_sets]
    assert all({k: m[k] for k in spans.COUNTERS} == {k: per_pass[0][k] for k in spans.COUNTERS}
               for m in per_pass)
    assert per_pass[0][f"{layer}.nodes"] == counts[0]["nodes"]
    assert per_pass[0][f"{layer}.budget_hits"] == counts[0]["capped"]
    for a, b in zip(plain[0], traced[0]):
        assert a.text == b.text


@pytest.mark.parametrize("workload", ["campaign-gnp", "campaign-hypercube"])
def test_campaign_rows_do_not_depend_on_workers_or_tracing(workdir, workload):
    item = workloads.build(workload, 0, workdir)[0]
    argv = list(item.argv)
    argv[argv.index("--workers") + 1] = "1"
    serial = dataclasses.replace(item, argv=tuple(argv))
    texts = []
    for it, tracer in ((item, None), (serial, None), (item, spans.Tracer())):
        (outcomes,), _ = run.run_passes(CLI, [it], 0, 1, PROBE, tracer)
        assert gate.Gate(None).check(it, outcomes[0].code, outcomes[0].text) is None
        texts.append(run.stable_text(it, outcomes[0]))
    assert texts[0] == texts[1] == texts[2]


def test_gate_rejects_wrong_answers(workdir):
    items = {i.key: i for i in workloads.build("psi-gnp", 0, workdir)}
    judge = gate.Gate({"rand-n40-p0.15": [1, 1]})
    psi = items["rand-n40-p0.15"]
    o = run.run_item(CLI, psi)
    doc = json.loads(o.text)
    assert "recorded" in judge.check(psi, o.code, o.text)
    assert gate.Gate(None).check(psi, o.code, o.text) is None
    doc["length"] += 1
    assert "witness" in gate.Gate(None).check(psi, o.code, json.dumps(doc))

    (f_item,) = [i for i in workloads.build("exact-small", 0, workdir) if i.key == "k5"]
    o = run.run_item(CLI, f_item)
    doc = json.loads(o.text)
    assert gate.Gate(None).check(f_item, o.code, o.text) is None
    assert gate.Gate({"k5": [doc["f"], doc["f"]]}).check(f_item, o.code, o.text) is None
    doc["f"] -= 1
    doc["lower"] -= 1
    assert "witness scores" in gate.Gate(None).check(f_item, o.code, json.dumps(doc))


def test_gate_accepts_a_capped_bracket_that_contains_the_record(workdir):
    (item,) = [i for i in workloads.build("exact-small", 0, workdir) if i.key == "k5"]
    capped = dataclasses.replace(item, argv=tuple(a if a != str(workloads.F_BUDGET) else "10"
                                                  for a in item.argv))
    o = run.run_item(CLI, capped)
    assert o.code == 4
    doc = json.loads(o.text)
    assert doc["lower"] < doc["f"]
    assert gate.Gate({"k5": [doc["lower"], doc["lower"]]}).check(capped, o.code, o.text) is None
    assert gate.Gate({"k5": [doc["f"] + 1] * 2}).check(capped, o.code, o.text) is not None


def test_campaign_gate_checks_every_row(workdir):
    item = workloads.build("campaign-gnp", 0, workdir)[0]
    small = dataclasses.replace(
        item, argv=("experiment", "gnp", "--n-list", "30", "--p", "0.2", "--trials", "2"), units=2)
    o = run.run_item(CLI, small)
    assert gate.Gate(None).check(small, o.code, o.text) is None
    lines = o.text.splitlines()
    col = lines[1].split(",").index("floor_ok")
    row = lines[2].split(",")
    row[col] = "false"
    broken = "\n".join([*lines[:2], ",".join(row), *lines[3:]])
    assert "floor_ok" in gate.Gate(None).check(small, o.code, broken)
    assert "rows" in gate.Gate(None).check(small, o.code, o.text.rsplit("\n", 2)[0])


def test_tail_keeps_ten_samples_beyond():
    pct, value = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
