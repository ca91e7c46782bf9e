"""End-to-end checks for the command-line interface.

Every test drives `main(argv)` in-process and inspects stdout, stderr,
files written via --out, and the exit code contract:
0 success, 2 usage, 3 bad input, 4 budget exhausted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import re
import sys
import time
from pathlib import Path

import pytest

from altitude import adversary, cli, density, exactf, experiments
from altitude.cli import main
from altitude.graphs import (
    Graph,
    SoundnessError,
    make_complete,
    make_cycle,
    make_hypercube,
    make_matching,
    make_path,
    make_star,
    parse_graph,
    sample_gnp,
    serialize_graph,
)
from altitude.orderings import EdgeOrdering, parse_ordering, serialize_ordering
from oracles import brute_psi


def run(capsys: pytest.CaptureFixture[str], *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


@pytest.fixture()
def k3_file(tmp_path: Path) -> str:
    p = tmp_path / "k3.txt"
    p.write_text(serialize_graph(make_complete(3)))
    return str(p)


@pytest.fixture()
def q3_file(tmp_path: Path) -> str:
    p = tmp_path / "q3.txt"
    p.write_text(serialize_graph(make_hypercube(3)))
    return str(p)


@pytest.fixture()
def q3_relabelled_file(tmp_path: Path) -> str:
    """Q_3 under labels that hypercube_dimension does not recognise, so
    zeta runs its budgeted search instead of Harper's closed form."""
    label = [0, 1, 3, 2, 4, 5, 7, 6]
    g = Graph.from_edges(8, [(label[a], label[b]) for a, b in make_hypercube(3).edges])
    p = tmp_path / "q3-relabelled.txt"
    p.write_text(serialize_graph(g))
    return str(p)


# gen


def test_gen_families_match_constructors(capsys, tmp_path):
    cases = [
        (["--family", "complete", "--n", "5"], make_complete(5)),
        (["--family", "hypercube", "--d", "3"], make_hypercube(3)),
        (["--family", "path", "--n", "6"], make_path(6)),
        (["--family", "cycle", "--n", "7"], make_cycle(7)),
        (["--family", "star", "--leaves", "4"], make_star(4)),
        (["--family", "matching", "--k", "3"], make_matching(3)),
    ]
    for flags, want in cases:
        rc, out, _ = run(capsys, "gen", *flags)
        assert rc == 0
        assert parse_graph(out) == want


def test_gen_gnp_seeded_and_out_file(capsys, tmp_path):
    out = tmp_path / "g.txt"
    rc, stdout, _ = run(capsys, "gen", "--family", "gnp", "--n", "12", "--p", "0.4", "--seed", "7")
    assert rc == 0
    rc2 = main(["gen", "--family", "gnp", "--n", "12", "--p", "0.4", "--seed", "7", "--out", str(out)])
    capsys.readouterr()
    assert rc2 == 0
    # stdout and --out agree byte for byte, and both match the library sampler
    assert out.read_text() == stdout
    assert parse_graph(stdout) == sample_gnp(12, 0.4, seed=7)


def test_gen_bad_parameters(capsys):
    rc, _, err = run(capsys, "gen", "--family", "path", "--n", "0")
    assert rc == 3
    assert "error:" in err


# psi / trail


def test_psi_dimension_ordering_on_hypercube(capsys, q3_file):
    rc, out, _ = run(capsys, "psi", "--graph", q3_file, "--ordering", "dimension", "--verify")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "altitude/psi/1"
    assert (doc["n"], doc["m"]) == (8, 12)
    assert doc["length"] == 3
    assert doc["exact"] is True
    # witness arrays are consistent with the reported length
    assert len(doc["edges"]) == doc["length"]
    assert len(doc["vertices"]) == doc["length"] + 1


def test_psi_identity_on_path_graph(capsys, tmp_path):
    p = tmp_path / "p6.txt"
    p.write_text(serialize_graph(make_path(6)))
    rc, out, _ = run(capsys, "psi", "--graph", str(p))
    assert rc == 0
    assert json.loads(out)["length"] == 5


def test_psi_random_ordering_seeded(capsys, q3_file):
    _, out_a, _ = run(capsys, "psi", "--graph", q3_file, "--ordering", "rand", "--seed", "11")
    _, out_b, _ = run(capsys, "psi", "--graph", q3_file, "--ordering", "rand", "--seed", "11")
    assert out_a == out_b
    assert json.loads(out_a)["seed"] == 11


def test_trail_identity_triangle(capsys, k3_file):
    rc, out, _ = run(capsys, "trail", "--graph", k3_file, "--verify")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "altitude/trail/1"
    assert doc["length"] == 3
    assert doc["edges"] == [0, 1, 2]


def test_psi_budget_exhaustion_exits_4(capsys, tmp_path):
    p = tmp_path / "dense.txt"
    p.write_text(serialize_graph(sample_gnp(9, 0.8, seed=5)))
    rc, out, _ = run(capsys, "psi", "--graph", str(p), "--budget", "1")
    assert rc == 4
    assert json.loads(out)["exact"] is False


def test_psi_on_a_path_2000_edges_deep_has_no_recursion_limit(capsys, tmp_path):
    # The path edges of C_2000 ranked 1..1999 along the path and the closing
    # edge 2000: the best trail returns to vertex 0, so the search runs.  The
    # witness rule settles every directed edge but 0 -> 1 without a search
    # node, and that edge's search walks 1999 edges deep, each edge scanned
    # once.
    g = make_cycle(2000)
    ranks = [2000 if (a, b) == (0, 1999) else a + 1 for a, b in g.edges]
    graph, order = tmp_path / "c2000.txt", tmp_path / "c2000.ord"
    graph.write_text(serialize_graph(g))
    order.write_text(serialize_ordering(EdgeOrdering(tuple(ranks))))
    rc, out, err = run(capsys, "psi", "--graph", str(graph), "--ordering", f"file:{order}",
                       "--verify")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["length"] == 1999 and doc["exact"] is True
    assert doc["vertices"] == [*range(1, 2000), 0]
    assert doc["explored"] <= g.m


# pedestrian


def test_pedestrian_triangle_transcript(capsys, k3_file):
    rc, out, _ = run(capsys, "pedestrian", "--graph", k3_file, "--verify")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "altitude/pedestrian/1"
    assert doc["paths"] == [[0, 1], [1, 0, 2], [2, 0]]
    assert doc["swap_log"] == [[0, True], [1, True], [2, False]]
    assert doc["final_position"] == [1, 2, 0]
    assert doc["max_path_edges"] == 2
    ver = doc["verification"]
    assert ver["coverage"] is True
    assert ver["counting_lhs"] == 3
    assert ver["counting_rhs"] == "3"  # exact rational, serialized as text
    assert ver["counting_holds"] is True
    assert ver["sqrt_floor"] == 2 and ver["floor_ok"] is True


# zeta


def test_zeta_csv_hypercube_bound_columns(capsys, q3_file):
    rc, out, _ = run(capsys, "zeta", "--graph", q3_file, "--ks", "2,3,4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# schema=altitude/zeta/1"
    assert lines[1] == "graph,k,zeta,exact,bound_rhs,bound_holds"
    rows = [ln.split(",") for ln in lines[2:]]
    assert [(r[1], r[2], r[3]) for r in rows] == [
        ("2", "1", "true"),
        ("3", "2", "true"),
        ("4", "4", "true"),
    ]
    # hypercube rows carry the k*log2(k)/2 comparison
    assert all(r[4] != "" and r[5] == "true" for r in rows)


def test_zeta_bound_columns_blank_off_hypercube(capsys, k3_file):
    rc, out, _ = run(capsys, "zeta", "--graph", k3_file, "--k", "2")
    assert rc == 0
    row = out.strip().splitlines()[-1].split(",")
    assert (row[1], row[2], row[3]) == ("2", "1", "true")
    assert row[4] == "" and row[5] == ""


def test_zeta_budget_exit_and_greedy_exit(capsys, q3_file, q3_relabelled_file):
    rc_budget, out, _ = run(capsys, "zeta", "--graph", q3_relabelled_file, "--k", "3",
                            "--budget", "2")
    assert rc_budget == 4
    assert out.strip().splitlines()[-1].split(",")[3] == "false"
    # greedy is complete as requested, so it succeeds even though inexact
    rc_greedy, out_g, _ = run(capsys, "zeta", "--graph", q3_file, "--k", "3", "--greedy")
    assert rc_greedy == 0
    assert out_g.strip().splitlines()[-1].split(",")[3] == "false"


def test_zeta_on_a_recognised_cube_takes_the_closed_form(capsys, tmp_path, monkeypatch):
    # Harper's sum_{i<k} popcount(i) answers at once; the budgeted search
    # does not prove zeta(5) on Q_9 within 200000 nodes
    def no_search(*args, **kwargs):
        raise AssertionError("zeta_exact ran on a recognised cube")

    monkeypatch.setattr(density, "zeta_exact", no_search)
    path = tmp_path / "q9.txt"
    path.write_text(serialize_graph(make_hypercube(9)))
    rc, out, _ = run(capsys, "zeta", "--graph", str(path), "--k", "5")
    assert rc == 0
    assert out.strip().splitlines()[-1] == "q9.txt,5,5,true,5.80482,true"


def test_zeta_rejects_k_together_with_ks(capsys, q3_file):
    # one of the two would go unused, and the output would not say which
    rc, out, err = run(capsys, "zeta", "--graph", q3_file, "--k", "3", "--ks", "2")
    assert rc == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("ks", [",", "", ",,"], ids=["comma", "empty", "commas"])
def test_zeta_rejects_an_empty_k_list(capsys, q3_file, ks):
    rc, out, err = run(capsys, "zeta", "--graph", q3_file, "--ks", ks)
    assert rc == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


# exact-f


def test_exact_f_triangle_stdout_and_witness(capsys, k3_file, tmp_path):
    ord_file = tmp_path / "ord.txt"
    rc, out, _ = run(capsys, "exact-f", "--graph", k3_file, "--ordering-out", str(ord_file))
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "f=2"
    assert lines[1].startswith("witness: ")
    ordering = parse_ordering(ord_file.read_text())
    assert brute_psi(make_complete(3), ordering) == 2


def test_exact_f_witness_achieves_value(capsys, q3_file, tmp_path):
    ord_file = tmp_path / "ord.txt"
    rc, out, _ = run(capsys, "exact-f", "--graph", q3_file, "--ordering-out", str(ord_file))
    assert rc == 0
    assert out.strip().splitlines()[0] == "f=3"
    rc2, out2, _ = run(capsys, "psi", "--graph", q3_file, "--ordering", f"file:{ord_file}")
    assert rc2 == 0
    assert json.loads(out2)["length"] == 3


def test_exact_f_budget_exhaustion_exits_4(capsys, tmp_path):
    p = tmp_path / "dense.txt"
    p.write_text(serialize_graph(sample_gnp(9, 0.8, seed=5)))
    rc, out, _ = run(capsys, "exact-f", "--graph", str(p), "--budget", "3")
    assert rc == 4
    assert "bracket" in out  # inexact result reports the surviving interval


# The search improves on the coloring ordering of K_5, so exact_f runs one more
# psi search to recheck the witness it found; the sandwich settles Q_3.  The
# sandwich's coloring ordering and its psi come from the portfolio in
# ``adversary``: Misra-Gries on K_5, the dimension coloring on Q_3.
@pytest.mark.parametrize("graph, coloring, rechecks",
                         [(make_complete(5), "greedy_edge_coloring", 1),
                          (make_hypercube(3), "hypercube_dimension_coloring", 0)],
                         ids=["k5", "q3"])
def test_exact_f_builds_its_bracket_once(monkeypatch, capsys, tmp_path, graph, coloring,
                                         rechecks):
    path = tmp_path / "g.txt"
    path.write_text(serialize_graph(graph))
    counted = [(adversary, "greedy_edge_coloring"), (adversary, "hypercube_dimension_coloring"),
               (adversary, "longest_increasing_path"), (exactf, "longest_increasing_path"),
               (exactf, "density_floor")]
    calls = {}

    def count(mod, name):
        real, key = getattr(mod, name), f"{mod.__name__.rsplit('.', 1)[1]}.{name}"
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(mod, name, wrapper)

    for mod, name in counted:
        count(mod, name)
    rc, _, _ = run(capsys, "exact-f", "--graph", str(path), "--out", str(tmp_path / "f.json"))
    assert rc == 0
    assert calls == dict.fromkeys(calls, 0) | {
        f"adversary.{coloring}": 1, "adversary.longest_increasing_path": 1,
        "exactf.longest_increasing_path": rechecks, "exactf.density_floor": 1,
    }


def _sandwich(lower, upper, lowers, uppers):
    return {"lower": lower, "upper": upper, "lower_candidates": lowers,
            "upper_candidates": uppers}


_COLORING_UPPERS = [["coloring-ordering-path", 3]]

# stdout and --out JSON of `exact-f` (fields after "m"), recorded before the
# bracket was built once per run; "explored" re-recorded when the top-value
# and pair cuts came in, and again when sleeping edges stopped making
# children (k5 36 -> 34, c7 26 -> 19; values, brackets and witnesses
# unchanged both times).  Re-recorded when the sandwich took its coloring
# ordering from the portfolio: the upper candidates lost
# "edge-coloring-classes" and "coloring-ordering-trail", and q3's witness
# is now the dimension ordering; values, brackets and "explored" stayed.
# Re-recorded when the sandwich dropped its family formulas: k5 and q3 lost
# their four family candidates and k5's sandwich upper is the coloring
# ordering's 4 (it was complete-three-quarters' 3); the rest stayed.
_EXACT_F_GOLDEN = {
    "k5": (
        make_complete(5),
        "f=3\nwitness: 1 3 7 8 5 9 4 2 10 6\n",
        {"f": 3, "lower": 3, "exact": True, "explored": 34,
         "witness_ranks": [1, 3, 7, 8, 5, 9, 4, 2, 10, 6],
         "sandwich": _sandwich(
             2, 4, [["sqrt-average-degree", 2]], [["coloring-ordering-path", 4]])},
    ),
    "c7": (
        make_cycle(7),
        "f=3\nwitness: 1 4 6 5 2 3 7\n",
        {"f": 3, "lower": 3, "exact": True, "explored": 19,
         "witness_ranks": [1, 4, 6, 5, 2, 3, 7],
         "sandwich": _sandwich(2, 3, [["sqrt-average-degree", 2]], _COLORING_UPPERS)},
    ),
    "q3": (
        make_hypercube(3),
        "f=3\nwitness: 2 5 9 6 11 3 10 12 1 8 7 4\n",
        {"f": 3, "lower": 3, "exact": True, "explored": 0,
         "witness_ranks": [2, 5, 9, 6, 11, 3, 10, 12, 1, 8, 7, 4],
         "sandwich": _sandwich(
             3, 3, [["sqrt-average-degree", 2], ["density-criterion-k3", 3]], _COLORING_UPPERS)},
    ),
    "gnp-8-0.4": (
        sample_gnp(8, 0.4, seed=6),
        "f=2\nwitness: 1 5 6 2 3 4 8 7\n",
        {"f": 2, "lower": 2, "exact": True, "explored": 13,
         "witness_ranks": [1, 5, 6, 2, 3, 4, 8, 7],
         "sandwich": _sandwich(2, 3, [["sqrt-average-degree", 2]], _COLORING_UPPERS)},
    ),
    "triangle-and-path": (
        Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]),
        "f=2\nwitness: 1 4 5 2 6 3\n",
        {"f": 2, "lower": 2, "exact": True, "explored": 7,
         "witness_ranks": [1, 4, 5, 2, 6, 3],
         "sandwich": _sandwich(2, 3, [["sqrt-average-degree", 2]], _COLORING_UPPERS)},
    ),
}


@pytest.mark.parametrize("case", sorted(_EXACT_F_GOLDEN))
def test_exact_f_golden_outputs(capsys, tmp_path, case):
    graph, want_out, want_doc = _EXACT_F_GOLDEN[case]
    path, out_file = tmp_path / "g.txt", tmp_path / "f.json"
    path.write_text(serialize_graph(graph))
    rc, out, _ = run(capsys, "exact-f", "--graph", str(path), "--out", str(out_file))
    assert (rc, out) == (0, want_out)
    doc = json.loads(out_file.read_text())
    assert doc == {"schema": "altitude/exact-f/3", "n": graph.n, "m": graph.m, **want_doc}


# adversary


def test_adversary_anneal_triangle(capsys, k3_file):
    rc, out, _ = run(capsys, "adversary", "--graph", k3_file, "--steps", "200", "--seed", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "altitude/adversary/1"
    assert doc["mode"] == "anneal"
    assert doc["best_psi"] == 2
    assert doc["verified"] is True
    assert doc["iterations"] == 200


def test_adversary_portfolio_and_ordering_out(capsys, q3_file, tmp_path):
    ord_file = tmp_path / "best.txt"
    rc, out, _ = run(
        capsys,
        "adversary", "--graph", q3_file, "--steps", "300", "--portfolio",
        "--seed", "2", "--ordering-out", str(ord_file),
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["mode"] == "portfolio"
    names = [s[0] for s in doc["strategies"]]
    assert any(n == "coloring" for n in names)
    assert any(n.startswith("anneal") for n in names)
    assert doc["best_psi"] == min(s[1] for s in doc["strategies"])
    assert all(s[2] is True for s in doc["strategies"])
    # the exported ordering reproduces the reported value
    ordering = parse_ordering(ord_file.read_text())
    assert brute_psi(make_hypercube(3), ordering) == doc["best_psi"]


def test_adversary_schedule_flag(capsys, k3_file, tmp_path):
    # The anneal's schedule is fixed, so --schedule is an unknown flag, and a
    # schedule= line in a --config file is ignored like any key naming no flag.
    argv = ["adversary", "--graph", k3_file, "--steps", "100"]
    rc, out, err = run(capsys, *argv, "--schedule", "decay=0.9,moves=20")
    assert (rc, out) == (2, "") and "--schedule" in err
    conf = tmp_path / "anneal.conf"
    conf.write_text("schedule=decay=0.9,moves=20\n")
    assert run(capsys, *argv, "--config", str(conf)) == run(capsys, *argv)


@pytest.mark.parametrize("spec", ["moves=-1", "decay=1.5,moves=1", "moves=0"])
def test_adversary_rejects_bad_schedule(capsys, k3_file, spec):
    rc, out, err = run(
        capsys, "adversary", "--graph", k3_file, "--steps", "20000", "--schedule", spec
    )
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --schedule" in err


def test_adversary_portfolio_rejects_a_schedule(capsys, k3_file):
    rc, out, err = run(
        capsys, "adversary", "--graph", k3_file, "--portfolio", "--schedule", "decay=0.9"
    )
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --schedule" in err


@pytest.mark.parametrize(
    "flags",
    [["--portfolio", "--ordering", "rand"], ["--portfolio", "--ordering", "coloring"],
     ["--restarts", "7"], ["--restarts", "2"], ["--steps", "-3"], ["--portfolio", "--steps", "-1"],
     ["--portfolio", "--restarts", "-1"]],
    ids=["portfolio-ordering", "portfolio-default-ordering", "anneal-restarts",
         "anneal-default-restarts", "negative-steps", "portfolio-negative-steps",
         "portfolio-negative-restarts"],
)
def test_adversary_rejects_a_flag_it_would_ignore(capsys, k3_file, flags):
    # the portfolio always starts from the coloring ordering and anneal mode
    # runs one anneal, so either flag would go unused; a negative step or
    # restart count would run no step or restart at all
    rc, out, err = run(capsys, "adversary", "--graph", k3_file, *flags)
    assert rc == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


def test_adversary_documented_defaults_still_apply(capsys, k3_file):
    # without --ordering anneal mode starts from the coloring ordering, and
    # without --restarts the portfolio runs 2 anneals
    def doc(*flags):
        rc, out, _ = run(capsys, "adversary", "--graph", k3_file, "--steps", "50", *flags)
        assert rc == 0
        return json.loads(out)

    assert doc() == doc("--ordering", "coloring")
    portfolio = doc("--portfolio")
    assert portfolio == doc("--portfolio", "--restarts", "2")
    assert portfolio != doc("--portfolio", "--restarts", "1")
    assert doc("--steps", "0")["iterations"] == 0


@pytest.mark.parametrize("mode", [[], ["--portfolio"]], ids=["anneal", "portfolio"])
def test_adversary_on_graph_without_vertices_exits_3(capsys, tmp_path, mode):
    null = tmp_path / "null.txt"
    null.write_text("0 0\n")
    rc, out, err = run(capsys, "adversary", "--graph", str(null), *mode)
    assert rc == 3
    assert out == ""
    assert err == "error: graph has no vertices\n"


# bounds


def test_bounds_complete_graph_bracket(capsys):
    rc, out, _ = run(capsys, "bounds", "--gk", "--n", "3")
    assert rc == 0 and out.strip() == "1, 2.25"
    rc, out, _ = run(capsys, "bounds", "--gk", "--n", "7")
    assert rc == 0 and out.strip() == "2, 5.25"


def test_bounds_hypercube_bracket(capsys):
    rc, out, _ = run(capsys, "bounds", "--hypercube", "--d", "5")
    assert rc == 0
    lo, hi = out.strip().split(", ")
    assert float(lo) == pytest.approx(5 / 2.321928094887362, rel=1e-4)
    assert hi == "5"


def test_bounds_inequality_point_and_sweep(capsys):
    rc, out, _ = run(capsys, "bounds", "--ineq6", "--d", "9")
    assert rc == 0 and out.strip() == "true"
    rc, out, _ = run(capsys, "bounds", "--sweep6", "--lo", "5", "--hi", "1000")
    assert rc == 0 and out.strip() == "all hold in [5, 1000]"


def _sweep_doc(lo: int, hi: int) -> str:
    return ('{\n  "schema": "altitude/bounds/1",\n  "name": "hypercube-key-inequality-sweep",\n'
            f'  "lo": {lo},\n  "hi": {hi},\n  "holds": true,\n  "failures": []\n}}')


# stdout, stderr, the --out file and the exit code, byte for byte; [255, 257]
# and [16, 65537] start, end or cross the integer d/log2 d at 16, 256, 65536
_GOLDEN_SWEEP6 = {
    "default": ([], 0, "all hold in [5, 1000000]\n", "", _sweep_doc(5, 10**6)),
    "16-65537": (["--lo", "16", "--hi", "65537"], 0, "all hold in [16, 65537]\n", "",
                 _sweep_doc(16, 65537)),
    "255-257": (["--lo", "255", "--hi", "257"], 0, "all hold in [255, 257]\n", "",
                _sweep_doc(255, 257)),
    "lo-4": (["--lo", "4"], 3, "", "error: need 5 <= lo <= hi\n", None),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_SWEEP6))
def test_bounds_sweep6_golden_outputs(capsys, tmp_path, case):
    argv, want_rc, want_out, want_err, want_doc = _GOLDEN_SWEEP6[case]
    out_file = tmp_path / "sweep.json"
    got = run(capsys, "bounds", "--sweep6", *argv, "--out", str(out_file))
    assert got == (want_rc, want_out, want_err)
    assert (out_file.read_text() if out_file.exists() else None) == want_doc


def test_bounds_gnp_lower_bound(capsys):
    rc, out, _ = run(
        capsys,
        "bounds", "--gnp", "--n", "10000", "--p", "0.05", "--omega", "5", "--eps", "0.1",
    )
    assert rc == 0
    fields = dict(part.split("=") for part in out.split())
    assert fields["k"] == "9"
    assert fields["certifies"] == "true"
    assert float(fields["exponent"]) < 0


@pytest.mark.parametrize("omega, summary",
                         [("0.01", "vacuous (k > n)"), ("1000", "vacuous (k < 1)")],
                         ids=["k-above-n", "k-below-1"])
def test_bounds_gnp_vacuous_exits_0(capsys, tmp_path, omega, summary):
    out_file = tmp_path / "b.json"
    rc, out, _ = run(capsys, "bounds", "--gnp", "--n", "10", "--p", "1", "--omega", omega,
                     "--out", str(out_file))
    assert (rc, out) == (0, summary + "\n")
    doc = json.loads(out_file.read_text())
    assert doc["vacuous"] is True and "union_exponent" not in doc


def test_experiment_gnp_leaves_the_union_bound_blank_when_k_above_n(capsys):
    # the same rule as `bounds --gnp`: k = 390 > n = 10 gets no union bound
    rc, out, _ = run(capsys, "experiment", "gnp", "--n-list", "10", "--p", "1",
                     "--omega", "0.01", "--trials", "1")
    assert rc == 0
    row = dict(zip(out.splitlines()[1].split(","), out.splitlines()[2].split(",")))
    assert (row["gnp_k"], row["union_exponent"], row["union_negative"]) == ("390", "", "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "--gnp", "--n", "10", "--p", "0.5"], "omega must be positive"),
        (["bounds", "--gnp", "--n", "10"], "--p is required"),
        (["experiment", "gnp", "--n-list", "10", "--p", "0.5", "--trials", "1"],
         "omega must be positive"),
        (["experiment", "gnp", "--n-list", "10", "--trials", "1"], "omega must be positive"),
    ],
    ids=["bounds-p", "bounds-no-p", "experiment-p", "experiment-no-p"],
)
def test_nan_omega_exits_3(capsys, argv, message):
    rc, out, err = run(capsys, *argv, "--omega", "nan")
    assert (rc, out) == (3, "")
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:") and message in err


def test_bounds_bad_domain(capsys):
    rc, _, err = run(capsys, "bounds", "--ineq6", "--d", "4")
    assert rc == 3 and "error:" in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["--gk", "--hypercube", "--n", "7", "--d", "5"], None),
        (["--sweep6", "--gnp", "--n", "100", "--p", "0.5", "--hi", "100"], None),
        (["--hypercube", "--n", "7", "--d", "5"], "gk=true\n"),
    ],
    ids=["gk-hypercube", "sweep6-gnp", "config-gk-hypercube"],
)
def test_bounds_rejects_more_than_one_mode(capsys, tmp_path, argv, config):
    if config is not None:
        cfg = tmp_path / "bounds.cfg"
        cfg.write_text(config)
        argv = [*argv, "--config", str(cfg)]
    rc, out, err = run(capsys, "bounds", *argv)
    assert rc == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


_BIG = str(10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ["--gnp", "--n", "2", "--p", "1", "--omega", "1e-320"],
        ["--hypercube", "--d", _BIG],
        ["--gk", "--n", _BIG],
        ["--ineq6", "--d", _BIG],
    ],
    ids=["gnp-tiny-omega", "hypercube-huge-d", "gk-huge-n", "ineq6-huge-d"],
)
def test_bounds_overflow_exits_3_without_traceback(capsys, argv):
    rc, out, err = run(capsys, "bounds", *argv)
    assert rc == 3
    assert out == ""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


# verify


def test_verify_battery_all_checks(capsys, q3_file):
    rc, out, _ = run(capsys, "verify", "--graph", q3_file, "--ordering", "rand", "--seed", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "altitude/verify/1"
    assert set(doc["checks"]) == {
        "trail_witness", "path_witness", "path_le_trail", "pedestrian_invariants",
        "coverage", "counting", "pedestrian_floor", "pedestrian_le_path",
    }
    assert all(doc["checks"].values())
    assert doc["ok"] is True
    assert doc["psi"] <= doc["trail"]
    assert doc["pedestrian_max"] <= doc["psi"]


# stdout of the (graph, ordering) commands on K_3 and Q_3 (fields after
# "seed"), recorded before they shared one code path.
_ALL_CHECKS_PASS = {
    "trail_witness": True, "path_witness": True, "path_le_trail": True,
    "pedestrian_invariants": True, "coverage": True, "counting": True,
    "pedestrian_floor": True, "pedestrian_le_path": True,
}
_GOLDEN_GRAPH_COMMANDS = {
    ("k3", "psi"): {"length": 2, "exact": True, "explored": 3, "vertices": [0, 2, 1],
                    "edges": [1, 2]},
    ("k3", "trail"): {"length": 3, "vertices": [1, 0, 2, 1], "edges": [0, 1, 2]},
    ("k3", "pedestrian"): {
        "paths": [[0, 1], [1, 0, 2], [2, 0]],
        "swap_log": [[0, True], [1, True], [2, False]],
        "final_position": [1, 2, 0], "max_path_edges": 2,
        "verification": {"coverage": True, "counting_lhs": 3, "counting_rhs": "3",
                         "counting_holds": True, "sqrt_floor": 2, "floor_ok": True}},
    ("k3", "verify"): {"psi": 2, "psi_exact": True, "trail": 3, "pedestrian_max": 2,
                       "checks": _ALL_CHECKS_PASS, "ok": True},
    ("q3", "psi"): {"length": 5, "exact": True, "explored": 0,
                    "vertices": [0, 1, 3, 2, 6, 4], "edges": [0, 3, 5, 6, 9]},
    ("q3", "trail"): {"length": 5, "vertices": [0, 1, 3, 2, 6, 4], "edges": [0, 3, 5, 6, 9]},
    ("q3", "pedestrian"): {
        "paths": [[0, 1, 3, 2, 6, 4], [1, 0, 2, 3, 7, 5], [2, 0, 4, 5, 7, 6],
                  [3, 1, 5, 4, 6, 7], [4, 0], [5, 1], [6, 2], [7, 3]],
        "swap_log": [[e, True] for e in range(12)],
        "final_position": [4, 5, 6, 7, 0, 1, 2, 3], "max_path_edges": 5,
        "verification": {"coverage": True, "counting_lhs": 12, "counting_rhs": "20",
                         "counting_holds": True, "sqrt_floor": 2, "floor_ok": True}},
    ("q3", "verify"): {"psi": 5, "psi_exact": True, "trail": 5, "pedestrian_max": 5,
                       "checks": _ALL_CHECKS_PASS, "ok": True},
}


@pytest.mark.parametrize("graph, command", sorted(_GOLDEN_GRAPH_COMMANDS), ids=lambda v: v)
def test_graph_ordering_commands_golden_outputs(capsys, k3_file, q3_file, graph, command):
    path = {"k3": k3_file, "q3": q3_file}[graph]
    extra = ["--verify"] if command == "pedestrian" else []
    rc, out, err = run(capsys, command, "--graph", path, *extra)
    assert rc == 0 and err == ""
    n, m = (3, 3) if graph == "k3" else (8, 12)
    want = {"schema": f"altitude/{command}/1", "n": n, "m": m, "ordering": "identity",
            "seed": 0, **_GOLDEN_GRAPH_COMMANDS[graph, command]}
    assert out == json.dumps(want, indent=2) + "\n"


# stdout of `pedestrian --verify` and `verify` on `gen --family gnp --n 40
# --p 0.5 --seed 3` (m = 394) under `--ordering rand --seed 2`, recorded
# while the transcript still stored its vertex and induced edge sets; the
# psi of `verify` since the path search counts edges scanned and skips what
# its failure records rule out (proved within the default budget, capped at
# 29 before): (exit code, sha256 of stdout, fields of the JSON).
_GOLDEN_DENSE = {
    "pedestrian": (0, "cf3bbdf07ed27140c6ed6abafe84ec6ea256bf2512e49f8f43485cac2d382dce", {
        "max_path_edges": 21,
        "verification": {"coverage": True, "counting_lhs": 394, "counting_rhs": "2090",
                         "counting_holds": True, "sqrt_floor": 5, "floor_ok": True}}),
    "verify": (0, "db4c2a18f8351eac40e82f2010f6003d395349b9d147b223db5e9742c941218f", {
        "psi": 31, "psi_exact": True, "trail": 44, "pedestrian_max": 21,
        "checks": _ALL_CHECKS_PASS, "ok": True}),
}


@pytest.mark.parametrize("command", sorted(_GOLDEN_DENSE))
def test_dense_gnp_pedestrian_and_verify_golden_outputs(capsys, tmp_path, command):
    graph = tmp_path / "g40.txt"
    assert main(["gen", "--family", "gnp", "--n", "40", "--p", "0.5", "--seed", "3",
                 "--out", str(graph)]) == 0
    capsys.readouterr()
    extra = ["--verify"] if command == "pedestrian" else []
    rc, out, err = run(capsys, command, "--graph", str(graph), "--ordering", "rand",
                       "--seed", "2", *extra)
    want_rc, want_sha, fields = _GOLDEN_DENSE[command]
    assert rc == want_rc and err == ""
    doc = json.loads(out)
    assert {key: doc[key] for key in fields} == fields
    assert hashlib.sha256(out.encode()).hexdigest() == want_sha


# experiment


def test_experiment_hypercube_cli(capsys):
    rc, out, _ = run(capsys, "experiment", "hypercube", "--d-max", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# schema=altitude/experiment-hypercube/1"
    assert lines[1].startswith("d,n,m,")
    assert len(lines) == 4  # schema + header + d=2 + d=3


def test_experiment_hypercube_seed_budget_and_workers_change_nothing(capsys):
    # the rows read only the bounds sandwich; --seed and --workers are accepted
    # anyway, and --psi-budget, which only the gnp rows read, is rejected
    rc, plain, _ = run(capsys, "experiment", "hypercube", "--d-max", "6")
    rc_flags, flagged, _ = run(capsys, "experiment", "hypercube", "--d-max", "6", "--seed", "7",
                               "--workers", "2")
    assert rc == rc_flags == 0
    assert [ln.rsplit(",", 1)[0] for ln in flagged.splitlines()] == [
        ln.rsplit(",", 1)[0] for ln in plain.splitlines()]
    rc_budget, out, err = run(capsys, "experiment", "hypercube", "--d-max", "6",
                              "--psi-budget", "0")
    assert rc_budget == 3 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


def test_experiment_gnp_cli_deterministic(capsys, tmp_path):
    argv = ["experiment", "gnp", "--n-list", "30", "--p", "0.3", "--trials", "2", "--seed", "1"]
    rc, out_a, _ = run(capsys, *argv)
    assert rc == 0
    out_file = tmp_path / "rows.csv"
    rc2 = main(argv + ["--out", str(out_file)])
    capsys.readouterr()
    assert rc2 == 0

    def stable(text: str) -> list[str]:
        # drop the wall-clock column, everything else must reproduce
        return [ln.rsplit(",", 1)[0] for ln in text.strip().splitlines()[1:]]

    assert stable(out_a) == stable(out_file.read_text())


@pytest.mark.parametrize("p", ["1.5", "-0.1", "nan"])
def test_experiment_gnp_rejects_p_outside_the_unit_interval(capsys, p):
    rc, out, err = run(capsys, "experiment", "gnp", "--n-list", "8", f"--p={p}", "--trials", "1")
    assert rc == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")



@pytest.mark.parametrize("n_list", [",", ""], ids=["comma", "empty"])
def test_experiment_gnp_rejects_an_empty_n_list(capsys, n_list):
    rc, out, err = run(capsys, "experiment", "gnp", "--n-list", n_list, "--p", "0.3",
                       "--trials", "1")
    assert rc == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


def test_experiment_gnp_caps_the_threshold_rule_at_one(capsys):
    # without --p, 5 ln(8) / sqrt(8) > 1 is capped: the sample is K_8
    rc, out, _ = run(capsys, "experiment", "gnp", "--n-list", "8", "--trials", "1")
    assert rc == 0
    row = out.strip().splitlines()[2].split(",")
    assert (row[0], row[1], row[4]) == ("8", "1", "28")


def _bench_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module("workloads")


def _stable(text: str) -> list[str]:
    return [ln.rsplit(",", 1)[0] for ln in text.strip().splitlines()]


def test_experiment_gnp_bench_campaigns_do_not_depend_on_workers(capsys, monkeypatch, tmp_path,
                                                                  childless):
    for item in _bench_workloads(monkeypatch).build("campaign-gnp", 0, tmp_path):
        argv = list(item.argv)
        at = argv.index("--workers")
        got = []
        for flag in (["--workers", "1"], ["--workers", "2"], []):  # [] : one per usable CPU
            rc, out, err = run(capsys, *argv[:at], *flag, *argv[at + 2:])
            got.append((rc, _stable(out), err))
            assert childless()
        assert got[0] == got[1] == got[2] and got[0][0] == 0


_REAL_GNP_ROW = experiments._gnp_row
_STARTED: Path | None = None  # each row that starts, in any process, leaves a file here


def _row_failing_at_50_and_60(n, p, trial, row_seed, *rest):
    if n in (50, 60):
        raise SoundnessError(f"planted failure on n={n}")
    (_STARTED / str(row_seed)).touch()
    time.sleep(0.1)
    return _REAL_GNP_ROW(n, p, trial, row_seed, *rest)


def test_experiment_gnp_failing_row_reports_the_same_at_any_worker_count(
        capsys, monkeypatch, tmp_path, childless):
    # The processes claim n = 60 and 50 first; the first failing row in
    # parameter order (n = 50) must be the one reported, and the rows after
    # it skipped.
    monkeypatch.setattr(experiments, "_gnp_row", _row_failing_at_50_and_60)
    argv = ["experiment", "gnp", "--n-list", "40,50,60," + ",".join(["40"] * 11),
            "--p", "0.3", "--trials", "1"]
    got = []
    for workers in ("1", "2"):
        monkeypatch.setattr(sys.modules[__name__], "_STARTED", tmp_path / workers)
        (tmp_path / workers).mkdir()
        got.append(run(capsys, *argv, "--workers", workers))
        assert childless()
    assert got[0] == got[1] == (3, "", "error: planted failure on n=50\n")
    assert len(list((tmp_path / "1").iterdir())) == 1
    assert len(list((tmp_path / "2").iterdir())) < 12


def test_experiment_gnp_row_process_that_exits_unreported_is_an_error(
        capsys, monkeypatch, childless, deadline):
    # A forked process dies in its first row; this process's rows take 50 ms,
    # so the child claims one.  The campaign must fail, not hang.
    here = os.getpid()

    def row(*args):
        if os.getpid() != here:
            os._exit(7)
        time.sleep(0.05)
        return _REAL_GNP_ROW(*args)

    monkeypatch.setattr(experiments, "_gnp_row", row)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    rc, out, err = run(capsys, "experiment", "gnp", "--n-list", "40,50,60,70", "--p", "0.3",
                       "--trials", "1", "--workers", "2")
    assert (rc, out) == (3, "")
    assert re.fullmatch(r"error: row process \d+ exited with status 7 before reporting its "
                        r"rows\n", err)
    assert childless()


@pytest.mark.parametrize("campaign", [["gnp", "--n-list", "8", "--p", "0.3"],
                                      ["hypercube", "--d-max", "2"]], ids=["gnp", "hypercube"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_experiment_rejects_fewer_than_one_worker(capsys, campaign, workers):
    rc, out, err = run(capsys, "experiment", *campaign, "--workers", workers)
    assert rc == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


# exit codes and config


def test_soundness_error_exits_3_with_one_error_line(capsys, monkeypatch, tmp_path):
    # exact_f needs the exact psi of its start ordering from the portfolio;
    # an inexact one fails its check
    real = adversary.longest_increasing_path

    def inexact(g, ordering, budget=None):
        return dataclasses.replace(real(g, ordering, budget), exact=False)

    monkeypatch.setattr(adversary, "longest_increasing_path", inexact)
    path = tmp_path / "c5.txt"
    path.write_text(serialize_graph(make_cycle(5)))
    rc, out, err = run(capsys, "exact-f", "--graph", str(path))
    assert rc == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


def test_unknown_subcommand_is_usage_error(capsys):
    rc, _, err = run(capsys, "nosuch")
    assert rc == 2
    assert "invalid choice" in err


def test_missing_and_malformed_graph_files(capsys, tmp_path):
    rc, _, err = run(capsys, "psi", "--graph", str(tmp_path / "absent.txt"))
    assert rc == 3 and "error:" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")  # loop edge
    rc, _, err = run(capsys, "psi", "--graph", str(bad))
    assert rc == 3 and "error:" in err


def test_bad_ordering_file(capsys, k3_file, tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("1\n2\n")  # K_3 has three edges
    rc, _, err = run(capsys, "psi", "--graph", k3_file, "--ordering", f"file:{short}")
    assert rc == 3 and "error:" in err


def test_config_file_seed_and_flag_precedence(capsys, q3_file, tmp_path):
    conf = tmp_path / "conf.txt"
    conf.write_text("seed=9\n")
    _, out, _ = run(capsys, "psi", "--graph", q3_file, "--ordering", "rand", "--config", str(conf))
    assert json.loads(out)["seed"] == 9
    _, out, _ = run(
        capsys,
        "psi", "--graph", q3_file, "--ordering", "rand", "--config", str(conf), "--seed", "2",
    )
    assert json.loads(out)["seed"] == 2


def test_config_file_coerces_int_float_and_bool_keys(capsys, q3_file, q3_relabelled_file,
                                                    tmp_path):
    # greedy is a switch: "false" must read as False, not as a non-empty string
    conf = tmp_path / "zeta.conf"
    conf.write_text("ks=2,3,4\nbudget=0\ngreedy=false\n")
    rc, out, _ = run(capsys, "zeta", "--graph", q3_relabelled_file, "--config", str(conf))
    assert rc == 4 and ",false," in out  # exact search with an int budget of 0 runs out
    conf.write_text("ks=2,3,4\nbudget=0\ngreedy=true\n")
    rc, out, _ = run(capsys, "zeta", "--graph", q3_file, "--config", str(conf))
    assert rc == 0
    # a mistyped switch is an error, not a silent false
    conf.write_text("ks=2,3,4\nbudget=0\ngreedy=ture\n")
    rc, out, err = run(capsys, "zeta", "--graph", q3_file, "--config", str(conf))
    assert (rc, out) == (3, "")
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:") and "ture" in err

    conf = tmp_path / "gnp.conf"
    conf.write_text("n=10000\np=0.05\nomega=5\neps=0.1\n")
    out_file = tmp_path / "gnp.json"
    rc, _, _ = run(capsys, "bounds", "--gnp", "--config", str(conf), "--out", str(out_file))
    assert rc == 0
    payload = json.loads(out_file.read_text())
    assert payload["n"] == 10000 and payload["p"] == 0.05
    assert isinstance(payload["omega"], float) and payload["omega"] == 5.0

    conf = tmp_path / "bad.conf"
    conf.write_text("seed=abc\n")
    rc, out, err = run(capsys, "psi", "--graph", q3_file, "--config", str(conf))
    assert rc == 3 and out == "" and "error:" in err
    # trials is a flag of experiment, not of psi: ignored, as is the unknown key
    conf = tmp_path / "foreign.conf"
    conf.write_text("trials=4\nno_such_flag=1\n")
    rc, out, _ = run(capsys, "psi", "--graph", q3_file, "--config", str(conf))
    assert rc == 0 and (rc, out) == run(capsys, "psi", "--graph", q3_file)[:2]
    # a bounds mode switch set from the file selects that mode
    conf = tmp_path / "gk.conf"
    conf.write_text("gk=true\nn=7\n")
    rc, out, _ = run(capsys, "bounds", "--config", str(conf))
    assert rc == 0 and out.strip() == "2, 5.25"


@pytest.mark.parametrize(
    "argv, config",
    [
        (("psi", "--graph", "{graph}", "--budget", "-1"), None),
        (("exact-f", "--graph", "{graph}", "--budget", "-2"), None),
        (("psi", "--graph", "{graph}"), "budget=-1"),
        (("experiment", "gnp", "--n-list", "12", "--p", "0.3", "--psi-budget", "-3"), None),
        (("experiment", "hypercube", "--d-max", "2"), "psi-budget=-5"),
    ],
    ids=["psi-flag", "exact-f-flag", "psi-config", "gnp-psi-budget", "hypercube-config"],
)
def test_negative_budget_is_rejected(capsys, k3_file, tmp_path, argv, config):
    argv = [a.replace("{graph}", k3_file) for a in argv]
    if config is not None:
        conf = tmp_path / "neg.conf"
        conf.write_text(config + "\n")
        argv += ["--config", str(conf)]
    rc, out, err = run(capsys, *argv)
    assert rc == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "must be non-negative" in err


@pytest.mark.parametrize(
    "command, flag",
    [("psi", "--graph"), ("psi", "--config"), ("psi", "--out"), ("exact-f", "--out"),
     ("exact-f", "--ordering-out"), ("bounds", "--out"), ("adversary", "--ordering-out")],
    ids=["--graph", "--config", "--out", "exact-f-out", "exact-f-ordering-out", "bounds-out",
         "adversary-ordering-out"],
)
def test_unreadable_path_exits_3_without_traceback(capsys, q3_file, tmp_path, command, flag):
    # a command that prints a result and also writes a file writes the file first
    base = {
        "psi": ["psi", "--graph", q3_file],
        "exact-f": ["exact-f", "--graph", q3_file],
        "bounds": ["bounds", "--gk", "--n", "7"],
        "adversary": ["adversary", "--graph", q3_file, "--steps", "10"],
    }[command]
    rc, out, err = run(capsys, *base, flag, str(tmp_path))  # a directory, not a file
    assert rc == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


_COMMON = {"config": None, "seed": 0, "out": None}
_SEARCH = {**_COMMON, "graph": "g.txt", "ordering": "identity", "verify": False}

# Namespaces each handler receives when only the required flags, and the
# flag that picks the mode where there is no default mode, are given.
_DEFAULT_NAMESPACES = {
    "gen": (
        ["gen", "--family", "path"],
        {**_COMMON, "family": "path", "n": None, "d": None, "leaves": None, "k": None,
         "p": None},
    ),
    "psi": (["psi", "--graph", "g.txt"], {**_SEARCH, "budget": 200000}),
    "trail": (["trail", "--graph", "g.txt"], _SEARCH),
    "pedestrian": (["pedestrian", "--graph", "g.txt"], _SEARCH),
    "zeta": (
        ["zeta", "--graph", "g.txt", "--k", "2"],
        {**_COMMON, "graph": "g.txt", "k": 2, "ks": None, "budget": 200000, "greedy": False},
    ),
    "exact_f": (
        ["exact-f", "--graph", "g.txt"],
        {"config": None, "out": None, "graph": "g.txt", "budget": 200000, "ordering_out": None},
    ),
    "adversary": (
        ["adversary", "--graph", "g.txt"],
        {**_COMMON, "graph": "g.txt", "ordering": None, "steps": 2000, "restarts": None,
         "budget": 200000, "portfolio": False, "ordering_out": None},
    ),
    "bounds": (
        ["bounds", "--gk"],
        {"config": None, "out": None, "gk": True, "hypercube": False, "ineq6": False,
         "sweep6": False, "gnp": False, "n": None, "d": None, "p": None, "omega": 5.0,
         "eps": 0.1, "lo": 5, "hi": 1000000},
    ),
    "verify": (
        ["verify", "--graph", "g.txt"],
        {**_COMMON, "graph": "g.txt", "ordering": "identity", "budget": 200000},
    ),
    "experiment": (
        ["experiment", "gnp"],
        {**_COMMON, "campaign": "gnp", "d_max": None, "n_list": None, "p": None, "omega": 5.0,
         "eps": 0.1, "trials": 3, "psi_budget": 200000, "workers": None},
    ),
}


@pytest.mark.parametrize("handler", sorted(_DEFAULT_NAMESPACES))
def test_flag_defaults(monkeypatch, handler):
    argv, want = _DEFAULT_NAMESPACES[handler]
    seen = {}

    def capture(args):
        seen.update(vars(args))
        return 0

    monkeypatch.setattr(cli, f"_cmd_{handler}", capture)
    assert main(argv) == 0
    del seen["func"], seen["command"]
    assert seen == want
    assert all(type(seen[k]) is type(v) for k, v in want.items())


def test_config_defaults_do_not_reach_the_next_call(monkeypatch, tmp_path):
    # main reuses one parser across calls; a --config run must leave it as built
    conf = tmp_path / "psi.conf"
    conf.write_text("budget=7\nordering=rand\nverify=true\n")
    seen = []
    monkeypatch.setattr(cli, "_cmd_psi", lambda args: seen.append(vars(args)) or 0)
    assert main(["psi", "--graph", "g.txt", "--config", str(conf)]) == 0
    assert main(["psi", "--graph", "g.txt"]) == 0
    assert (seen[0]["budget"], seen[0]["ordering"], seen[0]["verify"]) == (7, "rand", True)
    argv, want = _DEFAULT_NAMESPACES["psi"]
    del seen[1]["func"], seen[1]["command"]
    assert seen[1] == want


def test_benchmark_command_lines_parse(monkeypatch, tmp_path):
    # bench/ hands these argvs to main; a flag the parser no longer takes
    # (say --workers, which every campaign item passes) would exit 2 there,
    # and one the mode does not read (say psi --seed under a coloring
    # ordering) would exit 3
    workloads = _bench_workloads(monkeypatch)
    parser = cli.build_parser()
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        argvs = [item.argv for item in workloads.build(name, 0, workdir)]
        argvs.append(workloads.warm_up(name, workdir))
        for argv in argvs:
            try:
                args = parser.parse_args(list(argv))
            except SystemExit:
                pytest.fail(f"{name}: the parser rejects {' '.join(argv)}")
            try:
                cli._reject_unread_flags(parser, args)
            except ValueError as exc:
                pytest.fail(f"{name}: {' '.join(argv)}: {exc}")
