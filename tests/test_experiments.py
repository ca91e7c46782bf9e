"""Experiment campaigns: CSV schema, row content, reproducibility."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import altitude as alt
from altitude import experiments
from altitude.experiments import (
    GNP_HEADER,
    HYPERCUBE_HEADER,
    SCHEMA_GNP,
    SCHEMA_HYPERCUBE,
    ExperimentRow,
    experiment_gnp,
    experiment_hypercube,
    rows_to_csv,
)


def _parse(csv: str) -> tuple[str, list[str], list[dict[str, str]]]:
    lines = csv.strip().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[2:]]
    return lines[0], header, rows


def _strip_wall(csv: str) -> str:
    # wall time is always the last column; everything else must reproduce
    return "\n".join(ln.rsplit(",", 1)[0] for ln in csv.strip().splitlines()[1:])


def test_hypercube_campaign_rows() -> None:
    schema_line, header, rows = _parse(experiment_hypercube(4))
    assert schema_line == f"# schema={SCHEMA_HYPERCUBE}"
    assert header == list(HYPERCUBE_HEADER) + ["wall_ms"]
    assert [r["d"] for r in rows] == ["2", "3", "4"]

    d2 = rows[0]
    assert (d2["lower_ratio"], d2["upper_dim"]) == ("2", "2")
    assert d2["exact_f"] == "2" and d2["exact_f_is_exact"] == "true"

    d3 = rows[1]
    assert d3["exact_f"] == "3" and d3["exact_f_is_exact"] == "true"
    assert int(d3["cert_lower"]) <= 3 <= int(d3["upper_dim"])

    d4 = rows[2]
    assert d4["exact_f"] == ""  # the sandwich leaves a gap
    assert int(d4["adversary_psi"]) <= 4
    assert int(d4["cert_lower"]) >= int(d4["lower_ratio"]) >= 2


def test_hypercube_campaign_dimension_six_bracket() -> None:
    _, _, rows = _parse(experiment_hypercube(6))
    d6 = rows[-1]
    assert d6["d"] == "6"
    assert int(d6["cert_lower"]) >= 3  # density certificate from zeta_3 = 2
    assert int(d6["adversary_psi"]) <= 6
    assert d6["coloring_psi_exact"] == "true"
    assert int(d6["coloring_psi"]) <= 6


def test_hypercube_campaign_solves_only_cubes_that_need_no_search() -> None:
    # the campaign reports exact_f where the sandwich closes, which is
    # where exact_f explores no node, so no budget could change a row
    _, _, rows = _parse(experiment_hypercube(6))
    solved = [int(r["d"]) for r in rows if r["exact_f"]]
    assert solved == [2, 3]
    for d in solved:
        res = alt.exact_f(alt.make_hypercube(d), budget=0)
        assert res.exact and res.explored == 0


# experiment_hypercube(6) without wall_ms, recorded with zeta on
# cubes from the branch-and-bound search: Harper's closed form must match it
HYPERCUBE_D6 = """\
# schema=altitude/experiment-hypercube/1
d,n,m,lower_ratio,upper_dim,coloring_psi,coloring_psi_exact,cert_lower,exact_f,exact_f_is_exact,adversary_psi,adversary_verified
2,4,4,2,2,2,true,2,2,true,,
3,8,12,2,3,3,true,3,3,true,,
4,16,32,2,4,4,true,3,,,4,true
5,32,80,3,5,5,true,3,,,5,true
6,64,192,3,6,6,true,4,,,6,true"""


def test_hypercube_campaign_golden_to_dimension_eight() -> None:
    csv = experiment_hypercube(8)
    lines = [ln if ln.startswith("#") else ln.rsplit(",", 1)[0] for ln in csv.strip().splitlines()]
    assert "\n".join(lines[:7]) == HYPERCUBE_D6
    _, _, rows = _parse(csv)
    assert [r["d"] for r in rows] == [str(d) for d in range(2, 9)]
    assert [int(r["cert_lower"]) for r in rows] == [2, 3, 3, 3, 4, 5, 5]
    assert [int(r["lower_ratio"]) for r in rows] == [2, 2, 2, 3, 3, 3, 3]


def test_hypercube_campaign_reproducible() -> None:
    a = experiment_hypercube(3)
    b = experiment_hypercube(3)
    assert _strip_wall(a) == _strip_wall(b)


def test_hypercube_rows_read_the_sandwich_to_dimension_ten() -> None:
    # past the goldens' d = 8 too, each row is the sandwich's bracket, and
    # exact_f is filled exactly where the bracket closes
    _, _, rows = _parse(experiment_hypercube(10))
    assert [r["d"] for r in rows] == [str(d) for d in range(2, 11)]
    for r in rows:
        s = alt.f_bounds_sandwich(alt.make_hypercube(int(r["d"])))
        assert (int(r["cert_lower"]), int(r["coloring_psi"])) == (s.lower, s.upper)
        closed = s.lower == s.upper
        assert bool(r["exact_f"]) == closed and bool(r["adversary_psi"]) != closed


def test_gnp_campaign_rows_and_guarantees() -> None:
    schema_line, header, rows = _parse(
        experiment_gnp([60], 0.2, omega=5.0, eps=0.1, trials=5, seed=0)
    )
    assert schema_line == f"# schema={SCHEMA_GNP}"
    assert header == list(GNP_HEADER) + ["wall_ms"]
    assert len(rows) == 5
    for r in rows:
        assert int(r["pedestrian_max"]) >= int(r["sqrt_floor"])
        assert r["floor_ok"] == "true"
        assert int(r["adversary_psi"]) <= int(r["delta_plus_1"])
        assert int(r["coloring_psi"]) <= int(r["delta_plus_1"])
    assert [r["trial"] for r in rows] == ["0", "1", "2", "3", "4"]
    assert len({r["seed"] for r in rows}) == 5


def test_gnp_threshold_rule_records_union_bound() -> None:
    # the density rule caps p at 1; at this size the union exponent is negative
    _, _, rows = _parse(
        experiment_gnp([60], None, omega=3.0, eps=0.1, trials=1, seed=0, psi_budget=20000)
    )
    r = rows[0]
    assert r["p"] == "1"
    k = alt.gnp_k(60, 1.0, 3.0, 0.1)
    assert r["gnp_k"] == str(k)
    want = alt.gnp_union_bound_log(60, 1.0, k)
    assert math.isclose(float(r["union_exponent"]), want.exponent, rel_tol=1e-5)
    assert r["union_negative"] == "true" and want.certifies


def test_gnp_threshold_rule_gives_complete_graphs_below_1280() -> None:
    # at omega = 5, omega*ln(n)/sqrt(n) >= 1 for every n <= 1279, so every
    # row without p is K_n
    _, _, rows = _parse(experiment_gnp([30], None, omega=5.0, eps=0.1, trials=2, seed=0))
    assert [(r["p"], r["m"]) for r in rows] == [("1", "435")] * 2
    assert alt.gnp_threshold_p(1279, 5.0) >= 1 > alt.gnp_threshold_p(1280, 5.0)


def test_gnp_vacuous_rows() -> None:
    _, _, rows = _parse(experiment_gnp([12], 0.0, omega=5.0, eps=0.1, trials=1, seed=0))
    r = rows[0]
    assert r["m"] == "0" and r["pedestrian_max"] == "0" and r["sqrt_floor"] == "0"
    assert r["union_exponent"] == "" and r["union_negative"] == ""
    # fixed small p on a sparse instance: k = 0 flags the bound as vacuous
    _, _, rows2 = _parse(experiment_gnp([60], 0.2, omega=5.0, eps=0.1, trials=1, seed=0))
    assert rows2[0]["gnp_k"] == "0"


def test_gnp_campaign_reproducible() -> None:
    kw = dict(p=0.3, omega=5.0, eps=0.1, trials=2, seed=9)
    a = experiment_gnp([14, 18], **kw)
    b = experiment_gnp([14, 18], **kw)
    assert _strip_wall(a) == _strip_wall(b)


# Golden rows, recorded before the campaign rows took their coloring bound
# from upper_bound_report; the reproducibility tests above compare two runs
# of one version and cannot catch a refactor that changes rows.
HYPERCUBE_4 = [
    "# schema=altitude/experiment-hypercube/1",
    "d,n,m,lower_ratio,upper_dim,coloring_psi,coloring_psi_exact,cert_lower,"
    "exact_f,exact_f_is_exact,adversary_psi,adversary_verified",
    "2,4,4,2,2,2,true,2,2,true,,",
    "3,8,12,2,3,3,true,3,3,true,,",
    "4,16,32,2,4,4,true,3,,,4,true",
]

GNP_14_18_SEED_9 = [
    "# schema=altitude/experiment-gnp/1",
    "n,p,trial,seed,m,delta_plus_1,coloring_psi,coloring_psi_exact,adversary_psi,"
    "adversary_verified,pedestrian_max,sqrt_floor,floor_ok,gnp_k,union_exponent,union_negative",
    "14,0.3,0,9,33,7,6,true,6,true,7,3,true,0,,",
    "14,0.3,1,1000012,33,7,6,true,6,true,6,3,true,0,,",
    "18,0.3,0,2000015,41,9,6,true,6,true,8,3,true,0,,",
    "18,0.3,1,3000018,49,10,8,true,7,true,8,3,true,0,,",
]

# One campaign-gnp row (n = 100, p = 0.1, seed 0, m = 511): its anneal
# scores moves on a graph of many rank blocks.  Recorded while every anneal
# move was scored by a full trail sweep.
GNP_100_SEED_0 = [
    "# schema=altitude/experiment-gnp/1",
    "n,p,trial,seed,m,delta_plus_1,coloring_psi,coloring_psi_exact,adversary_psi,"
    "adversary_verified,pedestrian_max,sqrt_floor,floor_ok,gnp_k,union_exponent,union_negative",
    "100,0.1,0,0,511,21,15,true,15,true,15,4,true,0,,",
]

# A denser campaign (m 230-566), where each row's portfolio costs most.
# Recorded while the portfolio also scored random orderings, which never
# set a row's value.
GNP_40_60_SEED_0 = [
    "# schema=altitude/experiment-gnp/1",
    "n,p,trial,seed,m,delta_plus_1,coloring_psi,coloring_psi_exact,adversary_psi,"
    "adversary_verified,pedestrian_max,sqrt_floor,floor_ok,gnp_k,union_exponent,union_negative",
    "40,0.3,0,0,230,18,14,true,14,true,13,4,true,0,,",
    "40,0.3,1,1000003,235,20,14,true,14,true,15,4,true,0,,",
    "60,0.3,0,2000006,505,23,21,true,21,true,20,5,true,0,,",
    "60,0.3,1,3000009,566,31,21,true,21,true,22,5,true,0,,",
]


def _golden(csv: str) -> list[str]:
    return [ln.rsplit(",", 1)[0] for ln in csv.strip().splitlines()]


def test_hypercube_campaign_golden() -> None:
    assert _golden(experiment_hypercube(4)) == HYPERCUBE_4


def test_gnp_campaign_golden() -> None:
    csv = experiment_gnp([14, 18], p=0.3, omega=5.0, eps=0.1, trials=2, seed=9)
    assert _golden(csv) == GNP_14_18_SEED_9


def test_gnp_campaign_golden_many_blocks() -> None:
    csv = experiment_gnp([100], p=0.1, omega=5.0, eps=0.1, trials=1, seed=0)
    assert _golden(csv) == GNP_100_SEED_0


def test_gnp_campaign_golden_dense() -> None:
    csv = experiment_gnp([40, 60], p=0.3, omega=5.0, eps=0.1, trials=2, seed=0)
    assert _golden(csv) == GNP_40_60_SEED_0


def test_gnp_row_builds_one_misra_gries_coloring(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = []

    def counted(g):
        calls.append(g)
        return alt.greedy_edge_coloring(g)

    # every module that bound the name at import, whichever of them a row uses
    for name, mod in list(sys.modules.items()):
        if name.startswith("altitude.") and hasattr(mod, "greedy_edge_coloring"):
            monkeypatch.setattr(mod, "greedy_edge_coloring", counted)
    experiment_gnp([20], 0.3, omega=5.0, eps=0.1, trials=1, seed=0)
    assert len(calls) == 1


def test_rows_to_csv_rejects_header_mismatch() -> None:
    row = ExperimentRow((("a", "1"),), 0)
    with pytest.raises(ValueError):
        rows_to_csv("s", ("b",), [row])


def test_campaign_argument_validation() -> None:
    with pytest.raises(ValueError):
        experiment_hypercube(1)
    with pytest.raises(ValueError):
        experiment_gnp([10], 0.5, omega=5.0, eps=0.1, trials=0)


def test_gnp_campaign_rejects_an_empty_n_list() -> None:
    # no size means no row: a header-only CSV would read as a finished campaign
    with pytest.raises(ValueError, match="n_list"):
        experiment_gnp([], 0.5, omega=5.0, eps=0.1, trials=1)


# ----------------------------------------------------------------------
# Rows on worker processes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_list,p,trials,golden", [([40, 60], 0.3, 2, GNP_40_60_SEED_0),
                                                    ([100], 0.1, 1, GNP_100_SEED_0)],
                         ids=["40-60", "100"])
def test_gnp_campaign_rows_do_not_depend_on_workers(childless, n_list, p, trials,
                                                    golden) -> None:
    for workers in (1, None):  # in-process, then forked where two CPUs are usable
        csv = experiment_gnp(n_list, p, omega=5.0, eps=0.1, trials=trials, seed=0,
                             workers=workers)
        assert _golden(csv) == golden
        assert childless()


def _placeholder_row(n, p, trial, *rest) -> ExperimentRow:
    return ExperimentRow(tuple((h, f"{n}.{trial}") for h in GNP_HEADER), 0)


def _refuse_fork():
    raise AssertionError("a process was forked")


@pytest.fixture
def inline_scheduler(monkeypatch: pytest.MonkeyPatch) -> dict[str, list]:
    """The row scheduler run by this process alone: records the process count
    each campaign asked for and the rows in the order claimed, and computes a
    placeholder row for each, starting no process."""
    seen: dict[str, list] = {"procs": [], "claimed": []}
    pooled = experiments._pooled_rows

    def inline(params, procs):
        seen["procs"].append(procs)
        return pooled(params, 1)

    def placeholder(n, p, trial, *rest):
        seen["claimed"].append((n, trial))
        return _placeholder_row(n, p, trial)

    monkeypatch.setattr(experiments, "_pooled_rows", inline)
    monkeypatch.setattr(experiments, "_gnp_row", placeholder)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    return seen


@pytest.mark.parametrize("workers,affinity,cpus,want", [
    (None, 8, 8, 3), (None, 2, 8, 2), (None, 1, 8, None), (None, None, 2, 2),
    (64, 8, 8, 3), (2, 8, 8, 2), (1, 8, 8, None)])
def test_gnp_pool_size_is_capped(inline_scheduler, monkeypatch, workers, affinity, cpus,
                                 want) -> None:
    # rows of n = 10 expect 45 edges at p = 1: they do not count towards the size.
    # affinity None: an OS without sched_getaffinity, where the CPU count is used
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                            raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    experiment_gnp([10, 20, 30, 40], 1.0, omega=5.0, eps=0.1, trials=1, workers=workers)
    assert inline_scheduler["procs"] == ([] if want is None else [want])


def test_gnp_pool_takes_the_largest_rows_first(inline_scheduler) -> None:
    csv = experiment_gnp([20, 40, 30], 0.5, omega=5.0, eps=0.1, trials=2)
    assert inline_scheduler["claimed"] == [(40, 0), (40, 1), (30, 0), (30, 1), (20, 0), (20, 1)]
    # but the CSV keeps parameter order
    assert [ln.split(",")[0] for ln in csv.splitlines()[2:]] == [
        "20.0", "20.1", "40.0", "40.1", "30.0", "30.1"]


@pytest.mark.parametrize("n_list", [[10, 12, 14], [10, 100]], ids=["all-small", "one-large"])
def test_gnp_campaign_of_small_rows_starts_no_process(monkeypatch, n_list) -> None:
    monkeypatch.setattr(os, "fork", _refuse_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    csv = experiment_gnp(n_list, 0.1, omega=5.0, eps=0.1, trials=1, seed=0)
    assert len(csv.splitlines()) == 2 + len(n_list)


_PARAMS = [(n, 0.5, 0, n, 5.0, 0.1, 1000) for n in (20, 40, 30, 50, 10, 60)]


def _counting_forks(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    forks: list[int] = []
    fork = os.fork

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def test_scheduler_reaps_every_child_after_a_clean_run(monkeypatch, childless) -> None:
    forks = _counting_forks(monkeypatch)
    monkeypatch.setattr(experiments, "_gnp_row", _placeholder_row)
    rows = experiments._pooled_rows(_PARAMS, 3)
    assert len(forks) == 2
    assert rows == [_placeholder_row(*args) for args in _PARAMS]
    assert childless()


def test_scheduler_claims_each_row_once_on_more_processes_than_cores(
        monkeypatch, tmp_path, childless, deadline) -> None:
    # A lost update of the claim counter would run some row twice (the
    # second touch raises) or never (its file is missing).
    params = [(n, 0.5, 0, n, 5.0, 0.1, 1000) for n in range(10, 70)]

    def row(n, p, trial, *rest):
        (tmp_path / str(n)).touch(exist_ok=False)
        return _placeholder_row(n, p, trial)

    monkeypatch.setattr(experiments, "_gnp_row", row)
    rows = experiments._pooled_rows(params, 4)
    assert rows == [_placeholder_row(*args) for args in params]
    assert len(list(tmp_path.iterdir())) == len(params)
    assert childless()


@pytest.mark.parametrize("in_child", [True, False], ids=["in-a-child", "in-this-process"])
def test_scheduler_reaps_every_child_after_a_failing_row(monkeypatch, childless, deadline,
                                                         in_child) -> None:
    # Rows fail only on one side; the other side's rows take 50 ms, so that
    # the side that fails claims rows too.
    here = os.getpid()

    def row(n, p, trial, *rest):
        if (os.getpid() != here) == in_child:
            raise alt.SoundnessError(f"planted failure on n={n}")
        time.sleep(0.05)
        return _placeholder_row(n, p, trial)

    forks = _counting_forks(monkeypatch)
    monkeypatch.setattr(experiments, "_gnp_row", row)
    with pytest.raises(alt.SoundnessError, match="planted failure"):
        experiments._pooled_rows(_PARAMS, 2)
    assert len(forks) == 1
    assert childless()


def test_campaigns_without_a_pool_do_not_load_its_modules() -> None:
    # loading them adds ~2.5 MB to the resident memory of a process
    # The last campaign forks a process where two CPUs are usable.
    code = (
        "import os, sys\n"
        "from altitude.cli import main\n"
        "from altitude.experiments import _usable_cpus\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "main(['experiment', 'hypercube', '--d-max', '3', '--workers', '2'])\n"
        "main(['experiment', 'gnp', '--n-list', '20', '--p', '0.2', '--trials', '2',"
        " '--workers', '2'])\n"
        "main(['experiment', 'gnp', '--n-list', '100,150', '--p', '0.1', '--trials', '1',"
        " '--workers', '2'])\n"
        "print(len(forks), _usable_cpus() > 1)\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    src = str(Path(experiments.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.splitlines()[-2] in ("1 True", "0 False")
    assert done.stdout.splitlines()[-1] == "[]"
