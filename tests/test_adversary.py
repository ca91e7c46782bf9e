"""Annealing search for low-psi orderings and the verified upper-bound report."""

from __future__ import annotations

import pytest

import altitude as alt
from altitude import adversary
from corpus import random_graphs


def test_matching_is_solved_immediately() -> None:
    g = alt.make_matching(4)
    tr = alt.local_search_min_psi(g, alt.identity_ordering(g), steps=50, seed=0)
    assert tr.best_psi == 1
    assert tr.verified


def test_best_history_strictly_improves_to_final_value() -> None:
    g = alt.make_hypercube(3)
    tr = alt.local_search_min_psi(g, alt.random_ordering(g, 7), steps=2000, seed=1)
    vals = [v for _, v in tr.best_history]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == tr.best_psi
    assert tr.best_history[0][0] == 0  # the initial ordering seeds the curve


def test_hypercube_anneal_lands_in_proved_bracket() -> None:
    # f(Q_3) = 3, and the dimension coloring shows orderings with psi = 3 exist
    g = alt.make_hypercube(3)
    tr = alt.local_search_min_psi(g, alt.random_ordering(g, 7), steps=10**4, seed=1)
    assert 3 <= tr.best_psi <= 4
    assert tr.iterations == 10**4


def test_search_never_beats_altitude_and_verifies_claims() -> None:
    for g in random_graphs(15, 3, 7, seed=81, m_max=6):
        f = alt.exact_f(g).value
        tr = alt.local_search_min_psi(g, alt.identity_ordering(g), steps=400, seed=2)
        assert tr.best_psi >= f
        if tr.verified:
            chk = alt.longest_increasing_path(g, tr.best_ordering)
            assert chk.exact and chk.length == tr.best_psi


def test_coloring_start_bounded_by_class_count() -> None:
    for g in random_graphs(15, 4, 12, seed=83):
        col = alt.greedy_edge_coloring(g)
        init = alt.coloring_ordering(g, col, seed=0)
        tr = alt.local_search_min_psi(g, init, steps=100, seed=3)
        assert tr.best_history[0][1] <= col.num_colors
        assert tr.best_psi <= col.num_colors


def test_search_is_reproducible() -> None:
    g = alt.sample_gnp(10, 0.5, seed=11)
    a = alt.local_search_min_psi(g, alt.random_ordering(g, 5), steps=500, seed=9)
    b = alt.local_search_min_psi(g, alt.random_ordering(g, 5), steps=500, seed=9)
    assert a == b


def test_anneal_schedule_overrides_accepted() -> None:
    g = alt.make_hypercube(3)
    sched = alt.AnnealSchedule(t0=2.0, decay=0.9, moves_per_level=50)
    tr = alt.local_search_min_psi(g, alt.random_ordering(g, 3), steps=800, seed=4, schedule=sched)
    assert tr.best_psi >= 3


@pytest.mark.parametrize(
    "bad",
    [{"decay": 0.0}, {"decay": 1.5}, {"moves_per_level": 0}, {"t0": -1.0}],
    ids=["decay-0", "decay-1.5", "moves-0", "t0-negative"],
)
def test_anneal_schedule_rejects_growing_or_overflowing_temperature(bad) -> None:
    with pytest.raises(ValueError):
        alt.AnnealSchedule(**bad)


def test_report_hits_dimension_bound_on_hypercubes() -> None:
    for d in (2, 3, 4):
        rep = alt.upper_bound_report(alt.make_hypercube(d), seed=0, steps=300, restarts=1)
        assert rep.best_psi <= d
        assert rep.verified


def test_report_on_triangle_and_random_graph() -> None:
    rep = alt.upper_bound_report(alt.make_complete(3), seed=0)
    assert rep.best_psi == 2 and rep.verified

    g = alt.sample_gnp(60, 0.2, seed=1)
    delta = max(g.degree(v) for v in range(g.n))
    rep = alt.upper_bound_report(g, seed=0, steps=300, restarts=1)
    assert rep.best_psi <= delta + 1
    assert rep.best_psi >= alt.sqrt_degree_floor(g)


def test_report_structure_is_consistent() -> None:
    g = alt.sample_gnp(12, 0.4, seed=2)
    rep = alt.upper_bound_report(g, seed=0, steps=200, restarts=2)
    names = [name for name, _, _ in rep.strategies]
    assert "coloring" in names
    assert rep.best_psi == min(v for _, v, _ in rep.strategies)
    wit = alt.longest_increasing_path(g, rep.witness)
    if rep.verified:
        assert wit.exact and wit.length == rep.best_psi


def test_report_below_floor_raises_soundness_error(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(adversary, "sqrt_degree_floor", lambda g: 10**6)
    with pytest.raises(alt.SoundnessError):
        alt.upper_bound_report(alt.make_complete(3), seed=0, steps=50, restarts=1)


def test_report_on_hypercube_builds_no_misra_gries(monkeypatch: pytest.MonkeyPatch) -> None:
    def refuse(g):
        raise AssertionError("Misra-Gries coloring built on a canonical hypercube")

    monkeypatch.setattr(adversary, "greedy_edge_coloring", refuse)
    rep = alt.upper_bound_report(alt.make_hypercube(4), seed=0, steps=100, restarts=1)
    assert rep.strategies[0] == ("coloring", 4, True)


def test_report_strategies_golden() -> None:
    # recorded before the coloring bound moved wholly into upper_bound_report
    g = alt.sample_gnp(12, 0.4, seed=2)
    rep = alt.upper_bound_report(g, seed=0, steps=200, restarts=2)
    assert rep.strategies == (
        ("coloring", 6, True),
        ("random-0", 9, True),
        ("random-1", 7, True),
        ("anneal-0", 5, True),
        ("anneal-1", 5, True),
    )
