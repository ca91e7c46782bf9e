"""The verified upper-bound report: the coloring ordering and the climb over
its class order."""

from __future__ import annotations

import hashlib
import random

import pytest

import altitude as alt
from altitude import adversary
from altitude.paths import PathValues, _Capped, _start_values
from corpus import named_small_graphs, random_graphs


def test_matching_is_solved_immediately() -> None:
    rep = alt.upper_bound_report(alt.make_matching(4), seed=0, steps=50)
    assert rep.best_psi == 1
    assert rep.verified


def test_search_never_beats_altitude_and_verifies_claims() -> None:
    for g in random_graphs(15, 3, 7, seed=81, m_max=6):
        f = alt.exact_f(g).value
        rep = alt.upper_bound_report(g, seed=2, steps=40)
        assert rep.best_psi >= f
        if rep.verified:
            chk = alt.longest_increasing_path(g, rep.witness)
            assert chk.exact and chk.length == rep.best_psi


def test_coloring_start_bounded_by_class_count() -> None:
    for g in random_graphs(15, 4, 12, seed=83):
        col = alt.greedy_edge_coloring(g)
        rep = alt.upper_bound_report(g, seed=3, steps=20)
        assert rep.strategies[0][1] <= col.num_colors
        assert rep.best_psi <= col.num_colors


def test_search_is_reproducible() -> None:
    g = alt.sample_gnp(30, 0.3, seed=11)
    a = alt.upper_bound_report(g, seed=9, steps=50)
    b = alt.upper_bound_report(g, seed=9, steps=50)
    assert a == b


def test_report_hits_dimension_bound_on_hypercubes() -> None:
    for d in (2, 3, 4):
        rep = alt.upper_bound_report(alt.make_hypercube(d), seed=0, steps=300)
        assert rep.best_psi <= d
        assert rep.verified


def test_report_on_triangle_and_random_graph() -> None:
    rep = alt.upper_bound_report(alt.make_complete(3), seed=0)
    assert rep.best_psi == 2 and rep.verified

    g = alt.sample_gnp(60, 0.2, seed=1)
    delta = max(len(g.adj[v]) for v in range(g.n))
    rep = alt.upper_bound_report(g, seed=0, steps=30)
    assert rep.best_psi <= delta + 1
    assert rep.best_psi >= alt.sqrt_degree_floor(g)


def test_report_structure_is_consistent() -> None:
    g = alt.sample_gnp(12, 0.4, seed=2)
    rep = alt.upper_bound_report(g, seed=0, steps=200)
    names = [name for name, _, _ in rep.strategies]
    assert names == ["coloring", "class-climb"]
    assert rep.best_psi == min(v for _, v, _ in rep.strategies)
    wit = alt.longest_increasing_path(g, rep.witness)
    assert rep.verified and wit.exact and wit.length == rep.best_psi


def test_report_below_floor_raises_soundness_error(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(adversary, "sqrt_degree_floor", lambda g: 10**6)
    with pytest.raises(alt.SoundnessError):
        alt.upper_bound_report(alt.make_complete(3), seed=0, steps=50)


def test_report_on_hypercube_builds_no_misra_gries(monkeypatch: pytest.MonkeyPatch) -> None:
    def refuse(g):
        raise AssertionError("Misra-Gries coloring built on a canonical hypercube")

    monkeypatch.setattr(adversary, "greedy_edge_coloring", refuse)
    rep = alt.upper_bound_report(alt.make_hypercube(4), seed=0, steps=100)
    assert rep.strategies[0] == ("coloring", 4, True)


def test_report_strategies_golden() -> None:
    g = alt.sample_gnp(12, 0.4, seed=2)
    rep = alt.upper_bound_report(g, seed=0, steps=200)
    assert rep.strategies == (("coloring", 6, True), ("class-climb", 4, True))


def test_report_rejects_negative_steps() -> None:
    with pytest.raises(ValueError):
        alt.upper_bound_report(alt.make_complete(3), seed=0, steps=-1)


@pytest.fixture(scope="module")
def trace_graphs() -> dict[str, alt.Graph]:
    cases = dict(named_small_graphs())
    cases.update((f"corpus-{i}", g) for i, g in enumerate(random_graphs(20, 4, 30, 141, m_max=200)))
    cases.update((f"q{d}", alt.make_hypercube(d)) for d in range(2, 8))
    cases["gnp150"] = alt.sample_gnp(150, 0.1, 2000006)
    cases["k6"] = alt.make_complete(6)
    return cases


# (name, m, strategies, sha256 of repr(witness.rank) cut to 16 hex digits)
# of upper_bound_report at seed 5, 40 moves and psi budget 20000: a changed
# move draw, acceptance rule or resumed psi shows here.  The climb anneals
# sigma at temperature zero (a move is kept unless psi rises), hence the
# test's name.
REPORT_GOLDEN = [
    ("k3", 3, (("coloring", 2, True), ("class-climb", 2, True)), "dfd5726d86ed2c8b"),
    ("k4", 6, (("coloring", 3, True), ("class-climb", 2, True)), "7f1dd4d049804022"),
    ("c4", 4, (("coloring", 3, True), ("class-climb", 2, True)), "20ab288bda044160"),
    ("c5", 5, (("coloring", 3, True), ("class-climb", 3, True)), "944ac174cff13f1d"),
    ("c6", 6, (("coloring", 3, True), ("class-climb", 3, True)), "7b856784abb247e0"),
    ("p3", 2, (("coloring", 2, True), ("class-climb", 2, True)), "cf4dabed2ce0f4fc"),
    ("p5", 4, (("coloring", 3, True), ("class-climb", 2, True)), "a01fb6b8c253fcfd"),
    ("star4", 4, (("coloring", 2, True), ("class-climb", 2, True)), "891c85e1d5cc6b06"),
    ("star2", 2, (("coloring", 2, True), ("class-climb", 2, True)), "cf4dabed2ce0f4fc"),
    ("matching3", 3, (("coloring", 1, True), ("class-climb", 1, True)), "dfd5726d86ed2c8b"),
    ("corpus-0", 34, (("coloring", 5, True), ("class-climb", 5, True)), "6699827885d4f7ad"),
    ("corpus-1", 33, (("coloring", 7, True), ("class-climb", 6, True)), "58931af4ae5d9c3b"),
    ("corpus-2", 3, (("coloring", 2, True), ("class-climb", 2, True)), "dfd5726d86ed2c8b"),
    ("corpus-3", 139, (("coloring", 13, True), ("class-climb", 12, True)), "ee7d4585acc557eb"),
    ("corpus-4", 25, (("coloring", 5, True), ("class-climb", 5, True)), "70e68ab1451c1372"),
    ("corpus-5", 192, (("coloring", 16, True), ("class-climb", 15, True)), "4c0b6417b8821f82"),
    ("corpus-6", 17, (("coloring", 6, True), ("class-climb", 4, True)), "8d98a853e7542c1a"),
    ("corpus-7", 89, (("coloring", 10, True), ("class-climb", 9, True)), "31d35a27fe1326d7"),
    ("corpus-8", 153, (("coloring", 15, True), ("class-climb", 13, True)), "d0975d46292a8bb4"),
    ("corpus-9", 49, (("coloring", 8, True), ("class-climb", 8, True)), "89fe62d1c5ac96d5"),
    ("corpus-10", 47, (("coloring", 7, True), ("class-climb", 6, True)), "e26b2f59a3468fc7"),
    ("corpus-11", 198, (("coloring", 15, True), ("class-climb", 14, True)), "516426dde4231619"),
    ("corpus-12", 194, (("coloring", 16, True), ("class-climb", 15, True)), "af5f624381206fd2"),
    ("corpus-13", 1, (("coloring", 1, True), ("class-climb", 1, True)), "28cb03b06c288e88"),
    ("corpus-14", 16, (("coloring", 4, True), ("class-climb", 3, True)), "fe90f9928a9f78a4"),
    ("corpus-15", 76, (("coloring", 10, True), ("class-climb", 9, True)), "97b1c633c4bf4e7d"),
    ("corpus-16", 34, (("coloring", 7, True), ("class-climb", 6, True)), "028fb30d3e1cd815"),
    ("corpus-17", 14, (("coloring", 4, True), ("class-climb", 3, True)), "5b6b6fd2c6c41b75"),
    ("corpus-18", 1, (("coloring", 1, True), ("class-climb", 1, True)), "28cb03b06c288e88"),
    ("corpus-19", 1, (("coloring", 1, True), ("class-climb", 1, True)), "28cb03b06c288e88"),
    ("q2", 4, (("coloring", 2, True),), "78e607e26b5e14e8"),
    ("q3", 12, (("coloring", 3, True),), "a42881d04cbf36d1"),
    ("q4", 32, (("coloring", 4, True),), "163f39c5226125d9"),
    ("q5", 80, (("coloring", 5, True),), "38b10ab7e8adc1f2"),
    ("q6", 192, (("coloring", 6, True),), "cb1c99e9e5cb87db"),
    ("q7", 448, (("coloring", 7, True),), "acdc7c228d298c11"),
    ("gnp150", 1130, (("coloring", 20, True), ("class-climb", 20, True)), "bc913a3b89cc4eaf"),
    ("k6", 15, (("coloring", 4, True), ("class-climb", 4, True)), "de63bd8d7ebb3029"),
]


@pytest.mark.parametrize("case", REPORT_GOLDEN, ids=[c[0] for c in REPORT_GOLDEN])
def test_anneal_trace_golden(trace_graphs, case) -> None:
    name, m, strategies, rank_digest = case
    g = trace_graphs[name]
    rep = alt.upper_bound_report(g, seed=5, steps=40, psi_budget=20000)
    got = hashlib.sha256(repr(rep.witness.rank).encode()).hexdigest()[:16]
    assert (g.m, rep.strategies, got) == (m, strategies, rank_digest)


def _blocked(g: alt.Graph, sigma: list[list[int]], rng: random.Random) -> alt.EdgeOrdering:
    """The class-blocked ordering of the classes in the order ``sigma``,
    each shuffled inside its block."""
    rank, r = [0] * g.m, 0
    for cls in sigma:
        for e in rng.sample(cls, len(cls)):
            r += 1
            rank[e] = r
    return alt.EdgeOrdering(tuple(rank))


def test_psi_of_a_class_blocked_ordering_ignores_the_order_inside_blocks() -> None:
    # An increasing path takes at most one edge per class, so psi depends
    # only on the class order: reshuffling every block keeps it.
    rng = random.Random(5)
    for g in random_graphs(40, 5, 16, seed=87):
        classes = alt.greedy_edge_coloring(g).classes()
        for _ in range(3):
            sigma = rng.sample(classes, len(classes))
            values = {alt.longest_increasing_path(g, _blocked(g, sigma, rng)).length
                      for _ in range(4)}
            assert len(values) == 1


class _Recording(PathValues):
    """The climb's state, recording B and a fresh psi search of the placed
    ordering whenever every edge is placed, and each capped placement."""

    def __init__(self, g: alt.Graph, budget: int | None = None) -> None:
        super().__init__(g, budget)
        self.g, self.full, self.caps = g, [], []

    def place(self, e: int) -> None:
        try:
            super().place(e)
        except _Capped:
            self.caps.append(len(self.full))
            raise
        if len(self.placed) == self.g.m:
            rank = [0] * self.g.m
            for r, x in enumerate(reversed(self.placed), 1):
                rank[x] = r
            fresh = alt.longest_increasing_path(self.g, alt.EdgeOrdering(tuple(rank)))
            self.full.append((self.best, fresh.length))
            assert len(self.undo) == len(self.placed)


def _climbs(monkeypatch, budget_of) -> list[_Recording]:
    """Run the climb on corpus graphs, with the psi budget ``budget_of``
    gives for the coloring's psi search, and return the recorded states."""
    states = []

    def recording(g, budget=None):
        states.append(_Recording(g, budget))
        return states[-1]

    monkeypatch.setattr(adversary, "PathValues", recording)
    for i, g in enumerate(random_graphs(20, 8, 14, seed=7)):
        coloring = alt.greedy_edge_coloring(g)
        base = alt.coloring_ordering(g, coloring, i)
        res = _start_values(g, base, None)[0]
        psi, ordering = adversary._climb(g, coloring, base, res.length, 30, i, budget_of(res))
        assert psi == states[-1].full[-1][0] == alt.longest_increasing_path(g, ordering).length
    return states


def test_resumed_psi_matches_a_fresh_search_after_class_swaps(monkeypatch) -> None:
    # Every move unplaces the blocks up to the higher swapped position and
    # places them again: B must then be psi of the new ordering.
    states = _climbs(monkeypatch, lambda res: None)
    full = [pair for state in states for pair in state.full]
    assert len(full) > 400 and all(b == fresh for b, fresh in full)
    assert all(not state.caps for state in states)


def test_a_capped_move_restores_the_previous_psi(monkeypatch) -> None:
    # At the budget its coloring ordering needed, a move that needs more is
    # capped; undone, the state's B must be psi of the previous ordering.
    states = _climbs(monkeypatch, lambda res: res.explored)
    assert sum(len(state.caps) for state in states) > 100
    for state in states:
        assert all(b == fresh for b, fresh in state.full)
        for at in state.caps:  # the first full placement after the cap restores
            assert state.full[at][0] == state.full[at - 1][0]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_report_on_a_hypercube_makes_no_class_move(monkeypatch, d) -> None:
    # Every class order of the dimension coloring has psi d, so the report
    # skips the climb there.
    g = alt.make_hypercube(d)
    if d <= 5:
        rng = random.Random(d)
        classes = alt.hypercube_dimension_coloring(g).classes()
        for _ in range(10):
            sigma = rng.sample(classes, len(classes))
            assert alt.longest_increasing_path(g, _blocked(g, sigma, rng)).length == d

    def refuse(*args):
        raise AssertionError("class climb run on a hypercube")

    monkeypatch.setattr(adversary, "_climb", refuse)
    rep = alt.upper_bound_report(g, seed=1, steps=1500)
    assert rep.strategies == (("coloring", d, True),)
    assert rep.best_psi == d and rep.verified


def test_report_scores_the_coloring_once(monkeypatch) -> None:
    # with no climb, or a climb that keeps the coloring's order, one psi
    # search; a climb that moves adds the one recheck of its ordering
    calls = []
    search = adversary.longest_increasing_path

    def counting(*args, **kwargs):
        calls.append(args[1])
        return search(*args, **kwargs)

    monkeypatch.setattr(adversary, "longest_increasing_path", counting)
    for g, steps, want in ((alt.make_hypercube(5), 100, 1), (alt.make_complete(6), 0, 1),
                           (alt.sample_gnp(12, 0.4, seed=2), 200, 2)):
        calls.clear()
        rep = alt.upper_bound_report(g, steps=steps)
        assert len(calls) == want
        assert calls[-1] == rep.witness


def test_climb_mismatch_raises_soundness_error(monkeypatch) -> None:
    # the climb's psi is resumed, so its final ordering is rescored afresh
    real = adversary._climb

    def off_by_one(*args):
        psi, ordering = real(*args)
        return psi - 1, ordering

    monkeypatch.setattr(adversary, "_climb", off_by_one)
    with pytest.raises(alt.SoundnessError, match="class climb"):
        alt.upper_bound_report(alt.sample_gnp(12, 0.4, seed=2), seed=0, steps=200)
