"""Annealing search for low-psi orderings and the verified upper-bound report."""

from __future__ import annotations

import hashlib
import random
import sys

import pytest

import altitude as alt
from altitude import adversary
from corpus import named_small_graphs, random_graphs


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


def test_report_hits_dimension_bound_on_hypercubes() -> None:
    for d in (2, 3, 4):
        rep = alt.upper_bound_report(alt.make_hypercube(d), seed=0, steps=300, restarts=1)
        assert rep.best_psi <= d
        assert rep.verified


def test_report_on_triangle_and_random_graph() -> None:
    rep = alt.upper_bound_report(alt.make_complete(3), seed=0)
    assert rep.best_psi == 2 and rep.verified

    g = alt.sample_gnp(60, 0.2, seed=1)
    delta = max(len(g.adj[v]) for v in range(g.n))
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
        ("anneal-0", 5, True),
        ("anneal-1", 5, True),
    )


@pytest.fixture(scope="module")
def trace_graphs() -> dict[str, alt.Graph]:
    cases = dict(named_small_graphs())
    cases.update((f"corpus-{i}", g) for i, g in enumerate(random_graphs(20, 4, 30, 141, m_max=200)))
    cases.update((f"q{d}", alt.make_hypercube(d)) for d in range(2, 8))
    cases["gnp150"] = alt.sample_gnp(150, 0.1, 2000006)
    cases["k6"] = alt.make_complete(6)
    return cases


# (name, m, best_psi, verified, best_history, sha256 of repr(best_ordering.rank)
# cut to 16 hex digits) of a 400-step anneal from random_ordering(g, 3) at
# seed 5 and psi budget 20000, recorded while every move was scored by a
# full trail sweep and drawn by random.sample; the history pins the step of
# every improvement, so a changed move score or draw shows here.  The values
# of corpus-8, corpus-11 and gnp150 are from the top-down path search, which
# settles psi checks there that the earlier search left capped at 20000
# nodes (reported as trail values); their orderings are unchanged.  Those of
# corpus-5 and corpus-8 are from the search that keeps maskless failure
# records as K: corpus-5's last improvement is verified psi 20 (its trail
# value 26 before, same ordering), and corpus-8's start ordering is proved
# psi 17 in 19524 edges scanned, so the anneal keeps it from step 0.
TRACE_GOLDEN = [
    ("k3", 3, 2, True, ((0, 2),), "732b5bb2b29c30ea"),
    ("k4", 6, 2, True, ((0, 3), (13, 2)), "ebeeab3ba225d42d"),
    ("c4", 4, 2, True, ((0, 3), (1, 2)), "465d4849a19a4648"),
    ("c5", 5, 3, True, ((0, 3),), "cb6b4bd4ad550ec8"),
    ("c6", 6, 2, True, ((0, 3), (5, 2)), "aa4bdd2508b6e077"),
    ("p3", 2, 2, True, ((0, 2),), "34e6f08aad18ac98"),
    ("p5", 4, 2, True, ((0, 2),), "2f8f39f9f9e46314"),
    ("star4", 4, 2, True, ((0, 2),), "2f8f39f9f9e46314"),
    ("star2", 2, 2, True, ((0, 2),), "34e6f08aad18ac98"),
    ("matching3", 3, 1, True, ((0, 1),), "732b5bb2b29c30ea"),
    ("corpus-0", 34, 5, True, ((0, 7), (17, 6), (176, 5)), "e822f6910eba7213"),
    ("corpus-1", 33, 7, True, ((0, 8), (22, 7)), "2bec6367e71576df"),
    ("corpus-2", 3, 2, True, ((0, 2),), "732b5bb2b29c30ea"),
    ("corpus-3", 139, 15, True, ((0, 18), (16, 17), (329, 15)), "45e0e248dabc49c0"),
    ("corpus-4", 25, 6, True, ((0, 7), (22, 6)), "9c18b54b702c91c6"),
    ("corpus-5", 192, 20, True, ((0, 29), (1, 28), (127, 27), (339, 20)), "1eef1fe8e96b8797"),
    ("corpus-6", 17, 5, True, ((0, 6), (8, 5)), "e8e098bfc6a84080"),
    ("corpus-7", 89, 12, True, ((0, 15), (8, 14), (18, 13), (173, 12)), "93beb074590cbd9b"),
    ("corpus-8", 153, 17, True, ((0, 17),), "b1c9632922c53d07"),
    ("corpus-9", 49, 9, True, ((0, 10), (18, 9)), "187f58b1691bedc6"),
    ("corpus-10", 47, 8, True, ((0, 8),), "93c0e62dd323156c"),
    ("corpus-11", 198, 18, True, ((0, 19), (92, 18)), "220e6e2183bfc54e"),
    ("corpus-12", 194, 28, False,
     ((0, 33), (4, 32), (5, 31), (25, 30), (28, 29), (32, 28)),
     "9ac750f5cf5ddee1"),
    ("corpus-13", 1, 1, True, ((0, 1),), "28cb03b06c288e88"),
    ("corpus-14", 16, 4, True, ((0, 5), (48, 4)), "b56c5f9f60281fd6"),
    ("corpus-15", 76, 11, True, ((0, 12), (130, 11)), "8f47ae7fb8bac392"),
    ("corpus-16", 34, 7, True, ((0, 8), (12, 7)), "4540533404fec556"),
    ("corpus-17", 14, 3, True, ((0, 6), (1, 5), (2, 4), (18, 3)), "0aeb294090dc1dc1"),
    ("corpus-18", 1, 1, True, ((0, 1),), "28cb03b06c288e88"),
    ("corpus-19", 1, 1, True, ((0, 1),), "28cb03b06c288e88"),
    ("q2", 4, 2, True, ((0, 3), (1, 2)), "465d4849a19a4648"),
    ("q3", 12, 3, True, ((0, 4), (231, 3)), "5a44eec87a87716c"),
    ("q4", 32, 6, True, ((0, 7), (10, 6)), "a45e6d8b55cc0100"),
    ("q5", 80, 7, True, ((0, 10), (1, 9), (45, 8), (50, 7)), "aa747671e1ea07b8"),
    ("q6", 192, 10, True, ((0, 12), (90, 10)), "faed037664b87417"),
    ("q7", 448, 12, True, ((0, 16), (31, 14), (171, 12)), "8919b3aa4518ea76"),
    ("gnp150", 1130, 29, True, ((0, 35), (188, 33), (219, 32), (362, 29)), "99514a7226995d73"),
]


@pytest.mark.parametrize("case", TRACE_GOLDEN, ids=[c[0] for c in TRACE_GOLDEN])
def test_anneal_trace_golden(trace_graphs, case) -> None:
    name, m, best_psi, verified, history, rank_digest = case
    g = trace_graphs[name]
    tr = alt.local_search_min_psi(g, alt.random_ordering(g, 3), steps=400, seed=5, psi_budget=20000)
    got = hashlib.sha256(repr(tr.best_ordering.rank).encode()).hexdigest()[:16]
    assert (g.m, tr.best_psi, tr.verified, tr.best_history, got) == (
        m, best_psi, verified, history, rank_digest
    )


# (name, seed, best_psi, verified, best_history, rank digest) of anneals
# like TRACE_GOLDEN's but of 300 * m steps, so the temperature steps down
# twice, and no trail value reaches the ceil(2m/n) floor, so every step runs.
# They pin the fixed schedule (t0 from 20 probe moves, decay 0.95, 100 * m
# moves per level): with no cooling (decay 1) k6 finds 4 at step 3515,
# corpus-1 6 at 4818 and corpus-14 3 at 2243, and a decay of 0.94 or 0.96,
# or 50 * m or 200 * m moves per level, changes at least one trace.
COOLING_GOLDEN = [
    ("k6", 4, 5, True, ((0, 5),), "c529344654f6f47b"),
    ("corpus-1", 5, 7, True, ((0, 8), (22, 7)), "2bec6367e71576df"),
    ("corpus-14", 2, 4, True, ((0, 5), (2, 4)), "e443d4ac03565ff1"),
]


@pytest.mark.parametrize("case", COOLING_GOLDEN, ids=[c[0] for c in COOLING_GOLDEN])
def test_anneal_cooling_golden(monkeypatch, trace_graphs, case) -> None:
    name, seed, best_psi, verified, history, rank_digest = case
    g = trace_graphs[name]
    steps = 300 * g.m
    drawn = []
    sample = adversary._sample_pair

    def draw(randrange, m):
        drawn.append(m)
        return sample(randrange, m)

    monkeypatch.setattr(adversary, "_sample_pair", draw)
    tr = alt.local_search_min_psi(g, alt.random_ordering(g, 3), steps=steps, seed=seed,
                                  psi_budget=20000)
    got = hashlib.sha256(repr(tr.best_ordering.rank).encode()).hexdigest()[:16]
    assert len(drawn) == 20 + steps  # the probe moves, then every step
    assert (tr.best_psi, tr.verified, tr.best_history, got) == (
        best_psi, verified, history, rank_digest
    )


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_anneal_from_the_dimension_ordering_draws_no_move(monkeypatch, d) -> None:
    # Its trail value d = 2m/n is already the floor ceil(2m/n) below which no
    # ordering's trail lies, so no move could pass the test for a psi check.
    # TRACE_GOLDEN covers both exits of a run from a random start: k4, c4,
    # c6, q2 and q3 reach the floor partway through, while p3, p5, star2,
    # star4 and matching3 start at it.
    def refuse(randrange, m):
        raise AssertionError("annealing move drawn from an ordering at the trail floor")

    monkeypatch.setattr(adversary, "_sample_pair", refuse)
    g = alt.make_hypercube(d)
    init = alt.coloring_ordering(g, alt.hypercube_dimension_coloring(g), seed=0)
    tr = alt.local_search_min_psi(g, init, steps=1500, seed=1)
    assert tr.iterations == 1500
    assert tr.best_history == ((0, d),)
    assert tr.best_ordering == init and tr.verified


def test_report_scores_the_anneal_start_once(monkeypatch) -> None:
    calls = []
    search = adversary.longest_increasing_path

    def counting(*args, **kwargs):
        calls.append(args[1])
        return search(*args, **kwargs)

    monkeypatch.setattr(adversary, "longest_increasing_path", counting)
    rep = alt.upper_bound_report(alt.make_hypercube(5), restarts=1)
    assert rep.strategies == (("coloring", 5, True), ("anneal-0", 5, True))
    assert len(calls) == 1


def test_resweep_below_the_trail_floor_raises_soundness_error(monkeypatch) -> None:
    # Sweeps are exact until the first move is drawn, then return all zeros,
    # so the start (trail above the floor) passes and a move's score falls.
    drawn = []
    sample, sweep = adversary._sample_pair, adversary._trail_sweep

    def draw(randrange, m):
        drawn.append(m)
        return sample(randrange, m)

    def undercount(g, pairs, before=None, best=None):
        best = sweep(g, pairs, before, best)
        return [0] * g.n if drawn else best

    monkeypatch.setattr(adversary, "_sample_pair", draw)
    monkeypatch.setattr(adversary, "_trail_sweep", undercount)
    g = alt.make_hypercube(4)
    with pytest.raises(alt.SoundnessError):
        alt.local_search_min_psi(g, alt.random_ordering(g, 3), steps=400, seed=5)


def test_resweep_scores_every_psi_check_as_a_full_sweep(monkeypatch) -> None:
    # At each psi check the annealer's surrogate (its local new_obj) must be
    # the candidate's trail value, also where the move's re-sweep stopped
    # early at a snapshot equal to the stored one; and every stored snapshot
    # must be the sweep of the candidate's blocks up to (or from) it.  At
    # each anneal's first draw the snapshots must be those of the start
    # ordering.
    checked, early, starts, fresh = [], [], [], []
    score, draw = adversary._psi_or_trail, adversary._sample_pair
    sweep = adversary._trail_sweep

    def snapshots_match(g, loc, ordering):
        pairs = [g.edges[e] for e in ordering.inverse]
        c, size, fwd, bwd = loc["c"], loc["size"], loc["fwd"], loc["bwd"]
        return ([fwd[k] == sweep(g, pairs[: k * size]) for k in range(c + 1)]
                + [bwd[k] == sweep(g, reversed(pairs[k * size :])) for k in range(c, len(bwd))])

    def check(g, candidate, budget):
        loc = sys._getframe(1).f_locals
        if "new_obj" in loc:  # a move's check, not the start's
            i, j, c = loc["i"], loc["j"], loc["c"]
            checked.append(loc["new_obj"] == max(sweep(g, [g.edges[e] for e in candidate.inverse])))
            checked.extend(snapshots_match(g, loc, candidate))
            early.append(len(loc["new_f"]) < c - i or len(loc["new_b"]) < j - c + 1)
        return score(g, candidate, budget)

    def first_draw(randrange, m):
        if fresh:
            fresh.clear()
            loc = sys._getframe(1).f_locals
            starts.append(all(snapshots_match(loc["g"], loc, loc["init"])))
        return draw(randrange, m)

    monkeypatch.setattr(adversary, "_psi_or_trail", check)
    monkeypatch.setattr(adversary, "_sample_pair", first_draw)
    graphs = random_graphs(11, 14, 22, seed=91)
    for g in graphs:
        fresh.append(True)
        alt.local_search_min_psi(g, alt.random_ordering(g, 1), steps=1500, seed=2)
    assert len(checked) > 200 and all(checked)
    assert sum(early) >= 3
    assert len(starts) == len(graphs) and all(starts)


def test_sample_pair_replays_random_sample() -> None:
    # the annealer's draw must leave the stream, and so every trace, as
    # random.sample(range(m), 2) did
    for m in range(2, 301):
        for seed in range(20):
            want, got = random.Random(seed), random.Random(seed)
            for _ in range(50):
                assert adversary._sample_pair(got.randrange, m) == tuple(want.sample(range(m), 2))
            assert got.random() == want.random()


def test_report_rejects_negative_restarts() -> None:
    with pytest.raises(ValueError):
        alt.upper_bound_report(alt.make_complete(3), seed=0, steps=50, restarts=-1)
