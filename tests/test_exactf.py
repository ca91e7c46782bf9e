"""Exact altitude search, symmetry reduction, and the bounds sandwich."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

import altitude as alt
from altitude import adversary, exactf, paths
from corpus import named_small_graphs, random_graphs
from oracles import (
    brute_completion_min, brute_f, brute_path_end, brute_psi, brute_top_value, check_witness_tops,
)

# Ranks of an ordering of make_hypercube(4), in its canonical edge order,
# with psi = 3: one below the dimension bound, and equal to the density
# floor, so f(Q_4) = 3.
Q4_PSI_3 = (
    1, 17, 9, 24, 18, 20, 10, 2, 22, 11, 12, 26, 19, 3, 28, 4,
    13, 21, 14, 31, 23, 5, 15, 6, 32, 25, 29, 16, 7, 27, 30, 8,
)


def test_exact_f_matches_factorial_enumeration() -> None:
    graphs = [g for _, g in named_small_graphs() if g.m <= 6]
    graphs += random_graphs(12, 3, 6, seed=71, m_max=6)
    for g in graphs:
        res = alt.exact_f(g)
        assert res.exact
        assert res.value == brute_f(g), g.edges
        assert res.lower == res.value
        # the witness ordering actually achieves the reported value
        wit = alt.longest_increasing_path(g, res.witness)
        assert wit.exact and wit.length == res.value


def test_f_of_q4_is_three() -> None:
    q4 = alt.make_hypercube(4)
    phi = alt.EdgeOrdering(Q4_PSI_3)
    assert brute_psi(q4, phi) == 3
    res = alt.longest_increasing_path(q4, phi)
    assert res.exact and res.length == 3
    assert alt.density_floor(q4, 16, 200000) == 3


def test_exact_f_forced_families() -> None:
    assert alt.exact_f(alt.make_complete(3)).value == 2
    assert alt.exact_f(alt.make_cycle(4)).value == 2
    assert alt.exact_f(alt.make_path(3)).value == 2
    for leaves in (2, 5, 7):
        assert alt.exact_f(alt.make_star(leaves)).value == 2
    for k in (1, 3, 4):
        assert alt.exact_f(alt.make_matching(k)).value == 1
    assert alt.exact_f(alt.Graph(4, ())).value == 0


def test_exact_f_small_named_values() -> None:
    assert alt.exact_f(alt.make_complete(4)).value == 2
    q3 = alt.exact_f(alt.make_hypercube(3))
    assert q3.exact and q3.value == 3


def test_exact_f_budget_gives_bracket() -> None:
    g = alt.sample_gnp(9, 0.8, seed=5)
    res = alt.exact_f(g, budget=3)
    assert not res.exact
    assert 1 <= res.lower <= res.value
    wit = alt.longest_increasing_path(g, res.witness)
    assert wit.exact and wit.length == res.value  # value stays an achieved upper bound


def test_edge_orbits_on_symmetric_families() -> None:
    # edge-transitive families collapse to a single orbit
    assert alt.edge_orbits(alt.make_cycle(6)) == ((0, 1, 2, 3, 4, 5),)
    assert len(alt.edge_orbits(alt.make_complete(4))) == 1
    assert len(alt.edge_orbits(alt.make_star(5))) == 1
    assert len(alt.edge_orbits(alt.make_hypercube(3))) == 1
    # the path P_4 splits: middle edge vs the two end edges
    assert alt.edge_orbits(alt.make_path(4)) == ((1,), (0, 2))


# Recorded before the search moved from recursion to an explicit stack.  On
# K_6 the 120-automorphism cap binds, so the partition is finer than the
# single true orbit and pins where the search stops.
ORBIT_GOLDEN = [
    (lambda: alt.make_path(6), ((2,), (1, 3), (0, 4))),
    (lambda: alt.make_complete(4), ((0, 1, 2, 3, 4, 5),)),
    (lambda: alt.make_complete(6), ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9, 10, 11, 12, 13, 14))),
    (lambda: alt.make_hypercube(3), (tuple(range(12)),)),
    (
        lambda: alt.sample_gnp(9, 0.4, 16),
        ((0,), (1,), (3,), (4,), (2, 5), (6,), (9,), (10,), (11,), (7, 12), (13,), (8, 14), (15,)),
    ),
]


@pytest.mark.parametrize("make, orbits", ORBIT_GOLDEN, ids=["p6", "k4", "k6", "q3", "gnp-9-0.4-16"])
def test_edge_orbits_golden_partitions(make, orbits) -> None:
    assert alt.edge_orbits(make()) == orbits


def test_edge_orbits_partition_all_edges() -> None:
    for g in random_graphs(30, 2, 10, seed=73):
        orbits = alt.edge_orbits(g)
        seen = sorted(e for orb in orbits for e in orb)
        assert seen == list(range(g.m))


def test_sandwich_brackets_known_families() -> None:
    k4 = alt.f_bounds_sandwich(alt.make_complete(4))
    assert (k4.lower, k4.upper) == (2, 3)
    assert k4.upper_candidates == (("coloring-ordering-path", 3),)

    q3 = alt.f_bounds_sandwich(alt.make_hypercube(3))
    assert (q3.lower, q3.upper) == (3, 3)
    assert q3.lower_candidates == (("sqrt-average-degree", 2), ("density-criterion-k3", 3))

    m3 = alt.f_bounds_sandwich(alt.make_matching(3))
    assert (m3.lower, m3.upper) == (1, 1)


@pytest.mark.parametrize("d", range(2, 15))
def test_density_floor_reaches_the_hypercube_ratio(d: int) -> None:
    # ceil(d / log2 d), the paper's floor on f(Q_d), never beats the density
    # floor, so the sandwich leaves it out
    assert alt.density_floor(alt.make_hypercube(d), d, None) >= alt.hypercube_k(d)


def test_degree_floor_reaches_the_complete_graph_floor() -> None:
    # ceil((sqrt(4n-3) - 1)/2), Graham and Kleitman's floor on f(K_n), never
    # beats the degree floor ceil(sqrt(n-1)), so the sandwich leaves it out
    for n in range(2, 81):
        lower, _ = alt.graham_kleitman(n)
        assert alt.sqrt_degree_floor(alt.make_complete(n)) >= math.ceil(lower), n


@pytest.mark.parametrize("n", range(2, 12))
def test_exact_f_on_k_n_at_budget_0_reports_the_sandwich_upper(n: int) -> None:
    # the sandwich's upper bound is the value of the ordering the search
    # starts from, so at budget 0 the reported value is that bound
    res = alt.exact_f(alt.make_complete(n), budget=0)
    assert res.value == res.bounds.upper


def test_sandwich_consistent_with_exact_value_on_corpus() -> None:
    for g in random_graphs(25, 3, 7, seed=79, m_max=6):
        s = alt.f_bounds_sandwich(g)
        assert s.lower <= s.upper
        f = alt.exact_f(g).value
        assert s.lower <= f <= s.upper
        # every individual candidate is itself a sound bound on the altitude
        assert all(v <= f for _, v in s.lower_candidates)
        assert all(f <= v for _, v in s.upper_candidates)


def test_exact_f_respects_certified_floor_on_hypercube() -> None:
    res = alt.exact_f(alt.make_hypercube(3))
    # the dimension bound and density certificate pinch the value to 3
    assert res.lower == 3 and res.value == 3 and res.exact


@pytest.mark.parametrize("d", range(1, 7))
def test_exact_f_starts_q_d_at_the_dimension_bound(d: int) -> None:
    # the incumbent is the dimension ordering, so even at budget 0 the
    # reported value is d (a Misra-Gries ordering gives d + 1 for d = 4..6)
    g = alt.make_hypercube(d)
    res = alt.exact_f(g, budget=0)
    assert res.value == res.bounds.upper == d
    wit = alt.longest_increasing_path(g, res.witness)
    assert wit.exact and wit.length == d


def _connected_gnm(rng: random.Random, n: int, m: int) -> alt.Graph:
    while True:
        g = alt.sample_gnp(n, 2 * m / (n * (n - 1)), rng.randrange(1 << 30))
        if g.m == m and alt.degree_stats(g).connected:
            return g


def test_sandwich_incumbent_is_the_portfolio_coloring_entry() -> None:
    # The sandwich's ordering and psi are the report's coloring entry, with
    # no class climb: off the cubes, the Misra-Gries coloring ordering at
    # seed 0.
    rng = random.Random(131)
    graphs = random_graphs(300, 5, 9, 5, m_max=13)
    graphs += [_connected_gnm(rng, n, m) for n, m in ((6, 8), (7, 8), (8, 9), (7, 10), (8, 12))
               for _ in range(3)]
    for g in graphs:
        s = alt.f_bounds_sandwich(g)
        rep = alt.upper_bound_report(g, seed=0, steps=0)
        assert rep.verified
        assert (s.ordering, s.upper) == (rep.witness, rep.best_psi), g.edges
        if alt.hypercube_dimension(g) is None:
            assert s.ordering == alt.coloring_ordering(g, alt.greedy_edge_coloring(g), seed=0)


def test_inexact_start_value_raises_soundness_error(monkeypatch: pytest.MonkeyPatch) -> None:
    # the start value is the coloring entry's psi, which must be verified
    real = adversary.longest_increasing_path

    def inexact(g, ordering, budget=None):
        return dataclasses.replace(real(g, ordering, budget), exact=False)

    monkeypatch.setattr(adversary, "longest_increasing_path", inexact)
    with pytest.raises(alt.SoundnessError):
        alt.exact_f(alt.make_cycle(5))


class _CountingValues(paths.PathValues):
    """Counts the searches: the path values that neither the witness rule
    nor a prefix maximum settles."""

    searches = 0

    def _search(self, *args):
        self.searches += 1
        return super()._search(*args)


def _unplaced(g: alt.Graph, state: paths.PathValues) -> list[int]:
    return [x for x in range(g.m) if x not in state.placed]


def _random_walk(g: alt.Graph, state: paths.PathValues, rng: random.Random, steps: int):
    """Place (rank) and unplace random edges, yielding after each step that
    places one."""
    for _ in range(steps):
        unplaced = _unplaced(g, state)
        if state.placed and (not unplaced or rng.random() < 0.3):
            state.unplace()
            continue
        state.place(rng.choice(unplaced))
        yield


def _snapshot(state: paths.PathValues) -> tuple:
    """What ``unplace`` restores: the incumbent, the placed edges, the prefix
    maxima and every entry but its K and failure record, which the searches
    above it may only tighten."""
    return (state.best, state.best_path, list(state.placed), [list(p) for p in state.pre],
            [[(s[0], s[1], s[3], s[6]) for s in entries] for entries in state.kids])


def _vertex_set(mask: int) -> set[int]:
    return {x for x in range(mask.bit_length()) if mask >> x & 1}


def _check_placed_values(g: alt.Graph, state: paths.PathValues) -> None:
    """K of each placed direction (a, b) of an edge e bounds the longest
    path that takes e from a and then falls in rank from b, among the edges
    placed before e, and a failure record (L, M) bounds it on the paths that
    also avoid M; every witness top is checked against these longest paths."""
    at = {e: i for i, e in enumerate(state.placed)}
    start = {}
    for entries in state.kids:
        for d, b, k, _, length, mask, _ in entries[1:]:
            e = d >> 1
            a = sum(g.edges[e]) - b
            before = state.placed[:at[e]]
            start[d] = want = 1 + brute_path_end(g, before, b, {a})
            assert k >= want, (g.edges, state.placed, d)
            if length <= g.m:
                assert 1 + brute_path_end(g, before, b, {a} | _vertex_set(mask)) <= length
    check_witness_tops(g, state, start)


def test_top_values_match_brute_force_on_random_prefixes() -> None:
    # Random walks place (rank) and unplace edges; at every prefix B is the
    # longest path among the placed edges, and the value of each unplaced
    # edge is the larger of B and the brute-force longest path that ends with
    # it once it takes the next rank.  ``values`` stops after the first value
    # that reaches its stop.  Unplacing restores the state, and every K and
    # record that the searches wrote stays sound.
    rng = random.Random(97)
    graphs = [g for _, g in named_small_graphs()]
    graphs += random_graphs(20, 4, 8, seed=89, m_max=10)
    graphs += [alt.make_complete(5), alt.make_hypercube(3)]
    searches = checked = 0
    for g in graphs:
        state = _CountingValues(g)
        saved = []
        for _ in range(6 * g.m):
            unplaced = _unplaced(g, state)
            if state.placed and (not unplaced or rng.random() < 0.3):
                state.unplace()
                assert _snapshot(state) == saved.pop()
                continue
            saved.append(_snapshot(state))
            state.place(rng.choice(unplaced))
            prefix = state.placed
            assert state.best == max(brute_path_end(g, prefix, x, set()) for x in range(g.n))
            unplaced = _unplaced(g, state)
            if not unplaced:
                continue
            want = [max(state.best, brute_top_value(g, prefix, x)) for x in unplaced]
            assert state.values(unplaced, g.m + 1) == want, (g.edges, prefix)
            stop = rng.randrange(state.best, max(want) + 2)
            cut = next((i + 1 for i, w in enumerate(want) if w >= stop), len(want))
            assert state.values(unplaced, stop) == want[:cut]
            _check_placed_values(g, state)
            checked += len(unplaced)
        searches += state.searches
    # the witness rule and the prefix maxima left enough to the search
    assert checked > 500 and searches > 100


def test_path_ends_avoiding_two_vertices_match_brute_force() -> None:
    # The pair cut needs a prefix path of t edges ending at a that avoids
    # both b and c: a monotone path of t edges from a among the placed edges.
    # ``reaches`` answers from a's witness top where it can and searches
    # otherwise; like the pair cut, the test asks only for t up to a's
    # prefix maximum.  The largest t it reaches is the longest such path,
    # and at every t its answer is the brute-force one.
    rng = random.Random(101)
    graphs = [g for _, g in named_small_graphs()]
    graphs += random_graphs(20, 4, 8, seed=103, m_max=10)
    graphs += [alt.make_complete(5), alt.make_hypercube(3)]
    searches = checked = 0
    for g in graphs:
        if g.n < 3:
            continue
        state = _CountingValues(g)
        for _ in _random_walk(g, state, rng, 4 * g.m):
            x = rng.randrange(g.n)
            for b in range(g.n):
                for c in range(b + 1, g.n):
                    if x in (b, c):
                        continue
                    want = brute_path_end(g, state.placed, x, {b, c})
                    top = state.pre[x][-1]  # reaches asks for no t above it
                    assert want <= top
                    longest = 0
                    while longest < top and state.reaches(x, (b, c), longest + 1):
                        longest += 1
                    assert longest == want, (g.edges, state.placed, x, b, c)
                    t = rng.randrange(1, want + 2)
                    if t <= top:
                        assert state.reaches(x, (b, c), t) == (want >= t), (g.edges, x, b, c, t)
                    checked += 1
            _check_placed_values(g, state)
        searches += state.searches
    assert checked > 2000 and searches > 100


def test_node_cuts_are_sound_on_random_prefixes() -> None:
    # The top-value cut claims that every completion of a prefix reaches the
    # largest value of an unranked edge; the pair cut, firing at t, that
    # every one reaches t + 2.  The minimum over all completions must meet
    # both.
    rng = random.Random(107)
    graphs = [g for _, g in named_small_graphs() if 2 <= g.m <= 7]
    graphs += random_graphs(60, 4, 7, seed=109, m_max=7)
    graphs += [alt.make_complete(4), alt.make_cycle(7)]
    fired = pair_beyond_top = 0
    for g in graphs:
        state = paths.PathValues(g)
        for _ in _random_walk(g, state, rng, 3 * g.m):
            unplaced = _unplaced(g, state)
            if not unplaced:
                continue
            best = brute_completion_min(g, state.placed)
            top = max(state.values(unplaced, g.m + 1))
            assert best >= top, (g.edges, state.placed)
            forced = [t + 2 for t in range(g.m)
                      if exactf._pair_forces(state, unplaced, t)]
            if forced:
                assert best >= max(forced), (g.edges, state.placed)
                fired += 1
                pair_beyond_top += max(forced) > top
            _check_placed_values(g, state)
    # the pair cut fires, and often proves more than the top-value cut
    assert fired > 100 and pair_beyond_top > 10


@pytest.mark.parametrize("seed", [1, 4])
def test_exact_f_proves_small_gnp_within_the_default_budget(seed: int) -> None:
    # Without the node cuts these took 768145 and 1310996 nodes, past the
    # CLI's default budget of 200000, and ended as the bracket [2, 3].
    res = alt.exact_f(alt.sample_gnp(8, 0.4, seed), budget=200000)
    assert res.exact and res.value == 3 and res.explored < 1000


# f of each graph of random_graphs(300, 5, 9, 5, m_max=13), one digit per
# graph, recorded before the search expanded one ordering per class of
# equivalent orderings; every one was proved exact at budget 200000, and the
# 140 with m <= 6 match brute_f.  That
# search explored 90643 nodes on the whole corpus, the reduced one 24452.
CORPUS_F = (
    "213333332233221322232222232332233333323333333332222233313333"
    "322233333332133333223221331123232333223332213332312322332223"
    "233232222232223323223323332221233323231233332223233233312322"
    "332133312331322333112322322223233331233232223223222233122233"
    "222332323332332323332333333221333313323222233333223232332323"
)


def test_exact_f_values_and_work_on_the_corpus() -> None:
    explored = 0
    for g, f in zip(random_graphs(300, 5, 9, 5, m_max=13), CORPUS_F, strict=True):
        res = alt.exact_f(g, budget=200000)
        assert (res.value, res.lower, res.exact) == (int(f), int(f), True), g.edges
        if g.m <= 6:
            assert res.value == brute_f(g), g.edges
        explored += res.explored
    # a deterministic work gate: losing a search reduction fails here
    assert explored <= 24452


# The searches of exact_f's path values (the directions that neither the
# witness rule nor a prefix maximum settles, and the pair cut's path ends)
# summed over the corpus above, as recorded when every search came to start
# at a vertex.  A lost witness-rule settle shows here as a count rather than
# a clock.
CORPUS_F_SEARCHES = 36823


def test_exact_f_searches_stay_under_their_recorded_ceiling(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    states = []

    def counting(g: alt.Graph) -> _CountingValues:
        states.append(_CountingValues(g))
        return states[-1]

    monkeypatch.setattr(exactf, "PathValues", counting)
    for g in random_graphs(300, 5, 9, 5, m_max=13):
        alt.exact_f(g, budget=200000)
    assert sum(state.searches for state in states) <= CORPUS_F_SEARCHES


def _petersen() -> alt.Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return alt.Graph.from_edges(10, outer + spokes + inner)


def test_exact_f_proves_k6_and_petersen() -> None:
    # Before sleep sets, K_6 took 174011 nodes and Petersen stayed at the
    # bracket [3, 4] after 200000.  The node counts and witnesses pin the
    # search's work and order.
    k6 = alt.exact_f(alt.make_complete(6), budget=20000)
    assert (k6.value, k6.lower, k6.exact, k6.explored) == (4, 4, True, 17783)
    assert k6.witness.rank == (9, 1, 14, 12, 6, 15, 5, 7, 3, 11, 4, 13, 2, 8, 10)
    g = _petersen()
    assert g.m == 15 and all(len(a) == 3 for a in g.adj)
    pet = alt.exact_f(g, budget=200000)
    assert (pet.value, pet.lower, pet.exact, pet.explored) == (4, 4, True, 27768)
    assert pet.witness.rank == (9, 5, 2, 13, 6, 8, 3, 11, 1, 14, 12, 10, 15, 4, 7)
    assert pet.bounds.lower == 3  # the search, not the sandwich, closed it


def test_exact_f_caps_k7_at_its_budget() -> None:
    # K_7 stays at the bracket [3, 5]; the witness is the sandwich's
    # coloring ordering, which the capped search did not beat.
    k7 = alt.exact_f(alt.make_complete(7), budget=5000)
    assert (k7.value, k7.lower, k7.exact, k7.explored) == (5, 3, False, 5001)
    assert k7.witness.rank == (
        17, 7, 10, 13, 1, 6, 20, 5, 12, 15, 8, 14, 4, 16, 3, 2, 9, 19, 21, 18, 11)


def test_exact_f_under_relabelling_and_edge_deletion() -> None:
    # Two relations that need no oracle, so they reach graphs past the
    # m <= 6 of brute_f: f does not depend on vertex labels, and an
    # ordering of G restricted to G - e has no longer increasing path.
    rng = random.Random(113)
    deletions = 0
    for g in random_graphs(80, 5, 9, seed=127, m_max=12):
        res = alt.exact_f(g, budget=200000)
        assert res.exact
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = alt.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        moved = alt.exact_f(h, budget=200000)
        assert (moved.value, moved.exact) == (res.value, res.exact), (g.edges, perm)
        for e in range(g.m):
            smaller = alt.exact_f(alt.Graph(g.n, g.edges[:e] + g.edges[e + 1:]), budget=200000)
            assert smaller.exact and smaller.value <= res.value, (g.edges, e)
            deletions += 1
    assert deletions > 400


# (value, lower, explored, exact, witness ranks) of exact_f at budget 10000,
# recorded when the top-value and pair cuts came in.  The search must expand
# the same nodes in the same order, so all of it repeats.  "explored" was
# re-recorded when sleeping edges stopped making children: k5 36 -> 34, c7
# 26 -> 19, pool0 92 -> 87, pool2 102 -> 58, pool4 256 -> 204, pool5 417 ->
# 238, pool8 335 -> 240, pool9 139 -> 92, pool11 294 -> 133; every value,
# bracket and witness stayed.  Before the cuts,
# five items were capped with brackets pool0, pool4, pool5, pool11 [2, 3] and
# pool8 [2, 4]; each now proves 3, inside its old bracket, and every item
# that was exact keeps its value.  q3's witness was re-recorded when the
# sandwich took the dimension ordering from the portfolio (it was the
# Misra-Gries coloring ordering); its value and bracket stayed.
SEARCH_GOLDEN = {
    "k5": (3, 3, 34, True, (1, 3, 7, 8, 5, 9, 4, 2, 10, 6)),
    "c7": (3, 3, 19, True, (1, 4, 6, 5, 2, 3, 7)),
    "c8": (2, 2, 9, True, (1, 5, 6, 2, 7, 3, 8, 4)),
    "q3": (3, 3, 0, True, (2, 5, 9, 6, 11, 3, 10, 12, 1, 8, 7, 4)),
    "pool0": (3, 3, 87, True, (1, 3, 4, 8, 11, 7, 12, 5, 6, 2, 9, 10)),
    "pool1": (2, 2, 12, True, (1, 6, 3, 5, 4, 2)),
    "pool2": (3, 3, 58, True, (4, 1, 6, 5, 3, 2, 7)),
    "pool3": (2, 2, 19, True, (3, 1, 5, 6, 2, 4)),
    "pool4": (3, 3, 204, True, (1, 4, 8, 11, 5, 2, 9, 10, 3, 12, 7, 6)),
    "pool5": (3, 3, 238, True, (1, 4, 5, 11, 2, 8, 9, 3, 6, 7, 10, 12)),
    "pool6": (2, 2, 0, True, (1, 3, 4, 2)),
    "pool7": (3, 3, 19, True, (9, 7, 3, 1, 2, 6, 5, 4, 8)),
    "pool8": (3, 3, 240, True, (1, 8, 9, 4, 2, 11, 5, 6, 10, 7, 3, 12)),
    "pool9": (3, 3, 92, True, (1, 4, 5, 7, 6, 2, 8, 3)),
    "pool10": (2, 2, 1, True, (1, 2, 3)),
    "pool11": (3, 3, 133, True, (8, 9, 7, 6, 1, 3, 5, 2, 4)),
}


def _golden_graphs() -> dict[str, alt.Graph]:
    named = {"k5": alt.make_complete(5), "c7": alt.make_cycle(7), "c8": alt.make_cycle(8),
             "q3": alt.make_hypercube(3)}
    pool = random_graphs(12, 5, 8, seed=83, m_max=12)
    return named | {f"pool{i}": g for i, g in enumerate(pool)}


@pytest.mark.parametrize("name", sorted(SEARCH_GOLDEN))
def test_exact_f_search_golden(name: str) -> None:
    res = alt.exact_f(_golden_graphs()[name], budget=10000)
    assert (res.value, res.lower, res.explored, res.exact, res.witness.rank) == SEARCH_GOLDEN[name]


def test_wrong_search_value_raises_soundness_error(monkeypatch: pytest.MonkeyPatch) -> None:
    # child values stuck at 0 let a leaf claim a value its witness does not
    # have; the recheck of that witness must catch it
    monkeypatch.setattr(paths.PathValues, "values", lambda self, xs, stop: [0] * len(xs))
    with pytest.raises(alt.SoundnessError):
        alt.exact_f(alt.make_complete(5))
