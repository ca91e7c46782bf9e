"""Densest k-subset search and the density certificate for altitude floors."""

from __future__ import annotations

import random

import pytest

import altitude as alt
from corpus import named_small_graphs, random_graphs
from oracles import brute_zeta


def _edges_within(g: alt.Graph, vs: tuple[int, ...]) -> int:
    inside = set(vs)
    return sum(1 for a, b in g.edges if a in inside and b in inside)


def test_zeta_exact_matches_subset_enumeration() -> None:
    rng = random.Random(55)
    for g in random_graphs(80, 2, 10, seed=55, nonempty=False):
        k = rng.randrange(1, g.n + 1)
        res = alt.zeta_exact(g, k)
        assert res.exact
        assert res.value == brute_zeta(g, k)
        assert len(res.witness) == k
        assert len(set(res.witness)) == k
        assert _edges_within(g, res.witness) == res.value


def test_zeta_known_values() -> None:
    q3 = alt.make_hypercube(3)
    assert alt.zeta_exact(q3, 4).value == 4  # a facial 4-cycle
    assert alt.zeta_exact(q3, 2).value == 1
    for n in (4, 6):
        kn = alt.make_complete(n)
        for k in range(1, n + 1):
            assert alt.zeta_exact(kn, k).value == k * (k - 1) // 2
    assert alt.zeta_exact(alt.make_matching(4), 2).value == 1
    assert alt.zeta_exact(alt.make_star(5), 3).value == 2
    with pytest.raises(ValueError):
        alt.zeta_exact(q3, 0)
    with pytest.raises(ValueError):
        alt.zeta_exact(q3, 9)


def test_zeta_monotone_and_connected_step() -> None:
    for g in random_graphs(40, 3, 10, seed=57):
        vals = [alt.zeta_exact(g, k).value for k in range(1, g.n + 1)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        if alt.degree_stats(g).connected:
            # adding any adjacent vertex to a densest set gains an edge
            assert all(b >= a + 1 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == g.m


def test_zeta_greedy_is_a_valid_lower_bound() -> None:
    rng = random.Random(59)
    for g in random_graphs(60, 3, 14, seed=59):
        k = rng.randrange(1, g.n + 1)
        greedy = alt.zeta_greedy(g, k, seed=rng.randrange(1 << 30))
        exact = alt.zeta_exact(g, k)
        assert not greedy.exact
        assert greedy.value <= exact.value
        assert _edges_within(g, greedy.witness) == greedy.value
        assert len(greedy.witness) == k


def test_zeta_greedy_known_cases() -> None:
    assert alt.zeta_greedy(alt.make_complete(5), 3, seed=0).value == 3
    assert alt.zeta_greedy(alt.make_matching(4), 2, seed=0).value == 1
    q4 = alt.make_hypercube(4)
    g4 = alt.zeta_greedy(q4, 4, seed=0).value
    assert 3 <= g4 <= alt.zeta_exact(q4, 4).value == 4


def test_zeta_budget_exhaustion_is_sound() -> None:
    g = alt.sample_gnp(20, 0.5, seed=3)
    full = alt.zeta_exact(g, 10)
    cut = alt.zeta_exact(g, 10, budget=5)
    assert not cut.exact
    assert cut.value <= full.value
    assert _edges_within(g, cut.witness) == cut.value


def test_density_criterion_certificates() -> None:
    # K_2 at k=2: 2*1 - 2 + 1 = 1 < 1 fails, no certificate
    k2 = alt.make_complete(2)
    assert not alt.rodl_criterion(k2, 2, 1)
    # triangle-free hypercubes: zeta_3 = 2 certifies f >= 3 once avg degree > 2
    for d in (5, 8):
        qd = alt.make_hypercube(d)
        assert alt.rodl_criterion(qd, 3, 2)
    # K_4 at k=2
    assert alt.rodl_criterion(alt.make_complete(4), 2, 1)
    with pytest.raises(ValueError):
        alt.rodl_criterion(alt.make_matching(2), 2, 1)  # disconnected
    with pytest.raises(ValueError):
        alt.rodl_criterion(k2, 5, 1)


def test_density_criterion_sound_against_exact_altitude() -> None:
    for g in random_graphs(40, 3, 8, seed=61, m_max=6):
        if not alt.degree_stats(g).connected:
            continue
        fres = alt.exact_f(g)
        assert fres.exact
        for k in range(1, g.n + 1):
            if alt.rodl_criterion(g, k, alt.zeta_exact(g, k).value):
                assert fres.value >= k, (g.edges, k)


def test_sqrt_floor_from_criterion_shape() -> None:
    # with k = ceil(sqrt(avg degree)) and zeta_k <= C(k,2), the criterion
    # reduces to (k-1)^2 < avg degree, which holds by choice of k
    for g in random_graphs(40, 3, 12, seed=63):
        stats = alt.degree_stats(g)
        if not stats.connected or g.m == 0:
            continue
        k = alt.sqrt_degree_floor(g)
        if k < 1 or (k - 1) ** 2 >= stats.average_degree:
            continue
        zk = alt.zeta_exact(g, k).value
        if 2 * zk - k + 1 < stats.average_degree:
            assert alt.rodl_criterion(g, k, zk)


def test_hypercube_zeta_bound_exact_comparison() -> None:
    # zeta <= k*log2(k)/2 decided as 4**zeta <= k**k
    assert alt.hypercube_zeta_bound_check(4, 4)  # equality: 4*2/2 = 4
    assert alt.hypercube_zeta_bound_check(2, 1)  # equality: 2*1/2 = 1
    assert alt.hypercube_zeta_bound_check(1, 0)
    assert not alt.hypercube_zeta_bound_check(4, 5)
    assert not alt.hypercube_zeta_bound_check(2, 2)
    with pytest.raises(ValueError):
        alt.hypercube_zeta_bound_check(0, 1)


def test_hypercube_zeta_equals_popcount_sum() -> None:
    sums = [0]
    for i in range((1 << 20) + 1):
        sums.append(sums[-1] + i.bit_count())  # sums[k] = sum of popcount(i), i < k
    for k in range(5001):
        assert alt.hypercube_zeta(k) == sums[k]
    for j in range(1, 21):
        for k in ((1 << j) - 1, (1 << j) + 1):
            assert alt.hypercube_zeta(k) == sums[k], k
    with pytest.raises(ValueError):
        alt.hypercube_zeta(-1)


def test_hypercube_zeta_equals_searched_and_brute_zeta() -> None:
    # Harper's theorem against the branch-and-bound and the subset oracle
    for d in range(5):
        qd = alt.make_hypercube(d)
        for k in range(1, qd.n + 1):
            assert alt.hypercube_zeta(k) == alt.zeta_exact(qd, k).value, (d, k)
    q5 = alt.make_hypercube(5)
    for k in range(1, 13):
        assert alt.hypercube_zeta(k) == alt.zeta_exact(q5, k).value, k
    for d in (2, 3):
        qd = alt.make_hypercube(d)
        for k in range(1, qd.n + 1):
            assert alt.hypercube_zeta(k) == brute_zeta(qd, k), (d, k)


def _relabelled(g: alt.Graph, seed: int) -> alt.Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return alt.Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges])


def test_density_floor_on_hypercubes_needs_no_search(monkeypatch: pytest.MonkeyPatch) -> None:
    def no_search(*_args, **_kwargs):
        raise AssertionError("zeta_exact called on a recognised hypercube")

    with monkeypatch.context() as m:
        m.setattr(alt.density, "zeta_exact", no_search)
        floors = [alt.density_floor(alt.make_hypercube(d), 2**d, 200000) for d in range(1, 9)]
    assert floors == [1, 2, 3, 3, 3, 4, 5, 5]

    # a relabelled cube is not recognised and still gets the same floor by search
    searched = []
    real = alt.density.zeta_exact

    def counting(g, k, budget=None):
        searched.append(k)
        return real(g, k, budget=budget)

    monkeypatch.setattr(alt.density, "zeta_exact", counting)
    for d in (4, 5):
        g = _relabelled(alt.make_hypercube(d), seed=d)
        assert alt.hypercube_dimension(g) is None
        searched.clear()
        assert alt.density_floor(g, g.n, 200000) == 3
        assert searched


def test_zeta_takes_harper_on_recognised_cubes_and_searches_elsewhere(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    for d in range(1, 7):
        qd = alt.make_hypercube(d)
        for k in range(1, qd.n + 1):
            r = alt.density.zeta(qd, k, budget=0)
            assert (r.k, r.value, r.exact, r.explored) == (k, alt.hypercube_zeta(k), True, 0)
            assert r.witness == tuple(range(k))
            inside = set(r.witness)
            assert sum(a in inside and b in inside for a, b in qd.edges) == r.value
        for k in (0, qd.n + 1):
            with pytest.raises(ValueError):
                alt.density.zeta(qd, k)

    searched = []
    real = alt.density.zeta_exact

    def counting(g, k, budget=None):
        searched.append(k)
        return real(g, k, budget=budget)

    monkeypatch.setattr(alt.density, "zeta_exact", counting)
    for d in (3, 4):
        g = _relabelled(alt.make_hypercube(d), seed=d)
        searched.clear()
        for k in range(1, 9):
            r = alt.density.zeta(g, k)
            assert r == real(g, k)
            assert r.exact and r.value == alt.hypercube_zeta(k)
        assert searched == list(range(1, 9))
        assert not alt.density.zeta(g, 5, budget=2).exact
        for k in (0, g.n + 1):
            with pytest.raises(ValueError):
                alt.density.zeta(g, k)


def test_density_floor_builds_degree_stats_once(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = []
    real = alt.density.degree_stats

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(alt.density, "degree_stats", counting)
    for g in (alt.make_hypercube(8), alt.make_cycle(9), alt.sample_gnp(12, 0.4, 3)):
        calls.clear()
        alt.density_floor(g, g.n, budget=None)
        assert len(calls) == 1


def test_density_floor_certifies_only_oracle_backed_sizes() -> None:
    graphs = [g for _, g in named_small_graphs()] + random_graphs(40, 2, 9, seed=57)
    graphs += [alt.make_hypercube(3), alt.make_hypercube(4)]  # sparse and girth 4: they climb
    checked = 0
    for g in graphs:
        base = alt.sqrt_degree_floor(g)
        got = alt.density_floor(g, g.n, budget=None)
        if not alt.degree_stats(g).connected:
            assert got == base
            continue
        for k in range(base + 1, got + 1):
            assert alt.rodl_criterion(g, k, brute_zeta(g, k))
        if got < g.n:
            assert not alt.rodl_criterion(g, got + 1, brute_zeta(g, got + 1))
        for ceiling in range(g.n + 1):
            assert alt.density_floor(g, ceiling, budget=None) == max(base, min(got, ceiling))
        checked += got > base
    assert checked


def test_density_floor_keeps_degree_floor_on_disconnected_graph() -> None:
    g = alt.Graph.from_edges(8, [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(4, 5)])
    assert not alt.degree_stats(g).connected
    assert alt.density_floor(g, g.n, budget=None) == alt.sqrt_degree_floor(g)


# (value, witness, exact, explored) at k = 3..6 with budgets None, 5 and 50,
# recorded before the search moved from recursion to an explicit stack: the
# search must visit the same nodes in the same order.
ZETA_GOLDEN = {
    "q4": [
        [(2, (0, 1, 2), True, 57), (2, (0, 1, 2), False, 6), (2, (0, 1, 2), False, 51)],
        [(4, (0, 1, 2, 3), True, 51), (4, (0, 1, 2, 3), False, 6), (4, (0, 1, 2, 3), False, 51)],
        [(5, (0, 1, 2, 3, 4), True, 233), (5, (0, 1, 2, 3, 4), False, 6),
         (5, (0, 1, 2, 3, 4), False, 51)],
        [(7, (0, 1, 2, 3, 4, 5), True, 385), (7, (0, 1, 2, 3, 4, 5), False, 6),
         (7, (0, 1, 2, 3, 4, 5), False, 51)],
    ],
    "q5": [
        [(2, (0, 1, 2), True, 153), (2, (0, 1, 2), False, 6), (2, (0, 1, 2), False, 51)],
        [(4, (0, 1, 2, 3), True, 145), (4, (0, 1, 2, 3), False, 6), (4, (0, 1, 2, 3), False, 51)],
        [(5, (0, 1, 2, 3, 4), True, 1223), (5, (0, 1, 2, 3, 4), False, 6),
         (5, (0, 1, 2, 3, 4), False, 51)],
        [(7, (0, 1, 2, 3, 4, 5), True, 2729), (7, (0, 1, 2, 3, 4, 5), False, 6),
         (7, (0, 1, 2, 3, 4, 5), False, 51)],
    ],
    "c9": [
        [(2, (0, 1, 2), True, 17), (2, (0, 1, 2), False, 6), (2, (0, 1, 2), True, 17)],
        [(3, (0, 1, 2, 3), True, 21), (3, (0, 1, 2, 3), False, 6), (3, (0, 1, 2, 3), True, 21)],
        [(4, (0, 1, 2, 3, 4), True, 31), (4, (0, 1, 2, 3, 4), False, 6),
         (4, (0, 1, 2, 3, 4), True, 31)],
        [(5, (0, 1, 2, 3, 4, 5), True, 33), (5, (0, 1, 2, 3, 4, 5), False, 6),
         (5, (0, 1, 2, 3, 4, 5), True, 33)],
    ],
    "k6": [
        [(3, (0, 1, 2), True, 0), (3, (0, 1, 2), True, 0), (3, (0, 1, 2), True, 0)],
        [(6, (0, 1, 2, 3), True, 0), (6, (0, 1, 2, 3), True, 0), (6, (0, 1, 2, 3), True, 0)],
        [(10, (0, 1, 2, 3, 4), True, 0), (10, (0, 1, 2, 3, 4), True, 0),
         (10, (0, 1, 2, 3, 4), True, 0)],
        [(15, (0, 1, 2, 3, 4, 5), True, 0), (15, (0, 1, 2, 3, 4, 5), True, 0),
         (15, (0, 1, 2, 3, 4, 5), True, 0)],
    ],
    "gnp-12-0.4-3": [
        [(3, (0, 3, 6), True, 0), (3, (0, 3, 6), True, 0), (3, (0, 3, 6), True, 0)],
        [(5, (0, 3, 6, 11), True, 17), (5, (0, 3, 6, 11), False, 6), (5, (0, 3, 6, 11), True, 17)],
        [(7, (0, 3, 6, 10, 11), True, 23), (7, (0, 3, 6, 10, 11), False, 6),
         (7, (0, 3, 6, 10, 11), True, 23)],
        [(9, (0, 2, 3, 6, 10, 11), True, 31), (9, (0, 2, 3, 6, 10, 11), False, 6),
         (9, (0, 2, 3, 6, 10, 11), True, 31)],
    ],
    "gnp-16-0.3-7": [
        [(3, (0, 7, 9), True, 0), (3, (0, 7, 9), True, 0), (3, (0, 7, 9), True, 0)],
        [(6, (0, 7, 9, 12), True, 0), (6, (0, 7, 9, 12), True, 0), (6, (0, 7, 9, 12), True, 0)],
        [(9, (0, 2, 7, 9, 12), True, 35), (9, (0, 2, 7, 9, 12), False, 6),
         (9, (0, 2, 7, 9, 12), True, 35)],
        [(11, (0, 2, 7, 9, 11, 12), True, 71), (11, (0, 2, 7, 9, 11, 12), False, 6),
         (11, (0, 2, 7, 9, 11, 12), False, 51)],
    ],
}
ZETA_GRAPHS = {
    "q4": lambda: alt.make_hypercube(4),
    "q5": lambda: alt.make_hypercube(5),
    "c9": lambda: alt.make_cycle(9),
    "k6": lambda: alt.make_complete(6),
    "gnp-12-0.4-3": lambda: alt.sample_gnp(12, 0.4, 3),
    "gnp-16-0.3-7": lambda: alt.sample_gnp(16, 0.3, 7),
}


@pytest.mark.parametrize("name", ZETA_GOLDEN)
def test_zeta_exact_golden_search(name: str) -> None:
    g = ZETA_GRAPHS[name]()
    got = [
        [
            (r.value, r.witness, r.exact, r.explored)
            for r in (alt.zeta_exact(g, k, budget=b) for b in (None, 5, 50))
        ]
        for k in range(3, 7)
    ]
    assert got == ZETA_GOLDEN[name]
