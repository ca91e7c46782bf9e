"""Longest increasing trail (DP) and longest increasing path (pruned DFS)."""

from __future__ import annotations

import hashlib
import random
import re

import pytest

import altitude as alt
from altitude.paths import PathValues, _start_values, _trail_sweep
from corpus import psi_check_instances, random_instances
from oracles import (
    brute_psi, brute_start_path, brute_suffix_trail, brute_trail, check_witness_tops,
)


def test_trail_matches_oracle_on_small_instances() -> None:
    for g, phi in random_instances(150, 2, 9, seed=21, m_max=8):
        res = alt.longest_increasing_trail(g, phi)
        assert res.length == brute_trail(g, phi)
        assert res.kind == "trail"
        assert alt.verify_witness(g, phi, res)


def _pairs(g, edges):
    return [g.edges[e] for e in edges]


def test_value_only_trail_matches_trail_sweep_and_oracle() -> None:
    # The value-only sweep (no before list) must agree with the
    # witness-recording one: the same best[] forward and in reverse, and a
    # before list that grows by one per pair.
    for g, phi in random_instances(150, 2, 9, seed=23, m_max=8):
        want = brute_trail(g, phi)
        pairs = _pairs(g, phi.inverse)
        assert max(_trail_sweep(g, pairs)) == want
        assert alt.longest_increasing_trail(g, phi).length == want
        for sweep in (pairs, pairs[::-1]):
            before = []
            assert _trail_sweep(g, sweep, before) == _trail_sweep(g, sweep)
            assert len(before) == len(sweep)


def test_reverse_sweep_before_matches_oracle() -> None:
    # A reverse sweep records S_u(r+1) and S_v(r+1) on reaching e of rank r.
    for g, phi in random_instances(60, 2, 8, seed=24, m_max=8):
        before = []
        _trail_sweep(g, reversed(_pairs(g, phi.inverse)), before)
        for e, (u, v) in enumerate(g.edges):
            r = phi.rank[e]
            want = (brute_suffix_trail(g, phi, u, r + 1), brute_suffix_trail(g, phi, v, r + 1))
            assert before[g.m - r] == want, (e, r)  # the sweep reaches rank r at m - r


def test_trail_value_splits_at_every_rank_cut() -> None:
    # An increasing trail's part below a cut q ends where its part from q on
    # starts: the value is max over x of F_x(q) + S_x(q), the forward sweep
    # of the ranks below q and the reverse sweep of the rest.
    for g, phi in random_instances(60, 2, 12, seed=25):
        pairs = _pairs(g, phi.inverse)
        want = max(_trail_sweep(g, pairs))
        if g.m <= 6:
            assert want == brute_trail(g, phi)
        for q in range(g.m + 1):
            f, s = _trail_sweep(g, pairs[:q]), _trail_sweep(g, reversed(pairs[q:]))
            assert max(a + b for a, b in zip(f, s)) == want, q


def test_path_matches_oracle_on_small_instances() -> None:
    for g, phi in random_instances(150, 2, 9, seed=22, m_max=8):
        res = alt.longest_increasing_path(g, phi)
        assert res.exact
        assert res.length == brute_psi(g, phi)
        assert res.kind == "path"
        assert alt.verify_witness(g, phi, res)


def _entries(state) -> dict[int, list]:
    """The entry of every placed directed edge d, by d (each list's first
    entry stands for its vertex's empty path)."""
    return {s[0]: s for entries in state.kids for s in entries[1:]}


def _head_bound(g, phi, bound, e: int, head: int) -> int:
    """U of edge e entering ``head``: 1 + the largest K of head's edges
    ranked above e, read from the final K (the pass's U, less any K lowered
    since)."""
    r = phi.rank[e]
    return 1 + max((bound[2 * f + (head > w)] for w, f in g.adj[head] if phi.rank[f] > r),
                   default=0)


def test_start_values_bound_each_edge_and_equal_it_where_witnessed() -> None:
    # K[d] bounds the longest increasing path that starts with directed edge
    # d.  Each vertex list's witness top, at every prefix, is a path of its
    # prefix maximum of K edges, and that maximum is then the brute-force
    # longest path from the vertex through those first edges.  The search,
    # alone and behind the trail shortcut, finds psi whenever it reports an
    # exact result.  K falls below its U where a search ran: its search
    # failed at the incumbent, or a frame it entered closed with no blocking
    # vertex, which lowers K to the gap.  The second family holds 13 K
    # lowered so, 9 of them tight, so a K set one too low fails there.
    witnessed = tight_below = 0
    corpus = random_instances(300, 4, 8, seed=28, m_max=10)
    corpus += random_instances(60, 8, 12, seed=36, m_max=24)
    for g, phi in corpus:
        psi = brute_psi(g, phi)
        res, state = _start_values(g, phi, None)
        assert res.exact and res.length == psi
        bound = {d: s[2] for d, s in _entries(state).items()}
        start = {}
        for e, (u, v) in enumerate(g.edges):
            for d, tail, head in ((2 * e, u, v), (2 * e + 1, v, u)):
                start[d] = want = brute_start_path(g, phi, e, tail)
                assert bound[d] >= want, (e, tail)
                tight_below += want == bound[d] < _head_bound(g, phi, bound, e, head)
        witnessed += check_witness_tops(g, state, start)
        for budget in (None, 5, 50):
            search = _start_values(g, phi, budget)[0]
            for r in (search, alt.longest_increasing_path(g, phi, budget)):
                assert alt.verify_witness(g, phi, r)
                assert r.length == psi if r.exact else r.length <= psi
    assert witnessed > 1000 and tight_below > 200


def _vertex_set(mask: int) -> frozenset[int]:
    return frozenset(x for x in range(mask.bit_length()) if mask >> x & 1)


def _records(g, state) -> dict[int, tuple[int, int]]:
    """The failure records (L, M) that ``_start_values`` left in the entries
    of its state, by directed edge; an entry holds L = m + 1 where none was
    written."""
    return {d: (s[4], s[5]) for d, s in _entries(state).items() if s[4] <= g.m}


def test_failure_records_bound_each_edge_on_paths_avoiding_their_mask() -> None:
    # records[d] = (L, M): no increasing path that starts with directed edge
    # d and visits no vertex of M after d is longer than L, and M never holds
    # d's head.  A capped search keeps the records written before the cap,
    # so every budget is checked; so is psi wherever the result is exact.
    # The edge that a search settles gets no record (its K is the record's
    # L), so the first family holds 1821 records; the second adds 708.
    written = tight = 0
    corpus = random_instances(300, 5, 10, seed=29, m_max=16)
    corpus += random_instances(100, 6, 10, seed=31, m_max=20)
    for g, phi in corpus:
        psi = brute_psi(g, phi)
        for budget in (None, 3, 20, 100):
            res, state = _start_values(g, phi, budget)
            assert res.length == psi if res.exact else res.length <= psi
            records = _records(g, state)
            for e, (u, v) in enumerate(g.edges):
                for d, tail, head in ((2 * e, u, v), (2 * e + 1, v, u)):
                    if d not in records:
                        continue
                    length, mask = records[d]
                    assert not mask >> head & 1, (e, tail)
                    want = brute_start_path(g, phi, e, tail, _vertex_set(mask))
                    assert want <= length, (e, tail, budget)
                    written += 1
                    tight += want == length and mask != 0
    assert written > 2000 and tight > 1000


def test_every_search_leaves_no_vertex_marked() -> None:
    # A search marks its blocked and path vertices in state.seen and clears
    # them however it ends: out of children, at ``need``, capped, or run by
    # ``values`` or ``reaches``.  The G(50, .45) run is capped mid-search.
    g = alt.sample_gnp(50, 0.45, 12345)
    res, state = _start_values(g, alt.random_ordering(g, 7), 2000)
    assert not res.exact and not any(state.seen)
    stops = 0
    for g, phi in random_instances(60, 6, 14, seed=37):
        res, state = _start_values(g, phi, None)
        assert res.exact and not any(state.seen)
        state = PathValues(g)
        half = g.m // 2
        for e in reversed(phi.inverse[half:]):
            state.place(e)
        state.values(list(phi.inverse[:half]), g.m)
        assert not any(state.seen)
        for a in range(g.n):
            for w, _ in g.adj[a]:
                state.reaches(a, (w,), state.pre[a][-1])
                assert not any(state.seen)
            length, found = state._search((a,), -1, 1)
            stops += found is not None
            assert length <= 1 and not any(state.seen)
    assert stops > 100


def test_capped_placement_leaves_the_state_as_it_was() -> None:
    # A capped place() pushes nothing: placed and undo stay paired and B is
    # the value of the placed edges, so unplacing every edge restores the
    # empty state.  The capped incumbent is still the result's.
    g = alt.sample_gnp(40, 0.5, 3)
    phi = alt.random_ordering(g, 1)
    res, state = _start_values(g, phi, 500)
    assert not res.exact and len(state.placed) == len(state.undo) < g.m
    top = list(reversed(phi.inverse))[:len(state.placed)]
    assert state.placed == top
    want = _start_values(g, phi, None)[1]
    for _ in range(g.m - len(top)):
        want.unplace()
    assert state.best == want.best <= res.length
    while state.placed:
        state.unplace()
    assert (state.best, state.undo, any(state.seen)) == (0, [], False)
    assert all(len(kids) == 1 for kids in state.kids) and all(p == [0] for p in state.pre)


# Edges scanned by the unbudgeted psi searches of the corpus below, summed,
# as recorded when maskless failure records became K.  A change that loses
# a cut shows here as a count rather than a clock; one that saves work
# should lower the value.
PSI_WORK_CEILING = 10401670

# SHA-256 of every search's (length, exact, explored, vertices, edges) over
# the same 72 searches, recorded before the vertex-bit table and the written
# out directions of ``PathValues.place``.  Unlike ``PSI_CHECK`` it covers
# n = 60 and 100 without a budget, so a change in any witness or count on
# the large instances shows here.
PSI_WORK_DIGEST = "a00adf53e5fdd9248ad1d5fdeccec8c1852fd250b37bb1c66dfc950bff6b021b"


def test_psi_work_stays_under_its_recorded_ceiling() -> None:
    results = []
    for s in range(8):
        for n, p in ((30, 0.5), (40, 0.4), (50, 0.35), (60, 0.3), (100, 0.5)):
            g = alt.sample_gnp(n, p, 100 * s + n)
            phis = [alt.coloring_ordering(g, alt.greedy_edge_coloring(g), s)]
            if n < 100:  # a random one of G(100, .5) is open at 200M edges
                phis.append(alt.random_ordering(g, s))
            for phi in phis:
                res = alt.longest_increasing_path(g, phi)
                assert res.exact
                results.append(res)
    total = sum(r.explored for r in results)
    assert total <= PSI_WORK_CEILING, total
    digest = hashlib.sha256(
        repr([(r.length, r.exact, r.explored, r.vertices, r.edges) for r in results]).encode()
    ).hexdigest()
    assert digest == PSI_WORK_DIGEST


# (exact count, sum of explored, SHA-256 of every (length, exact, vertices,
# edges)) of the 500-instance psi check, per budget.  Instances 245 and 401
# are proved at 20000 but capped at 2000, with the right length.
PSI_CHECK = {
    2000: (325, 456760, "9fe9ab337d6efe3a8dae8179dd4b9cfe293592a1c51ca01a4d777ce2bfa4d113"),
    20000: (426, 2379143, "39e17df2619a99ff1ba2f76bcd3389d5e9947eff858972e01ea7f1879c790fe5"),
}


def test_psi_check_repeats_its_recorded_results() -> None:
    instances = psi_check_instances()
    for budget, want in PSI_CHECK.items():
        results = [alt.longest_increasing_path(g, phi, budget) for g, phi in instances]
        digest = hashlib.sha256(
            repr([(r.length, r.exact, r.vertices, r.edges) for r in results]).encode()
        ).hexdigest()
        got = (sum(r.exact for r in results), sum(r.explored for r in results), digest)
        assert got == want, budget


def test_path_at_most_trail_and_trail_floor() -> None:
    for g, phi in random_instances(80, 3, 20, seed=23):
        p = alt.longest_increasing_path(g, phi)
        t = alt.longest_increasing_trail(g, phi)
        assert p.length <= t.length
        assert t.length >= -(-2 * g.m // g.n)  # every ordering admits a trail >= ceil(2m/n)


# Metamorphic relations, checked where no oracle reaches (m up to ~110):
# reversing an ordering reverses every increasing path, and a vertex
# relabelling that keeps each edge's rank maps paths onto paths.
META_BUDGET = 20000


def _psi_pairs(transform) -> list[tuple[int, int, int]]:
    """(m, psi(g, phi), psi of the transformed instance) wherever both settle."""
    pairs = []
    rng = random.Random(32)
    for g, phi in random_instances(300, 3, 16, seed=31):
        h, chi = transform(g, phi, rng)
        a = alt.longest_increasing_path(g, phi, budget=META_BUDGET)
        b = alt.longest_increasing_path(h, chi, budget=META_BUDGET)
        if a.exact and b.exact:
            pairs.append((g.m, a.length, b.length))
    assert sum(m > 6 for m, _, _ in pairs) >= 200  # most of the corpus, far past the oracles
    return pairs


def test_psi_equals_psi_of_the_reversed_ordering() -> None:
    def reverse(g, phi, rng):
        return g, alt.EdgeOrdering(tuple(g.m + 1 - r for r in phi.rank))

    for m, a, b in _psi_pairs(reverse):
        assert a == b, m


def test_psi_is_unchanged_by_a_relabelling_that_keeps_edge_ranks() -> None:
    def relabel(g, phi, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = alt.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        index = {e: i for i, e in enumerate(h.edges)}
        rank = [0] * g.m
        for e, (u, v) in enumerate(g.edges):
            rank[index[tuple(sorted((perm[u], perm[v])))]] = phi.rank[e]
        return h, alt.EdgeOrdering(tuple(rank))

    for m, a, b in _psi_pairs(relabel):
        assert a == b, m


def test_known_trail_values() -> None:
    # K_3 with identity ranks: edges (01)=1,(02)=2,(12)=3 walk 1,0,2,1
    k3 = alt.make_complete(3)
    res = alt.longest_increasing_trail(k3, alt.identity_ordering(k3))
    assert res.length == 3
    assert res.vertices == (1, 0, 2, 1)
    single = alt.Graph(2, ((0, 1),))
    assert alt.longest_increasing_trail(single, alt.identity_ordering(single)).length == 1
    p6 = alt.make_path(6)
    assert alt.longest_increasing_trail(p6, alt.identity_ordering(p6)).length == 5


def test_known_path_values() -> None:
    k3 = alt.make_complete(3)
    for seed in range(6):
        phi = alt.random_ordering(k3, seed)
        assert alt.longest_increasing_path(k3, phi).length == 2
    p4 = alt.make_path(4)
    assert alt.longest_increasing_path(p4, alt.EdgeOrdering((2, 1, 3))).length == 2
    empty = alt.Graph(3, ())
    res = alt.longest_increasing_path(empty, alt.identity_ordering(empty))
    assert res.length == 0 and res.exact
    assert res.edges == ()
    assert alt.verify_witness(empty, alt.identity_ordering(empty), res)


# Trails recorded from the breakpoint-history implementation of the trail
# sweep, paths from the top-down search of per-edge path values, explored
# in edges scanned since the suffix cut and failure records (exact
# witnesses unchanged by them).  Each case: graph, seed of its random
# ordering, the trail (length, vertices, edges) and the path (length,
# vertices, edges, exact, explored) at budgets None, 1, 40 and 2000.  Every
# optimal trail but C_9's repeats a vertex, so the search runs there.
_GOLDEN_SEARCH = {
    "K6": (
        lambda: alt.make_complete(6), 5,
        (8, (5, 1, 0, 2, 5, 4, 3, 0, 5), (8, 0, 1, 11, 14, 12, 2, 4)),
        {
            None: (5, (1, 3, 2, 4, 0, 5), (6, 9, 10, 3, 4), True, 136),
            1: (4, (2, 4, 3, 0, 5), (10, 12, 2, 4), False, 2),
            40: (5, (1, 3, 2, 4, 0, 5), (6, 9, 10, 3, 4), False, 41),
            2000: (5, (1, 3, 2, 4, 0, 5), (6, 9, 10, 3, 4), True, 136),
        },
    ),
    "Q4": (
        lambda: alt.make_hypercube(4), 3,
        (7, (8, 9, 1, 0, 4, 6, 2, 0), (20, 6, 0, 2, 13, 8, 1)),
        {
            None: (7, (9, 8, 12, 14, 10, 2, 6, 7), (20, 22, 29, 26, 9, 8, 17), True, 15),
            1: (6, (11, 15, 14, 10, 2, 6, 7), (27, 31, 26, 9, 8, 17), False, 2),
            40: (7, (9, 8, 12, 14, 10, 2, 6, 7), (20, 22, 29, 26, 9, 8, 17), True, 15),
            2000: (7, (9, 8, 12, 14, 10, 2, 6, 7), (20, 22, 29, 26, 9, 8, 17), True, 15),
        },
    ),
    "C9": (
        lambda: alt.make_cycle(9), 2,
        (4, (0, 1, 2, 3, 4), (0, 2, 3, 4)),
        {
            None: (4, (0, 1, 2, 3, 4), (0, 2, 3, 4), True, 0),
            1: (4, (0, 1, 2, 3, 4), (0, 2, 3, 4), True, 0),
            40: (4, (0, 1, 2, 3, 4), (0, 2, 3, 4), True, 0),
            2000: (4, (0, 1, 2, 3, 4), (0, 2, 3, 4), True, 0),
        },
    ),
    "G14": (
        lambda: alt.sample_gnp(14, 0.4, 7), 11,
        (9, (2, 4, 13, 8, 7, 0, 4, 1, 8, 11), (15, 26, 33, 29, 4, 2, 9, 10, 32)),
        {
            None: (8, (4, 2, 12, 0, 6, 3, 1, 8, 11), (15, 19, 7, 3, 21, 8, 10, 32), True, 140),
            1: (3, (11, 2, 9, 13), (18, 17, 36), False, 2),
            40: (6, (13, 7, 0, 4, 1, 8, 11), (30, 4, 2, 9, 10, 32), False, 41),
            2000: (8, (4, 2, 12, 0, 6, 3, 1, 8, 11), (15, 19, 7, 3, 21, 8, 10, 32), True, 140),
        },
    ),
    "G22": (
        lambda: alt.sample_gnp(22, 0.25, 8), 12,
        (
            16,
            (9, 11, 5, 1, 19, 10, 5, 12, 19, 8, 2, 20, 6, 15, 13, 8, 18),
            (49, 32, 10, 13, 51, 31, 33, 52, 48, 14, 18, 40, 38, 53, 46, 47),
        ),
        {
            None: (
                12,
                (9, 11, 5, 1, 19, 10, 2, 20, 6, 15, 13, 8, 18),
                (49, 32, 10, 13, 51, 15, 18, 40, 38, 53, 46, 47),
                True,
                164,
            ),
            1: (6, (3, 7, 6, 15, 13, 8, 18), (20, 36, 38, 53, 46, 47), False, 2),
            40: (8, (21, 20, 3, 7, 6, 15, 13, 8, 18), (57, 24, 20, 36, 38, 53, 46, 47), False, 41),
            2000: (
                12,
                (9, 11, 5, 1, 19, 10, 2, 20, 6, 15, 13, 8, 18),
                (49, 32, 10, 13, 51, 15, 18, 40, 38, 53, 46, 47),
                True,
                164,
            ),
        },
    ),
    "G30": (
        lambda: alt.sample_gnp(30, 0.15, 9), 13,
        (
            11,
            (25, 0, 5, 8, 28, 20, 4, 19, 13, 16, 1, 13),
            (5, 1, 31, 47, 74, 27, 26, 58, 56, 9, 8),
        ),
        {
            None: (
                10,
                (0, 5, 8, 28, 20, 4, 19, 13, 16, 1, 25),
                (1, 31, 47, 74, 27, 26, 58, 56, 9, 13),
                True,
                91,
            ),
            1: (4, (26, 4, 29, 13, 1), (28, 30, 61, 8), False, 2),
            40: (
                9,
                (27, 8, 28, 20, 4, 19, 13, 16, 1, 25),
                (46, 47, 74, 27, 26, 58, 56, 9, 13),
                False,
                41,
            ),
            2000: (
                10,
                (0, 5, 8, 28, 20, 4, 19, 13, 16, 1, 25),
                (1, 31, 47, 74, 27, 26, 58, 56, 9, 13),
                True,
                91,
            ),
        },
    ),
}


# psi as every earlier search proved it: a re-recorded golden keeps these.
_PROVED = {"K6": 5, "Q4": 7, "C9": 4, "G14": 8, "G22": 12, "G30": 10, "G40": 20}


@pytest.mark.parametrize("name", list(_GOLDEN_SEARCH))
def test_path_golden_search(name: str) -> None:
    build, seed, trail, paths = _GOLDEN_SEARCH[name]
    g = build()
    phi = alt.random_ordering(g, seed)
    t = alt.longest_increasing_trail(g, phi)
    assert (t.length, t.vertices, t.edges) == trail
    for budget, want in paths.items():
        r = alt.longest_increasing_path(g, phi, budget=budget)
        assert (r.length, r.vertices, r.edges, r.exact, r.explored) == want, budget
        assert not r.exact or r.length == _PROVED[name]


# The capped regime, recorded from the top-down search with the suffix cut
# and failure records, its budget in edges scanned.  Each case: graph, seed
# of its random ordering and the path (length, vertices, edges, exact,
# explored) per budget.  On the two G(50, .45) graphs every budget binds;
# G(40, .3) runs to completion.
_GOLDEN_CAPPED = {
    "G50a": (
        lambda: alt.sample_gnp(50, 0.45, 1), 0,
        {
            0: (
                8,
                (13, 35, 22, 15, 28, 6, 14, 33, 31),
                (258, 378, 283, 285, 138, 133, 271, 460),
                False,
                1,
            ),
            1000: (
                18,
                (38, 39, 44, 6, 19, 36, 32, 15, 0, 4, 11, 34, 37, 47, 22, 46, 12, 3, 18),
                (509, 515, 148, 135, 348, 474, 287, 7, 1, 89, 232, 487, 507, 384, 383, 248, 69,
                 71),
                False,
                1001,
            ),
            20000: (
                27,
                (43, 8, 25, 49, 13, 5, 31, 10, 42, 30, 44, 1, 22, 18, 40, 32, 0, 4, 11, 34, 36,
                 24, 3, 41, 39, 14, 6, 38),
                (187, 178, 410, 263, 109, 117, 215, 221, 456, 457, 40, 33, 326, 336, 476, 18, 1,
                 89, 232, 486, 394, 73, 82, 514, 273, 133, 144),
                False,
                20001,
            ),
        },
    ),
    "G50b": (
        lambda: alt.sample_gnp(50, 0.45, 2), 1,
        {
            0: (
                8,
                (34, 5, 45, 30, 33, 15, 38, 44, 17),
                (119, 125, 459, 451, 287, 288, 511, 323),
                False,
                1,
            ),
            1000: (
                18,
                (47, 10, 4, 25, 30, 37, 33, 6, 21, 15, 19, 24, 5, 34, 39, 11, 27, 17, 44),
                (215, 89, 96, 405, 455, 482, 135, 132, 281, 280, 339, 114, 119, 494, 226, 224,
                 317, 323),
                False,
                1001,
            ),
            20000: (
                32,
                (36, 19, 39, 26, 44, 42, 37, 4, 2, 12, 16, 25, 46, 48, 40, 22, 1, 34, 14, 10, 41,
                 27, 6, 24, 0, 21, 5, 45, 30, 33, 15, 38, 47),
                (345, 346, 421, 422, 532, 509, 103, 35, 40, 234, 302, 412, 539, 525, 379, 24, 27,
                 272, 193, 209, 433, 134, 133, 10, 8, 112, 125, 459, 451, 287, 288, 514),
                False,
                20001,
            ),
        },
    ),
    "G40": (
        lambda: alt.sample_gnp(40, 0.3, 4), 0,
        {
            None: (
                20,
                (21, 22, 14, 17, 11, 36, 30, 32, 4, 34, 39, 25, 5, 16, 20, 33, 24, 7, 1, 37, 35),
                (189, 136, 135, 117, 123, 228, 226, 63, 64, 236, 214, 70, 68, 152, 185, 207, 85,
                 13, 25, 237),
                True,
                1687,
            ),
        },
    ),
}


@pytest.mark.parametrize("name", list(_GOLDEN_CAPPED))
def test_path_golden_capped(name: str) -> None:
    build, seed, paths = _GOLDEN_CAPPED[name]
    g = build()
    phi = alt.random_ordering(g, seed)
    for budget, want in paths.items():
        r = alt.longest_increasing_path(g, phi, budget=budget)
        assert (r.length, r.vertices, r.edges, r.exact, r.explored) == want, budget
        assert not r.exact or r.length == _PROVED[name]


@pytest.mark.parametrize("budget", [None, 1, 7, 40])
def test_path_budget_property_sweep(budget: int | None) -> None:
    # Capped or not, the witness is a valid path no longer than the trail,
    # and the result is inexact exactly when the expansion that trips the
    # cap was counted.
    for g, phi in random_instances(120, 3, 14, seed=27):
        r = alt.longest_increasing_path(g, phi, budget=budget)
        assert alt.verify_witness(g, phi, r)
        assert r.length <= alt.longest_increasing_trail(g, phi).length
        assert (r.exact is False) == (budget is not None and r.explored == budget + 1)


def test_budget_yields_sound_partial_result() -> None:
    rng = random.Random(31)
    for _ in range(20):
        g = alt.sample_gnp(14, 0.6, rng.randrange(1 << 30))
        if g.m < 5:
            continue
        phi = alt.random_ordering(g, rng.randrange(1 << 30))
        full = alt.longest_increasing_path(g, phi)
        cut = alt.longest_increasing_path(g, phi, budget=3)
        assert cut.length <= full.length
        assert alt.verify_witness(g, phi, cut)
        if not cut.exact:
            assert cut.explored <= 3 + 1  # the expansion that trips the cap is counted


def test_explored_counter_is_populated() -> None:
    g = alt.make_complete(5)
    phi = alt.random_ordering(g, seed=4)
    res = alt.longest_increasing_path(g, phi)
    assert res.explored >= 1


def test_witness_checker_rejects_corrupted_results() -> None:
    g = alt.make_complete(4)
    phi = alt.identity_ordering(g)
    good = alt.longest_increasing_path(g, phi)

    def tampered(**kw) -> alt.PathResult:
        base = dict(
            kind=good.kind,
            length=good.length,
            vertices=good.vertices,
            edges=good.edges,
            exact=good.exact,
            explored=good.explored,
        )
        base.update(kw)
        return alt.PathResult(**base)

    assert alt.verify_witness(g, phi, good)
    with pytest.raises(alt.WitnessError):
        alt.verify_witness(g, phi, tampered(length=good.length + 1))
    with pytest.raises(alt.WitnessError):
        # walk visiting a repeated vertex cannot be a path witness
        alt.verify_witness(g, phi, tampered(vertices=(0, 1, 0), edges=good.edges[:2]))
    with pytest.raises(alt.WitnessError):
        # ranks must strictly increase along the witness
        bad_edges = tuple(reversed(good.edges))
        alt.verify_witness(g, phi, tampered(vertices=tuple(reversed(good.vertices)), edges=bad_edges))
    with pytest.raises(alt.WitnessError):
        # consecutive vertices must actually be joined by the claimed edge
        alt.verify_witness(g, phi, tampered(vertices=(3, 3, 3)[: len(good.vertices)]))
    # an edge index out of range, even one Python would accept (-1 names the
    # last edge, (2, 3)), and a vertex outside the graph
    for vertices, edges in (((2, 3), (-1,)), ((2, 3), (g.m,)), ((3, g.n), (5,))):
        one_step = tampered(length=1, vertices=vertices, edges=edges)
        message = f"step 0: edge {edges[0]} does not join {vertices[0]} and {vertices[1]}"
        with pytest.raises(alt.WitnessError, match=re.escape(message)):
            alt.verify_witness(g, phi, one_step)


def test_trail_witness_checker_rejects_repeated_edge() -> None:
    g = alt.make_complete(3)
    phi = alt.identity_ordering(g)
    bad = alt.PathResult(
        kind="trail", length=2, vertices=(0, 1, 0), edges=(0, 0), exact=True, explored=0
    )
    with pytest.raises(alt.WitnessError):
        alt.verify_witness(g, phi, bad)
