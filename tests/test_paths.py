"""Longest increasing trail (DP) and longest increasing path (pruned DFS)."""

from __future__ import annotations

import random
import re

import pytest

import altitude as alt
from altitude.paths import _trail_sweep
from corpus import random_instances
from oracles import brute_psi, brute_suffix_trail, brute_trail


def test_trail_matches_oracle_on_small_instances() -> None:
    for g, phi in random_instances(150, 2, 9, seed=21, m_max=8):
        res = alt.longest_increasing_trail(g, phi)
        assert res.length == brute_trail(g, phi)
        assert res.kind == "trail"
        assert alt.verify_witness(g, phi, res)


def test_value_only_trail_matches_trail_sweep_and_oracle() -> None:
    # The annealer's value-only sweep (no before list) must agree with the
    # witness-recording one.
    for g, phi in random_instances(150, 2, 9, seed=23, m_max=8):
        want = brute_trail(g, phi)
        assert max(_trail_sweep(g, phi.inverse)) == want
        assert alt.longest_increasing_trail(g, phi).length == want


def test_reverse_sweep_before_matches_oracle() -> None:
    # The path search's bound on crossing e of rank r: S_u(r+1) and S_v(r+1).
    for g, phi in random_instances(60, 2, 8, seed=24, m_max=8):
        before = [(0, 0)] * g.m
        _trail_sweep(g, reversed(phi.inverse), before)
        for e, (u, v) in enumerate(g.edges):
            r = phi.rank[e]
            want = (brute_suffix_trail(g, phi, u, r + 1), brute_suffix_trail(g, phi, v, r + 1))
            assert before[e] == want, (e, r)


def test_trail_sweep_resumes_from_best_in_place() -> None:
    g = alt.make_hypercube(3)
    phi = alt.random_ordering(g, 2)
    head, tail = phi.inverse[:5], phi.inverse[5:]
    start = _trail_sweep(g, head)
    out = _trail_sweep(g, tail, best=start)
    assert out is start
    assert out == _trail_sweep(g, phi.inverse)


def test_trail_value_splits_at_every_rank_cut() -> None:
    # An increasing trail's part below a cut q ends where its part from q on
    # starts: the value is max over x of F_x(q) + S_x(q), the annealer's score.
    for g, phi in random_instances(60, 2, 12, seed=25):
        want = max(_trail_sweep(g, phi.inverse))
        if g.m <= 6:
            assert want == brute_trail(g, phi)
        fwd = [[0] * g.n]
        for e in phi.inverse:
            fwd.append(_trail_sweep(g, [e], best=fwd[-1][:]))
        bwd = [[0] * g.n]
        for e in reversed(phi.inverse):
            bwd.append(_trail_sweep(g, [e], best=bwd[-1][:]))
        for q in range(g.m + 1):
            f, s = fwd[q], bwd[g.m - q]
            assert max(a + b for a, b in zip(f, s)) == want, q


def test_path_matches_oracle_on_small_instances() -> None:
    for g, phi in random_instances(150, 2, 9, seed=22, m_max=8):
        res = alt.longest_increasing_path(g, phi)
        assert res.exact
        assert res.length == brute_psi(g, phi)
        assert res.kind == "path"
        assert alt.verify_witness(g, phi, res)


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


# Recorded from the breakpoint-history implementation of the trail sweep.
# Each case: graph, seed of its random ordering, the trail (length,
# vertices, edges) and the path (length, vertices, edges, exact, explored)
# at budgets None, 1, 40 and 2000.  Every optimal trail but C_9's repeats a
# vertex, so the search runs there.
_GOLDEN_SEARCH = {
    "K6": (
        lambda: alt.make_complete(6), 5,
        (8, (5, 1, 0, 2, 5, 4, 3, 0, 5), (8, 0, 1, 11, 14, 12, 2, 4)),
        {
            None: (5, (1, 5, 3, 2, 4, 0), (8, 13, 9, 10, 3), True, 109),
            1: (1, (1, 5), (8,), False, 2),
            40: (5, (1, 5, 3, 2, 4, 0), (8, 13, 9, 10, 3), False, 41),
            2000: (5, (1, 5, 3, 2, 4, 0), (8, 13, 9, 10, 3), True, 109),
        },
    ),
    "Q4": (
        lambda: alt.make_hypercube(4), 3,
        (7, (8, 9, 1, 0, 4, 6, 2, 0), (20, 6, 0, 2, 13, 8, 1)),
        {
            None: (7, (9, 8, 12, 14, 10, 2, 6, 7), (20, 22, 29, 26, 9, 8, 17), True, 26),
            1: (1, (8, 9), (20,), False, 2),
            40: (7, (9, 8, 12, 14, 10, 2, 6, 7), (20, 22, 29, 26, 9, 8, 17), True, 26),
            2000: (7, (9, 8, 12, 14, 10, 2, 6, 7), (20, 22, 29, 26, 9, 8, 17), True, 26),
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
            None: (8, (4, 2, 12, 0, 6, 3, 1, 8, 11), (15, 19, 7, 3, 21, 8, 10, 32), True, 134),
            1: (1, (2, 4), (15,), False, 2),
            40: (7, (2, 4, 13, 1, 0, 9, 8, 11), (15, 26, 13, 0, 5, 31, 32), False, 41),
            2000: (8, (4, 2, 12, 0, 6, 3, 1, 8, 11), (15, 19, 7, 3, 21, 8, 10, 32), True, 134),
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
                98,
            ),
            1: (1, (9, 11), (49,), False, 2),
            40: (
                12,
                (9, 11, 5, 1, 19, 10, 2, 20, 6, 15, 13, 8, 18),
                (49, 32, 10, 13, 51, 15, 18, 40, 38, 53, 46, 47),
                False,
                41,
            ),
            2000: (
                12,
                (9, 11, 5, 1, 19, 10, 2, 20, 6, 15, 13, 8, 18),
                (49, 32, 10, 13, 51, 15, 18, 40, 38, 53, 46, 47),
                True,
                98,
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
                (25, 0, 5, 8, 28, 20, 4, 19, 13, 17, 22),
                (5, 1, 31, 47, 74, 27, 26, 58, 57, 68),
                True,
                85,
            ),
            1: (1, (0, 25), (5,), False, 2),
            40: (
                9,
                (25, 0, 5, 8, 27, 26, 4, 29, 13, 1),
                (5, 1, 31, 46, 78, 28, 30, 61, 8),
                False,
                41,
            ),
            2000: (
                10,
                (25, 0, 5, 8, 28, 20, 4, 19, 13, 17, 22),
                (5, 1, 31, 47, 74, 27, 26, 58, 57, 68),
                True,
                85,
            ),
        },
    ),
}


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


# The capped regime, recorded from the search that kept an n-bit visited
# mask per frame and sliced each child list with bisect.  Each case: graph,
# seed of its random ordering and the path (length, vertices, edges, exact,
# explored) per budget.  On the two G(50, .45) graphs every budget binds
# deep in the search, 13 to 23 frames down; G(40, .3) runs to completion.
_GOLDEN_CAPPED = {
    "G50a": (
        lambda: alt.sample_gnp(50, 0.45, 1), 0,
        {
            0: (0, (0,), (), False, 1),
            1000: (
                24,
                (33, 46, 17, 20, 0, 48, 16, 42, 8, 5, 37, 39, 38, 2, 6, 15, 32, 40, 19, 49,
                 36, 4, 18, 24, 1),
                (483, 323, 312, 9, 25, 311, 310, 186, 107, 121, 502, 509, 57, 42, 134, 287,
                 476, 350, 355, 501, 100, 92, 328, 34),
                False,
                1001,
            ),
            20000: (
                27,
                (33, 46, 17, 20, 0, 48, 16, 42, 8, 5, 37, 25, 41, 45, 31, 18, 7, 3, 26, 44,
                 49, 47, 28, 24, 39, 14, 6, 38),
                (483, 323, 312, 9, 25, 311, 310, 186, 107, 121, 406, 408, 523, 469, 331, 156,
                 66, 74, 418, 530, 535, 438, 391, 397, 273, 133, 144),
                False,
                20001,
            ),
        },
    ),
    "G50b": (
        lambda: alt.sample_gnp(50, 0.45, 2), 1,
        {
            0: (0, (0,), (), False, 1),
            1000: (
                23,
                (22, 43, 28, 38, 32, 37, 40, 47, 8, 30, 34, 14, 10, 15, 11, 42, 33, 6, 24, 0,
                 21, 5, 25, 35),
                (380, 441, 439, 473, 472, 508, 524, 172, 165, 452, 272, 193, 194, 219, 228,
                 485, 135, 133, 10, 8, 112, 115, 407),
                False,
                1001,
            ),
            20000: (
                27,
                (22, 43, 28, 38, 1, 7, 25, 18, 46, 48, 3, 10, 14, 11, 42, 33, 6, 21, 15, 19,
                 24, 5, 34, 8, 2, 17, 27, 37),
                (380, 441, 439, 28, 19, 145, 329, 337, 539, 85, 64, 193, 218, 228, 485, 135,
                 132, 281, 280, 339, 114, 119, 166, 38, 43, 317, 430),
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
                (39, 9, 14, 17, 11, 36, 30, 32, 4, 34, 21, 5, 16, 25, 20, 33, 24, 7, 1, 37,
                 35),
                (105, 95, 135, 117, 123, 228, 226, 63, 64, 191, 69, 68, 155, 183, 185, 207,
                 85, 13, 25, 237),
                True,
                9623,
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
