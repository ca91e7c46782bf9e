"""Edge-orderings, proper edge colorings, and the class-block orderings."""

from __future__ import annotations

import hashlib
import random
import tracemalloc
from itertools import permutations

import pytest

import altitude as alt
from corpus import named_small_graphs, random_graphs
from oracles import brute_psi


def test_ordering_bijection_validation() -> None:
    alt.EdgeOrdering((2, 1, 3))
    with pytest.raises(ValueError):
        alt.EdgeOrdering((1, 1, 3))  # duplicate rank
    with pytest.raises(ValueError):
        alt.EdgeOrdering((0, 1, 2))  # ranks start at 1
    with pytest.raises(ValueError):
        alt.EdgeOrdering((1, 2, 4))  # rank beyond m


def test_inverse_and_edges_by_rank() -> None:
    phi = alt.EdgeOrdering((3, 1, 2))
    assert phi.inverse == (1, 2, 0)
    assert phi.m == 3


def test_identity_ordering_shapes() -> None:
    assert alt.identity_ordering(alt.make_complete(3)).rank == (1, 2, 3)
    assert alt.identity_ordering(alt.Graph(4, ())).rank == ()
    # canonical labels make the identity ordering monotone along a path
    p4 = alt.make_path(4)
    phi = alt.identity_ordering(p4)
    assert alt.longest_increasing_path(p4, phi).length == 3


def test_random_ordering_reproducible_permutation() -> None:
    g = alt.make_complete(5)
    a = alt.random_ordering(g, seed=42)
    b = alt.random_ordering(g, seed=42)
    assert a == b
    assert sorted(a.rank) == list(range(1, g.m + 1))
    single = alt.Graph(2, ((0, 1),))
    assert alt.random_ordering(single, seed=0).rank == (1,)


def test_random_ordering_uniform_over_permutations() -> None:
    # m=3: each of the 6 rank permutations within 1/6 +- 0.02 over 10^4 draws
    g = alt.make_path(4)
    counts: dict[tuple[int, ...], int] = {p: 0 for p in permutations((1, 2, 3))}
    samples = 10**4
    for seed in range(samples):
        counts[alt.random_ordering(g, seed).rank] += 1
    for perm, c in counts.items():
        assert abs(c / samples - 1 / 6) <= 0.02, (perm, c)


def test_greedy_coloring_proper_within_palette() -> None:
    graphs = [g for _, g in named_small_graphs()]
    graphs += [alt.make_hypercube(d) for d in range(1, 5)]
    graphs += [alt.make_complete(n) for n in range(2, 9)]
    graphs += random_graphs(300, 2, 16, seed=77, nonempty=False)
    for g in graphs:
        col = alt.greedy_edge_coloring(g)
        assert alt.proper_violation(g, col) is None
        delta = max((len(g.adj[v]) for v in range(g.n)), default=0)
        assert col.num_colors <= delta + 1
        assert sum(col.class_sizes) == g.m
        assert all(s > 0 for s in col.class_sizes)


def test_greedy_coloring_known_class_counts() -> None:
    assert alt.greedy_edge_coloring(alt.make_matching(6)).num_colors == 1
    assert alt.greedy_edge_coloring(alt.make_complete(3)).num_colors == 3
    assert alt.greedy_edge_coloring(alt.make_star(5)).num_colors == 5
    assert alt.greedy_edge_coloring(alt.Graph(3, ())).num_colors == 0


# (family, graphs, edges, sha256 of the concatenated repr(coloring.color) cut
# to 16 hex digits), recorded while the fan construction still had its own
# other_end/invert_cd_path closures and two copies of the recolor step.  Over
# these families the cd-path inversion runs 38808 times and the fan rotation
# stops short of the fan's tip 50600 times, so a changed choice of fan, free
# color, inversion or rotation prefix shows here.
COLORING_GOLDEN = [
    ("named", 10, 39, "b9d40ac6244ab565"),
    ("random-small", 300, 7003, "6cc46d07d3c149a6"),
    ("random-mid", 200, 35781, "b48dbb0e4becca38"),
    ("hypercube", 8, 1793, "6604f914f419ec26"),
    ("complete", 29, 4060, "74c00e9099ec4e41"),
    ("star", 29, 435, "cd6c66f95f771641"),
    ("gnp-dense", 12, 4234, "7957139a0348ab18"),
    ("gnp-sparse", 3, 1764, "eb23649e4fd46fd5"),
]


def test_greedy_coloring_golden() -> None:
    families = {
        "named": [g for _, g in named_small_graphs()],
        "random-small": random_graphs(300, 2, 16, seed=77, nonempty=False),
        "random-mid": random_graphs(200, 10, 40, seed=151),
        "hypercube": [alt.make_hypercube(d) for d in range(1, 9)],
        "complete": [alt.make_complete(n) for n in range(1, 30)],
        "star": [alt.make_star(k) for k in range(1, 30)],
        "gnp-dense": [
            alt.sample_gnp(n, p, 10 * n + round(100 * p))
            for n in (40, 55, 70)
            for p in (0.15, 0.2, 0.25, 0.3)
        ],
        "gnp-sparse": [alt.sample_gnp(n, 0.1, n) for n in (60, 100, 150)],
    }
    got = []
    for name, graphs in families.items():
        h = hashlib.sha256()
        for g in graphs:
            h.update(repr(alt.greedy_edge_coloring(g).color).encode())
        got.append((name, len(graphs), sum(g.m for g in graphs), h.hexdigest()[:16]))
    assert got == COLORING_GOLDEN


def test_greedy_coloring_large_star() -> None:
    # every edge's fan at the center runs through all colored edges there;
    # a fan scan that rescans the center's colors per step takes minutes
    g = alt.make_star(1000)
    col = alt.greedy_edge_coloring(g)
    assert alt.proper_violation(g, col) is None
    assert col.num_colors == 1000


def test_greedy_coloring_memory_stays_linear() -> None:
    # A table of max_degree + 1 color slots per vertex would take
    # n * (delta + 1) * 8 bytes, 32 MB on a 2000-leaf star; the per-vertex
    # dicts hold only the colored edges.  The center carries the highest
    # label, so each edge's fan (grown at its lower end, a leaf) stops at
    # once: make_star(2000) grows a fan over all the center's edges at every
    # edge, which takes about 20 s under tracemalloc.
    k = 2000
    g = alt.Graph.from_edges(k + 1, [(v, k) for v in range(k)])
    tracemalloc.start()
    try:
        col = alt.greedy_edge_coloring(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert col.num_colors == k
    assert peak < 4 << 20, peak  # an eighth of the table


def test_dimension_coloring_classes_are_direction_matchings() -> None:
    for d in (1, 2, 3, 5):
        g = alt.make_hypercube(d)
        col = alt.hypercube_dimension_coloring(g)
        assert col.num_colors == d
        assert col.class_sizes == tuple(1 << (d - 1) for _ in range(d))
        assert alt.proper_violation(g, col) is None
    with pytest.raises(ValueError):
        alt.hypercube_dimension_coloring(alt.make_complete(3))


def test_proper_violation_reports_clashing_pair() -> None:
    g = alt.make_complete(3)
    bad = alt.EdgeColoring((0, 0, 1), (2, 1))
    clash = alt.proper_violation(g, bad)
    assert clash is not None
    e1, e2 = clash
    assert bad.color[e1] == bad.color[e2]
    assert set(g.edges[e1]) & set(g.edges[e2])
    with pytest.raises(ValueError):
        alt.proper_violation(g, alt.EdgeColoring((0, 1), (1, 1)))


@pytest.mark.parametrize(
    "edges, colors, want",
    [
        ([(0, 1), (0, 2), (1, 2)], (0, 0, 1), (0, 1)),  # e = (0, 2) clashes at u = 0
        ([(0, 2), (1, 2), (0, 1)], (0, 0, 1), (1, 2)),  # e = (1, 2) clashes at v = 2
        # e = (2, 3) clashes at both ends: (0, 2) at u wins over (1, 3) at v
        ([(0, 1), (0, 2), (1, 3), (2, 3)], (1, 0, 0, 0), (1, 3)),
        ([(0, 1), (1, 2), (2, 3)], (0, 1, 0), None),
    ],
)
def test_proper_violation_names_the_first_clash(edges, colors, want) -> None:
    g = alt.Graph.from_edges(4, edges)
    color = [0] * g.m
    for (u, v), c in zip(edges, colors):
        color[g.edges.index((min(u, v), max(u, v)))] = c
    assert alt.proper_violation(g, alt.EdgeColoring(tuple(color), ())) == want


def _first_clash(g: alt.Graph, color: tuple[int, ...]) -> tuple[int, int] | None:
    """The first (earlier edge, edge) clash, scanning ends u then v of each edge."""
    seen: dict[tuple[int, int], int] = {}
    for e, (u, v) in enumerate(g.edges):
        for x in (u, v):
            if (x, color[e]) in seen:
                return seen[(x, color[e])], e
            seen[(x, color[e])] = e
    return None


def test_proper_violation_matches_a_dict_scan_on_random_colorings() -> None:
    rng = random.Random(9)
    clashes = 0
    for g in random_graphs(200, 2, 10, seed=9):
        color = tuple(rng.randrange(g.m + 1) for _ in range(g.m))
        want = _first_clash(g, color)
        clashes += want is not None
        assert alt.proper_violation(g, alt.EdgeColoring(color, ())) == want
    assert 50 < clashes < 200


def test_coloring_ordering_ranks_classes_in_blocks() -> None:
    rng = random.Random(5)
    for g in random_graphs(40, 2, 12, seed=5):
        col = alt.greedy_edge_coloring(g)
        phi = alt.coloring_ordering(g, col, seed=rng.randrange(1 << 30))
        # all ranks of class c precede all ranks of class c+1
        hi = 0
        for cls in col.classes():
            ranks = sorted(phi.rank[e] for e in cls)
            assert ranks == list(range(hi + 1, hi + 1 + len(cls)))
            hi += len(cls)


def test_coloring_ordering_rejects_improper_colorings() -> None:
    g = alt.make_complete(3)
    with pytest.raises(ValueError):
        alt.coloring_ordering(g, alt.EdgeColoring((0, 0, 0), (3,)), seed=0)


def test_coloring_ordering_caps_increasing_paths() -> None:
    # dimension ordering of Q_3: no increasing path longer than 3
    q3 = alt.make_hypercube(3)
    for seed in range(5):
        phi = alt.coloring_ordering(q3, alt.hypercube_dimension_coloring(q3), seed)
        assert alt.longest_increasing_path(q3, phi).length <= 3
    # one-class matching: any ordering, psi = 1
    m4 = alt.make_matching(4)
    phi = alt.coloring_ordering(m4, alt.greedy_edge_coloring(m4), seed=3)
    assert alt.longest_increasing_path(m4, phi).length == 1
    # K_3 with three singleton classes: ranks follow class order, psi = 2
    k3 = alt.make_complete(3)
    singletons = alt.EdgeColoring((0, 1, 2), (1, 1, 1))
    phi = alt.coloring_ordering(k3, singletons, seed=9)
    assert phi.rank == (1, 2, 3)
    assert brute_psi(k3, phi) == 2


def test_psi_never_exceeds_class_count() -> None:
    for g in random_graphs(60, 2, 14, seed=13):
        col = alt.greedy_edge_coloring(g)
        phi = alt.coloring_ordering(g, col, seed=1)
        trail = alt.longest_increasing_trail(g, phi).length
        assert trail <= col.num_colors


def test_ordering_text_round_trip_and_errors() -> None:
    g = alt.make_complete(4)
    phi = alt.random_ordering(g, seed=8)
    assert alt.parse_ordering(alt.serialize_ordering(phi)) == phi
    with pytest.raises(alt.OrderingFormatError):
        alt.parse_ordering("1 2\n")
    with pytest.raises(alt.OrderingFormatError):
        alt.parse_ordering("1\nx\n")
    with pytest.raises(alt.OrderingFormatError):
        alt.parse_ordering("1\n1\n")  # not a bijection
