"""Graph container, generators, text format, and degree statistics."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import altitude as alt
from corpus import named_small_graphs, random_graphs


def test_edges_are_canonical_and_adjacency_inverts_them() -> None:
    for g in random_graphs(30, 2, 14, seed=11, nonempty=False):
        assert g.edges == tuple(sorted(g.edges))
        assert all(u < v for u, v in g.edges)
        for v in range(g.n):
            for w, e in g.adj[v]:
                assert g.edges[e] == (min(v, w), max(v, w))
                assert g.adj_mask[v] >> w & 1
            assert g.adj_mask[v].bit_count() == len(g.adj[v])


def test_from_edges_canonicalizes_orientation_and_order() -> None:
    g = alt.Graph.from_edges(4, [(3, 1), (0, 2), (2, 1)])
    assert g.edges == ((0, 2), (1, 2), (1, 3))


def test_graph_rejects_loops_duplicates_and_range_violations() -> None:
    with pytest.raises(alt.LoopError):
        alt.Graph.from_edges(3, [(1, 1)])
    with pytest.raises(alt.DuplicateEdgeError):
        alt.Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(alt.VertexRangeError):
        alt.Graph(2, ((0, 5),))
    with pytest.raises(ValueError):
        alt.Graph(3, ((1, 2), (0, 1)))  # not sorted


def test_the_constructor_names_each_fault_and_from_edges_the_first_in_sorted_order() -> None:
    cases = [
        (lambda: alt.Graph(-1, ()), ValueError, "vertex count must be nonnegative, got -1"),
        (lambda: alt.Graph(3, ((1, 1),)), alt.LoopError, "loop at vertex 1"),
        (lambda: alt.Graph(3, ((1, 0),)), alt.VertexRangeError, "edge (1, 0) out of range for n=3"),
        (lambda: alt.Graph(3, ((0, 3),)), alt.VertexRangeError, "edge (0, 3) out of range for n=3"),
        (lambda: alt.Graph(3, ((0, 1), (0, 1))), alt.DuplicateEdgeError, "duplicate edge (0, 1)"),
        (lambda: alt.Graph(3, ((1, 2), (0, 1))), ValueError,
         "edge list not strictly increasing at index 1"),
        (lambda: alt.Graph.from_edges(3, [(2, 1), (1, 2)]), alt.DuplicateEdgeError,
         "duplicate edge (1, 2)"),
        # (0, 5) sorts before (1, 1), so the range fault is named, not the loop
        (lambda: alt.Graph.from_edges(3, [(0, 5), (1, 1)]), alt.VertexRangeError,
         "edge (0, 5) out of range for n=3"),
        (lambda: alt.Graph.from_edges(3, [(2, 2), (1, 0), (0, 1)]), alt.DuplicateEdgeError,
         "duplicate edge (0, 1)"),
    ]
    for build, error, message in cases:
        with pytest.raises(ValueError) as info:
            build()
        assert (type(info.value), str(info.value)) == (error, message)


def test_generators_have_expected_shape() -> None:
    assert alt.make_complete(5).m == 10
    assert alt.make_cycle(6).m == 6
    assert alt.make_path(6).m == 5
    assert alt.make_star(7).m == 7
    assert alt.make_matching(4) == alt.Graph(8, ((0, 1), (2, 3), (4, 5), (6, 7)))
    q4 = alt.make_hypercube(4)
    assert q4.n == 16 and q4.m == 32
    assert all(len(q4.adj[v]) == 4 for v in range(q4.n))
    assert all((x ^ y).bit_count() == 1 for x, y in q4.edges)


def test_generator_argument_validation() -> None:
    for bad in (alt.make_complete, alt.make_path, alt.make_star, alt.make_matching):
        with pytest.raises(ValueError):
            bad(0)
    with pytest.raises(ValueError):
        alt.make_cycle(2)
    with pytest.raises(ValueError):
        alt.make_hypercube(-1)


def test_gnp_is_reproducible_and_respects_p_extremes() -> None:
    a = alt.sample_gnp(12, 0.4, seed=7)
    b = alt.sample_gnp(12, 0.4, seed=7)
    c = alt.sample_gnp(12, 0.4, seed=8)
    assert a == b
    assert a != c
    assert alt.sample_gnp(9, 0.0, seed=1).m == 0
    assert alt.sample_gnp(9, 1.0, seed=1).m == 36
    with pytest.raises(ValueError):
        alt.sample_gnp(5, 1.5, seed=0)


def test_degree_stats_exact_values() -> None:
    star = alt.make_star(5)
    s = alt.degree_stats(star)
    assert s.average_degree == Fraction(10, 6)
    assert s.max_degree == 5
    assert s.connected
    two_parts = alt.make_matching(2)
    assert not alt.degree_stats(two_parts).connected
    with pytest.raises(ValueError):
        alt.degree_stats(alt.Graph(0, ()))


def test_family_recognition() -> None:
    for d in range(0, 7):
        assert alt.hypercube_dimension(alt.make_hypercube(d)) == d
    # C_4 is Q_2 only up to relabelling; recognition is label-exact
    assert alt.hypercube_dimension(alt.make_cycle(4)) is None
    assert alt.hypercube_dimension(alt.make_complete(4)) is None
    assert alt.hypercube_dimension(alt.make_path(8)) is None


def test_parse_serialize_round_trip() -> None:
    for g in random_graphs(40, 1, 12, seed=12, nonempty=False):
        assert alt.parse_graph(alt.serialize_graph(g)) == g


# (parser, text, error class, message); a line number counts blank lines too.
_MALFORMED = [
    (alt.parse_graph, "", alt.MalformedLineError, "missing header line 'n m'"),
    (alt.parse_graph, " \n3 1\n0 1\n", alt.MalformedLineError, "missing header line 'n m'"),
    (alt.parse_graph, "3\n", alt.MalformedLineError, "header must be 'n m', got '3'"),
    (alt.parse_graph, "3 2 1\n", alt.MalformedLineError, "header must be 'n m', got '3 2 1'"),
    (alt.parse_graph, "x y\n", alt.MalformedLineError, "non-integer header 'x y'"),
    (alt.parse_graph, "3 -1\n", alt.MalformedLineError, "negative counts in header '3 -1'"),
    (alt.parse_graph, "3 2\n", alt.MalformedLineError, "expected 2 edge lines, found 0"),
    (alt.parse_graph, "3 1\n0\n", alt.MalformedLineError, "line 2: expected 'u v', got '0'"),
    (alt.parse_graph, "3 1\n0 1 2\n", alt.MalformedLineError,
     "line 2: expected 'u v', got '0 1 2'"),
    (alt.parse_graph, "3 1\n0 x\n", alt.MalformedLineError, "line 2: non-integer vertex in '0 x'"),
    (alt.parse_graph, "3 2\n0 1\n", alt.MalformedLineError, "expected 2 edge lines, found 1"),
    (alt.parse_graph, "3 1\n0 1\n1 2\n", alt.MalformedLineError,
     "expected 1 edge lines, found 2"),
    # the count is checked before any line
    (alt.parse_graph, "3 2\n0 x\n", alt.MalformedLineError, "expected 2 edge lines, found 1"),
    (alt.parse_graph, "3 1\n1 1\n", alt.LoopError, "line 2: loop at vertex 1"),
    (alt.parse_graph, "2 1\n5 5\n", alt.LoopError, "line 2: loop at vertex 5"),
    (alt.parse_graph, "3 2\n0 1\n1 0\n", alt.DuplicateEdgeError, "duplicate edge (0, 1)"),
    (alt.parse_graph, "3 1\n0 5\n", alt.VertexRangeError, "line 2: vertex out of range in '0 5'"),
    (alt.parse_graph, "3 1\n3 1\n", alt.VertexRangeError, "line 2: vertex out of range in '3 1'"),
    (alt.parse_graph, "3 1\n-1 2\n", alt.VertexRangeError,
     "line 2: vertex out of range in '-1 2'"),
    (alt.parse_graph, "3 1\n2 -1\n", alt.VertexRangeError,
     "line 2: vertex out of range in '2 -1'"),
    (alt.parse_graph, "3 2\n\n0 1\n\n1 x\n", alt.MalformedLineError,
     "line 5: non-integer vertex in '1 x'"),
    (alt.parse_graph, "4 3\n0 1\n \n1 2\n\t\n2 2\n", alt.LoopError, "line 6: loop at vertex 2"),
    # with several faults: the count first, then the first bad line in file
    # order, and only then a repeated pair
    (alt.parse_graph, "4 3\n0 1\n2 2\n0 x\n", alt.LoopError, "line 3: loop at vertex 2"),
    (alt.parse_graph, "3 3\n0 1\n1 0\n0 5\n", alt.VertexRangeError,
     "line 4: vertex out of range in '0 5'"),
    (alt.parse_graph, "3 3\n0 1\n1 0\n0 x\n", alt.MalformedLineError,
     "line 4: non-integer vertex in '0 x'"),
    (alt.parse_graph, "3 2\n0 1\n1 0\n0 2\n", alt.MalformedLineError,
     "expected 2 edge lines, found 3"),
    (alt.parse_ordering, "1 2\n", alt.OrderingFormatError,
     "line 1: expected a single rank, got '1 2'"),
    (alt.parse_ordering, "1\nx\n", alt.OrderingFormatError, "line 2: non-integer rank 'x'"),
    (alt.parse_ordering, "1\n\n\nx\n", alt.OrderingFormatError, "line 4: non-integer rank 'x'"),
    (alt.parse_ordering, "1\n1\n", alt.OrderingFormatError, "ranks are not a bijection onto 1..2"),
    (alt.parse_ordering, "2\n\n3\n", alt.OrderingFormatError,
     "ranks are not a bijection onto 1..2"),
]


def test_parse_rejects_malformed_text() -> None:
    for parse, text, error, message in _MALFORMED:
        with pytest.raises(ValueError) as info:
            parse(text)
        assert (type(info.value), str(info.value)) == (error, message), text
    # every graph format error is also a GraphFormatError
    assert all(issubclass(error, alt.GraphFormatError)
               for parse, _, error, _ in _MALFORMED if parse is alt.parse_graph)


def _text_with_noise(g: alt.Graph, rng: random.Random) -> tuple[str, list[tuple[int, int]]]:
    """g's edge-list text with its lines shuffled, some pairs flipped and
    blank or whitespace lines and padding between them, and its pairs."""
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
    rng.shuffle(pairs)
    lines = [f"{g.n} {g.m}"]
    for u, v in pairs:
        lines += rng.choice([[], [""], [" "], ["\t", ""]])
        lines.append(rng.choice(["{} {}", " {}\t{} ", "{}  {}\t"]).format(u, v))
    return "\n".join(lines) + rng.choice(["", "\n", "\n \n"]), pairs


def test_parse_graph_agrees_with_from_edges_and_builds_adjacency_on_first_read() -> None:
    # parse_graph orients each line and builds through the constructor; it
    # must give the graph from_edges gives, whose adjacency, built on first
    # read, a psi run on a file ordering never reads.
    rng = random.Random(15)
    corpus = [g for _, g in named_small_graphs()]
    corpus += random_graphs(40, 1, 16, seed=14, nonempty=False)
    for g in corpus:
        text, pairs = _text_with_noise(g, rng)
        h = alt.parse_graph(text)
        assert h == alt.Graph.from_edges(g.n, pairs) == g
        phi = alt.parse_ordering(alt.serialize_ordering(alt.random_ordering(h, rng.randrange(99))))
        assert alt.verify_witness(h, phi, alt.longest_increasing_path(h, phi))
        assert "adj" not in vars(h)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(h.n)]
        for e, (u, v) in enumerate(h.edges):
            adj[u].append((v, e))
            adj[v].append((u, e))
        assert h.adj == tuple(tuple(a) for a in adj)
