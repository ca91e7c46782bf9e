"""Graph container, generators, text format, and degree statistics."""

from __future__ import annotations

from fractions import Fraction

import pytest

import altitude as alt
from corpus import random_graphs


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


def test_parse_rejects_malformed_text() -> None:
    with pytest.raises(alt.MalformedLineError):
        alt.parse_graph("")
    with pytest.raises(alt.MalformedLineError):
        alt.parse_graph("3\n")
    with pytest.raises(alt.MalformedLineError):
        alt.parse_graph("x y\n")
    with pytest.raises(alt.MalformedLineError):
        alt.parse_graph("2 1\n0\n")
    with pytest.raises(alt.MalformedLineError):
        alt.parse_graph("3 2\n0 1\n")  # fewer edge lines than declared
    with pytest.raises(alt.LoopError):
        alt.parse_graph("2 1\n1 1\n")
    with pytest.raises(alt.DuplicateEdgeError):
        alt.parse_graph("3 2\n0 1\n1 0\n")
    with pytest.raises(alt.VertexRangeError):
        alt.parse_graph("2 1\n0 5\n")
    # every format error is also a GraphFormatError and a ValueError
    with pytest.raises(alt.GraphFormatError):
        alt.parse_graph("2 1\n0 5\n")
