"""Exact altitude search, symmetry reduction, and the bounds sandwich."""

from __future__ import annotations

import dataclasses

import pytest

import altitude as alt
from altitude import exactf
from corpus import named_small_graphs, random_graphs
from oracles import brute_f


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
    assert dict(k4.upper_candidates)["complete-three-quarters"] == 3

    q3 = alt.f_bounds_sandwich(alt.make_hypercube(3))
    assert (q3.lower, q3.upper) == (3, 3)
    assert dict(q3.upper_candidates)["hypercube-dimension"] == 3
    assert dict(q3.lower_candidates)["density-criterion-k3"] == 3

    m3 = alt.f_bounds_sandwich(alt.make_matching(3))
    assert (m3.lower, m3.upper) == (1, 1)


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


def test_inexact_start_value_raises_soundness_error(monkeypatch: pytest.MonkeyPatch) -> None:
    real = exactf.longest_increasing_path

    def inexact(g, ordering, budget=None):
        return dataclasses.replace(real(g, ordering, budget), exact=False)

    monkeypatch.setattr(exactf, "longest_increasing_path", inexact)
    with pytest.raises(alt.SoundnessError):
        alt.exact_f(alt.make_cycle(5))
