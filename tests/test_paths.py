"""Longest increasing trail (DP) and longest increasing path (pruned DFS)."""

from __future__ import annotations

import random

import pytest

import altitude as alt
from altitude.adversary import _trail_len
from altitude.paths import _suffix_trail_table
from corpus import random_instances
from oracles import brute_psi, brute_suffix_trail, brute_trail


def test_trail_matches_oracle_on_small_instances() -> None:
    for g, phi in random_instances(150, 2, 9, seed=21, m_max=8):
        res = alt.longest_increasing_trail(g, phi)
        assert res.length == brute_trail(g, phi)
        assert res.kind == "trail"
        assert alt.verify_witness(g, phi, res)


def test_value_only_trail_matches_trail_sweep_and_oracle() -> None:
    # The annealer's value-only loop must agree with the history-recording sweep.
    for g, phi in random_instances(150, 2, 9, seed=23, m_max=8):
        want = brute_trail(g, phi)
        assert _trail_len(g, list(phi.inverse)) == want
        assert alt.longest_increasing_trail(g, phi).length == want


def test_suffix_trail_table_matches_oracle() -> None:
    for g, phi in random_instances(60, 2, 8, seed=24, m_max=8):
        query = _suffix_trail_table(g, phi)
        for v in range(g.n):
            for r in range(1, g.m + 2):
                assert query(v, r) == brute_suffix_trail(g, phi, v, r), (v, r)


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


def test_trail_witness_checker_rejects_repeated_edge() -> None:
    g = alt.make_complete(3)
    phi = alt.identity_ordering(g)
    bad = alt.PathResult(
        kind="trail", length=2, vertices=(0, 1, 0), edges=(0, 0), exact=True, explored=0
    )
    with pytest.raises(alt.WitnessError):
        alt.verify_witness(g, phi, bad)
