"""Pedestrian simulation: replay invariants, coverage, counting, floor."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import altitude as alt
from corpus import random_instances
from oracles import brute_induced, brute_zeta


def test_triangle_transcript_by_hand() -> None:
    # K_3 with identity ranks on edges (01)=1, (02)=2, (12)=3
    g = alt.make_complete(3)
    t = alt.run_pedestrian(g, alt.identity_ordering(g))
    assert t.paths == ((0, 1), (1, 0, 2), (2, 0))
    assert t.walks == ((0,), (0, 1), (1,))
    assert t.swap_log == ((0, True), (1, True), (2, False))
    assert t.final_position == (1, 2, 0)
    assert t.max_path_edges == 2
    alt.check_invariants(g, alt.identity_ordering(g), t)

    cov = alt.verify_coverage(g, t)
    assert cov.ok and cov.violating_edge is None
    cnt = alt.verify_counting(g, t)
    assert cnt.lhs == 3
    assert cnt.rhs == Fraction(3)  # (1 - 1/2) + (3 - 1) + (1 - 1/2), equality
    assert cnt.per_pedestrian == (Fraction(1, 2), 2, Fraction(1, 2))
    assert cnt.holds and cnt.k == 3


def test_matching_pedestrians_each_walk_one_edge() -> None:
    g = alt.make_matching(5)
    for seed in range(4):
        t = alt.run_pedestrian(g, alt.random_ordering(g, seed))
        assert all(len(w) == 1 for w in t.walks)
        assert all(swapped for _, swapped in t.swap_log)
        cnt = alt.verify_counting(g, t)
        assert cnt.lhs == 5 and cnt.rhs == Fraction(5)  # equality on matchings


def test_edgeless_graph_everyone_stays_home() -> None:
    g = alt.Graph(3, ())
    t = alt.run_pedestrian(g, alt.identity_ordering(g))
    assert t.paths == ((0,), (1,), (2,))
    assert t.max_path_edges == 0
    cnt = alt.verify_counting(g, t)
    assert cnt.lhs == 0 and cnt.rhs == 0 and cnt.holds


def test_random_sweep_all_guarantees() -> None:
    for g, phi in random_instances(200, 2, 24, seed=41):
        t = alt.run_pedestrian(g, phi)
        alt.check_invariants(g, phi, t)
        assert alt.verify_coverage(g, t).ok
        cnt = alt.verify_counting(g, t)
        assert cnt.holds
        assert t.max_path_edges >= alt.sqrt_degree_floor(g)


def test_counting_zeta_chain_on_connected_graphs() -> None:
    count = 0
    for g, phi in random_instances(120, 3, 9, seed=43):
        if not alt.degree_stats(g).connected:
            continue
        count += 1
        t = alt.run_pedestrian(g, phi)
        k = max(len(set(path)) for path in t.paths)
        zetas = [brute_zeta(g, s) for s in range(k + 1)]
        cnt = alt.verify_counting(g, t, zeta_values=zetas)
        assert cnt.per_pedestrian_zeta_holds
        assert cnt.aggregate_holds
        assert cnt.aggregate_rhs == g.n * (Fraction(zetas[k]) - Fraction(k - 1, 2))
    assert count >= 50  # the pool must actually exercise the chain


def test_coverage_negative_control_reports_dropped_edge() -> None:
    g = alt.make_complete(3)
    t = alt.run_pedestrian(g, alt.identity_ordering(g))
    # edge 2 = (1,2) lies only in U_1; cutting pedestrian 1's path to (1, 0)
    # drops vertex 2 from V_1 and breaks coverage
    bad = replace(t, paths=(t.paths[0], (1, 0), t.paths[2]))
    cov = alt.verify_coverage(g, bad)
    assert not cov.ok
    assert cov.violating_edge == 2


def _set_based(g: alt.Graph, t: alt.PedestrianTranscript, zetas: list[int]) -> tuple:
    """Coverage and counting from explicit vertex and induced edge sets."""
    vertex_sets = [set(path) for path in t.paths]
    induced = [brute_induced(g, vs) for vs in vertex_sets]
    cap = max((len(w) for w in t.walks), default=0) + 1
    uncovered = [e for e in range(g.m) if not any(e in u for u in induced)]
    if any(len(vs) > cap for vs in vertex_sets):
        coverage = (False, None)
    else:
        coverage = (not uncovered, uncovered[0] if uncovered else None)
    per = tuple(Fraction(len(u)) - Fraction(len(w), 2) for u, w in zip(induced, t.walks))
    k = max(len(vs) for vs in vertex_sets)
    zk = Fraction(zetas[k]) - Fraction(k - 1, 2)
    per_ok = all(
        term <= Fraction(zetas[len(vs)]) - Fraction(len(vs) - 1, 2) <= zk
        for term, vs in zip(per, vertex_sets)
    )
    return coverage, per, sum(per), k, per_ok, g.n * zk, g.m <= g.n * zk


def test_mask_evaluation_matches_set_based_evaluation() -> None:
    rng = random.Random(53)
    uncovered = 0
    for g, phi in random_instances(150, 2, 10, seed=53):
        t = alt.run_pedestrian(g, phi)
        walkers = [i for i, path in enumerate(t.paths) if len(path) > 1]
        cases = [t]
        if walkers:
            # pedestrian i's path cut short, and with its start repeated at the end
            i = rng.choice(walkers)
            path = t.paths[i]
            for tampered in (path[: rng.randrange(1, len(path))], path + path[:1]):
                cases.append(replace(t, paths=t.paths[:i] + (tampered,) + t.paths[i + 1:]))
        for case in cases:
            k = max(len(set(path)) for path in case.paths)
            zetas = [brute_zeta(g, s) for s in range(k + 1)]
            cov = alt.verify_coverage(g, case)
            cnt = alt.verify_counting(g, case, zeta_values=zetas)
            got = ((cov.ok, cov.violating_edge), cnt.per_pedestrian, cnt.rhs, cnt.k,
                   cnt.per_pedestrian_zeta_holds, cnt.aggregate_rhs, cnt.aggregate_holds)
            assert got == _set_based(g, case, zetas)
            uncovered += cov.violating_edge is not None
    assert uncovered >= 20  # the cut paths must exercise violating_edge


def test_replay_rejects_tampered_transcripts() -> None:
    g = alt.make_complete(4)
    phi = alt.random_ordering(g, seed=9)
    t = alt.run_pedestrian(g, phi)
    alt.check_invariants(g, phi, t)

    e0, s0 = t.swap_log[0]
    flipped = replace(t, swap_log=((e0, not s0),) + t.swap_log[1:])
    with pytest.raises(alt.TranscriptError):
        alt.check_invariants(g, phi, flipped)

    wrong_path = replace(t, paths=(t.paths[0] + (t.paths[0][-1],),) + t.paths[1:])
    with pytest.raises(alt.TranscriptError):
        alt.check_invariants(g, phi, wrong_path)

    reversed_walk = replace(t, walks=(t.walks[0][::-1],) + t.walks[1:])
    assert reversed_walk.walks != t.walks
    with pytest.raises(alt.TranscriptError, match="pedestrian 0: step 0"):
        alt.check_invariants(g, phi, reversed_walk)


def test_edge_membership_parity_zero_or_two() -> None:
    for g, phi in random_instances(60, 2, 16, seed=47):
        t = alt.run_pedestrian(g, phi)
        for e in range(g.m):
            members = sum(1 for w in t.walks if e in w)
            assert members in (0, 2)


def test_sqrt_degree_floor_values() -> None:
    assert alt.sqrt_degree_floor(alt.make_complete(4)) == 2  # ceil(sqrt(3))
    assert alt.sqrt_degree_floor(alt.make_matching(3)) == 1
    assert alt.sqrt_degree_floor(alt.Graph(3, ())) == 0
    assert alt.sqrt_degree_floor(alt.make_complete(10)) == 3  # ceil(sqrt(9))
    assert alt.sqrt_degree_floor(alt.make_hypercube(4)) == 2
    with pytest.raises(ValueError):
        alt.sqrt_degree_floor(alt.Graph(0, ()))


def test_ordering_length_mismatch_rejected() -> None:
    g = alt.make_complete(3)
    with pytest.raises(ValueError):
        alt.run_pedestrian(g, alt.EdgeOrdering((1, 2)))
