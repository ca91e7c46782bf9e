"""Seeded graph corpora shared across the test modules."""

from __future__ import annotations

import random

import altitude as alt


def named_small_graphs() -> list[tuple[str, alt.Graph]]:
    """Named instances with at most six edges, usable with factorial oracles."""
    return [
        ("k3", alt.make_complete(3)),
        ("k4", alt.make_complete(4)),
        ("c4", alt.make_cycle(4)),
        ("c5", alt.make_cycle(5)),
        ("c6", alt.make_cycle(6)),
        ("p3", alt.make_path(3)),
        ("p5", alt.make_path(5)),
        ("star4", alt.make_star(4)),
        ("star2", alt.make_star(2)),
        ("matching3", alt.make_matching(3)),
    ]


def random_graphs(
    count: int,
    n_lo: int,
    n_hi: int,
    seed: int,
    m_max: int | None = None,
    nonempty: bool = True,
) -> list[alt.Graph]:
    """Seeded G(n,p) pool with mixed densities, optionally capped by edge count."""
    rng = random.Random(seed)
    out: list[alt.Graph] = []
    while len(out) < count:
        n = rng.randrange(n_lo, n_hi + 1)
        p = rng.choice((0.2, 0.35, 0.5, 0.7, 0.9))
        g = alt.sample_gnp(n, p, rng.randrange(1 << 30))
        if nonempty and g.m == 0:
            continue
        if m_max is not None and g.m > m_max:
            continue
        out.append(g)
    return out


def random_instances(
    count: int,
    n_lo: int,
    n_hi: int,
    seed: int,
    m_max: int | None = None,
) -> list[tuple[alt.Graph, alt.EdgeOrdering]]:
    """Seeded (graph, ordering) pairs built on top of random_graphs."""
    rng = random.Random(seed ^ 0x5EED)
    return [
        (g, alt.random_ordering(g, rng.randrange(1 << 30)))
        for g in random_graphs(count, n_lo, n_hi, seed, m_max=m_max)
    ]


def psi_check_instances() -> list[tuple[alt.Graph, alt.EdgeOrdering]]:
    """The 500 (graph, ordering) pairs of the seeded psi check: G(n, p) with
    n in 10..60 and p in .1..0.6, under a random ordering (even positions)
    or a Misra-Gries coloring ordering (odd positions); empty graphs are
    skipped."""
    rng = random.Random(2026)
    out: list[tuple[alt.Graph, alt.EdgeOrdering]] = []
    while len(out) < 500:
        n = rng.randint(10, 60)
        p = rng.choice((0.1, 0.2, 0.3, 0.4, 0.5, 0.6))
        g = alt.sample_gnp(n, p, rng.randrange(2**30))
        seed = rng.randrange(2**30)
        if g.m == 0:
            continue
        if len(out) % 2 == 0:
            out.append((g, alt.random_ordering(g, seed)))
        else:
            out.append((g, alt.coloring_ordering(g, alt.greedy_edge_coloring(g), seed)))
    return out
