"""Densest k-vertex subgraphs and the density criterion for the altitude.

zeta(k) is the maximum number of edges induced by k vertices.  Its role: if
2*zeta(k) - k + 1 is strictly below the average degree of a connected graph,
then every edge-ordering admits an increasing path with at least k edges.

On the hypercube Q_d, zeta(k) is known exactly: the edge-isoperimetric
theorem of Harper (1964) and Bernstein (1967) says that the first k binary
numbers induce a densest k-vertex subgraph, with sum_{i<k} popcount(i)
edges.  ``zeta`` answers from that closed form on graphs that
``hypercube_dimension`` recognises and searches with ``zeta_exact``
elsewhere; ``density_floor`` and the ``zeta`` command both read it.
The paper uses only its weak form, zeta(k) <= k*log2(k)/2, which feeds the
dimension bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import DegreeStats, Graph, degree_stats, hypercube_dimension
from .pedestrian import sqrt_degree_floor


@dataclass(frozen=True)
class ZetaResult:
    """zeta value for one subset size; exact=False means lower bound only."""

    k: int
    value: int
    witness: tuple[int, ...]
    exact: bool
    explored: int


def _greedy_fill(g: Graph, start: int, k: int) -> tuple[int, int]:
    """Grow a k-set from `start`, always adding the vertex densest into it."""
    mask = 1 << start
    edges = 0
    for _ in range(k - 1):
        best_v, best_key = -1, None
        for v in range(g.n):
            if mask >> v & 1:
                continue
            key = ((g.adj_mask[v] & mask).bit_count(), len(g.adj[v]), -v)
            if best_key is None or key > best_key:
                best_v, best_key = v, key
        mask |= 1 << best_v
        edges += best_key[0]
    return mask, edges


def zeta_greedy(g: Graph, k: int, seed: int) -> ZetaResult:
    """Multi-restart greedy densification; a lower bound on zeta(k)."""
    if not 1 <= k <= g.n:
        raise ValueError(f"k must lie in 1..{g.n}")
    rng = random.Random(seed)
    starts = [max(range(g.n), key=lambda v: (len(g.adj[v]), -v))]
    restarts = min(g.n, 16)
    starts += [rng.randrange(g.n) for _ in range(restarts - 1)]
    best_mask, best_edges = -1, -1
    for s in starts:
        mask, edges = _greedy_fill(g, s, k)
        if edges > best_edges:
            best_mask, best_edges = mask, edges
    witness = tuple(v for v in range(g.n) if best_mask >> v & 1)
    return ZetaResult(k, best_edges, witness, exact=False, explored=len(starts))


def zeta_exact(g: Graph, k: int, budget: int | None = None) -> ZetaResult:
    """Exact zeta(k) by branch-and-bound over vertex subsets.

    Branches on the candidate densest into the chosen set (ties by degree,
    then id), include-first.  A branch dies when even the optimistic
    completion cannot beat the incumbent: chosen edges, plus the best t
    values of (edges into chosen) summed, plus min of C(t,2) and half the
    best t remaining-side degrees, where t is the number of open slots.
    The search keeps its own stack of (chosen, its edges, remaining, t)
    nodes, pushing the exclude child under the include child, so nodes are
    visited depth-first, include-first, with no recursion limit; it stops
    early once the incumbent reaches C(k, 2).  With a budget, exhaustion
    returns the incumbent flagged inexact.
    """
    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    masks = g.adj_mask
    seed_res = zeta_greedy(g, k, seed=0)
    best = seed_res.value
    best_mask = 0
    for v in seed_res.witness:
        best_mask |= 1 << v
    cap = k * (k - 1) // 2
    explored = 0
    stack = [(0, 0, (1 << n) - 1, k)]
    while stack and best < cap:
        S, e_S, R, t = stack.pop()
        explored += 1
        if budget is not None and explored > budget:
            break
        if t == 0:
            if e_S > best:
                best, best_mask = e_S, S
            continue
        if R.bit_count() < t:
            continue
        # One pass over R: per-vertex counts for the bound and the branch pick.
        into_S: list[int] = []
        coupled: list[int] = []  # 2*into_S + degree within R
        pick, pick_key = -1, None
        Rm = R
        while Rm:
            b = Rm & -Rm
            v = b.bit_length() - 1
            Rm ^= b
            c = (masks[v] & S).bit_count()
            dr = (masks[v] & R).bit_count()
            into_S.append(c)
            coupled.append(2 * c + dr)
            key = (c, dr, -v)
            if pick_key is None or key > pick_key:
                pick, pick_key = v, key
        into_S.sort(reverse=True)
        coupled.sort(reverse=True)
        twice_a = 2 * e_S + sum(coupled[:t])
        twice_b = 2 * e_S + 2 * sum(into_S[:t]) + t * (t - 1)
        if min(twice_a, twice_b) <= 2 * best:
            continue
        bit = 1 << pick
        stack.append((S, e_S, R ^ bit, t))
        stack.append((S | bit, e_S + (masks[pick] & S).bit_count(), R ^ bit, t - 1))
    witness = tuple(v for v in range(n) if best_mask >> v & 1)
    exact = budget is None or explored <= budget
    return ZetaResult(k, best, witness, exact=exact, explored=explored)


def hypercube_zeta(k: int) -> int:
    """Exact zeta(k) on any hypercube Q_d with 2**d >= k: sum_{i<k} popcount(i).

    By the edge-isoperimetric theorem of Harper (1964) and Bernstein (1967),
    the vertices 0..k-1 induce the most edges of any k vertices of Q_d: one
    edge down from each member per set bit.  Counted per bit j, each full
    block of 2**(j+1) numbers holds 2**j with bit j set, and the partial
    block holds the rest.  O(log k) integer operations.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    total, j = 0, 0
    while 1 << j < k:
        total += (k >> (j + 1)) << j
        total += max(0, k % (2 << j) - (1 << j))
        j += 1
    return total


def zeta(g: Graph, k: int, budget: int | None = None) -> ZetaResult:
    """zeta(k) by Harper's closed form on a recognised cube, else by search.

    On a graph that ``hypercube_dimension`` recognises the result is
    ``hypercube_zeta(k)``, exact at any budget, with no nodes and the
    witness 0..k-1; elsewhere it is ``zeta_exact(g, k, budget)``.  Raises
    ValueError unless 1 <= k <= n on both paths.
    """
    if hypercube_dimension(g) is None:
        return zeta_exact(g, k, budget)
    if not 1 <= k <= g.n:
        raise ValueError(f"k must lie in 1..{g.n}")
    return ZetaResult(k, hypercube_zeta(k), tuple(range(k)), exact=True, explored=0)


def _criterion_holds(stats: DegreeStats, k: int, zeta_k: int) -> bool:
    return 2 * zeta_k - k + 1 < stats.average_degree


def rodl_criterion(g: Graph, k: int, zeta_k: int) -> bool:
    """True iff 2*zeta(k) - k + 1 < average degree, certifying f(G) >= k.

    Exact rational comparison.  Requires a connected graph: the chain that
    justifies the criterion augments a densest set one adjacent vertex at a
    time, which needs connectivity.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"k must lie in 1..{g.n}")
    stats = degree_stats(g)
    if not stats.connected:
        raise ValueError("criterion applies to connected graphs only")
    return _criterion_holds(stats, k, zeta_k)


def density_floor(g: Graph, ceiling: int, budget: int | None) -> int:
    """Largest proved floor on f(G) from the degree floor and the density criterion.

    Starts at ``sqrt_degree_floor(g)``.  On a connected graph it then raises
    the floor to k = floor + 1, floor + 2, ... while zeta(k) satisfies the
    criterion; it stops at the first k that fails, or past min(n, ceiling).
    zeta(k) comes from ``zeta`` with ``budget``, and a k whose search runs
    out of budget also stops the loop.  A disconnected graph keeps the
    degree floor.
    """
    floor = sqrt_degree_floor(g)
    top = min(g.n, ceiling)
    if floor >= top:
        return floor
    stats = degree_stats(g)
    if not stats.connected:
        return floor
    for k in range(floor + 1, top + 1):
        zr = zeta(g, k, budget)
        if not (zr.exact and _criterion_holds(stats, k, zr.value)):
            break
        floor = k
    return floor


def hypercube_zeta_bound_check(k: int, zeta_k: int) -> bool:
    """True iff zeta_k <= k*log2(k)/2, decided exactly.

    The comparison is equivalent to the integer-power comparison
    4**zeta_k <= k**k, so the verdict is rigorous in both directions with
    no transcendental evaluation at all.
    """
    if k < 1 or zeta_k < 0:
        raise ValueError("need k >= 1, zeta_k >= 0")
    return 4**zeta_k <= k**k
