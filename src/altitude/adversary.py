"""Upper-bound witnesses for the altitude: the coloring ordering and a climb
over its class order.

Any explicit ordering certifies f(G) <= psi(G, phi).  A class-blocked
ordering gives each class of a proper edge coloring one block of ranks, one
class after another.  Consecutive edges of a path share a vertex, so they
lie in different classes, and any rank between two edges of one class
belongs to that class: an increasing path takes at most one edge per class
(the construction behind Graham and Kleitman, 1973).  Its psi therefore
depends only on the class order sigma, not on the order inside a block.

The climb searches sigma on one ``paths.PathValues``, which places edges
from the top rank down; a K or failure record of an edge reads only the
edges placed before it.  Swapping the classes at positions i < j changes
the order of blocks 0..j only, the ones placed last, so a move unplaces
them and places them again in the new order: psi of the new ordering is
resumed, not searched afresh.  A rejected move is undone the same way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import inf

from .graphs import Graph, SoundnessError, hypercube_dimension
from .orderings import (
    EdgeColoring,
    EdgeOrdering,
    coloring_ordering,
    greedy_edge_coloring,
    hypercube_dimension_coloring,
)
from .paths import PathValues, _Capped, _trail_sweep, longest_increasing_path
from .pedestrian import sqrt_degree_floor


@dataclass(frozen=True)
class UpperBoundReport:
    best_psi: int
    witness: EdgeOrdering
    verified: bool
    strategies: tuple[tuple[str, int, bool], ...]


def _psi_or_trail(g: Graph, ordering: EdgeOrdering, budget: int | None) -> tuple[int, bool]:
    """(psi, True) when the path search settles within ``budget``, else
    (the trail value, False): an upper bound on psi either way."""
    res = longest_increasing_path(g, ordering, budget=budget)
    if res.exact:
        return res.length, True
    return max(_trail_sweep(g, [g.edges[e] for e in ordering.inverse])), False


def _climb(
    g: Graph, coloring: EdgeColoring, base: EdgeOrdering, psi: int, steps: int, seed: int,
    psi_budget: int | None,
) -> tuple[int, EdgeOrdering]:
    """The least psi found over ``steps`` class swaps from ``base``, the
    class-blocked ordering of ``coloring`` whose exact psi is ``psi``, and
    its ordering.

    A move swaps the classes at two sigma positions drawn by the seed and
    keeps the swap unless psi rises, which stops its placements at once, or
    its placements scan more than ``psi_budget`` edges.  Every block keeps
    its order from ``base``.
    """
    blocks, start = [], 0
    for size in coloring.class_sizes:
        blocks.append(base.inverse[start:start + size])
        start += size
    k = len(blocks)
    sigma = list(range(k))  # the class at each block position, lowest ranks first
    state = PathValues(g, psi_budget)
    limit = state.limit

    def place(top: int, bound: float) -> bool:
        """Place the blocks at positions top, top - 1, ..., 0, each from
        its top rank down; stop with False once B, which placing only
        raises, passes ``bound``."""
        for pos in range(top, -1, -1):
            for e in reversed(blocks[sigma[pos]]):
                state.place(e)
                if state.best > bound:
                    return False
        return True

    try:
        place(k - 1, inf)
    except _Capped:  # possible where the coloring's psi needed no search
        return psi, base
    rng = random.Random(seed)
    for _ in range(steps if k > 1 else 0):
        i, j = sorted(rng.sample(range(k), 2))
        stay = g.m - sum(len(blocks[c]) for c in sigma[:j + 1])
        for _ in range(g.m - stay):
            state.unplace()
        sigma[i], sigma[j] = sigma[j], sigma[i]
        state.limit = state.explored + limit
        try:
            if place(j, psi):
                psi = state.best
                continue
        except _Capped:
            pass
        while len(state.placed) > stay:
            state.unplace()
        sigma[i], sigma[j] = sigma[j], sigma[i]
        state.limit = inf  # these blocks were placed in this order before
        place(j, inf)
    rank, r = [0] * g.m, 0
    for c in sigma:
        for e in blocks[c]:
            r += 1
            rank[e] = r
    return psi, EdgeOrdering(tuple(rank))


def upper_bound_report(
    g: Graph,
    seed: int = 0,
    steps: int = 100,
    psi_budget: int | None = 500000,
) -> UpperBoundReport:
    """Least ordering value over the coloring ordering and a climb from it.

    The first entry, ``coloring``, ranks the classes of a proper edge
    coloring in blocks, so an increasing path uses at most one edge per
    class and its value is at most the class count.  The coloring is the
    dimension coloring (d classes) on a canonically labelled Q_d and the
    Misra-Gries coloring (at most max_degree + 1 classes) on any other
    graph.  Its value is the verified psi, or the trail length when the
    psi budget runs out.  The second, ``class-climb``, is ``_climb``'s
    ``steps`` moves over the class order, which only ever lower the
    report.  It is left out when ``steps`` is 0, when the coloring's psi is
    capped, and on Q_d, where every class order of the dimension coloring
    has psi d.  A climb ordering other than the coloring's is rescored by
    one unbudgeted psi search, and a mismatch raises SoundnessError.
    Raises ValueError on negative ``steps``.  ``exactf.f_bounds_sandwich``
    takes the coloring entry, with no climb and no psi budget, as its upper
    bound and as the incumbent of the exact search.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if g.m == 0:
        ident = EdgeOrdering(())
        return UpperBoundReport(0, ident, True, (("coloring", 0, True),))
    cube = hypercube_dimension(g)
    coloring = greedy_edge_coloring(g) if cube is None else hypercube_dimension_coloring(g)
    base = coloring_ordering(g, coloring, seed)
    start, exact = _psi_or_trail(g, base, psi_budget)
    entries = [("coloring", start, exact, base)]
    if steps and exact and cube is None:
        psi, climbed = _climb(g, coloring, base, start, steps, seed, psi_budget)
        if climbed != base:
            check = longest_increasing_path(g, climbed)
            if check.length != psi:
                raise SoundnessError(f"the class climb reported {psi} for an ordering "
                                     f"whose psi is {check.length}")
        entries.append(("class-climb", psi, True, climbed))

    # Prefer verified values at equal bound.
    label, value, ver, witness = min(entries, key=lambda t: (t[1], not t[2]))
    floor = sqrt_degree_floor(g)
    if value < floor:
        raise SoundnessError(f"upper-bound witness {value} below the universal floor {floor}")
    return UpperBoundReport(value, witness, ver, tuple((l, v, e) for l, v, e, _ in entries))
