"""Exact altitude f(G) = min over edge-orderings of the longest increasing path.

The search assigns ranks 1, 2, ..., m to edges one at a time.  Increasing
paths live entirely among already-ranked edges, so the partial value can
only grow as ranks are appended: a branch whose prefix already reaches the
incumbent is dead.  The search starts from the ``f_bounds_sandwich``
bracket: its coloring ordering and that ordering's exact value are the
incumbent, and its proved lower bound (degree floor, density criterion,
family formulas) is the floor, which settles many small graphs at once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import hypercube_k
from .density import density_floor
from .graphs import Graph, SoundnessError, hypercube_dimension, is_complete
from .orderings import EdgeOrdering, coloring_ordering, greedy_edge_coloring, identity_ordering
from .paths import longest_increasing_path, longest_increasing_trail
from .pedestrian import sqrt_degree_floor

_ORBIT_NODE_CAP = 20000
_ORBIT_MAP_CAP = 120


@dataclass(frozen=True)
class SandwichReport:
    """Best known bracket on f(G) with labeled sources, plus the coloring
    ordering behind the coloring upper bounds and its exact value ``psi``."""

    lower: int
    upper: int
    lower_candidates: tuple[tuple[str, int], ...]
    upper_candidates: tuple[tuple[str, int], ...]
    ordering: EdgeOrdering
    psi: int


@dataclass(frozen=True)
class AltitudeResult:
    """f(G) with a witness ordering.

    When exact, value == lower and the witness achieves it.  On budget
    exhaustion, value is the best incumbent (an upper bound), lower a
    proved floor, and exact is False.  ``bounds`` is the starting bracket.
    """

    value: int
    lower: int
    witness: EdgeOrdering
    explored: int
    exact: bool
    bounds: SandwichReport


# ----------------------------------------------------------------------
# Edge orbits from explicitly found automorphisms
# ----------------------------------------------------------------------

def _refine_colors(g: Graph) -> list[int]:
    col = [len(g.adj[v]) for v in range(g.n)]
    for _ in range(g.n):
        sig = [
            (col[v], tuple(sorted(col[w] for w, _ in g.adj[v]))) for v in range(g.n)
        ]
        ids = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ids[s] for s in sig]
        if new == col:
            break
        col = new
    return col


def edge_orbits(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Partition edge indices into classes merged only by real automorphisms.

    Backtracking over color-preserving vertex bijections, mapping vertices in
    order of rising color-class size.  A stack holds, per level, an iterator
    over the images not yet tried, in increasing vertex order, so no
    recursion limit applies.  Every complete bijection found merges each
    edge with its image.  The search stops after ``_ORBIT_NODE_CAP`` nodes
    or ``_ORBIT_MAP_CAP`` automorphisms; the caps can only leave classes
    too fine, never too coarse, so callers may treat same-class edges as
    interchangeable.
    """
    n, m = g.n, g.m
    if m == 0:
        return ()
    col = _refine_colors(g)
    order = sorted(range(n), key=lambda v: (col.count(col[v]), v))
    eidx = {e: i for i, e in enumerate(g.edges)}
    masks = g.adj_mask

    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    image = [-1] * n
    used = [False] * n
    nodes, found = 1, 0
    untried = [iter(range(n))]  # untried images of order[level], level = len - 1
    while untried and nodes <= _ORBIT_NODE_CAP and found < _ORBIT_MAP_CAP:
        level = len(untried) - 1
        v = order[level]
        if image[v] >= 0:  # step back from the image tried last
            used[image[v]] = False
            image[v] = -1
        for w in untried[-1]:
            if used[w] or col[w] != col[v]:
                continue
            for u in order[:level]:
                if (masks[v] >> u & 1) != (masks[w] >> image[u] & 1):
                    break
            else:
                break
        else:
            untried.pop()
            continue
        image[v] = w
        used[w] = True
        nodes += 1
        if level + 1 < n:
            untried.append(iter(range(n)))
            continue
        found += 1
        for (a, b), e in eidx.items():
            ia, ib = image[a], image[b]
            ra, rb = find(e), find(eidx[(ia, ib) if ia < ib else (ib, ia)])
            if ra != rb:
                parent[ra] = rb

    groups: dict[int, list[int]] = {}
    for e in range(m):
        groups.setdefault(find(e), []).append(e)
    return tuple(tuple(sorted(grp)) for _, grp in sorted(groups.items()))


# ----------------------------------------------------------------------
# Minimax search for f
# ----------------------------------------------------------------------

def exact_f(g: Graph, budget: int | None = None) -> AltitudeResult:
    """Minimum over all orderings of the longest increasing path length.

    Branch-and-bound over rank assignments with the prefix value as the
    pruning key; first-level branches range over one representative per
    edge orbit.  The incumbent starts at the sandwich's coloring ordering
    and its exact value, the floor at the sandwich's lower bound, every
    candidate of which is proved.  The search keeps its own stack of
    (prefix value, rank, edge) children, pushed in descending order so they
    are expanded depth-first by ascending (value, edge); a child whose value
    has reached the incumbent by the time it is popped is skipped.
    ``budget`` caps node expansions; exhaustion returns the bracket
    [floor, incumbent] flagged inexact.
    """
    bounds = f_bounds_sandwich(g)
    m = g.m
    best_val, best_ord, floor = bounds.psi, bounds.ordering, bounds.lower
    if best_val <= floor:
        return AltitudeResult(best_val, best_val, best_ord, 0, True, bounds)

    rank_of = [0] * m  # 0 = unranked; otherwise the assigned rank
    ranked: list[int] = []  # ranked[i] holds rank i + 1 on the current branch
    explored = 0
    adj = g.adj

    def longest_ending_at(e: int, r: int) -> int:
        """Longest increasing path among ranked edges that ends with edge e."""
        u, v = g.edges[e]
        base = (1 << u) | (1 << v)

        def back(x: int, below: int, mask: int) -> int:
            out = 0
            for w, e2 in adj[x]:
                r2 = rank_of[e2]
                if 0 < r2 < below and not mask >> w & 1:
                    got = 1 + back(w, r2, mask | (1 << w))
                    if got > out:
                        out = got
            return out

        return 1 + max(back(u, r, base), back(v, r, base))

    stack = [(0, 0, -1)]  # the root ranks no edge
    while stack and best_val > floor:
        val, r, e = stack.pop()
        if val >= best_val:  # the incumbent improved since this child was pushed
            continue
        while len(ranked) >= r > 0:
            rank_of[ranked.pop()] = 0
        if r:
            rank_of[e] = r
            ranked.append(e)
        explored += 1
        if budget is not None and explored > budget:
            break
        if r == m:
            best_val, best_ord = val, EdgeOrdering(tuple(rank_of))
            continue
        if r:
            candidates = [x for x in range(m) if not rank_of[x]]
        else:
            candidates = [orb[0] for orb in edge_orbits(g)]
        r += 1
        children = []
        for x in candidates:
            rank_of[x] = r
            child = longest_ending_at(x, r)
            rank_of[x] = 0
            if child < val:
                child = val
            if child < best_val:
                children.append((child, r, x))
        children.sort(reverse=True)
        stack += children
    if budget is not None and explored > budget:
        return AltitudeResult(best_val, floor, best_ord, explored, False, bounds)
    return AltitudeResult(best_val, best_val, best_ord, explored, True, bounds)


# ----------------------------------------------------------------------
# Bound collection
# ----------------------------------------------------------------------

def f_bounds_sandwich(g: Graph) -> SandwichReport:
    """Best lower and upper bounds on f(G) from every cheap source.

    Upper: class count of a proper coloring, the trail value of its
    ordering, the exact (unbudgeted) path value of that ordering, and
    family formulas.  Lower: the square-root-of-average-degree floor, the
    density criterion at growing k (connected graphs) up to the best upper
    bound, since no k above it can pass, and family formulas for
    hypercubes and complete graphs.  Maxima of pedestrian runs are
    deliberately absent: they bound one ordering's value from below, not
    the minimum over orderings.  The coloring ordering and its value are
    returned as well; ``exact_f`` starts its search from them.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    if g.m == 0:
        return SandwichReport(0, 0, (("empty", 0),), (("empty", 0),), identity_ordering(g), 0)

    coloring = greedy_edge_coloring(g)
    phi = coloring_ordering(g, coloring, seed=0)
    res = longest_increasing_path(g, phi)
    if not res.exact:
        raise SoundnessError("an unbudgeted psi search returned an inexact value")
    uppers = [
        ("edge-coloring-classes", coloring.num_colors),
        ("coloring-ordering-trail", longest_increasing_trail(g, phi).length),
        ("coloring-ordering-path", res.length),
    ]
    floor = sqrt_degree_floor(g)
    lowers = [("sqrt-average-degree", floor)]
    d = hypercube_dimension(g)
    if d is not None and d >= 1:
        lowers.append(("hypercube-ratio", 1 if d == 1 else hypercube_k(d)))
        uppers.append(("hypercube-dimension", d))
    if is_complete(g) and g.n >= 2:
        n = g.n
        # ceil((sqrt(4n-3) - 1) / 2): smallest L with (2L+1)**2 >= 4n-3
        L = 0
        while (2 * L + 1) ** 2 < 4 * n - 3:
            L += 1
        lowers.append(("complete-sqrt", L))
        uppers.append(("complete-three-quarters", (3 * n) // 4))

    hi = min(v for _, v in uppers)
    certified = density_floor(g, hi, budget=200000)
    # the density labels follow the degree floor, ahead of the family formulas
    lowers[1:1] = [(f"density-criterion-k{k}", k) for k in range(floor + 1, certified + 1)]
    lo = max(v for _, v in lowers)
    return SandwichReport(lo, hi, tuple(lowers), tuple(uppers), phi, res.length)
