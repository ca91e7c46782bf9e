"""Exact altitude f(G) = min over edge-orderings of the longest increasing path.

The search assigns ranks 1, 2, ..., m to edges one at a time.  Increasing
paths live entirely among already-ranked edges, so the partial value can
only grow as ranks are appended: a branch whose prefix already reaches the
incumbent is dead.  The search starts from the ``f_bounds_sandwich``
bracket: the coloring entry of the upper bound report
(``adversary.upper_bound_report``) and its exact value are the incumbent,
and its proved lower bound (degree floor, density criterion) is the floor,
which settles many small graphs at once.

A child appends edge (u, v) with the top rank, so every increasing path
through it ends with it: the child's value is 1 + the longer of the longest
path ending at u that avoids v and the one ending at v that avoids u.  The
branch's ranks are placed from rank 1 up on the psi search's state,
``paths.PathValues``, whose monotone paths, read from their end, are then
the increasing ones.  Its incumbent is the node's value, a child's value is
the incumbent once the child is placed, and a path end that avoids a vertex
mask is its masked query.  Its K values and failure records persist across
nodes while their edge stays ranked: they read only the edges ranked below
it, which stay fixed in that subtree.

Two cuts bound the whole subtree of a node, not one child:

- Top value.  In every completion, each unranked edge ranks above the whole
  prefix, so the path that ends with it, as if it took the next rank, is
  increasing there too.  A node dies once the largest such value reaches
  the incumbent, so every child it keeps is below the incumbent.
- Pair.  Of two unranked edges (a, b) and (b, c), whichever is ranked first
  is extended by the other, so every completion has a path of
  2 + min(L_a, L_c) edges, L_a being the longest prefix path ending at a
  that avoids b and c, and L_c the one ending at c that avoids a and b.

Sleep sets (Godefroid, Partial-Order Methods for the Verification of
Concurrent Systems, LNCS 1032, 1996) let the search expand one ordering of
each class of equivalent ones.  Two edges that share no vertex commute at
adjacent ranks: consecutive edges of a path share a vertex, so swapping
the two ranks keeps every increasing path increasing, and the orderings
have the same increasing paths and the same value.  Each node carries a
sleep set of unranked edges and makes no child for them.  Its children
c_1, c_2, ... in pop order sleep on the node's set plus c_1..c_(i-1),
minus every edge that meets c_i.  Take a completion of a node in which no
sleeping edge z comes before all the edges that meet z, and let c_j be the
first child that comes before all the edges meeting it there; the first
edge of the completion is one.  Moving c_j to the front gives an
equivalent ordering, and the rest of it again has the property for c_j's
sleep set: a sleeping z there either slept at the node already or is an
earlier c_i that would have come first.  So by induction every ordering
is equivalent to one that reaches a leaf, or passes a node that was
dropped or cut.  Whether a node is dropped or cut depends only on its
prefix, never on which siblings were expanded, so a sibling dropped when
popped may stay in the sleep sets: every completion of its prefix reaches
the incumbent.

The root ranks one representative per edge orbit, and only those enter
sleep sets.  Every ordering is mapped by an automorphism to one that
starts with a representative, the argument above holds with the
representatives as the root's children, and a sleeping z is then always a
representative whose subtree was searched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adversary import upper_bound_report
from .density import density_floor
from .graphs import Graph, SoundnessError
from .orderings import EdgeOrdering, identity_ordering
from .paths import PathValues, longest_increasing_path
from .pedestrian import sqrt_degree_floor

_ORBIT_NODE_CAP = 20000
_ORBIT_MAP_CAP = 120


@dataclass(frozen=True)
class SandwichReport:
    """Bracket on f(G) with labeled sources, plus the coloring ordering
    behind ``coloring-ordering-path``, whose exact value is ``upper``."""

    lower: int
    upper: int
    lower_candidates: tuple[tuple[str, int], ...]
    upper_candidates: tuple[tuple[str, int], ...]
    ordering: EdgeOrdering


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

def _pair_forces(state: PathValues, unranked: list[int], t: int) -> bool:
    """Whether two unranked edges (a, b) and (b, c) force a path of t + 2
    edges in every completion of the prefix placed in ``state`` (the pair
    cut).  That needs prefix paths of t edges ending at a and at c, so only
    ends whose largest K reaches t are paired."""
    edges, pre, reaches = state.ends, state.pre, state.reaches
    far: dict[int, list[int]] = {}  # shared vertex b -> far ends that may reach t
    for x in unranked:
        u, v = edges[x]
        if pre[u][-1] >= t:
            far.setdefault(v, []).append(u)
        if pre[v][-1] >= t:
            far.setdefault(u, []).append(v)
    for b, ends in far.items():
        for i, a in enumerate(ends):
            for c in ends[i + 1:]:
                if reaches(a, (b, c), t) and reaches(c, (a, b), t):
                    return True
    return False


def exact_f(g: Graph, budget: int | None = None) -> AltitudeResult:
    """Minimum over all orderings of the longest increasing path length.

    Branch-and-bound over rank assignments; first-level branches range over
    one representative per edge orbit.  The incumbent starts at the
    sandwich's coloring ordering and its exact value, the floor at the
    sandwich's lower bound, every candidate of which is proved.  The search
    keeps its own stack of (prefix value, rank, edge, sleep set) children,
    pushed so that they are expanded depth-first by ascending (value,
    edge); a child whose value has reached the incumbent by the time it is
    popped is skipped.  ``budget`` caps node expansions; exhaustion returns
    the bracket [floor, incumbent] flagged inexact.

    A child (u, v) takes the top rank, so its value is the larger of the
    prefix value and 1 + the longest paths ending at u avoiding v and at v
    avoiding u: the incumbent of the branch's ``PathValues`` once the child
    is placed (``values``, which stops at the first value that kills the
    node).  The values are exact, so the nodes and the witness do not
    depend on which of them a witness settles and which a search.

    A node computes this value for every unranked edge and dies, with its
    whole subtree, when the top-value or the pair cut of the module
    docstring reaches the incumbent; only ends whose largest K reaches
    incumbent - 2 are paired.  Both cuts read every unranked edge, but a
    node makes children only for the edges outside its sleep set, an int
    with one bit per edge: in pop order, child c_i sleeps on the node's set
    plus c_1..c_(i-1), less ``meets[c_i]``, the edges that share a vertex
    with c_i.  The module docstring gives why the sleep sets and the orbit
    representatives at the root lose no ordering.

    A witness the search found, rather than the coloring ordering, is
    rechecked once by an unbudgeted psi search, and a mismatch raises
    ``SoundnessError``.
    """
    bounds = f_bounds_sandwich(g)
    m = g.m
    best_val, best_ord, floor = bounds.upper, bounds.ordering, bounds.lower
    if best_val <= floor:
        return AltitudeResult(best_val, best_val, best_ord, 0, True, bounds)

    state = PathValues(g)
    placed, rank_of = state.placed, [0] * m  # rank_of[x]: 0 while x is unranked
    explored = 0

    inc = [sum(1 << x for _, x in at) for at in g.adj]  # the edges at each vertex
    meets = [inc[u] | inc[v] for u, v in g.edges]  # x and every edge sharing a vertex with it

    stack = [(0, 0, -1, 0)]  # the root ranks no edge and sleeps on none
    while stack and best_val > floor:
        val, r, e, sleep = stack.pop()
        if val >= best_val:  # the incumbent improved since this child was pushed
            continue
        while len(placed) >= r > 0:
            rank_of[placed[-1]] = 0
            state.unplace()
        if r:
            state.place(e)
            rank_of[e] = r
        explored += 1
        if budget is not None and explored > budget:
            break
        if r == m:
            best_val, best_ord = val, EdgeOrdering(tuple(rank_of))
            continue
        unranked = [x for x in range(m) if not rank_of[x]]
        values = state.values(unranked, best_val)
        if values[-1] >= best_val or _pair_forces(state, unranked, best_val - 2):
            continue  # every completion reaches the incumbent
        awake = [(child, x) for child, x in zip(values, unranked) if not sleep >> x & 1]
        if not r:  # the root ranks one representative per edge orbit
            reps = {orb[0] for orb in edge_orbits(g)}
            awake = [child for child in awake if child[1] in reps]
        children = []
        for child, x in sorted(awake):  # pop order
            children.append((child, r + 1, x, sleep & ~meets[x]))
            sleep |= 1 << x
        stack += reversed(children)
    if best_ord is not bounds.ordering:
        check = longest_increasing_path(g, best_ord)
        if not check.exact or check.length != best_val:
            raise SoundnessError(
                f"exact_f reported {best_val} for a witness whose psi is {check.length}"
            )
    if budget is not None and explored > budget:
        return AltitudeResult(best_val, floor, best_ord, explored, False, bounds)
    return AltitudeResult(best_val, best_val, best_ord, explored, True, bounds)


# ----------------------------------------------------------------------
# Bound collection
# ----------------------------------------------------------------------

def f_bounds_sandwich(g: Graph) -> SandwichReport:
    """Bracket on f(G) from a witnessed upper bound and proved floors.

    Upper: the exact (unbudgeted) psi of the coloring entry of
    ``upper_bound_report`` (the dimension ordering on Q_d as generated,
    Misra-Gries elsewhere), which is also the ordering returned;
    ``exact_f`` starts its search from the two.  Lower: the
    square-root-of-average-degree floor, then the density criterion at
    growing k (connected graphs) up to the upper bound, since no k above it
    can pass.

    The paper's closed forms are left out, as each is either never tighter
    than these or has no ordering behind it: on Q_d, ceil(d / log2 d) never
    exceeds the density floor (inequality 6) and d is the dimension
    ordering's psi; on K_n, ceil((sqrt(4n - 3) - 1) / 2) never exceeds the
    degree floor ceil(sqrt(n - 1)), and 3n/4 comes with no ordering
    (``bounds --gk`` prints that bracket).  Maxima of pedestrian runs are
    absent too: they bound one ordering's value from below, not the minimum
    over orderings.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    if g.m == 0:
        return SandwichReport(0, 0, (("empty", 0),), (("empty", 0),), identity_ordering(g))

    rep = upper_bound_report(g, seed=0, steps=0, psi_budget=None)
    if not rep.verified:
        raise SoundnessError("an unbudgeted psi search returned an inexact value")
    floor = sqrt_degree_floor(g)
    certified = density_floor(g, rep.best_psi, budget=200000)
    lowers = [("sqrt-average-degree", floor)]
    lowers += [(f"density-criterion-k{k}", k) for k in range(floor + 1, certified + 1)]
    uppers = (("coloring-ordering-path", rep.best_psi),)
    return SandwichReport(certified, rep.best_psi, tuple(lowers), uppers, rep.witness)
