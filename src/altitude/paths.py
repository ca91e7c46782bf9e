"""Longest increasing trails and paths under an edge-ordering.

A trail repeats no edge; a path additionally repeats no vertex.  Lengths are
counted in edges.  The trail length is computed by a single pass over the
edges in rank order and dominates the path length, so it doubles as the
pruning bound for the exact path search.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

from .graphs import Graph
from .orderings import EdgeOrdering


@dataclass(frozen=True)
class PathResult:
    """A longest-so-far increasing walk together with its witness.

    ``vertices`` lists the walk's vertices in order, ``edges`` the edge
    indices joining them (ranks strictly increasing).  ``exact`` is False
    only when a node budget ran out before the search space was exhausted;
    the length is then still a valid lower bound with a valid witness.
    ``explored`` counts search-tree expansions (edge relaxations for the
    trail pass).
    """

    kind: str  # "path" or "trail"
    length: int
    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    exact: bool
    explored: int


class WitnessError(ValueError):
    """A reported walk fails re-validation."""


def verify_witness(g: Graph, ordering: EdgeOrdering, result: PathResult) -> bool:
    """Re-validate a witness from scratch; raises WitnessError on any defect.

    Deliberately shares no state with the search code: edges are looked up
    by endpoint pair in a fresh dict and every claimed property is checked.
    """
    if result.kind not in ("path", "trail"):
        raise WitnessError(f"unknown witness kind {result.kind!r}")
    vs, es = result.vertices, result.edges
    if result.length != len(es) or len(vs) != len(es) + 1:
        raise WitnessError("length disagrees with witness size")
    if not es:
        if len(vs) != 1 or not (0 <= vs[0] < g.n):
            raise WitnessError("empty walk must sit on a single valid vertex")
        return True
    lookup = {e: i for i, e in enumerate(g.edges)}
    if len(set(es)) != len(es):
        raise WitnessError("walk repeats an edge")
    if result.kind == "path" and len(set(vs)) != len(vs):
        raise WitnessError("path repeats a vertex")
    prev_rank = 0
    for i, e in enumerate(es):
        a, b = vs[i], vs[i + 1]
        key = (a, b) if a < b else (b, a)
        if lookup.get(key) != e:
            raise WitnessError(f"step {i}: edge {e} does not join {a} and {b}")
        r = ordering.rank[e]
        if r <= prev_rank:
            raise WitnessError(f"step {i}: rank {r} not above {prev_rank}")
        prev_rank = r
    return True


def _trail_sweep(g: Graph, edges: Iterable[int], before: list | None = None) -> list[int]:
    """Relax both ends of every edge, in the order given; the one trail kernel.

    best[v] is the longest increasing trail ending (forward sweep) or
    starting (reverse sweep) at v among the edges swept so far.  An edge
    (u, v) extends the trail at the end holding more, or at either on a tie,
    so the other end rises to that value plus one.  If ``before`` is a list,
    before[e] = (best[u], best[v]) for e = (u, v), u < v, as the sweep found
    them on reaching e.  The forward sweep's trail witness reads from it
    which ends e raised: end x, with other end y, rose when
    before[e][y > x] >= before[e][x > y].  In the reverse sweep before[e] is
    (S_u(r+1), S_v(r+1)) for e's rank r, where S_x(r) is the longest
    increasing trail leaving x on ranks >= r: the path search's bound.
    """
    ends = g.edges
    best = [0] * g.n
    for e in edges:
        u, v = ends[e]
        bu, bv = best[u], best[v]
        if before is not None:
            before[e] = (bu, bv)
        if bu > bv:
            best[v] = bu + 1
        elif bv > bu:
            best[u] = bv + 1
        else:
            best[u] = best[v] = bu + 1
    return best


def longest_increasing_trail(g: Graph, ordering: EdgeOrdering) -> PathResult:
    """Longest increasing trail, by one sweep over the edges in rank order.

    The forward sweep's ``before`` gives the witness: walking the ranks
    downwards from the end vertex v, the edge that set v's value is the
    highest-ranked edge below the last one taken whose sweep raised v.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    before = [(0, 0)] * g.m
    best = _trail_sweep(g, ordering.inverse, before)
    end = max(range(g.n), key=lambda v: (best[v], -v))

    ends = g.edges
    verts = [end]
    edges_rev = []
    v = end
    for e in reversed(ordering.inverse):
        a, b = ends[e]
        ba, bb = before[e]
        if (v == a and bb >= ba) or (v == b and ba >= bb):
            v = a + b - v
            edges_rev.append(e)
            verts.append(v)
    verts.reverse()
    edges_rev.reverse()
    return PathResult(
        kind="trail",
        length=best[end],
        vertices=tuple(verts),
        edges=tuple(edges_rev),
        exact=True,
        explored=g.m,
    )


def longest_increasing_path(
    g: Graph, ordering: EdgeOrdering, budget: int | None = None
) -> PathResult:
    """Longest increasing path (psi) by depth-first search with pruning.

    Branches on the starting edge in rank order, then extends by edges of
    higher rank to unvisited vertices.  A branch is cut when its length plus
    the trail bound S_w(r+1) at the vertex w it reaches by an edge e of rank
    r cannot beat the incumbent; the reverse sweep's before[e] holds that
    bound for both ends of e, and the adjacency lists carry it.  The
    search keeps its own stack, so no recursion limit caps the path length.
    ``budget`` caps node expansions; on exhaustion the incumbent is returned
    with exact=False (a valid lower bound).
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    if g.m == 0:
        return PathResult("path", 0, (0,), (), True, 0)

    # When the optimal trail happens to repeat no vertex it is a path, and
    # since paths are trails the two optima coincide: no search needed.
    trail = longest_increasing_trail(g, ordering)
    if len(set(trail.vertices)) == len(trail.vertices):
        return PathResult("path", trail.length, trail.vertices, trail.edges, True, 0)

    before = [(0, 0)] * g.m
    _trail_sweep(g, reversed(ordering.inverse), before)
    # Per-vertex adjacency sorted by rank, for cheap "next rank above r" scans;
    # each entry (rank, edge, other end w, S_w(rank + 1)).
    adj_by_rank: list[list[tuple[int, int, int, int]]] = [
        sorted((ordering.rank[e], e, w, before[e][w > v]) for w, e in g.adj[v])
        for v in range(g.n)
    ]
    ranks_only: list[list[int]] = [[t[0] for t in a] for a in adj_by_rank]

    best_len = 0
    best_vs: tuple[int, ...] = (0,)
    best_es: tuple[int, ...] = ()
    explored = 0
    exhausted = False
    ends = g.edges
    starts = ((e, a, b) for e in ordering.inverse for a, b in (ends[e], ends[e][::-1]))
    for e0, a0, b0 in starts:
        r0 = ordering.rank[e0]
        s0 = before[e0][b0 > a0]
        if 1 + s0 <= best_len:
            continue
        # Depth-first with an explicit stack.  A frame holds an open vertex's
        # untried higher-ranked edges and the visited mask; the first frame
        # holds a0 with the single edge e0.  A vertex is counted, scored and
        # bounded when its parent's frame reaches it, and gets a frame of its
        # own only if the bound does not cut it.
        stack_vs: list[int] = [a0]
        stack_es: list[int] = []
        frames = [(iter(((r0, e0, b0, s0),)), 1 << a0)]
        while frames:
            edges_left, mask = frames[-1]
            for r, e, w, s in edges_left:
                if mask >> w & 1:
                    continue
                explored += 1
                if budget is not None and explored > budget:
                    exhausted = True
                    break
                length = len(stack_es) + 1
                if length > best_len:
                    best_len = length
                    best_vs = (*stack_vs, w)
                    best_es = (*stack_es, e)
                if length + s > best_len:
                    stack_vs.append(w)
                    stack_es.append(e)
                    tail = islice(adj_by_rank[w], bisect_right(ranks_only[w], r), None)
                    frames.append((tail, mask | (1 << w)))
                    break
            else:  # every edge of the frame tried: step back
                frames.pop()
                stack_vs.pop()
                if stack_es:
                    stack_es.pop()
            if exhausted:
                break
        if exhausted:
            break
    return PathResult("path", best_len, best_vs, best_es, not exhausted, explored)
