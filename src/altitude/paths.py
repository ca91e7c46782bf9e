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
from typing import Iterable, Sequence

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


def _trail_sweep(
    g: Graph, edges: Iterable[int], rank: Sequence[int]
) -> tuple[list[int], list[list[tuple[int, int, int, int]]]]:
    """Relax both ends of every edge, in the order given; the trail kernel.

    best[v] is the longest increasing trail ending (forward sweep) or
    starting (reverse sweep) at v among the edges swept so far.  An edge
    (u, v) updates both ends from the values it found, so it extends some
    trail either way.  hist[v] lists (rank, value, edge, other_end) each
    time best[v] rises, in sweep order: the breakpoints of v's value.
    """
    ends = g.edges
    best = [0] * g.n
    hist: list[list[tuple[int, int, int, int]]] = [[] for _ in range(g.n)]
    for e in edges:
        u, v = ends[e]
        r = rank[e]
        nu, nv = best[v] + 1, best[u] + 1
        if nu > best[u]:
            best[u] = nu
            hist[u].append((r, nu, e, v))
        if nv > best[v]:
            best[v] = nv
            hist[v].append((r, nv, e, u))
    return best, hist


def longest_increasing_trail(g: Graph, ordering: EdgeOrdering) -> PathResult:
    """Longest increasing trail, by one sweep over the edges in rank order."""
    if g.n == 0:
        raise ValueError("graph has no vertices")
    best, hist = _trail_sweep(g, ordering.edges_by_rank(), ordering.rank)
    end = max(range(g.n), key=lambda v: (best[v], -v))

    # Walk the history backwards: the entry that set the current value is the
    # last one recorded strictly before the rank of the edge that used it.
    verts = [end]
    edges_rev = []
    v, bound = end, g.m + 1
    while True:
        entry = None
        for rec in reversed(hist[v]):
            if rec[0] < bound:
                entry = rec
                break
        if entry is None:
            break
        _, _, e, frm = entry
        edges_rev.append(e)
        verts.append(frm)
        v, bound = frm, entry[0]
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


def _suffix_trail_table(g: Graph, ordering: EdgeOrdering):
    """Breakpoints of S_v(r) = longest increasing trail from v within ranks >= r.

    The trail sweep run downwards through the ranks; per vertex we keep the
    ranks (in the decreasing order they were set) and the values they set.
    S_v(r) bounds any increasing path leaving v on ranks >= r, so it prunes
    the path DFS.
    """
    _, hist = _trail_sweep(g, reversed(ordering.edges_by_rank()), ordering.rank)
    neg_ranks = [[-h[0] for h in hv] for hv in hist]  # ascending
    vals = [[h[1] for h in hv] for hv in hist]

    def query(v: int, r: int) -> int:
        i = bisect_right(neg_ranks[v], -r)
        return vals[v][i - 1] if i else 0

    return query


def longest_increasing_path(
    g: Graph, ordering: EdgeOrdering, budget: int | None = None
) -> PathResult:
    """Longest increasing path (psi) by depth-first search with pruning.

    Branches on the starting edge in rank order, then extends by edges of
    higher rank to unvisited vertices.  A branch is cut when its length plus
    the suffix-trail bound from its endpoint cannot beat the incumbent.  The
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

    suffix = _suffix_trail_table(g, ordering)
    # Per-vertex adjacency sorted by rank, for cheap "next rank above r" scans.
    adj_by_rank: list[list[tuple[int, int, int]]] = [
        sorted((ordering.rank[e], e, w) for w, e in g.adj[v]) for v in range(g.n)
    ]
    ranks_only: list[list[int]] = [[t[0] for t in a] for a in adj_by_rank]

    best_len = 0
    best_vs: tuple[int, ...] = (0,)
    best_es: tuple[int, ...] = ()
    explored = 0
    exhausted = False
    ends = g.edges
    starts = ((e, a, b) for e in ordering.edges_by_rank() for a, b in (ends[e], ends[e][::-1]))
    for e0, a0, b0 in starts:
        r0 = ordering.rank[e0]
        if 1 + suffix(b0, r0 + 1) <= best_len:
            continue
        # Depth-first with an explicit stack.  A frame holds an open vertex's
        # untried higher-ranked edges and the visited mask; the first frame
        # holds a0 with the single edge e0.  A vertex is counted, scored and
        # bounded when its parent's frame reaches it, and gets a frame of its
        # own only if the bound does not cut it.
        stack_vs: list[int] = [a0]
        stack_es: list[int] = []
        frames = [(iter(((r0, e0, b0),)), 1 << a0)]
        while frames:
            edges_left, mask = frames[-1]
            for r, e, w in edges_left:
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
                if length + suffix(w, r + 1) > best_len:
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
