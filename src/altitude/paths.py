"""Longest increasing trails and paths under an edge-ordering.

A trail repeats no edge; a path additionally repeats no vertex.  Lengths are
counted in edges.  The trail length is computed by a single pass over the
edges in rank order and dominates the path length, so it doubles as the
pruning bound for the exact path search.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
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

    Deliberately shares no state with the search code: each edge index is
    range-checked, its pair read from ``g.edges``, and every claim checked.
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
    if len(set(es)) != len(es):
        raise WitnessError("walk repeats an edge")
    if result.kind == "path" and len(set(vs)) != len(vs):
        raise WitnessError("path repeats a vertex")
    prev_rank = 0
    for i, e in enumerate(es):
        a, b = vs[i], vs[i + 1]
        if not (0 <= e < g.m and g.edges[e] == ((a, b) if a < b else (b, a))):
            raise WitnessError(f"step {i}: edge {e} does not join {a} and {b}")
        r = ordering.rank[e]
        if r <= prev_rank:
            raise WitnessError(f"step {i}: rank {r} not above {prev_rank}")
        prev_rank = r
    return True


def _trail_sweep(
    g: Graph, pairs: Iterable[tuple[int, int]], before: list | None = None,
    best: list[int] | None = None,
) -> list[int]:
    """Relax both ends of every edge, in the order given; the one trail kernel.

    ``pairs`` lists the edges as endpoint pairs (u, v), in sweep order.
    best[v] is the longest increasing trail ending (forward sweep) or
    starting (reverse sweep) at v among the edges swept so far.  An edge
    (u, v) extends the trail at the end holding more, or at either on a tie,
    so the other end rises to that value plus one.  The sweep starts from
    ``best`` when given, which it updates in place and returns, so it can
    resume where a sweep over the preceding edges stopped (the annealer
    keeps such states at block boundaries); otherwise from all zeros.

    If ``before`` is a list, the sweep appends (best[u], best[v]) for each
    pair as it found them on reaching it, so before[i] belongs to the i-th
    pair swept.  The forward sweep's trail witness reads from it which ends
    an edge raised: an end rose when the other end held at least as much.
    In the reverse sweep the entry of e = (u, v) of rank r is (S_u(r+1),
    S_v(r+1)), where S_x(r) is the longest increasing trail leaving x on
    ranks >= r: the path search's bound.
    """
    if best is None:
        best = [0] * g.n
    if before is None:
        for u, v in pairs:
            bu, bv = best[u], best[v]
            if bu > bv:
                best[v] = bu + 1
            elif bv > bu:
                best[u] = bv + 1
            else:
                best[u] = best[v] = bu + 1
        return best
    record = before.append
    for u, v in pairs:
        bu, bv = best[u], best[v]
        record((bu, bv))
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
    ends = g.edges
    pairs = [ends[e] for e in ordering.inverse]
    before: list[tuple[int, int]] = []
    best = _trail_sweep(g, pairs, before)
    end = max(range(g.n), key=lambda v: (best[v], -v))

    verts = [end]
    edges_rev = []
    v = end
    for e, (a, b), (ba, bb) in zip(reversed(ordering.inverse), reversed(pairs), reversed(before)):
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
    r cannot beat the incumbent; the reverse sweep's ``before`` entry for e
    holds that bound for both ends.  One pass over the edges in rank order
    lists each vertex's children in rank order, each as (e, w, S_w(r+1), t),
    where t indexes w's first child ranked above r; so stepping to w resumes
    at w's list from t on, with no search for the rank.  The path's vertices
    carry a flag, set when the search steps onto them and cleared when it
    steps back.  The search keeps its own stack, so no recursion limit caps
    the path length.  ``explored`` counts the children the search reaches
    (unvisited ends of higher-ranked edges), whether or not the bound then
    cuts them.  ``budget`` caps it; on exhaustion the incumbent is returned
    with exact=False (a valid lower bound) and explored = budget + 1.
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

    ends = g.edges
    pairs = [ends[e] for e in ordering.inverse]
    before: list[tuple[int, int]] = []
    _trail_sweep(g, reversed(pairs), before)
    before.reverse()  # now in rank order, as pairs
    # kids[v]: v's edges in rank order.  Edge e = (u, v) of rank r lands at
    # the end of both lists, so w's first child ranked above r is the one
    # after e.  starts: the first frame's (a0, child b0) pairs, edges in
    # rank order and each edge from its lower end first.
    kids: list[list[tuple[int, int, int, int]]] = [[] for _ in range(g.n)]
    starts = []
    for e, (u, v), (su, sv) in zip(ordering.inverse, pairs, before):
        ku, kv = kids[u], kids[v]
        to_v = (e, v, sv, len(kv) + 1)
        to_u = (e, u, su, len(ku) + 1)
        ku.append(to_v)
        kv.append(to_u)
        starts += ((u, to_v), (v, to_u))

    best_len = 0
    best_vs: tuple[int, ...] = (0,)
    best_es: tuple[int, ...] = ()
    explored = 0
    limit = inf if budget is None else budget
    seen = [False] * g.n
    for a0, first in starts:
        if 1 + first[2] <= best_len:
            continue
        # Depth-first with an explicit stack.  A frame holds an open vertex's
        # untried higher-ranked children; the first frame holds a0 with the
        # single child b0.  A vertex is counted, scored and bounded when its
        # parent's frame reaches it, and gets a frame of its own only if the
        # bound does not cut it.  length is the edge count of a path ending
        # at a child of the top frame.
        stack_vs: list[int] = [a0]
        stack_es: list[int] = []
        seen[a0] = True
        frames = [iter((first,))]
        length = 1
        while frames:
            for e, w, s, t in frames[-1]:
                if seen[w]:
                    continue
                explored += 1
                if explored > limit:
                    return PathResult("path", best_len, best_vs, best_es, False, explored)
                if length > best_len:
                    best_len = length
                    best_vs = (*stack_vs, w)
                    best_es = (*stack_es, e)
                if length + s > best_len:
                    seen[w] = True
                    stack_vs.append(w)
                    stack_es.append(e)
                    frames.append(iter(kids[w][t:]))
                    length += 1
                    break
            else:  # every child of the frame tried: step back
                frames.pop()
                seen[stack_vs.pop()] = False
                length -= 1
                if stack_es:
                    stack_es.pop()
    return PathResult("path", best_len, best_vs, best_es, True, explored)
