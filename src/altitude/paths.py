"""Longest increasing trails and paths under an edge-ordering.

A trail repeats no edge; a path additionally repeats no vertex.  Lengths are
counted in edges.  The trail length is computed by a single pass over the
edges in rank order and dominates the path length, and an optimal trail
that repeats no vertex is a longest path.  Otherwise the path search bounds
each directed edge by path values of the edges ranked above it, settled
from the top rank down, and searches only where neither a witness nor the
incumbent settles one; a search skips what a failure record, kept per
directed edge from the searches before it, rules out.
"""

from __future__ import annotations

from bisect import bisect_left
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
    ``explored`` counts the edges the path search scans (1 per search, plus
    at each vertex it enters every edge ranked above the one it arrived
    by), and is m (its edge relaxations) for the trail pass.
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

    If ``before`` is a list, the sweep appends to it (best[u], best[v]) as
    they were on reaching each pair, so before[i] belongs to the i-th pair
    swept.  The forward sweep's trail witness reads from it which ends an
    edge raised: an end rose when the other end held at least as much.  In
    a reverse sweep the entry of e = (u, v) of rank r is (S_u(r+1),
    S_v(r+1)), where S_x(r) is the longest increasing trail leaving x on
    ranks >= r.
    """
    if best is None:
        best = [0] * g.n
    for u, v in pairs:
        bu, bv = best[u], best[v]
        if before is not None:
            before.append((bu, bv))
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
    """Longest increasing path (psi): the optimal trail when it repeats no
    vertex, else the top-down pass of ``_start_values``.

    ``explored`` counts the edges that the pass's depth-first searches scan:
    1 for each search, and at each vertex a search enters, every edge ranked
    above the one it arrived by, whether or not a cut then skips it; an edge
    that the witness rule or the incumbent settles costs none.  ``budget``
    caps it; on exhaustion the incumbent is returned with exact=False (a
    valid lower bound) and explored = budget + 1.
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
    return _start_values(g, ordering, budget)[0]


def _unchain(node) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertices and edges of a path kept as nested cells (v, e, rest), where
    rest is the next cell or, after the last edge, the last vertex."""
    vs, es = [], []
    while type(node) is tuple:
        v, e, node = node
        vs.append(v)
        es.append(e)
    vs.append(node)
    return tuple(vs), tuple(es)


def _start_values(
    g: Graph, ordering: EdgeOrdering, budget: int | None
) -> tuple[PathResult, list[int], list, list]:
    """The psi search: a bound K[d] on the longest increasing path that
    starts with each directed edge d, settled from the top rank down.

    Edge e = (u, v), u < v, gives d = 2e leaving u and d = 2e + 1 leaving v.
    When d = (a, b) of rank r comes up, every edge leaving b above r has its
    K, so U = 1 + the largest of them bounds K[d].  If the edge attaining U
    has a witness, a path of its K edges, that misses a, then a followed by
    that path is a witness of U and K[d] = U exactly (the witness rule of
    ``exactf._RankedPrefix.longest_ending_at``).  Otherwise K[d] = U if U
    cannot beat the incumbent B; else a depth-first search runs from b,
    avoiding a, and K[d] is the incumbent after it: the longest path
    starting with d if that beat B, else B.  Either way no path starting
    with d beats the final incumbent, which is therefore psi.

    The search keeps its own stack, so no recursion limit caps the path
    length.  It walks each vertex's edges in rank order, from the first
    ranked above the edge it arrived by; each edge is listed once per call
    with the place in the other end's list where the edges ranked above it
    begin, so a step needs no search for the rank.  With t edges on the
    stack the gap is the incumbent less t.  A child x reached by d' is
    tried only if K[d'] beats the gap, and becomes the incumbent if t + 1
    beats it.  Each vertex keeps the suffix maxima of K over its edges,
    filled in as edges settle, so a frame stops (one bisection) at the
    first edge past which no K beats its gap; gaps only grow, so no
    promising child lies beyond.

    Failure records.  Directed edge d = (p, x) may carry a record (L, M):
    no increasing path that starts with d and visits no vertex of M after
    x is longer than L.  While the current search has not beaten B, the
    gap at depth t is B - t; when x's frame at depth t closes, every child
    d' of x was either cut by K[d'] <= B - t, or led to a vertex on the
    path (which joins M, if K[d'] beat the gap), or was skipped by a
    record (L', M') with L' <= B - t whose M' joins M, or was entered and
    its own frame closed with the record (B - t, M'') whose M'' joins M.
    So the record (B - t + 1, M) holds, with x dropped from M (no path
    through d revisits x), by induction over the order in which frames
    close; once the search beats B no more records are written.  A child
    whose record has L' <= gap and M' inside the current path is skipped:
    a path extending the stack visits no stack vertex, so the record
    bounds it.  Each search keeps the blocked mask of every open frame and
    passes it to the parent as the frame closes.  A record whose M is
    empty bounds every path starting with d, whatever the path before it,
    so it is kept as K[d] instead (always lower, since d was entered with
    K[d] beating the gap), and the masked record in d's slot stays; the
    suffix maxima then overstate K, which only delays a frame's stop.

    ``explored`` counts edges scanned: 1 for the root edge d, and at each
    vertex the search enters, every edge ranked above the one it arrived
    by, whether or not the cuts then skip it (one addition per vertex).

    Returns the result, K, wit and kids: wit[d] is (vertex mask, path as
    cells) of a path of K[d] edges starting with d, or None where K[d] is
    only a bound; kids[v] lists v's edges in rank order as entries
    [d, w, K, t, L, M] (below), whose (L, M) is d's failure record, with
    L = m + 1 where none was written.  A capped result leaves the edges
    not yet settled at 0 and None.
    """
    ends = g.edges
    none = g.m + 1  # the length of an absent record: no gap reaches it
    # kids[v]: v's edges in rank order, each as [d, w, K, t, L, M] for the
    # edge e = d // 2 leaving v for w: K is that of d, set when e is settled,
    # t indexes w's first edge ranked above e (e lands at the end of both
    # lists, so the one after it), and (L, M) is the failure record of d.
    kids: list[list[list[int]]] = [[] for _ in range(g.n)]
    ranked = []  # (e, its two directions as (tail, entry, index)), in rank order
    for e in ordering.inverse:
        u, v = ends[e]
        ku, kv = kids[u], kids[v]
        to_v, to_u = [2 * e, v, 0, len(kv) + 1, none, 0], [2 * e + 1, u, 0, len(ku) + 1, none, 0]
        ranked.append((e, ((u, to_v, len(ku)), (v, to_u, len(kv)))))
        ku.append(to_v)
        kv.append(to_u)
    deg = [len(k) for k in kids]
    # tops[v][i]: minus the largest K among kids[v][i:] (0 past the end),
    # ascending as bisect wants it; set from the top rank down.
    tops = [[0] * (d + 1) for d in deg]
    bound = [0] * (2 * g.m)
    wit: list = [None] * (2 * g.m)
    # The largest K of the edges leaving each vertex settled so far, and the
    # witness of one edge attaining it if any has one: the empty path at first.
    top_k = [0] * g.n
    top_w: list = [(1 << v, v) for v in range(g.n)]
    best_len, best_path = 0, 0  # the incumbent, as cells: vertex 0 alone
    explored = 0
    limit = inf if budget is None else budget
    seen = [False] * g.n
    for e, sides in reversed(ranked):
        for a, first, _ in sides:
            d, b = first[0], first[1]
            k, w = top_k[b] + 1, top_w[b]
            if w is not None and not w[0] >> a & 1:
                w = (w[0] | 1 << a, (a, e, w[1]))
                if k > best_len:
                    best_len, best_path = k, w[1]
            elif k <= best_len:
                w = None
            else:
                explored += 1  # the root's one edge
                if explored > limit:
                    return _capped(best_len, _unchain(best_path), budget, bound, wit, kids)
                # A frame holds an open vertex's untried children; the first
                # holds a with the single child b, whose bound is U.  stack
                # holds the entries of the path's edges, path its vertices
                # as a mask, held the top frame's mask M and masks those of
                # the frames below it.
                first[2] = k
                stack, masks = [], []
                seen[a] = True
                path, held = 1 << a, 0
                frames = [iter((first,))]
                gap = best_len  # the incumbent less the stack's edge count
                found = None
                while True:
                    for kid in frames[-1]:
                        if kid[2] <= gap:
                            continue
                        x = kid[1]
                        if seen[x]:
                            held |= 1 << x
                            continue
                        if kid[4] <= gap and not kid[5] & ~path:
                            held |= kid[5]
                            continue
                        if gap <= 0:  # the path to x is the longest yet
                            best_len, gap = len(stack) + 1, 1
                            found = ((a, *(s[1] for s in stack), x),
                                     (*(s[0] >> 1 for s in stack), kid[0] >> 1))
                        t = kid[3]
                        explored += deg[x] - t
                        if explored > limit:
                            return _capped(best_len, found or _unchain(best_path), budget,
                                           bound, wit, kids)
                        seen[x] = True
                        path |= 1 << x
                        stack.append(kid)
                        masks.append(held)
                        held = 0
                        gap -= 1
                        frames.append(iter(kids[x][t:bisect_left(tops[x], -gap, t)]))
                        break
                    else:  # every child of the frame tried: step back
                        frames.pop()
                        if not stack:
                            break
                        kid = stack.pop()
                        x = kid[1]
                        seen[x] = False
                        path ^= 1 << x
                        held &= path  # drops x
                        gap += 1
                        if found is None:
                            if held:
                                kid[4], kid[5] = gap, held
                            else:  # bounds d in any context: keep it as K
                                kid[2] = bound[kid[0]] = gap
                        held |= masks.pop()
                seen[a] = False
                k, w = best_len, None
                if found:
                    vs, es = found
                    best_path = vs[-1]
                    for x, e2 in zip(vs[-2::-1], es[::-1]):
                        best_path = (x, e2, best_path)
                    w = (sum(1 << x for x in vs), best_path)
            first[2] = bound[d] = k
            wit[d] = w
        for a, first, i in sides:
            d = first[0]
            k = bound[d]
            if k > top_k[a] or (k == top_k[a] and top_w[a] is None):
                top_k[a], top_w[a] = k, wit[d]
            tops[a][i] = -top_k[a]
    vs, es = _unchain(best_path)
    return PathResult("path", best_len, vs, es, True, explored), bound, wit, kids


def _capped(best_len: int, found, budget: int, bound, wit, kids) -> tuple:
    """What ``_start_values`` returns when the budget runs out: the incumbent
    (vertices, edges) ``found``, inexact, with explored = budget + 1."""
    vs, es = found
    return PathResult("path", best_len, vs, es, False, budget + 1), bound, wit, kids
