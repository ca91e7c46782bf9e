"""Longest increasing trails and paths under an edge-ordering.

A trail repeats no edge; a path additionally repeats no vertex.  Lengths are
counted in edges.  The trail length is computed by a single pass over the
edges in rank order and dominates the path length, and an optimal trail
that repeats no vertex is a longest path.  Otherwise the path search places
the edges from the top rank down on a ``PathValues`` state, which bounds
each directed edge by the path values of the edges placed before it and
searches only where neither a witness nor the incumbent settles one; a
search skips what a failure record, kept per directed edge from the
searches before it, rules out.  ``exactf.exact_f`` places its ranks from
rank 1 up on the same state.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import inf
from typing import Iterable

from .graphs import Graph
from .orderings import EdgeOrdering, _check_ordering


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
    _check_ordering(g, ordering)
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
    g: Graph, pairs: Iterable[tuple[int, int]], before: list | None = None
) -> list[int]:
    """Relax both ends of every edge, in the order given; the one trail kernel.

    ``pairs`` lists the edges as endpoint pairs (u, v), in sweep order.
    best[v] is the longest increasing trail ending (forward sweep) or
    starting (reverse sweep) at v among the edges swept so far.  An edge
    (u, v) extends the trail at the end holding more, or at either on a tie,
    so the other end rises to that value plus one.

    If ``before`` is a list, the sweep appends to it (best[u], best[v]) as
    they were on reaching each pair, so before[i] belongs to the i-th pair
    swept.  The forward sweep's trail witness reads from it which ends an
    edge raised: an end rose when the other end held at least as much.  In
    a reverse sweep the entry of e = (u, v) of rank r is (S_u(r+1),
    S_v(r+1)), where S_x(r) is the longest increasing trail leaving x on
    ranks >= r.
    """
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
    _check_ordering(g, ordering)
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

    ``explored`` counts the edges that the pass's searches scan (see
    ``PathValues``); an edge that the witness rule or the incumbent settles
    costs none.  ``budget`` caps it; on exhaustion the incumbent is returned
    with exact=False (a valid lower bound) and explored = budget + 1.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    _check_ordering(g, ordering)
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


class _Capped(Exception):
    """A search ran past the budget.  Out of ``PathValues.place``, its args
    are the longest path found, as (length, cells)."""


class PathValues:
    """Path values over placement order: the state of the psi search, which
    ``exactf.exact_f`` shares.

    Edges are placed one at a time and unplaced last first.  A path is
    monotone when each of its edges was placed before the one preceding it.
    Read from its start, it is increasing if the edges are placed from the
    top rank down (psi); read from its end, if they are placed from rank 1
    up (``exact_f``).  Edge e = (u, v), u < v, has the directions d = 2e
    leaving u and d = 2e + 1 leaving v.  B is the incumbent, the longest
    monotone path among the placed edges, and ``best_path`` a witness of it
    as cells (``_unchain``).

    Placing e settles a bound K[d] on the longest monotone path that starts
    with each direction d = (a, b) in turn.  Every placed edge leaving b has
    its K, so U = 1 + the largest of them bounds K[d].  If b's witness top
    (below) is a path of U - 1 edges from b that misses a, then a followed
    by it is a witness of U and K[d] = U exactly (the witness rule).  Otherwise K[d]
    = U if U cannot beat B; else a search runs from b, blocking a, and K[d]
    is B after it: the longest path starting with d if that beat B, else B.
    Either way no monotone path starting with d beats the new B.
    ``place`` settles (u, v) and then (v, u), each written out, and builds
    a direction's entry once its K and its tail's witness top are known;
    both entries join their lists only after both directions settle.
    ``unplace`` pops e's entries and prefix maxima and restores B.

    Every search starts at a vertex, blocked[0], and visits no vertex of
    ``blocked``: one that settles (a, b), in ``place`` or ``values``, starts
    at b with b and a blocked, and a ``reaches`` query at its vertex with
    the vertices to avoid.  It keeps one stack, so no recursion limit caps
    the path length: each vertex on the path has a frame, holding the entry
    it was entered by and the untried edges and blocked mask of the frame
    below it.  It walks each vertex's edges from the last one placed (before
    the edge it arrived by) back to the first, and unmarks its vertices
    however it ends.  Its gap is the length to beat less the edges on the
    path.  A child x reached by d' is tried only if K[d'] beats the gap, and
    the path to x is the longest yet if the gap is 0.  Each vertex keeps the
    prefix maxima of K over its edges, appended as they are placed, so a
    frame stops (one bisection) at the edge before which no K beats its gap;
    gaps only grow, so no promising child lies beyond.

    Failure records.  Directed edge d = (p, x) may carry a record (L, M):
    no monotone path that starts with d and visits no vertex of M after x
    is longer than L.  While the current search has found no path, when x's
    frame closes with gap g, every child d' of x was either cut by K[d'] <=
    g, or led to a blocked vertex or one on the path (which joins M, if
    K[d'] beat the gap), or was skipped by a record (L', M') with L' <= g
    whose M' joins M, or was entered and its own frame closed with the
    record (g, M'') whose M'' joins M.  So the record (g + 1, M) holds for
    the edge d that entered x, with x dropped from M (no path through d
    revisits x), by induction over the order in which frames close; once
    the search finds a path no more records are written.  The start vertex
    is entered by no edge, so its frame writes none: the edge a settling
    search runs for gets K = B, which is the L of the record it would get.
    A child whose record has L' <= gap and M' inside the blocked and path
    vertices is skipped: a path extending the stack visits none of them, so
    the record bounds it.  A closing frame's blocked mask joins the one
    below it on the stack.  A record whose
    M is empty bounds every path starting with d, whatever the path before
    it, so it is kept as K[d] instead (always lower, since d was entered
    with K[d] beating the gap), and the masked record in d's slot stays;
    the prefix maxima then overstate K, which only delays a frame's stop.
    A K or record of d reads only the edges placed before d, which stay as
    they are while d is placed, so it stays true through every placement
    and unplacement above d, and goes only with d's entry.

    ``explored`` counts edges scanned: 1 for each search, and at each
    vertex it enters, every edge placed there (at the start vertex) or
    placed before the edge it arrived by (elsewhere), whether or not the
    cuts then skip it (one addition per vertex).  Past ``budget`` a search
    raises ``_Capped``.

    ``kids[v]`` lists the edges leaving v in placement order as entries [d,
    w, K, t, L, M, top] for the edge e = d // 2 from v to w, after a first
    entry that stands for the empty path at v (d = -1, K = 0).  t is the
    number of w's edges placed before e, (L, M) the failure record of d (L
    = m + 1 where none was written), and top the witness top of v there: a
    path of ``pre``'s value there from v, as (vertex mask, cells), found
    when an entry up to this one with that K was placed, or None where no
    such placement found one.  ``pre[v][j]`` is the largest K in
    kids[v][:j + 1] as they were placed.  Every vertex mask (a record's M,
    a witness top's, a search's path and blocked masks) is built and tested
    through the table ``bit[x] == 1 << x`` rather than by a shift, and a
    record's M lies inside the path mask when ``M & path == M``.
    """

    def __init__(self, g: Graph, budget: int | None = None) -> None:
        self.ends = g.edges
        self.none = g.m + 1  # the length of an absent record: no gap reaches it
        self.bit = bit = [1 << x for x in range(g.n)]
        self.kids = [[[-1, v, 0, 0, self.none, 0, (bit[v], v)]] for v in range(g.n)]
        self.pre = [[0] for _ in range(g.n)]
        self.placed: list[int] = []
        self.undo: list[tuple] = []  # B and its path before each placement
        self.best, self.best_path = 0, 0  # the incumbent: vertex 0 alone
        self.explored = 0
        self.limit = inf if budget is None else budget
        self.seen = [False] * g.n

    def place(self, e: int) -> None:
        """Place edge e: settle K of its two directions against the placed
        edges, raising B, then add them to the lists of their tails.

        A capped placement places nothing and leaves B as it was (the K and
        records its searches wrote stay true); its ``_Capped`` carries the
        longest path found, as (length, cells)."""
        undo = self.best, self.best_path
        u, v = self.ends[e]
        kids, pre, bit, none = self.kids, self.pre, self.bit, self.none
        ku, kv, pu, pv = kids[u], kids[v], pre[u], pre[v]
        try:
            # Direction (u, v).
            k, w = pv[-1] + 1, kv[-1][6]
            if w is None or w[0] & bit[u]:
                if k <= self.best:
                    w = None
                else:  # B >= 1: the edge alone never beats B here
                    length, found = self._search((v, u), self.best - 1, none, (u, e))
                    k, w = 1 + length, found and self._witness(v, found)
            if w:  # a path of k - 1 edges from v that misses u
                w = (w[0] | bit[u], (u, e, w[1]))
                if k > self.best:
                    self.best, self.best_path = k, w[1]
            top_u, top_w = pu[-1], ku[-1][6]
            if k > top_u or (k == top_u and top_w is None):
                top_u, top_w = k, w
            du = [2 * e, v, k, len(kv) - 1, none, 0, top_w]
            # Direction (v, u), against the same placed edges and the new B.
            k, w = pu[-1] + 1, ku[-1][6]
            if w is None or w[0] & bit[v]:
                if k <= self.best:
                    w = None
                else:
                    length, found = self._search((u, v), self.best - 1, none, (v, e))
                    k, w = 1 + length, found and self._witness(u, found)
            if w:
                w = (w[0] | bit[v], (v, e, w[1]))
                if k > self.best:
                    self.best, self.best_path = k, w[1]
            top_v, top_w = pv[-1], kv[-1][6]
            if k > top_v or (k == top_v and top_w is None):
                top_v, top_w = k, w
            dv = [2 * e + 1, u, k, len(ku) - 1, none, 0, top_w]
        except _Capped as cap:
            if not cap.args:  # no capped search beat B, which (u, v) may have raised
                cap.args = self.best, self.best_path
            self.best, self.best_path = undo
            raise
        # Both directions settle against the edges placed before e, so the
        # entries join their lists only now.
        ku.append(du)
        kv.append(dv)
        pu.append(top_u)
        pv.append(top_v)
        self.undo.append(undo)
        self.placed.append(e)

    def unplace(self) -> None:
        """Remove the edge placed last, and restore B."""
        u, v = self.ends[self.placed.pop()]
        kids, pre = self.kids, self.pre
        kids[u].pop()
        kids[v].pop()
        pre[u].pop()
        pre[v].pop()
        self.best, self.best_path = self.undo.pop()

    def values(self, xs: list[int], stop: int) -> list[int]:
        """For each unplaced edge x in turn, up to the first value that
        reaches ``stop``, B once x is placed: each direction (a, b) is
        settled as ``place`` would, but only where its U beats the value so
        far, and a search from b stops once it finds a path of U - 1 edges.
        The state stays as it was, apart from the records and lowered K that
        the searches write."""
        ends, kids, pre, bit = self.ends, self.kids, self.pre, self.bit
        best, out = self.best, []
        for x in xs:
            u, v = ends[x]
            val = best
            k = pre[v][-1] + 1
            if k > val:
                w = kids[v][-1][6]
                if w is None or w[0] & bit[u]:  # no witness rule: search
                    k = 1 + self._search((v, u), val - 1, k - 1)[0]
                val = k
            k = pre[u][-1] + 1
            if k > val:
                w = kids[u][-1][6]
                if w is None or w[0] & bit[v]:
                    k = 1 + self._search((u, v), val - 1, k - 1)[0]
                val = k
            out.append(val)
            if val >= stop:
                break
        return out

    def reaches(self, a: int, avoid: tuple[int, ...], t: int) -> bool:
        """Whether a monotone path of t edges starts at vertex a and visits no
        vertex of ``avoid``, where t is at most a's largest K.

        The witness top of a answers yes when it misses ``avoid``; otherwise
        a search from a stops at the first such path.
        """
        if t <= 0:
            return True
        w, bit = self.kids[a][-1][6], self.bit
        if w is not None:
            for x in avoid:
                if w[0] & bit[x]:
                    break
            else:
                return True
        return self._search((a, *avoid), t - 1, t)[1] is not None

    def _search(self, blocked: tuple, gap: int, need: int, root: tuple = ()) -> tuple:
        """The depth-first search from vertex blocked[0] that visits no vertex
        of ``blocked``: the longest path it finds as (length, the entries of
        its edges) if one is longer than ``gap``, else (gap, None).  It stops
        at the first path of ``need`` edges.  ``root``, the (vertex, edge)
        before blocked[0] on a path that ``place`` settles, goes in front of
        the incumbent that a capped search reports."""
        kids, pre, seen, bit = self.kids, self.pre, self.seen, self.bit
        a = blocked[0]
        explored, limit = self.explored + len(kids[a]), self.limit
        if explored > limit:
            raise _Capped
        path = 0
        for x in blocked:
            seen[x] = True
            path |= bit[x]
        length, found = gap, None
        # it and held are the top frame's untried children and blocked mask.
        it, held, stack = reversed(kids[a][bisect_right(pre[a], gap):]), 0, []
        try:
            while True:
                for kid in it:
                    if kid[2] <= gap:
                        continue
                    x = kid[1]
                    if seen[x]:
                        held |= bit[x]
                        continue
                    if kid[4] <= gap and kid[5] & path == kid[5]:
                        held |= kid[5]
                        continue
                    if gap <= 0:  # the path to x is the longest yet
                        length, gap = len(stack) + 1, 1
                        found = [*(s[1] for s in stack), kid]
                        if length >= need:
                            return length, found
                    t = kid[3]
                    explored += t
                    if explored > limit:  # the path found so far is the incumbent
                        if found and root:
                            raise _Capped(length + 1, (*root, self._witness(a, found)[1]))
                        raise _Capped
                    seen[x] = True
                    path |= bit[x]
                    gap -= 1
                    stack.append((it, kid, held))
                    it, held = reversed(kids[x][bisect_right(pre[x], gap, 0, t + 1):t + 1]), 0
                    break
                else:  # every child of the frame tried: step back
                    if not stack:
                        return length, found
                    it, kid, below = stack.pop()
                    x = kid[1]
                    seen[x] = False
                    path ^= bit[x]
                    held &= path  # drops x
                    gap += 1
                    if found is None:
                        if held:
                            kid[4], kid[5] = gap, held
                        else:  # bounds d in any context: keep it as K
                            kid[2] = gap
                    held |= below
        finally:  # unmark the path and the blocked vertices, however the search ends
            for _, kid, _ in stack:
                seen[kid[1]] = False
            for x in blocked:
                seen[x] = False
            self.explored = explored

    def _witness(self, a: int, entries: list) -> tuple[int, tuple]:
        """(vertex mask, cells) of the path from a along the given entries."""
        vs = [a, *(s[1] for s in entries)]
        cells = vs[-1]
        for x, s in zip(vs[-2::-1], reversed(entries)):
            cells = (x, s[0] >> 1, cells)
        bit = self.bit
        return sum(bit[x] for x in vs), cells


def _start_values(
    g: Graph, ordering: EdgeOrdering, budget: int | None
) -> tuple[PathResult, PathValues]:
    """The psi search: place every edge from the top rank down, so that the
    monotone paths are the increasing ones and B ends as psi.  Returns the
    result and the state; a capped result reports the longest path found,
    and its state lacks the edges not yet placed."""
    state = PathValues(g, budget)
    try:
        for e in reversed(ordering.inverse):
            state.place(e)
    except _Capped as cap:
        (length, cells), exact, explored = cap.args, False, budget + 1
    else:
        length, cells, exact, explored = state.best, state.best_path, True, state.explored
    vs, es = _unchain(cells)
    return PathResult("path", length, vs, es, exact, explored), state
