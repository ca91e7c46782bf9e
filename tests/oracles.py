"""Brute-force enumerators used to cross-check the fast implementations.

Everything here favours obviousness over speed: plain recursion over all
candidate objects, no pruning beyond feasibility.  Only usable on small
inputs, which is the point.
"""

from __future__ import annotations

from itertools import combinations, permutations

from altitude import EdgeOrdering, Graph, PathResult, verify_witness
from altitude.paths import _unchain


def brute_psi(g: Graph, ordering: EdgeOrdering) -> int:
    """Longest increasing path by enumerating every simple increasing path."""
    best = 0

    def dfs(v: int, last: int, visited: frozenset[int], length: int) -> None:
        nonlocal best
        if length > best:
            best = length
        for w, e in g.adj[v]:
            r = ordering.rank[e]
            if r > last and w not in visited:
                dfs(w, r, visited | {w}, length + 1)

    for v in range(g.n):
        dfs(v, 0, frozenset((v,)), 0)
    return best


def brute_trail(g: Graph, ordering: EdgeOrdering) -> int:
    """Longest increasing trail by enumerating every increasing trail."""
    best = 0

    def dfs(v: int, last: int, used: frozenset[int], length: int) -> None:
        nonlocal best
        if length > best:
            best = length
        for w, e in g.adj[v]:
            r = ordering.rank[e]
            if r > last and e not in used:
                dfs(w, r, used | {e}, length + 1)

    for v in range(g.n):
        dfs(v, 0, frozenset(), 0)
    return best


def brute_suffix_trail(g: Graph, ordering: EdgeOrdering, v: int, r: int) -> int:
    """Longest increasing trail leaving v on edges of rank at least r."""
    best = 0

    def dfs(x: int, last: int, used: frozenset[int], length: int) -> None:
        nonlocal best
        if length > best:
            best = length
        for w, e in g.adj[x]:
            rank = ordering.rank[e]
            if rank > last and e not in used:
                dfs(w, rank, used | {e}, length + 1)

    dfs(v, r - 1, frozenset(), 0)
    return best


def brute_start_path(
    g: Graph, ordering: EdgeOrdering, e: int, tail: int, avoid: frozenset[int] = frozenset()
) -> int:
    """Longest increasing path whose first edge is e, leaving its end
    ``tail``, and that visits no vertex of ``avoid`` after e, by enumerating
    every simple increasing path that starts so."""
    u, v = g.edges[e]
    head = v if tail == u else u
    best = 0

    def dfs(x: int, last: int, visited: frozenset[int], length: int) -> None:
        nonlocal best
        best = max(best, length)
        for w, f in g.adj[x]:
            r = ordering.rank[f]
            if r > last and w not in visited:
                dfs(w, r, visited | {w}, length + 1)

    dfs(head, ordering.rank[e], frozenset((tail, head)) | avoid, 1)
    return best


def brute_top_value(g: Graph, prefix: list[int], x: int) -> int:
    """Longest increasing path that ends with edge x once x takes the rank
    above the ranked prefix (edges listed in rank order), by enumerating
    every simple increasing path among those edges."""
    rank = {e: i + 1 for i, e in enumerate(prefix)}
    rank[x] = len(prefix) + 1
    best = 0

    def dfs(v: int, last: int, visited: frozenset[int], length: int) -> None:
        nonlocal best
        for w, e in g.adj[v]:
            r = rank.get(e, 0)
            if r > last and w not in visited:
                if e == x:  # x has the top rank, so the path ends here
                    best = max(best, length + 1)
                else:
                    dfs(w, r, visited | {w}, length + 1)

    for v in range(g.n):
        dfs(v, 0, frozenset((v,)), 0)
    return best


def brute_path_end(g: Graph, prefix: list[int], x: int, avoid: set[int]) -> int:
    """Longest increasing path among the ranked prefix edges (listed in rank
    order) that ends at vertex x and visits no vertex of ``avoid``, by
    enumerating every such path backwards from x along falling ranks."""
    rank = {e: i + 1 for i, e in enumerate(prefix)}
    best = 0

    def dfs(v: int, below: int, visited: frozenset[int], length: int) -> None:
        nonlocal best
        best = max(best, length)
        for w, e in g.adj[v]:
            r = rank.get(e, 0)
            if 0 < r < below and w not in visited and w not in avoid:
                dfs(w, r, visited | {w}, length + 1)

    dfs(x, len(prefix) + 1, frozenset((x,)), 0)
    return best


def brute_completion_min(g: Graph, prefix: list[int]) -> int:
    """Minimum of brute_psi over every ordering whose ranks 1..len(prefix)
    go to the prefix edges in order, by enumerating the completions."""
    if g.m > 7:
        raise ValueError("completion enumeration is capped at m = 7")
    rest = [e for e in range(g.m) if e not in prefix]
    best = g.m
    for perm in permutations(rest):
        rank = [0] * g.m
        for r, e in enumerate([*prefix, *perm], start=1):
            rank[e] = r
        best = min(best, brute_psi(g, EdgeOrdering(tuple(rank))))
    return best


def brute_f(g: Graph) -> int:
    """Altitude by minimising brute_psi over all m! edge-orderings."""
    if g.m == 0:
        return 0
    if g.m > 6:
        raise ValueError("factorial enumeration is capped at m = 6")
    best = g.m
    for perm in permutations(range(1, g.m + 1)):
        best = min(best, brute_psi(g, EdgeOrdering(perm)))
        if best == 1:
            break  # psi >= 1 whenever m >= 1, so 1 cannot be beaten
    return best


def brute_zeta(g: Graph, k: int) -> int:
    """Densest k-subset value by enumerating all vertex subsets of size k."""
    best = 0
    for subset in combinations(range(g.n), k):
        inside = set(subset)
        best = max(best, sum(1 for a, b in g.edges if a in inside and b in inside))
    return best


def brute_induced(g: Graph, vertices) -> set[int]:
    """Indices of the edges with both endpoints in ``vertices``."""
    inside = set(vertices)
    return {e for e, (a, b) in enumerate(g.edges) if a in inside and b in inside}


def check_witness_tops(g: Graph, state, start: dict[int, int]) -> int:
    """Check every witness top of a ``paths.PathValues`` state against
    ``start``, the brute-force longest monotone path that starts with each
    placed directed edge, by direction.  At each prefix j of a vertex v's
    list, pre[v][j] must bound the largest start over v's first j
    directions, and equal it where the top is not None; that top must then
    be a monotone path of pre[v][j] edges from v, with its vertex mask,
    whose first edge is one of those j.  Returns how many tops past the
    empty path held a witness."""
    m, placed = g.m, state.placed
    # The first edge placed ranks highest, so a monotone path read from its
    # start is increasing; the unplaced edges rank below every placed one.
    rank = [0] * m
    for i, e in enumerate(placed):
        rank[e] = m - i
    low = iter(range(1, m - len(placed) + 1))
    ordering = EdgeOrdering(tuple(r or next(low) for r in rank))
    witnessed = 0
    for v, entries in enumerate(state.kids):
        want, firsts = 0, set()
        for j, entry in enumerate(entries):
            if j:
                want = max(want, start[entry[0]])
                firsts.add(entry[0] >> 1)
            value, top = state.pre[v][j], entry[6]
            assert value >= want, (g.edges, placed, v, j)
            if top is None:
                continue
            mask, cells = top
            vs, es = _unchain(cells)
            assert value == want == len(es), (g.edges, placed, v, j)
            assert vs[0] == v and mask == sum(1 << x for x in vs)
            assert not es or es[0] in firsts
            verify_witness(g, ordering, PathResult("path", len(es), vs, es, True, 0))
            witnessed += j > 0
    return witnessed
