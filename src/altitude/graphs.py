"""Simple undirected graphs with canonical edge indexing, plus the generators
used throughout the toolkit (complete, hypercube, G(n,p), paths/cycles/stars).

Vertices are dense integers 0..n-1.  The edge list is the identity of the
graph: it is sorted lexicographically with u < v in every pair, and "edge i"
means ``edges[i]`` everywhere in this package, so edge-orderings are plain
permutations of 0..m-1 offset by one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


class GraphFormatError(ValueError):
    """Base class for edge-list text format violations."""


class MalformedLineError(GraphFormatError):
    pass


class VertexRangeError(GraphFormatError):
    pass


class DuplicateEdgeError(GraphFormatError):
    pass


class LoopError(GraphFormatError):
    pass


class SoundnessError(RuntimeError):
    """A computed value contradicts a proved bound: a defect in the program."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph.

    ``edges`` is canonical: pairs (u, v) with u < v, strictly increasing
    lexicographically.  The constructor is the one check of an edge list:
    ``from_edges`` and ``parse_graph`` build through it.  ``adj[v]`` lists
    (neighbor, edge_index) pairs, exactly the inverse of the edge list, and
    ``adj_mask[v]`` is v's neighbor set as a bitmask; both are built on
    first read.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.n
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        prev = ()  # below every pair
        for e in self.edges:
            u, v = e
            if not 0 <= u < v < n or e <= prev:
                if u == v:
                    raise LoopError(f"loop at vertex {u}")
                if not 0 <= u < v < n:
                    raise VertexRangeError(f"edge ({u}, {v}) out of range for n={n}")
                if e == prev:
                    raise DuplicateEdgeError(f"duplicate edge {e}")
                i = self.edges.index(prev) + 1  # the pairs up to prev strictly increase
                raise ValueError(f"edge list not strictly increasing at index {i}")
            prev = e

    @cached_property
    def adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return tuple(map(tuple, adj))

    @cached_property
    def adj_mask(self) -> tuple[int, ...]:
        return tuple(sum(1 << w for w, _ in a) for a in self.adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        """The graph on the given pairs, each oriented u < v and then sorted;
        the constructor names the first fault in that order."""
        return Graph(n, tuple(sorted((u, v) if u < v else (v, u) for u, v in pairs)))


@dataclass(frozen=True)
class DegreeStats:
    average_degree: Fraction
    max_degree: int
    connected: bool


def degree_stats(g: Graph) -> DegreeStats:
    """Exact average degree 2m/n (rational), max degree, and connectivity."""
    if g.n == 0:
        raise ValueError("degree stats undefined for the null graph")
    dbar = Fraction(2 * g.m, g.n)
    delta = max((len(a) for a in g.adj), default=0)
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for w, _ in g.adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return DegreeStats(dbar, delta, count == g.n)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

def make_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def make_hypercube(d: int) -> Graph:
    """Q_d on vertices 0..2^d-1; (x, y) is an edge iff x and y differ in one bit."""
    if d < 0:
        raise ValueError("hypercube dimension must be nonnegative")
    n = 1 << d
    edges = []
    for x in range(n):
        for b in range(d):
            y = x ^ (1 << b)
            if x < y:
                edges.append((x, y))
    edges.sort()
    return Graph(n, tuple(edges))


def make_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def make_star(leaves: int) -> Graph:
    """Star K_{1,leaves}: center 0, leaves 1..leaves."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return Graph(leaves + 1, tuple((0, v) for v in range(1, leaves + 1)))


def make_matching(k: int) -> Graph:
    """Perfect matching with k independent edges on 2k vertices."""
    if k < 1:
        raise ValueError("matching needs k >= 1")
    return Graph(2 * k, tuple((2 * i, 2 * i + 1) for i in range(k)))


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n,p): every pair drawn independently with one uniform variate.

    All C(n,2) pairs are visited in lexicographic order, so equal
    (n, p, seed) triples reproduce the identical graph bit for bit.
    """
    if n < 1:
        raise ValueError("G(n,p) needs n >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must lie in [0,1], got {p}")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, tuple(edges))


# ----------------------------------------------------------------------
# Family recognition (the dimension coloring and Harper's zeta on Q_d)
# ----------------------------------------------------------------------

def hypercube_dimension(g: Graph) -> int | None:
    """Return d if g is exactly make_hypercube(d) (same labels), else None."""
    if g.n == 0 or g.n & (g.n - 1):
        return None
    d = g.n.bit_length() - 1
    if g.m != d * (1 << d) // 2:
        return None
    for x, y in g.edges:
        z = x ^ y
        if z & (z - 1):
            return None
    return d


# ----------------------------------------------------------------------
# Edge-list text format: header "n m", then m lines "u v"
# ----------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    """Read the edge-list format; a line number counts blank lines too.

    The edge lines go to the constructor as oriented, sorted pairs.  Only if
    a line does not read as two integers, the constructor raises or the line
    count is wrong are the lines read again, in file order, to name the
    fault: a wrong count first, then the first bad line, and otherwise the
    constructor's first repeated pair.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise MalformedLineError("missing header line 'n m'")
    head = lines[0].split()
    if len(head) != 2:
        raise MalformedLineError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise MalformedLineError(f"non-integer header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise MalformedLineError(f"negative counts in header {lines[0]!r}")
    canon: list[tuple[int, int]] = []
    try:
        for ln in lines[1:]:
            tok = ln.split()
            if tok:
                u, v = map(int, tok)
                canon.append((u, v) if u < v else (v, u))
        if len(canon) == m:
            canon.sort()
            return Graph(n, tuple(canon))
    except ValueError as exc:  # a line not read as two integers, or the constructor's fault
        fault = exc
    body = [(lineno, ln) for lineno, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if len(body) != m:
        raise MalformedLineError(f"expected {m} edge lines, found {len(body)}")
    for lineno, ln in body:
        tok = ln.split()
        try:
            u, v = sorted(map(int, tok))
        except ValueError as exc:  # too few or many tokens, or not integers
            what = "expected 'u v', got" if len(tok) != 2 else "non-integer vertex in"
            raise MalformedLineError(f"line {lineno}: {what} {ln!r}") from exc
        if u == v:
            raise LoopError(f"line {lineno}: loop at vertex {u}")
        if u < 0 or v >= n:
            raise VertexRangeError(f"line {lineno}: vertex out of range in {ln!r}")
    raise fault  # every line is sound, so the constructor named a repeated pair


def serialize_graph(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"
