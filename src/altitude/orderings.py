"""Edge-orderings and proper edge colorings.

An edge-ordering assigns ranks 1..m bijectively to the edge indices of a
graph.  The adversarial orderings built here list the classes of a proper
edge coloring in blocks: every increasing trail then uses at most one edge
per class, because consecutive trail edges share a vertex and each class is
a matching.  The coloring routine is the fan/rotation scheme of Misra and
Gries, which never needs more than max_degree + 1 colors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graphs import Graph, SoundnessError, hypercube_dimension


class OrderingFormatError(ValueError):
    """Ordering file violations (malformed line, bad rank, not a bijection)."""


@dataclass(frozen=True)
class EdgeOrdering:
    """Bijection edge index -> rank in 1..m; ``inverse[r-1]`` is the edge of rank r."""

    rank: tuple[int, ...]
    inverse: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = len(self.rank)
        inv = [-1] * m
        for e, r in enumerate(self.rank):
            if not (1 <= r <= m) or inv[r - 1] != -1:
                raise ValueError(f"ranks are not a bijection onto 1..{m}")
            inv[r - 1] = e
        object.__setattr__(self, "inverse", tuple(inv))

    @property
    def m(self) -> int:
        return len(self.rank)


@dataclass(frozen=True)
class EdgeColoring:
    """Proper edge coloring with compact colors 0..num_colors-1."""

    color: tuple[int, ...]
    class_sizes: tuple[int, ...]

    @property
    def num_colors(self) -> int:
        return len(self.class_sizes)

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_colors)]
        for e, c in enumerate(self.color):
            out[c].append(e)
        return out


def proper_violation(g: Graph, coloring: EdgeColoring) -> tuple[int, int] | None:
    """First pair of same-colored edges sharing a vertex, or None if proper.

    The pair is (f, e): e is the first edge, in index order, that meets an
    earlier edge of its color, and f is that earlier edge, the one at e's
    smaller end when both ends clash.  Colors must be nonnegative.
    """
    color = coloring.color
    if len(color) != g.m:
        raise ValueError("coloring length does not match edge count")
    used = [0] * g.n  # the colors at each vertex so far, as a bitmask
    for e, (u, v) in enumerate(g.edges):
        bit = 1 << color[e]
        if (used[u] | used[v]) & bit:
            x = u if used[u] & bit else v
            f = next(f for f in range(e) if color[f] == color[e] and x in g.edges[f])
            return (f, e)
        used[u] |= bit
        used[v] |= bit
    return None


def identity_ordering(g: Graph) -> EdgeOrdering:
    return EdgeOrdering(tuple(range(1, g.m + 1)))


def random_ordering(g: Graph, seed: int) -> EdgeOrdering:
    ranks = list(range(1, g.m + 1))
    random.Random(seed).shuffle(ranks)
    return EdgeOrdering(tuple(ranks))


# ----------------------------------------------------------------------
# Misra-Gries fan coloring: at most max_degree + 1 colors
# ----------------------------------------------------------------------

def greedy_edge_coloring(g: Graph) -> EdgeColoring:
    """Proper edge coloring with at most max_degree + 1 colors.

    Implements the fan construction: for each uncolored edge (u, v), grow a
    maximal fan at u, and either rotate it directly or first invert the
    alternating cd-path through u to make the fan's terminal color free at u.

    Memory is O(n + m): each vertex keeps a dict of its colored edges by
    color and a bitmask of its colors.  A table of max_degree + 1 slots per
    vertex would take O(n * max_degree), 9M slots on a 3000-leaf star.
    """
    edges = g.edges
    other = [u ^ v for u, v in edges]  # the far end of edge e from its end x is other[e] ^ x
    palette = max((len(a) for a in g.adj), default=0) + 1
    color = [-1] * g.m
    at: list[dict[int, int]] = [{} for _ in range(g.n)]  # at[v][c]: v's c-colored edge
    used = [0] * g.n  # bit c of used[v]: v has a c-colored edge

    def recolor(es: list[int], colors: list[int]) -> None:
        # Two passes, since the old and new slots of the edges overlap.
        for e in es:
            c = color[e]
            if c != -1:
                x, y = edges[e]
                del at[x][c], at[y][c]
                used[x] ^= 1 << c
                used[y] ^= 1 << c
        for e, c in zip(es, colors):
            color[e] = c
            x, y = edges[e]
            at[x][c] = at[y][c] = e
            used[x] |= 1 << c
            used[y] |= 1 << c

    for e0, (u, v) in enumerate(edges):
        # Maximal fan at u (vertex -> edge to u): each edge's color is free on
        # the vertex before.  avail holds u's colors not yet in the fan, so the
        # next edge is u's lowest-colored one whose color is free on the tail.
        at_u = at[u]
        fan, tail, avail = {v: e0}, v, used[u]
        while nxt := avail & ~used[tail]:
            bit = nxt & -nxt
            avail ^= bit
            e = at_u[bit.bit_length() - 1]
            tail = other[e] ^ u
            fan[tail] = e

        # c and d: the lowest colors free on u and on the tail; deg <= delta
        # leaves one below the palette.
        c = (~used[u] & (used[u] + 1)).bit_length() - 1
        d = (~used[tail] & (used[tail] + 1)).bit_length() - 1
        if c >= palette or d >= palette:
            raise SoundnessError("palette exhausted")
        # Swap c and d on the maximal path from u colored d, c, d, ... (empty if d is free on u)
        path, x, want = [], u, d
        while used[x] >> want & 1:
            e = at[x][want]
            path.append(e)
            x, want = other[e] ^ x, c + d - want
        if path:
            recolor(path, [c + d - color[e] for e in path])
        # Rotate the shortest fan prefix whose tip has d free: edge i takes
        # edge (i+1)'s color, the tip takes d.  The prefix must still be a fan.
        fan_edges = list(fan.values())
        for i, x in enumerate(fan):
            if not used[x] >> d & 1:
                break
            if i + 1 == len(fan) or used[x] >> color[fan_edges[i + 1]] & 1:
                raise SoundnessError("fan lemma violated")
        recolor(fan_edges[: i + 1], [color[e] for e in fan_edges[1 : i + 1]] + [d])

    return _compact(color)


def _compact(color: list[int]) -> EdgeColoring:
    """Number the used colors 0, 1, ... in increasing order and count each class."""
    remap = {c: i for i, c in enumerate(sorted(set(color)))}
    compact = tuple(remap[c] for c in color)
    sizes = [0] * len(remap)
    for c in compact:
        sizes[c] += 1
    return EdgeColoring(compact, tuple(sizes))


def hypercube_dimension_coloring(g: Graph) -> EdgeColoring:
    """Color each hypercube edge by the coordinate where its ends differ.

    Yields exactly d perfect-matching classes on Q_d, matching its chromatic
    index.  Rejects graphs that are not a hypercube in canonical labeling.
    """
    d = hypercube_dimension(g)
    if d is None:
        raise ValueError("graph is not a canonically labeled hypercube")
    return _compact([(x ^ y).bit_length() - 1 for x, y in g.edges])


def coloring_ordering(g: Graph, coloring: EdgeColoring, seed: int) -> EdgeOrdering:
    """Ordering that gives class 0 the lowest ranks, class 1 the next, etc.

    Within each class the ranks are shuffled by the seed; any tie-break gives
    the same trail-length guarantee, so tests can range over the whole family.
    """
    bad = proper_violation(g, coloring)
    if bad is not None:
        raise ValueError(f"coloring is not proper: edges {bad[0]} and {bad[1]} clash")
    rng = random.Random(seed)
    rank = [0] * g.m
    nxt = 1
    for cls in coloring.classes():
        rng.shuffle(cls)
        for e in cls:
            rank[e] = nxt
            nxt += 1
    return EdgeOrdering(tuple(rank))


# ----------------------------------------------------------------------
# Ordering file format: m lines, line i = rank of edge i
# ----------------------------------------------------------------------

def parse_ordering(text: str) -> EdgeOrdering:
    """Read the ordering format; a line number counts blank lines too."""
    ranks = []
    for lineno, ln in enumerate(text.splitlines(), start=1):
        tok = ln.split()
        if not tok:
            continue
        if len(tok) != 1:
            raise OrderingFormatError(f"line {lineno}: expected a single rank, got {ln!r}")
        try:
            ranks.append(int(tok[0]))
        except ValueError as exc:
            raise OrderingFormatError(f"line {lineno}: non-integer rank {ln!r}") from exc
    try:
        return EdgeOrdering(tuple(ranks))
    except ValueError as exc:
        raise OrderingFormatError(str(exc)) from exc


def serialize_ordering(ordering: EdgeOrdering) -> str:
    return "".join(f"{r}\n" for r in ordering.rank)
