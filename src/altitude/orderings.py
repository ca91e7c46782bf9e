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
    """First pair of same-colored edges sharing a vertex, or None if proper."""
    if len(coloring.color) != g.m:
        raise ValueError("coloring length does not match edge count")
    seen: dict[tuple[int, int], int] = {}
    for e, (u, v) in enumerate(g.edges):
        c = coloring.color[e]
        for x in (u, v):
            if (x, c) in seen:
                return (seen[(x, c)], e)
            seen[(x, c)] = e
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
    """
    m = g.m
    if m == 0:
        return EdgeColoring((), ())
    delta = max(len(a) for a in g.adj)
    palette = delta + 1
    color = [-1] * m
    # at[v][c] = edge index of the c-colored edge at v
    at: list[dict[int, int]] = [{} for _ in range(g.n)]

    def free_color(v: int) -> int:
        used = at[v]
        for c in range(palette):
            if c not in used:
                return c
        raise SoundnessError("palette exhausted")  # impossible: deg(v) <= delta

    def other_end(e: int, x: int) -> int:
        u, v = g.edges[e]
        return v if x == u else u

    def invert_cd_path(start: int, c: int, d: int) -> None:
        # Maximal path from `start` whose first edge is colored d, alternating
        # d, c, d, ...; swap the two colors along it.
        path = []
        cur, want = start, d
        while want in at[cur]:
            e = at[cur][want]
            path.append(e)
            cur = other_end(e, cur)
            want = c if want == d else d
        for e in path:
            u, v = g.edges[e]
            del at[u][color[e]]
            del at[v][color[e]]
        for e in path:
            nc = c if color[e] == d else d
            color[e] = nc
            u, v = g.edges[e]
            at[u][nc] = e
            at[v][nc] = e

    for e0, (u, v) in enumerate(g.edges):
        # Maximal fan of u: vertices F with fan_edge[i] joining u to F[i];
        # the color of fan_edge[i+1] is free on F[i].
        fan = [v]
        fan_edges = [e0]
        in_fan = {v}
        while True:
            tail = fan[-1]
            ext = None
            for c in range(palette):
                if c in at[tail]:
                    continue
                e = at[u].get(c)
                if e is None:
                    continue
                w = other_end(e, u)
                if w not in in_fan:
                    ext = (w, e)
                    break
            if ext is None:
                break
            fan.append(ext[0])
            fan_edges.append(ext[1])
            in_fan.add(ext[0])

        c = free_color(u)
        d = free_color(fan[-1])
        if d in at[u]:
            invert_cd_path(u, c, d)
        # After the inversion d is free on u.  Find the first fan prefix that
        # is still a fan under the current colors and whose tip has d free.
        w_idx = None
        for i, x in enumerate(fan):
            if i > 0 and color[fan_edges[i]] in at[fan[i - 1]]:
                break  # fan property broken from here on
            if d not in at[x]:
                w_idx = i
                break
        if w_idx is None:
            raise SoundnessError("fan lemma violated")
        # Rotate the prefix: edge i takes edge (i+1)'s color, the tip takes d.
        # Two phases, since the old and new slots overlap at u.
        affected = fan_edges[: w_idx + 1]
        new_colors = [color[fan_edges[i + 1]] for i in range(w_idx)] + [d]
        for e in affected:
            if color[e] != -1:
                a, b = g.edges[e]
                del at[a][color[e]]
                del at[b][color[e]]
                color[e] = -1
        for e, nc in zip(affected, new_colors):
            color[e] = nc
            a, b = g.edges[e]
            at[a][nc] = e
            at[b][nc] = e

    # Compact the palette (some of the delta+1 colors may be unused).
    used = sorted(set(color))
    remap = {c: i for i, c in enumerate(used)}
    compact = tuple(remap[c] for c in color)
    sizes = [0] * len(used)
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
    color = tuple((x ^ y).bit_length() - 1 for x, y in g.edges)
    sizes = [0] * d
    for c in color:
        sizes[c] += 1
    return EdgeColoring(color, tuple(sizes))


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
    ranks = []
    for lineno, ln in enumerate((l for l in text.splitlines() if l.strip()), start=1):
        tok = ln.split()
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
