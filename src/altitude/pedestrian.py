"""Pedestrian simulation and its structural guarantees.

One marker (pedestrian) starts on each vertex.  Edges are processed in rank
order; the two pedestrians at an edge's endpoints swap places iff neither
would step onto a vertex it already visited.  Each pedestrian therefore
walks an increasing path.  The transcript records only what happened (the
paths, the edges walked and the swap decisions); the lemmas below derive
the sets they need from the paths and the graph.  Three facts make the
transcript useful:

- coverage: every edge has both endpoints visited by some pedestrian, so
  the visited sets V_i, each of size <= k+1, cover E(G) whenever no
  pedestrian walked more than k edges;
- counting: m <= sum_i (|U_i| - |E_i|/2), where U_i is the edge set induced
  by V_i and E_i the edges pedestrian i walked, with exact half-integer
  arithmetic;
- a floor: max_i |E_i| >= ceil(sqrt(average degree)) on every run, which
  also lower-bounds the longest increasing path of the ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .graphs import Graph
from .orderings import EdgeOrdering
from .paths import PathResult, WitnessError, verify_witness


class TranscriptError(ValueError):
    """A pedestrian transcript fails re-validation."""


@dataclass(frozen=True)
class PedestrianTranscript:
    """What a pedestrian run did.

    paths[i] is pedestrian i's vertex sequence (it starts at vertex i) and
    walks[i] the edges it took, in the order it took them.  swap_log has one
    (edge, swapped) entry per edge in rank order.
    """

    paths: tuple[tuple[int, ...], ...]
    walks: tuple[tuple[int, ...], ...]
    swap_log: tuple[tuple[int, bool], ...]

    @property
    def final_position(self) -> tuple[int, ...]:
        """final_position[i] is where pedestrian i stopped."""
        return tuple(p[-1] for p in self.paths)

    @property
    def max_path_edges(self) -> int:
        return max((len(w) for w in self.walks), default=0)


@dataclass(frozen=True)
class CoverageReport:
    ok: bool
    violating_edge: int | None


@dataclass(frozen=True)
class CountingReport:
    """Both sides of m <= sum_i (|U_i| - |E_i|/2), exactly.

    When zeta values are supplied, also evaluates the per-pedestrian chain
    |U_i| - |E_i|/2 <= zeta(|V_i|) - (|V_i|-1)/2 <= zeta(k) - (k-1)/2 with
    k = max |V_i|, and the aggregate m <= n (zeta(k) - (k-1)/2).
    """

    lhs: int
    rhs: Fraction
    per_pedestrian: tuple[Fraction, ...]
    holds: bool
    k: int
    per_pedestrian_zeta_holds: bool | None = None
    aggregate_rhs: Fraction | None = None
    aggregate_holds: bool | None = None


def run_pedestrian(g: Graph, ordering: EdgeOrdering) -> PedestrianTranscript:
    """Simulate the pedestrians under the given ordering and record the walks."""
    if ordering.m != g.m:
        raise ValueError("ordering does not match the graph's edge count")
    n = g.n
    who = list(range(n))  # vertex -> pedestrian
    paths: list[list[int]] = [[i] for i in range(n)]
    visited: list[set[int]] = [{i} for i in range(n)]
    walks: list[list[int]] = [[] for _ in range(n)]
    swap_log: list[tuple[int, bool]] = []
    for e in ordering.inverse:
        u, v = g.edges[e]
        i, j = who[u], who[v]
        swap = v not in visited[i] and u not in visited[j]
        swap_log.append((e, swap))
        if swap:
            who[u], who[v] = j, i
            paths[i].append(v)
            visited[i].add(v)
            walks[i].append(e)
            paths[j].append(u)
            visited[j].add(u)
            walks[j].append(e)
    return PedestrianTranscript(
        paths=tuple(tuple(p) for p in paths),
        walks=tuple(tuple(w) for w in walks),
        swap_log=tuple(swap_log),
    )


def check_invariants(g: Graph, ordering: EdgeOrdering, t: PedestrianTranscript) -> None:
    """Replay the simulation independently and compare every recorded field.

    Raises TranscriptError on the first disagreement: wrong swap decision,
    broken one-pedestrian-per-vertex occupancy, a path or walk that differs
    from the replay or fails ``paths.verify_witness`` as an increasing path,
    or edge-membership parity not in {0, 2}.
    """
    n = g.n
    if len(t.paths) != n or len(t.walks) != n or len(t.swap_log) != g.m:
        raise TranscriptError("transcript shape does not match the graph")
    who = list(range(n))
    pos = list(range(n))
    paths: list[list[int]] = [[i] for i in range(n)]
    walks: list[list[int]] = [[] for _ in range(n)]
    visited: list[set[int]] = [{i} for i in range(n)]
    for step, e in enumerate(ordering.inverse):
        u, v = g.edges[e]
        i, j = who[u], who[v]
        swap = v not in visited[i] and u not in visited[j]
        if t.swap_log[step] != (e, swap):
            raise TranscriptError(f"swap_log[{step}] should be {(e, swap)}")
        if swap:
            who[u], who[v] = j, i
            pos[i], pos[j] = v, u
            paths[i].append(v)
            visited[i].add(v)
            walks[i].append(e)
            paths[j].append(u)
            visited[j].add(u)
            walks[j].append(e)
        if pos[who[u]] != u or pos[who[v]] != v:
            raise TranscriptError(f"occupancy broken after step {step}")
    members = [0] * g.m
    for i in range(n):
        walk = PathResult("path", len(t.walks[i]), t.paths[i], t.walks[i], True, 0)
        try:
            verify_witness(g, ordering, walk)
        except WitnessError as exc:
            raise TranscriptError(f"pedestrian {i}: {exc}") from None
        if tuple(paths[i]) != t.paths[i]:
            raise TranscriptError(f"path of pedestrian {i} disagrees with replay")
        if tuple(walks[i]) != t.walks[i]:
            raise TranscriptError(f"walk of pedestrian {i} disagrees with replay")
        for e in t.walks[i]:
            members[e] += 1
    for e, count in enumerate(members):
        if count not in (0, 2):
            raise TranscriptError(f"edge {e} lies in {count} pedestrian paths")


def verify_coverage(g: Graph, t: PedestrianTranscript) -> CoverageReport:
    """Check E(G) is covered by the induced sets U_i, sizes capped as promised.

    Every edge must have both endpoints visited by one pedestrian, and every
    |V_i| must be at most one more than the longest pedestrian walk.
    """
    cap = t.max_path_edges + 1
    if any(len(set(p)) > cap for p in t.paths):
        return CoverageReport(False, None)
    visitors = [0] * g.n  # vertex -> bitmask of the pedestrians that visited it
    for i, path in enumerate(t.paths):
        for x in path:
            visitors[x] |= 1 << i
    for e, (u, v) in enumerate(g.edges):
        if not visitors[u] & visitors[v]:
            return CoverageReport(False, e)
    return CoverageReport(True, None)


def verify_counting(
    g: Graph, t: PedestrianTranscript, zeta_values: Sequence[int] | None = None
) -> CountingReport:
    """Evaluate the counting inequality exactly, plus the zeta chain if given.

    |U_i| is read off the adjacency masks of V_i and |E_i| is the length of
    walk i.  zeta_values[s] must be the maximum edge count over s-vertex
    subsets, for every s up to max |V_i|; it feeds the per-pedestrian
    comparison and the aggregate bound m <= n (zeta(k) - (k-1)/2).
    """
    vertex_sets = [set(path) for path in t.paths]
    per = []
    for vs, walk in zip(vertex_sets, t.walks):
        v_mask = 0
        for x in vs:
            v_mask |= 1 << x
        twice_u = sum((g.adj_mask[x] & v_mask).bit_count() for x in vs)
        per.append(Fraction(twice_u - len(walk), 2))
    rhs = sum(per, Fraction(0))
    k = max((len(vs) for vs in vertex_sets), default=0)
    report = {
        "lhs": g.m,
        "rhs": rhs,
        "per_pedestrian": tuple(per),
        "holds": g.m <= rhs,
        "k": k,
    }
    if zeta_values is not None:
        if len(zeta_values) <= k:
            raise ValueError(f"need zeta values up to subset size {k}")
        zk = Fraction(zeta_values[k]) - Fraction(k - 1, 2)
        per_ok = all(
            term <= Fraction(zeta_values[len(vs)]) - Fraction(len(vs) - 1, 2) <= zk
            for term, vs in zip(per, vertex_sets)
        )
        agg = g.n * zk
        report.update(
            per_pedestrian_zeta_holds=per_ok,
            aggregate_rhs=agg,
            aggregate_holds=g.m <= agg,
        )
    return CountingReport(**report)


def sqrt_degree_floor(g: Graph) -> int:
    """ceil(sqrt(average degree)): every run's longest pedestrian walk meets it."""
    if g.n == 0:
        raise ValueError("graph has no vertices")
    stats_num = 2 * g.m  # average degree = 2m/n
    # smallest s with s^2 >= 2m/n, i.e. s^2 * n >= 2m
    s = isqrt((stats_num + g.n - 1) // g.n)
    while s * s * g.n < stats_num:
        s += 1
    return s
