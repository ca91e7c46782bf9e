"""Pedestrian simulation and its structural guarantees.

One marker (pedestrian) starts on each vertex.  Edges are processed in rank
order; the two pedestrians at an edge's endpoints swap places iff neither
would step onto a vertex it already visited.  Each pedestrian therefore
walks an increasing path.  Three facts make the transcript useful:

- coverage: every edge ends up inside some pedestrian's visited set, so the
  visited sets of size <= k+1 cover E(G) whenever no pedestrian walked more
  than k edges;
- counting: m <= sum_i (|U_i| - |E_i|/2), where U_i is the edge set induced
  by pedestrian i's vertices, with exact half-integer arithmetic;
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


class TranscriptError(ValueError):
    """A pedestrian transcript fails re-validation."""


@dataclass(frozen=True)
class PedestrianTranscript:
    """Everything a pedestrian run produced.

    paths[i] is pedestrian i's vertex sequence (it starts at vertex i);
    edge_sets[i] its traversed edges E_i; vertex_sets[i] its visited
    vertices V_i; induced_sets[i] the edges U_i induced by V_i.  swap_log
    has one (edge, swapped) entry per edge in rank order.  final_position[i]
    is where pedestrian i stopped.
    """

    paths: tuple[tuple[int, ...], ...]
    edge_sets: tuple[frozenset[int], ...]
    vertex_sets: tuple[frozenset[int], ...]
    induced_sets: tuple[frozenset[int], ...]
    swap_log: tuple[tuple[int, bool], ...]
    final_position: tuple[int, ...]

    @property
    def max_path_edges(self) -> int:
        return max((len(s) for s in self.edge_sets), default=0)


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
    """Simulate the pedestrians under the given ordering and record everything."""
    if ordering.m != g.m:
        raise ValueError("ordering does not match the graph's edge count")
    n = g.n
    pos = list(range(n))  # pedestrian -> vertex
    who = list(range(n))  # vertex -> pedestrian
    paths: list[list[int]] = [[i] for i in range(n)]
    visited: list[set[int]] = [{i} for i in range(n)]
    edge_sets: list[set[int]] = [set() for _ in range(n)]
    swap_log: list[tuple[int, bool]] = []
    for e in ordering.inverse:
        u, v = g.edges[e]
        i, j = who[u], who[v]
        swap = v not in visited[i] and u not in visited[j]
        swap_log.append((e, swap))
        if swap:
            who[u], who[v] = j, i
            pos[i], pos[j] = v, u
            paths[i].append(v)
            visited[i].add(v)
            edge_sets[i].add(e)
            paths[j].append(u)
            visited[j].add(u)
            edge_sets[j].add(e)

    induced: list[frozenset[int]] = []
    for i in range(n):
        vs = visited[i]
        induced.append(
            frozenset(e for x in vs for w, e in g.adj[x] if x < w and w in vs)
        )
    return PedestrianTranscript(
        paths=tuple(tuple(p) for p in paths),
        edge_sets=tuple(frozenset(s) for s in edge_sets),
        vertex_sets=tuple(frozenset(s) for s in visited),
        induced_sets=tuple(induced),
        swap_log=tuple(swap_log),
        final_position=tuple(pos),
    )


def check_invariants(g: Graph, ordering: EdgeOrdering, t: PedestrianTranscript) -> None:
    """Replay the simulation independently and compare every recorded field.

    Raises TranscriptError on the first disagreement: wrong swap decision,
    broken one-pedestrian-per-vertex occupancy, path/visited-set mismatch,
    bad set cardinalities, or edge-membership parity not in {0, 2}.
    """
    n = g.n
    if len(t.paths) != n or len(t.swap_log) != g.m:
        raise TranscriptError("transcript shape does not match the graph")
    who = list(range(n))
    pos = list(range(n))
    paths: list[list[int]] = [[i] for i in range(n)]
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
            paths[j].append(u)
            visited[j].add(u)
        if sorted(pos) != list(range(n)) or any(pos[who[x]] != x for x in range(n)):
            raise TranscriptError(f"occupancy broken after step {step}")
    for i in range(n):
        if tuple(paths[i]) != t.paths[i]:
            raise TranscriptError(f"path of pedestrian {i} disagrees with replay")
        if t.vertex_sets[i] != visited[i]:
            raise TranscriptError(f"vertex set of pedestrian {i} disagrees")
        replay_edges = {
            _edge_of(g, paths[i][s], paths[i][s + 1]) for s in range(len(paths[i]) - 1)
        }
        if t.edge_sets[i] != replay_edges:
            raise TranscriptError(f"edge set of pedestrian {i} disagrees")
        if len(t.vertex_sets[i]) != len(t.edge_sets[i]) + 1:
            raise TranscriptError(f"pedestrian {i}: |V| != |E| + 1")
        vs = t.vertex_sets[i]
        want_u = frozenset(e for x in vs for w, e in g.adj[x] if x < w and w in vs)
        if t.induced_sets[i] != want_u:
            raise TranscriptError(f"induced edge set of pedestrian {i} disagrees")
        ranks = [ordering.rank[_edge_of(g, a, b)] for a, b in zip(paths[i], paths[i][1:])]
        if any(r2 <= r1 for r1, r2 in zip(ranks, ranks[1:])):
            raise TranscriptError(f"path of pedestrian {i} is not increasing")
        if len(set(paths[i])) != len(paths[i]):
            raise TranscriptError(f"path of pedestrian {i} repeats a vertex")
    if t.final_position != tuple(pos):
        raise TranscriptError("final positions disagree with replay")
    for e in range(g.m):
        members = sum(1 for s in t.edge_sets if e in s)
        if members not in (0, 2):
            raise TranscriptError(f"edge {e} lies in {members} pedestrian paths")


def _edge_of(g: Graph, a: int, b: int) -> int:
    for w, e in g.adj[a]:
        if w == b:
            return e
    raise TranscriptError(f"no edge joins {a} and {b}")


def verify_coverage(g: Graph, t: PedestrianTranscript) -> CoverageReport:
    """Check E(G) is covered by the induced sets U_i, sizes capped as promised.

    Every edge must lie in at least one U_i, and every |V_i| must be at most
    one more than the longest pedestrian walk.
    """
    cap = t.max_path_edges + 1
    for i, vs in enumerate(t.vertex_sets):
        if len(vs) > cap:
            return CoverageReport(False, None)
    covered: set[int] = set()
    for s in t.induced_sets:
        covered |= s
    for e in range(g.m):
        if e not in covered:
            return CoverageReport(False, e)
    return CoverageReport(True, None)


def verify_counting(
    g: Graph, t: PedestrianTranscript, zeta_values: Sequence[int] | None = None
) -> CountingReport:
    """Evaluate the counting inequality exactly, plus the zeta chain if given.

    zeta_values[s] must be the maximum edge count over s-vertex subsets, for
    every s up to max |V_i|; it feeds the per-pedestrian comparison and the
    aggregate bound m <= n (zeta(k) - (k-1)/2).
    """
    per = tuple(
        Fraction(len(u)) - Fraction(len(e), 2)
        for u, e in zip(t.induced_sets, t.edge_sets)
    )
    rhs = sum(per, Fraction(0))
    k = max((len(vs) for vs in t.vertex_sets), default=0)
    report = {
        "lhs": g.m,
        "rhs": rhs,
        "per_pedestrian": per,
        "holds": g.m <= rhs,
        "k": k,
    }
    if zeta_values is not None:
        if len(zeta_values) <= k:
            raise ValueError(f"need zeta values up to subset size {k}")
        zk = Fraction(zeta_values[k]) - Fraction(k - 1, 2)
        per_ok = all(
            term <= Fraction(zeta_values[len(vs)]) - Fraction(len(vs) - 1, 2) <= zk
            for term, vs in zip(per, t.vertex_sets)
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
