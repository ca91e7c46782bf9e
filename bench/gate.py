"""Correctness gate for benchmark outputs.

Each check accepts every correct answer, so a later version that proves
more (an exact value where this one was capped) still passes:

- a psi witness passes ``verify_witness``, and its length stays under an
  independently computed increasing-trail bound;
- an exact psi or f lies in the bracket recorded for that item
  (``expected.json``; only items whose value no workload seed changes),
  and a capped result's bracket meets it;
- an f witness ordering is a bijection that re-scores, by brute force, to
  the reported value;
- in every campaign row, certified lower bounds never exceed verified upper
  bounds, and ``floor_ok`` is true.

``check`` returns None for a passing item and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from altitude.experiments import GNP_HEADER, HYPERCUBE_HEADER, SCHEMA_GNP, SCHEMA_HYPERCUBE
from altitude.graphs import Graph, parse_graph
from altitude.orderings import (
    EdgeOrdering,
    coloring_ordering,
    greedy_edge_coloring,
    hypercube_dimension_coloring,
    parse_ordering,
)
from altitude.paths import PathResult, WitnessError, verify_witness

EXIT_OK, EXIT_BUDGET = 0, 4


class Gate:
    """Judges item outputs; caches each item's graph and ordering."""

    def __init__(self, recorded: dict[str, list[int]] | None):
        self.recorded = recorded or {}
        self._graphs: dict[str, Graph] = {}
        self._orderings: dict[str, EdgeOrdering] = {}

    def check(self, item, code: int | None, text: str) -> str | None:
        """``text`` is the item's JSON or CSV output (exact-f: its --out file)."""
        if code not in (EXIT_OK, EXIT_BUDGET):
            return f"exit code {code}"
        try:
            if item.kind == "psi":
                return self._psi(item, code, text)
            if item.kind == "exact-f":
                return self._exact_f(item, code, text)
            return self._campaign(item, code, text)
        except (KeyError, TypeError, ValueError) as exc:  # malformed output
            return f"unreadable output: {exc!r}"

    def graph(self, path: str) -> Graph:
        if path not in self._graphs:
            self._graphs[path] = parse_graph(Path(path).read_text())
        return self._graphs[path]

    def ordering(self, item) -> EdgeOrdering:
        if item.key not in self._orderings:
            g, spec, seed = self.graph(item.graph), item.ordering, item.order_seed
            if spec.startswith("file:"):
                phi = parse_ordering(Path(spec[5:]).read_text())
            elif spec == "coloring":
                phi = coloring_ordering(g, greedy_edge_coloring(g), seed)
            else:
                phi = coloring_ordering(g, hypercube_dimension_coloring(g), seed)
            self._orderings[item.key] = phi
        return self._orderings[item.key]

    def _against_record(self, item, lower: int, upper: int, exact: bool) -> str | None:
        rec = self.recorded.get(item.key) if item.invariant else None
        if rec is None:
            return None
        lo, hi = rec
        if exact and not lo <= lower <= hi:
            return f"exact value {lower} outside the recorded bracket [{lo}, {hi}]"
        if max(lo, lower) > min(hi, upper):
            return f"bracket [{lower}, {upper}] misses the recorded bracket [{lo}, {hi}]"
        return None

    def _psi(self, item, code: int, text: str) -> str | None:
        doc = json.loads(text)
        g, phi = self.graph(item.graph), self.ordering(item)
        res = PathResult("path", doc["length"], tuple(doc["vertices"]), tuple(doc["edges"]),
                         doc["exact"], doc["explored"])
        if res.exact != (code == EXIT_OK):
            return f"exact={res.exact} with exit code {code}"
        try:
            verify_witness(g, phi, res)
        except WitnessError as exc:
            return f"witness rejected: {exc}"
        bound = trail_bound(g, phi.rank)
        if res.length > bound:
            return f"path length {res.length} above the trail bound {bound}"
        upper = res.length if res.exact else bound
        return self._against_record(item, res.length, upper, res.exact)

    def _exact_f(self, item, code: int, text: str) -> str | None:
        doc = json.loads(text)
        g = self.graph(item.graph)
        f, lower, exact = doc["f"], doc["lower"], doc["exact"]
        if exact != (code == EXIT_OK):
            return f"exact={exact} with exit code {code}"
        if not lower <= f or (exact and lower != f):
            return f"inconsistent bracket [{lower}, {f}] (exact={exact})"
        ranks = doc["witness_ranks"]
        if sorted(ranks) != list(range(1, g.m + 1)):
            return "witness is not a ranking of the edges"
        scored = brute_psi(g, ranks)
        if scored != f:
            return f"witness scores {scored}, reported f={f}"
        sandwich = doc["sandwich"]
        if not sandwich["lower"] <= f or (exact and f > sandwich["upper"]):
            return f"f={f} outside the sandwich [{sandwich['lower']}, {sandwich['upper']}]"
        return self._against_record(item, lower, f, exact)

    def _campaign(self, item, code: int, text: str) -> str | None:
        gnp = item.argv[1] == "gnp"
        schema, header = (SCHEMA_GNP, GNP_HEADER) if gnp else (SCHEMA_HYPERCUBE, HYPERCUBE_HEADER)
        if code != EXIT_OK:
            return f"campaign exit code {code}"
        lines = text.splitlines()
        if not lines or lines[0] != f"# schema={schema}":
            return "missing schema line"
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
        if len(rows) != item.units:
            return f"{len(rows)} rows, expected {item.units}"
        if list(rows[0]) != [*header, "wall_ms"]:
            return "unexpected CSV header"
        for i, row in enumerate(rows):
            why = _gnp_row(row) if gnp else _hypercube_row(row)
            if why:
                return f"row {i}: {why}"
        return None


def _gnp_row(row: dict[str, str]) -> str | None:
    if row["floor_ok"] != "true":
        return "floor_ok is not true"
    floor = int(row["sqrt_floor"])
    if int(row["pedestrian_max"]) < floor:
        return "pedestrian walk below the floor"
    uppers = [int(row["delta_plus_1"])]
    if row["coloring_psi_exact"] == "true":
        uppers.append(int(row["coloring_psi"]))
    if row["adversary_verified"] == "true":
        uppers.append(int(row["adversary_psi"]))
    if floor > min(uppers):
        return f"certified floor {floor} above a verified upper bound {min(uppers)}"
    return None


def _hypercube_row(row: dict[str, str]) -> str | None:
    d = int(row["d"])
    lowers = [int(row["cert_lower"]), int(row["lower_ratio"])]
    uppers = [int(row["upper_dim"])]
    if int(row["upper_dim"]) != d:
        return "upper_dim differs from d"
    if row["coloring_psi_exact"] == "true":
        uppers.append(int(row["coloring_psi"]))
    if row["exact_f"]:
        uppers.append(int(row["exact_f"]))
        if row["exact_f_is_exact"] == "true":
            lowers.append(int(row["exact_f"]))
    if row["adversary_verified"] == "true":
        uppers.append(int(row["adversary_psi"]))
    if max(lowers) > min(uppers):
        return f"certified lower {max(lowers)} above a verified upper bound {min(uppers)}"
    return None


def trail_bound(g: Graph, rank) -> int:
    """Longest increasing trail, by one pass in rank order; bounds psi."""
    inverse = sorted(range(g.m), key=lambda e: rank[e])
    best = [0] * g.n
    for e in inverse:
        u, v = g.edges[e]
        best[u], best[v] = max(best[u], best[v] + 1), max(best[v], best[u] + 1)
    return max(best, default=0)


def brute_psi(g: Graph, rank) -> int:
    """Longest increasing path by plain enumeration (small graphs only)."""
    best = 0
    stack = [(v, 0, 1 << v, 0) for v in range(g.n)]
    while stack:
        v, last, seen, length = stack.pop()
        best = max(best, length)
        for w, e in g.adj[v]:
            if rank[e] > last and not seen >> w & 1:
                stack.append((w, rank[e], seen | 1 << w, length + 1))
    return best
