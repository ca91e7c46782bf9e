"""Heuristic ordering search: upper-bound witnesses for the altitude.

Any explicit ordering certifies f(G) <= psi(G, phi), and even its increasing
trail length is a certificate since paths are trails.  The annealer walks
over rank swaps scoring moves by the O(m) trail value, and confirms
improvements with the exact path search so no surrogate value is ever
reported as psi.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .graphs import Graph, SoundnessError, hypercube_dimension
from .orderings import (
    EdgeOrdering,
    coloring_ordering,
    greedy_edge_coloring,
    hypercube_dimension_coloring,
    random_ordering,
)
from .paths import _trail_sweep, longest_increasing_path
from .pedestrian import sqrt_degree_floor


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling: temperature = t0 * decay ** (step // moves_per_level).

    t0=None calibrates the start so a median uphill move is accepted with
    probability about one half; moves_per_level=None uses 100 * m.  Raises
    ValueError unless 0 < decay <= 1, moves_per_level >= 1 and t0 >= 0, so
    the temperature can neither grow nor overflow.
    """

    t0: float | None = None
    decay: float = 0.95
    moves_per_level: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.decay <= 1:
            raise ValueError(f"schedule decay must lie in (0, 1], got {self.decay}")
        if self.moves_per_level is not None and not self.moves_per_level >= 1:
            raise ValueError(f"schedule moves must be at least 1, got {self.moves_per_level}")
        if self.t0 is not None and not self.t0 >= 0:
            raise ValueError(f"schedule t0 must be at least 0, got {self.t0}")


@dataclass(frozen=True)
class SearchTrace:
    """Annealing outcome; best_psi never increases along best_history."""

    iterations: int
    best_psi: int
    best_ordering: EdgeOrdering
    verified: bool
    best_history: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class UpperBoundReport:
    best_psi: int
    witness: EdgeOrdering
    verified: bool
    strategies: tuple[tuple[str, int, bool], ...]


def _verified_psi(g: Graph, ordering: EdgeOrdering, budget: int | None) -> int | None:
    res = longest_increasing_path(g, ordering, budget=budget)
    return res.length if res.exact else None


def local_search_min_psi(
    g: Graph,
    init: EdgeOrdering,
    steps: int,
    seed: int,
    schedule: AnnealSchedule | None = None,
    psi_budget: int | None = 500000,
) -> SearchTrace:
    """Simulated annealing over rank swaps, minimizing the ordering's value.

    Moves swap the ranks of two edges.  The Metropolis rule runs on the
    trail surrogate; whenever the surrogate drops below the best seen, the
    exact path value is computed and, when the computation completes, the
    incumbent is updated.  The returned best_psi is an exact psi whenever
    ``verified`` is True, otherwise a trail value (still an upper bound).
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    if init.m != g.m:
        raise ValueError("initial ordering does not match the graph")
    m = g.m
    sched = schedule or AnnealSchedule()
    rng = random.Random(seed)

    inverse = list(init.inverse)
    rank = list(init.rank)

    def swap(a: int, b: int) -> None:  # swap the ranks of edges a and b; its own undo
        ra, rb = rank[a], rank[b]
        rank[a], rank[b] = rb, ra
        inverse[ra - 1], inverse[rb - 1] = b, a

    cur_obj = max(_trail_sweep(g, inverse))

    best_ord = init
    exact0 = _verified_psi(g, init, psi_budget)
    verified = exact0 is not None
    best_psi = exact0 if exact0 is not None else cur_obj
    best_surrogate = cur_obj
    history = [(0, best_psi)]

    if m < 2 or steps <= 0:
        return SearchTrace(0, best_psi, best_ord, verified, tuple(history))

    moves_per_level = sched.moves_per_level or 100 * m
    t0 = sched.t0
    if t0 is None:
        # Probe uphill deltas from the start point to aim at ~0.5 acceptance.
        deltas = []
        for _ in range(20):
            a, b = rng.sample(range(m), 2)
            swap(a, b)
            d = max(_trail_sweep(g, inverse)) - cur_obj
            swap(a, b)
            if d > 0:
                deltas.append(d)
        t0 = (sum(deltas) / len(deltas)) / math.log(2) if deltas else 1.0

    for step in range(1, steps + 1):
        temp = t0 * sched.decay ** ((step - 1) // moves_per_level)
        a, b = rng.sample(range(m), 2)
        swap(a, b)
        new_obj = max(_trail_sweep(g, inverse))
        delta = new_obj - cur_obj
        accept = delta <= 0 or (temp > 0 and rng.random() < math.exp(-delta / temp))
        if not accept:
            swap(a, b)
            continue
        cur_obj = new_obj
        if new_obj < best_surrogate:
            best_surrogate = new_obj
            candidate = EdgeOrdering(tuple(rank))
            exact = _verified_psi(g, candidate, psi_budget)
            value = exact if exact is not None else new_obj
            if value < best_psi or (exact is not None and not verified and value <= best_psi):
                best_psi = value
                best_ord = candidate
                verified = exact is not None
                history.append((step, best_psi))

    return SearchTrace(steps, best_psi, best_ord, verified, tuple(history))


def upper_bound_report(
    g: Graph,
    seed: int = 0,
    steps: int = 2000,
    restarts: int = 2,
    psi_budget: int | None = 500000,
) -> UpperBoundReport:
    """Least verified ordering value over the coloring, random and annealed orderings.

    The first entry, ``coloring``, ranks the classes of a proper edge
    coloring in blocks, so an increasing path uses at most one edge per
    class and its value is at most the class count.  The coloring is the
    dimension coloring (d classes) on a canonically labelled Q_d and the
    Misra-Gries coloring (at most max_degree + 1 classes) on any other
    graph.  Its value is the verified psi, or the trail length when the
    psi budget runs out.  Then come ``restarts`` random orderings and
    ``restarts`` anneals from the coloring ordering; they only ever lower
    the report.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    if g.m == 0:
        ident = EdgeOrdering(())
        return UpperBoundReport(0, ident, True, (("coloring", 0, True),))
    entries: list[tuple[str, int, bool, EdgeOrdering]] = []

    def add(label: str, ordering: EdgeOrdering) -> None:
        exact = _verified_psi(g, ordering, psi_budget)
        if exact is not None:
            entries.append((label, exact, True, ordering))
        else:
            entries.append((label, max(_trail_sweep(g, ordering.inverse)), False, ordering))

    if hypercube_dimension(g) is not None:
        coloring = hypercube_dimension_coloring(g)
    else:
        coloring = greedy_edge_coloring(g)
    base = coloring_ordering(g, coloring, seed)
    add("coloring", base)
    for i in range(restarts):
        add(f"random-{i}", random_ordering(g, seed + 7919 * (i + 1)))
    for i in range(restarts):
        trace = local_search_min_psi(
            g, base, steps, seed + 104729 * (i + 1), psi_budget=psi_budget
        )
        entries.append((f"anneal-{i}", trace.best_psi, trace.verified, trace.best_ordering))

    # Prefer verified values at equal bound.
    label, value, ver, witness = min(entries, key=lambda t: (t[1], not t[2]))
    floor = sqrt_degree_floor(g)
    if value < floor:
        raise SoundnessError(f"upper-bound witness {value} below the universal floor {floor}")
    return UpperBoundReport(value, witness, ver, tuple((l, v, e) for l, v, e, _ in entries))
