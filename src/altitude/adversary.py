"""Heuristic ordering search: upper-bound witnesses for the altitude.

Any explicit ordering certifies f(G) <= psi(G, phi), and even its increasing
trail length is a certificate since paths are trails.  The annealer walks
over rank swaps scoring moves by the trail value, and confirms improvements
with the exact path search so no surrogate value is ever reported as psi.
One function sweeps rank blocks into the trail sweep's snapshots, forward
up to a middle cut and in reverse down to it: every block at the start, and
for a move only the blocks between the swapped ranks and the cut.  A
re-sweep stops early once it has passed the swapped blocks on its side of
the cut and its state equals the stored snapshot there: every later
snapshot, and so the value, is then as stored.

No ordering's trail value lies below ceil(2m/n) (Graham and Kleitman,
1973): relaxing an edge (u, v) raises best[u] + best[v] by at least 2, so
the sweep ends with sum(best) >= 2m over n vertices.  Once the annealer's
best trail value reaches that floor no move can pass its test for a psi
check, so it stops there, and at once when the start ordering is already
at the floor (the dimension ordering of Q_d has trail d = 2m/n).  The
result is the full run's, and ``iterations`` still reports the step budget.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import add
from typing import Callable

from .graphs import Graph, SoundnessError, hypercube_dimension
from .orderings import (
    EdgeOrdering,
    coloring_ordering,
    greedy_edge_coloring,
    hypercube_dimension_coloring,
)
from .paths import _trail_sweep, longest_increasing_path
from .pedestrian import sqrt_degree_floor


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


def _psi_or_trail(g: Graph, ordering: EdgeOrdering, budget: int | None) -> tuple[int, bool]:
    """(psi, True) when the path search settles within ``budget``, else
    (the trail value, False): an upper bound on psi either way."""
    res = longest_increasing_path(g, ordering, budget=budget)
    if res.exact:
        return res.length, True
    return max(_trail_sweep(g, [g.edges[e] for e in ordering.inverse])), False


def _sample_pair(randrange: Callable[[int], int], m: int) -> tuple[int, int]:
    """random.sample(range(m), 2) for m >= 2, draw for draw from ``randrange``.

    It takes the same draws as ``sample`` and so leaves the generator in the
    same state, without ``sample``'s per-call checks and set.  It mirrors
    CPython's ``sample`` for k = 2, which keeps a pool list up to 21 items
    and a set of picks above; tests compare the two draw by draw.
    """
    a = randrange(m)
    if m > 21:  # sample's set branch: redraw until distinct
        b = randrange(m)
        while b == a:
            b = randrange(m)
        return a, b
    b = randrange(m - 1)  # its pool branch: the last item moved into a's slot
    return a, (m - 1 if b == a else b)


def local_search_min_psi(
    g: Graph,
    init: EdgeOrdering,
    steps: int,
    seed: int,
    psi_budget: int | None = 500000,
) -> SearchTrace:
    """Simulated annealing over rank swaps, minimizing the ordering's value.

    Moves swap the ranks of two edges, drawn as ``random.sample`` would.
    The Metropolis rule runs on the trail surrogate at a temperature that
    starts where 20 probe moves put it (a mean uphill move is accepted with
    probability one half) and falls by a factor of 0.95 every 100 * m moves.
    A move recomputes the surrogate from block snapshots of the trail sweep
    split at a middle rank cut (see the comment in ``_anneal``).  Whenever
    the surrogate drops below the best seen, the exact path value is
    computed and, when the computation completes, the incumbent is updated.
    The returned best_psi is an exact psi whenever ``verified`` is True,
    otherwise a trail value (still an upper bound).

    Every trail value is at least ceil(2m/n), since each edge relaxation
    raises the sweep's sum(best) by at least 2.  So the search returns as
    soon as its best trail value reaches that floor, or at once when the
    start ordering is there: no later move could trigger a psi check.  The
    trace is the full run's, with ``iterations`` still ``steps``.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    if init.m != g.m:
        raise ValueError("initial ordering does not match the graph")
    return _anneal(g, init, _psi_or_trail(g, init, psi_budget), steps, seed, psi_budget)


def _anneal(
    g: Graph,
    init: EdgeOrdering,
    start: tuple[int, bool],
    steps: int,
    seed: int,
    psi_budget: int | None,
) -> SearchTrace:
    """local_search_min_psi on a checked ``init`` whose ``_psi_or_trail``
    value is ``start``, so a caller that has scored it does not again."""
    m = g.m
    rng = random.Random(seed)
    rank = list(init.rank)

    best_ord = init
    best_psi, verified = start
    history = [(0, best_psi)]

    if m < 2 or steps <= 0:
        return SearchTrace(0, best_psi, best_ord, verified, tuple(history))

    # Split every increasing trail at the rank cut q = c * size: its part
    # below q ends at some x where its part from q on starts, so the trail
    # value is max over x of F_x + S_x, with F the forward sweep's best[]
    # over positions < q and S the reverse sweep's over positions >= q.
    # fwd[k] (k <= c) holds the forward best[] over the first k blocks and
    # bwd[k] (k >= c) the reverse best[] over blocks k and up.  Swapping the
    # positions i < j changes neither fwd[k] for k * size <= i nor bwd[k]
    # for k * size > j, so a move re-sweeps only the blocks from i's up to
    # the cut and from j's down to it.  Once a forward re-sweep has passed
    # the last edited block below the cut, a state equal to the stored one
    # leaves every later one as it was, so it stops there; so does the
    # reverse re-sweep below the first edited block above the cut.
    # blocks[k] holds block k's endpoint pairs in rank order.
    size = 2 * math.isqrt(m)
    nblocks = -(-m // size)
    c = nblocks // 2
    ends = g.edges
    blocks = [[ends[e] for e in init.inverse[k * size : (k + 1) * size]] for k in range(nblocks)]

    def swap(a: int, b: int) -> tuple[int, int]:
        """Swap the ranks of edges a and b, its own undo; return the two
        blocks it edited, the lower first."""
        ra, rb = rank[a], rank[b]
        rank[a], rank[b] = rb, ra
        ka, kb = (ra - 1) // size, (rb - 1) // size
        blocks[ka][ra - 1 - ka * size] = ends[b]
        blocks[kb][rb - 1 - kb * size] = ends[a]
        return (ka, kb) if ka < kb else (kb, ka)  # not min/max: per-move cost

    def resweep(i: int, j: int) -> tuple[int, list, list]:
        """The trail value after edits in blocks i <= j, with the snapshots
        that changed: new_f for fwd[i + 1:], new_b for bwd[j], bwd[j - 1],
        and down; fwd and bwd themselves stay as they are."""
        new_f = []
        last = j if j < c else i
        f = fwd[i if i < c else c]
        for k in range(i, c):
            f = _trail_sweep(g, blocks[k], None, f[:])
            if k >= last and f == fwd[k + 1]:
                f = fwd[c]
                break
            new_f.append(f)
        new_b = []
        first = i if i >= c else j
        s = bwd[j + 1 if j >= c else c]
        for k in range(j, c - 1, -1):
            s = _trail_sweep(g, reversed(blocks[k]), None, s[:])
            if k <= first and s == bwd[k]:
                s = bwd[c]
                break
            new_b.append(s)
        return max(map(add, f, s)), new_f, new_b

    # The start snapshots are one re-sweep of every block: no swept state
    # equals None, so neither side stops early.  bwd[:c] stays unused.
    fwd = [[0] * g.n] + [None] * c
    bwd = [None] * nblocks + [[0] * g.n]
    cur_obj, new_f, new_b = resweep(0, nblocks - 1)
    fwd[1:] = new_f
    bwd[c:nblocks] = new_b[::-1]
    best_surrogate = cur_obj
    floor = -(-2 * m // g.n)
    if best_surrogate == floor:
        return SearchTrace(steps, best_psi, best_ord, verified, tuple(history))

    randrange = rng.randrange
    # Probe uphill deltas from the start point to aim at ~0.5 acceptance.
    deltas = []
    for _ in range(20):
        a, b = _sample_pair(randrange, m)
        d = resweep(*swap(a, b))[0] - cur_obj
        swap(a, b)
        if d > 0:
            deltas.append(d)
    t0 = (sum(deltas) / len(deltas)) / math.log(2) if deltas else 1.0
    moves_per_level = 100 * m

    for step in range(1, steps + 1):
        a, b = _sample_pair(randrange, m)
        i, j = swap(a, b)
        new_obj, new_f, new_b = resweep(i, j)
        delta = new_obj - cur_obj
        if delta > 0:  # uphill: the Metropolis rule at this step's temperature
            temp = t0 * 0.95 ** ((step - 1) // moves_per_level)
            if not (temp > 0 and rng.random() < math.exp(-delta / temp)):
                swap(a, b)
                continue
        fwd[i + 1 : i + 1 + len(new_f)] = new_f
        bwd[j + 1 - len(new_b) : j + 1] = new_b[::-1]
        cur_obj = new_obj
        if new_obj < best_surrogate:
            if new_obj < floor:
                raise SoundnessError(f"re-swept trail value {new_obj} below the floor {floor}")
            best_surrogate = new_obj
            candidate = EdgeOrdering(tuple(rank))
            value, exact = _psi_or_trail(g, candidate, psi_budget)
            if value < best_psi or (exact and not verified and value <= best_psi):
                best_psi, best_ord, verified = value, candidate, exact
                history.append((step, best_psi))
            if best_surrogate == floor:
                break

    return SearchTrace(steps, best_psi, best_ord, verified, tuple(history))


def upper_bound_report(
    g: Graph,
    seed: int = 0,
    steps: int = 2000,
    restarts: int = 2,
    psi_budget: int | None = 500000,
) -> UpperBoundReport:
    """Least ordering value over the coloring ordering and anneals from it.

    The first entry, ``coloring``, ranks the classes of a proper edge
    coloring in blocks, so an increasing path uses at most one edge per
    class and its value is at most the class count.  The coloring is the
    dimension coloring (d classes) on a canonically labelled Q_d and the
    Misra-Gries coloring (at most max_degree + 1 classes) on any other
    graph.  Its value is the verified psi, or the trail length when the
    psi budget runs out.  Then come ``restarts`` anneals from the coloring
    ordering; they only ever lower the report.  Raises ValueError on a
    negative ``restarts``.  ``exactf.f_bounds_sandwich`` takes the coloring
    entry, with no anneal and no psi budget, as its upper bound and as the
    incumbent of the exact search.
    """
    if g.n == 0:
        raise ValueError("graph has no vertices")
    if restarts < 0:
        raise ValueError(f"restarts must be non-negative, got {restarts}")
    if g.m == 0:
        ident = EdgeOrdering(())
        return UpperBoundReport(0, ident, True, (("coloring", 0, True),))
    if hypercube_dimension(g) is not None:
        coloring = hypercube_dimension_coloring(g)
    else:
        coloring = greedy_edge_coloring(g)
    base = coloring_ordering(g, coloring, seed)
    start = _psi_or_trail(g, base, psi_budget)
    entries = [("coloring", *start, base)]
    for i in range(restarts):
        trace = _anneal(g, base, start, steps, seed + 104729 * (i + 1), psi_budget)
        entries.append((f"anneal-{i}", trace.best_psi, trace.verified, trace.best_ordering))

    # Prefer verified values at equal bound.
    label, value, ver, witness = min(entries, key=lambda t: (t[1], not t[2]))
    floor = sqrt_degree_floor(g)
    if value < floor:
        raise SoundnessError(f"upper-bound witness {value} below the universal floor {floor}")
    return UpperBoundReport(value, witness, ver, tuple((l, v, e) for l, v, e, _ in entries))
