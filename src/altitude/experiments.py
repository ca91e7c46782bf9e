"""Experiment campaigns: the hypercube table and the random-graph sandwich.

Each row is recomputable from its own parameters and seed, and rows are
written in parameter order whichever process computed them, so reruns give
byte-identical CSV except for the wall-time column, which is always last.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from dataclasses import dataclass
from io import StringIO
from typing import Iterable, Sequence

from .adversary import upper_bound_report
from .bounds import gnp_certificate, gnp_threshold_p, hypercube_k
from .exactf import f_bounds_sandwich
from .graphs import SoundnessError, degree_stats, make_hypercube, sample_gnp
from .orderings import random_ordering
from .pedestrian import run_pedestrian, sqrt_degree_floor

SCHEMA_HYPERCUBE = "altitude/experiment-hypercube/1"
SCHEMA_GNP = "altitude/experiment-gnp/1"


@dataclass(frozen=True)
class ExperimentRow:
    """One campaign row: stable columns first, wall time last."""

    values: tuple[tuple[str, str], ...]
    wall_ms: int


def rows_to_csv(schema: str, header: Sequence[str], rows: Iterable[ExperimentRow]) -> str:
    """Render rows with a schema comment line; wall_ms is the final column."""
    out = StringIO()
    out.write(f"# schema={schema}\n")
    out.write(",".join(list(header) + ["wall_ms"]) + "\n")
    for row in rows:
        got = [k for k, _ in row.values]
        if got != list(header):
            raise ValueError(f"row columns {got} do not match header")
        out.write(",".join([v for _, v in row.values] + [str(row.wall_ms)]) + "\n")
    return out.getvalue()


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.6g}"
    if x is None:
        return ""
    return str(x)


# ----------------------------------------------------------------------
# Hypercube campaign
# ----------------------------------------------------------------------

HYPERCUBE_HEADER = (
    "d",
    "n",
    "m",
    "lower_ratio",
    "upper_dim",
    "coloring_psi",
    "coloring_psi_exact",
    "cert_lower",
    "exact_f",
    "exact_f_is_exact",
    "adversary_psi",
    "adversary_verified",
)


def _hypercube_row(d: int) -> ExperimentRow:
    t0 = time.perf_counter()
    g = make_hypercube(d)
    # The sandwich's psi is the dimension ordering's, unbudgeted and
    # verified; no anneal, as its trail d = 2m/n is the annealer's floor.
    # Where the bracket closes, f is exact and no adversary is needed.
    s = f_bounds_sandwich(g)
    closed = s.lower == s.upper
    vals = (
        ("d", _fmt(d)),
        ("n", _fmt(g.n)),
        ("m", _fmt(g.m)),
        ("lower_ratio", _fmt(hypercube_k(d))),
        ("upper_dim", _fmt(d)),
        ("coloring_psi", _fmt(s.upper)),
        ("coloring_psi_exact", _fmt(True)),
        ("cert_lower", _fmt(s.lower)),
        ("exact_f", _fmt(s.upper if closed else None)),
        ("exact_f_is_exact", _fmt(True if closed else None)),
        ("adversary_psi", _fmt(None if closed else s.upper)),
        ("adversary_verified", _fmt(None if closed else True)),
    )
    ms = int((time.perf_counter() - t0) * 1000)
    return ExperimentRow(vals, ms)


def experiment_hypercube(d_max: int) -> str:
    """One row per dimension 2..d_max; returns the CSV text."""
    if d_max < 2:
        raise ValueError("d_max must be at least 2")
    rows = [_hypercube_row(d) for d in range(2, d_max + 1)]
    return rows_to_csv(SCHEMA_HYPERCUBE, HYPERCUBE_HEADER, rows)


# ----------------------------------------------------------------------
# G(n, p) campaign
# ----------------------------------------------------------------------

GNP_HEADER = (
    "n",
    "p",
    "trial",
    "seed",
    "m",
    "delta_plus_1",
    "coloring_psi",
    "coloring_psi_exact",
    "adversary_psi",
    "adversary_verified",
    "pedestrian_max",
    "sqrt_floor",
    "floor_ok",
    "gnp_k",
    "union_exponent",
    "union_negative",
)


def _gnp_row(
    n: int, p: float, trial: int, row_seed: int, omega: float, eps: float, psi_budget: int
) -> ExperimentRow:
    t0 = time.perf_counter()
    g = sample_gnp(n, p, row_seed)
    stats = degree_stats(g)
    delta1 = stats.max_degree + 1

    rep = upper_bound_report(g, seed=row_seed, steps=800, restarts=1, psi_budget=psi_budget)
    _, col_psi, col_exact = rep.strategies[0]
    ped_max = run_pedestrian(g, random_ordering(g, row_seed)).max_path_edges
    floor = sqrt_degree_floor(g)
    if ped_max < floor:
        raise SoundnessError(f"pedestrian floor violated on n={n} seed={row_seed}")

    kval, ub = gnp_certificate(n, p, omega, eps) if p > 0 and n >= 2 else (0, None)
    exponent, negative = (None, None) if ub is None else (ub.exponent, ub.certifies)

    vals = (
        ("n", _fmt(n)),
        ("p", _fmt(p)),
        ("trial", _fmt(trial)),
        ("seed", _fmt(row_seed)),
        ("m", _fmt(g.m)),
        ("delta_plus_1", _fmt(delta1)),
        ("coloring_psi", _fmt(col_psi)),
        ("coloring_psi_exact", _fmt(col_exact)),
        ("adversary_psi", _fmt(rep.best_psi)),
        ("adversary_verified", _fmt(rep.verified)),
        ("pedestrian_max", _fmt(ped_max)),
        ("sqrt_floor", _fmt(floor)),
        ("floor_ok", _fmt(ped_max >= floor)),
        ("gnp_k", _fmt(kval)),
        ("union_exponent", _fmt(exponent)),
        ("union_negative", _fmt(negative)),
    )
    ms = int((time.perf_counter() - t0) * 1000)
    return ExperimentRow(vals, ms)


# On a 2-core host, forking one process with its pipes and reaping it costs
# ~2.3 ms, and a row expected to have 100 edges takes 9-14 ms.  Two rows of
# ~60 expected edges already finish sooner forked (15-17 ms against 17-23 ms
# in this process), and rows of 36-47 break even.  100 is kept: rows
# between 60 and 100 edges gain a few ms, within the host's run-to-run
# noise, and no benchmarked campaign has one.
POOL_MIN_EDGES = 100


def _expected_edges(n: int, p: float) -> float:
    return p * n * (n - 1) / 2


def _usable_cpus() -> int:
    """The CPUs rows may run on: this process's affinity mask where the OS
    has one, and this process's CPU alone where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def experiment_gnp(
    n_list: Sequence[int],
    p: float | None,
    omega: float,
    eps: float,
    trials: int,
    seed: int = 0,
    psi_budget: int = 200000,
    workers: int | None = None,
) -> str:
    """Rows over n_list x trials; p=None applies the threshold density rule,
    capped at 1.  An explicit p must lie in [0, 1].

    When at least two rows are expected to have ``POOL_MIN_EDGES`` edges or
    more and this process may use at least two CPUs, the rows run on
    min(those rows, usable CPUs) processes: this one computes rows too and
    forks the others (``_pooled_rows``).  Each takes the largest expected
    edge count left, so that no large row starts last.  ``workers`` caps
    the process count, this one included (None: no cap; below 2: no fork).
    Otherwise every row runs in this process and none is forked.  The
    hypercube campaign forks none: it runs no anneal, so a row to d = 6
    takes less than a process costs to start.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not n_list:
        raise ValueError("n_list must name at least one n")
    if p is not None and not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0,1], got {p}")
    params = []
    for n in n_list:
        pn = min(gnp_threshold_p(n, omega), 1.0) if p is None else p
        for t in range(trials):
            params.append((n, pn, t, seed + 1000003 * len(params), omega, eps, psi_budget))
    large = sum(_expected_edges(n, pn) >= POOL_MIN_EDGES for n, pn, *_ in params)
    procs = min(large, _usable_cpus(), large if workers is None else workers)
    if procs < 2:
        rows = [_gnp_row(*args) for args in params]
    else:
        rows = _pooled_rows(params, procs)
    return rows_to_csv(SCHEMA_GNP, GNP_HEADER, rows)


def _pooled_rows(params: list[tuple], procs: int) -> list[ExperimentRow]:
    """``_gnp_row`` over params on this process and ``procs - 1`` forked
    ones; the rows come back in params order.

    Each process claims one row at a time, largest expected edge count
    first, so that no large row starts last, until none is left.  The
    claims come from one counter that a pipe carries as its only message:
    a process reads it, which makes the others wait, and writes it back
    plus one.  A process keeps claiming after a row fails in it, but skips
    the rows after its first failure in params order.  So every row before
    the first failing one in params order is computed, and that failure is
    raised, as it would be serially.  A child pickles its rows and its
    failure to a pipe of its own and exits.  Every child is reaped, and
    killed first if this process stops on an interrupt or an error.  A
    child that exits without reporting raises ChildProcessError.  Children
    are forked, not spawned: a spawned one would start an interpreter and
    import the package, which costs about as much as a campaign row.  The
    package starts no thread, so forking it is safe.
    """
    order = sorted(range(len(params)), key=lambda i: -_expected_edges(*params[i][:2]))
    counter = os.pipe()
    os.write(counter[1], (0).to_bytes(8, "little"))
    children: dict[int, int] = {}  # pid: read end of its result pipe
    reports = []
    done = False
    try:
        for _ in range(procs - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: report and exit, whatever happens
                status = 1
                try:
                    os.close(r)
                    with open(w, "wb") as out:
                        pickle.dump(_claim_rows(params, order, counter), out)
                    status = 0
                finally:
                    os._exit(status)
            os.close(w)
            children[pid] = r
        rows, failure = _claim_rows(params, order, counter)
        for r in children.values():
            with open(r, "rb", closefd=False) as f:
                reports.append(f.read())
        done = True
    finally:
        for pid, r in children.items():
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.close(r)
        codes = [(pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])) for pid in children]
        os.close(counter[0])
        os.close(counter[1])
    for pid, code in codes:
        if code != 0:
            raise ChildProcessError(f"row process {pid} exited with status {code} "
                                    "before reporting its rows")
    for more, other in map(pickle.loads, reports):
        rows.update(more)
        if other is not None and (failure is None or other[0] < failure[0]):
            failure = other
    if failure is not None:
        raise failure[1]
    return [rows[i] for i in range(len(params))]


def _claim_rows(
    params: list[tuple], order: list[int], counter: tuple[int, int]
) -> tuple[dict[int, ExperimentRow], tuple[int, Exception] | None]:
    """The rows this process claims through the ``counter`` pipe, by params
    index, and its failing row first in params order, as (index, exception)."""
    rows = {}
    failure = None
    while True:
        at = int.from_bytes(os.read(counter[0], 8), "little")
        os.write(counter[1], (at + 1).to_bytes(8, "little"))
        if at >= len(order):
            return rows, failure
        i = order[at]
        if failure is not None and i > failure[0]:
            continue
        try:
            rows[i] = _gnp_row(*params[i])
        except Exception as exc:  # reported by _pooled_rows if first in params order
            failure = (i, exc)
