"""Acceptance battery: nine maximally verifiable end-to-end checks.

Each test prints one `acceptance N: PASS/FAIL - label` line (visible even
under captured output) and then asserts, so a red run still shows the full
scoreboard.  Criteria with wall-clock budgets measure and enforce them.
"""

from __future__ import annotations

import time

import pytest

from altitude.bounds import (
    gnp_k,
    gnp_union_bound_log,
    graham_kleitman,
    sweep_inequality_6,
)
from altitude.density import hypercube_zeta_bound_check, rodl_criterion, zeta_exact
from altitude.exactf import exact_f, f_bounds_sandwich
from altitude.experiments import experiment_gnp, experiment_hypercube
from altitude.graphs import (
    Graph,
    degree_stats,
    make_complete,
    make_cycle,
    make_hypercube,
    make_matching,
    make_path,
    make_star,
)
from altitude.orderings import (
    EdgeOrdering,
    coloring_ordering,
    greedy_edge_coloring,
    hypercube_dimension_coloring,
    identity_ordering,
    random_ordering,
)
from altitude.paths import longest_increasing_path, longest_increasing_trail, verify_witness
from altitude.pedestrian import (
    check_invariants,
    run_pedestrian,
    sqrt_degree_floor,
    verify_counting,
    verify_coverage,
)
from corpus import random_graphs, random_instances
from oracles import brute_f, brute_psi


def _report(capsys: pytest.CaptureFixture[str], num: int, ok: bool, label: str) -> None:
    with capsys.disabled():
        print(f"acceptance {num}: {'PASS' if ok else 'FAIL'} - {label}")


@pytest.fixture(scope="module")
def suite() -> list[tuple[Graph, EdgeOrdering]]:
    """Shared instance pool: 520 seeded random pairs plus structured families."""
    inst = list(random_instances(260, 2, 10, seed=31))
    inst += random_instances(260, 8, 30, seed=32, m_max=64)
    for d in range(1, 7):
        g = make_hypercube(d)
        inst.append((g, identity_ordering(g)))
        inst.append((g, random_ordering(g, seed=d)))
    for n in range(2, 9):
        g = make_complete(n)
        inst.append((g, identity_ordering(g)))
        inst.append((g, random_ordering(g, seed=n)))
    return inst


def test_criterion_1_forced_instances(capsys: pytest.CaptureFixture[str]) -> None:
    t0 = time.perf_counter()
    cases: list[tuple[str, Graph, int]] = [
        ("triangle", make_complete(3), 2),
        ("4-cycle", make_cycle(4), 2),
        ("2-edge path", make_path(3), 2),
        ("matching-1", make_matching(1), 1),
        ("matching-3", make_matching(3), 1),
    ]
    cases += [(f"star-{m}", make_star(m), 2) for m in range(2, 7)]
    failures = []
    for name, g, want in cases:
        got = exact_f(g)
        enumerated = brute_f(g)
        if not (got.exact and got.value == want == enumerated):
            failures.append(f"{name}: exact={got.value} enumerated={enumerated} want={want}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _report(capsys, 1, not failures, f"forced values match full enumeration ({elapsed:.2f}s)")
    assert not failures, failures


def test_criterion_2_small_brackets(capsys: pytest.CaptureFixture[str]) -> None:
    failures = []
    t0 = time.perf_counter()
    k4 = f_bounds_sandwich(make_complete(4))
    t_k4 = time.perf_counter() - t0
    if not (2 <= k4.lower <= k4.upper <= 3):
        failures.append(f"K_4 bracket [{k4.lower}, {k4.upper}] escapes [2, 3]")
    if t_k4 >= 10.0:
        failures.append(f"K_4 took {t_k4:.2f}s, budget 10s")
    t0 = time.perf_counter()
    q3 = f_bounds_sandwich(make_hypercube(3))
    t_q3 = time.perf_counter() - t0
    if not (2 <= q3.lower <= q3.upper <= 3):
        failures.append(f"Q_3 bracket [{q3.lower}, {q3.upper}] escapes [2, 3]")
    if t_q3 >= 600.0:
        failures.append(f"Q_3 took {t_q3:.2f}s, budget 600s")
    label = f"K_4 in [{k4.lower}, {k4.upper}] ({t_k4:.2f}s), Q_3 in [{q3.lower}, {q3.upper}] ({t_q3:.2f}s)"
    _report(capsys, 2, not failures, label)
    assert not failures, failures


def test_criterion_3_pedestrian_battery(
    capsys: pytest.CaptureFixture[str], suite: list[tuple[Graph, EdgeOrdering]]
) -> None:
    failures = []
    randoms = sum(1 for g, _ in suite if g.n <= 30)
    if len(suite) < 500 or randoms < 500:
        failures.append(f"only {len(suite)} instances")
    for idx, (g, phi) in enumerate(suite):
        try:
            t = run_pedestrian(g, phi)
            check_invariants(g, phi, t)
        except ValueError as exc:
            failures.append(f"instance {idx}: {exc}")
            continue
        if not verify_coverage(g, t).ok:
            failures.append(f"instance {idx}: an edge is walked by neither endpoint pedestrian")
        if not verify_counting(g, t).holds:
            failures.append(f"instance {idx}: counting inequality fails")
        for e in range(g.m):
            if sum(1 for w in t.walks if e in w) not in (0, 2):
                failures.append(f"instance {idx}: edge {e} membership parity")
                break
        if t.max_path_edges < sqrt_degree_floor(g):
            failures.append(f"instance {idx}: max path below sqrt-degree floor")
    _report(capsys, 3, not failures, f"pedestrian invariants on {len(suite)} instances, 0 violations")
    assert not failures, failures[:10]


def test_criterion_4_path_trail_consistency(
    capsys: pytest.CaptureFixture[str], suite: list[tuple[Graph, EdgeOrdering]]
) -> None:
    failures = []
    enumerated = 0
    for idx, (g, phi) in enumerate(suite):
        p = longest_increasing_path(g, phi)
        tr = longest_increasing_trail(g, phi)
        if not p.exact:
            failures.append(f"instance {idx}: path search inexact without a budget")
        if p.length > tr.length:
            failures.append(f"instance {idx}: path {p.length} exceeds trail {tr.length}")
        if g.n > 0 and tr.length < -(-2 * g.m // g.n):
            failures.append(f"instance {idx}: trail below 2m/n floor")
        if g.m <= 8:
            enumerated += 1
            if p.length != brute_psi(g, phi):
                failures.append(f"instance {idx}: path disagrees with exhaustive enumeration")
    if enumerated < 100:
        failures.append(f"only {enumerated} instances small enough for full enumeration")
    label = f"path <= trail, trail >= ceil(2m/n) on {len(suite)} instances, {enumerated} enumerated exactly"
    _report(capsys, 4, not failures, label)
    assert not failures, failures[:10]


def test_criterion_5_coloring_caps(capsys: pytest.CaptureFixture[str]) -> None:
    failures = []
    t0 = time.perf_counter()
    for d in range(2, 9):
        g = make_hypercube(d)
        phi = coloring_ordering(g, hypercube_dimension_coloring(g), seed=d)
        tr = longest_increasing_trail(g, phi)
        try:
            verify_witness(g, phi, tr)
        except ValueError as exc:
            failures.append(f"Q_{d}: witness rejected: {exc}")
        if tr.length > d:
            failures.append(f"Q_{d}: trail {tr.length} exceeds dimension count")
    for g in random_graphs(200, 2, 30, seed=77):
        col = greedy_edge_coloring(g)
        delta = max(len(nbrs) for nbrs in g.adj)
        if col.num_colors > delta + 1:
            failures.append(f"{g.n} vertices: {col.num_colors} classes exceed max degree + 1")
        p = longest_increasing_path(g, coloring_ordering(g, col, seed=1))
        if not p.exact or p.length > col.num_colors:
            failures.append(f"{g.n} vertices: psi {p.length} exceeds {col.num_colors} classes")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f}s, budget 30s")
    label = f"class-blocked orderings cap psi on Q_2..Q_8 and 200 random graphs ({elapsed:.2f}s)"
    _report(capsys, 5, not failures, label)
    assert not failures, failures[:10]


def test_criterion_6_densest_subset_grid(capsys: pytest.CaptureFixture[str]) -> None:
    failures = []
    t0 = time.perf_counter()
    grid = [(d, k) for d in range(1, 5) for k in range(2, min(12, 1 << d) + 1)]
    grid += [(5, k) for k in range(2, 9)]
    values: dict[tuple[int, int], int] = {}
    for d, k in grid:
        r = zeta_exact(make_hypercube(d), k)
        values[(d, k)] = r.value
        if not r.exact:
            failures.append(f"zeta_{k}(Q_{d}) inexact")
        if not hypercube_zeta_bound_check(k, r.value):
            failures.append(f"zeta_{k}(Q_{d}) = {r.value} breaks the k*log2(k)/2 cap")
    # the cap is tight at k = 2 everywhere and at (d, k) = (3, 4)
    for (d, k), z in values.items():
        if k == 2 and 4**z != k**k:
            failures.append(f"zeta_2(Q_{d}) = {z} not tight")
    if 4 ** values[(3, 4)] != 4**4:
        failures.append(f"zeta_4(Q_3) = {values[(3, 4)]} not tight")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.2f}s, budget 300s")
    label = f"{len(grid)} exact densest-subset values within the cap ({elapsed:.2f}s)"
    _report(capsys, 6, not failures, label)
    assert not failures, failures[:10]


def test_criterion_7_density_criterion_soundness(capsys: pytest.CaptureFixture[str]) -> None:
    failures = []
    pool = [g for g in random_graphs(60, 2, 6, seed=99, m_max=6) if degree_stats(g).connected]
    pool += [make_complete(3), make_complete(4), make_path(4), make_star(4), make_cycle(5)]
    fired = 0
    for g in pool:
        truth = exact_f(g).value
        for k in range(2, g.n + 1):
            z = zeta_exact(g, k).value
            if rodl_criterion(g, k, z):
                fired += 1
                if truth < k:
                    failures.append(f"criterion claims f >= {k} but f = {truth} (n={g.n}, m={g.m})")
    if fired == 0:
        failures.append("criterion never fired on the corpus")
    for d in (5, 6, 7):
        z3 = zeta_exact(make_hypercube(d), 3)
        if not z3.exact or z3.value != 2:
            failures.append(f"zeta_3(Q_{d}) = {z3.value}, expected 2")
        elif not rodl_criterion(make_hypercube(d), 3, z3.value):
            failures.append(f"criterion fails to certify f(Q_{d}) >= 3")
    label = f"density criterion sound on {len(pool)} graphs ({fired} firings), certifies f(Q_5..Q_7) >= 3"
    _report(capsys, 7, not failures, label)
    assert not failures, failures[:10]


def test_criterion_8_closed_form_bounds(capsys: pytest.CaptureFixture[str]) -> None:
    failures = []
    if graham_kleitman(3) != (1.0, 2.25):
        failures.append(f"complete-graph bracket at n=3: {graham_kleitman(3)}")
    if graham_kleitman(7) != (2.0, 5.25):
        failures.append(f"complete-graph bracket at n=7: {graham_kleitman(7)}")
    t0 = time.perf_counter()
    ok, counterexamples = sweep_inequality_6(5, 10**6)
    elapsed = time.perf_counter() - t0
    if not ok or counterexamples:
        failures.append(f"inequality fails at {counterexamples[:5]}")
    if elapsed >= 10.0:
        failures.append(f"sweep took {elapsed:.2f}s, budget 10s")
    k = gnp_k(10**4, 0.05, 5.0, 0.1)
    if k != 9:
        failures.append(f"random-graph k at n=10^4: {k}, expected 9")
    ub = gnp_union_bound_log(10**4, 0.05, 9)
    if not (ub.exponent < 0 and ub.certifies):
        failures.append(f"union bound exponent {ub.exponent:.3g} fails to certify")
    label = f"closed forms exact, inequality holds to 10^6 ({elapsed:.2f}s), union bound certifies k=9"
    _report(capsys, 8, not failures, label)
    assert not failures, failures


def test_criterion_9_experiment_determinism(capsys: pytest.CaptureFixture[str]) -> None:
    def stable(csv: str) -> list[str]:
        # schema line, then every row minus the trailing wall-clock column
        lines = csv.strip().splitlines()
        return [lines[0]] + [ln.rsplit(",", 1)[0] for ln in lines[1:]]

    failures = []
    hyp = [experiment_hypercube(3) for _ in range(2)]
    if stable(hyp[0]) != stable(hyp[1]):
        failures.append("hypercube campaign not reproducible")
    gnp_args = dict(p=0.3, omega=3.0, eps=0.1, trials=2, seed=1, psi_budget=50000)
    gnp = [experiment_gnp([20, 30], **gnp_args) for _ in range(2)]
    if stable(gnp[0]) != stable(gnp[1]):
        failures.append("random-graph campaign not reproducible")
    _report(capsys, 9, not failures, "campaign CSVs byte-identical apart from wall-clock column")
    assert not failures, failures
