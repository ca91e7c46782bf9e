"""Closed-form bound arithmetic: complete graphs, hypercubes, random graphs."""

from __future__ import annotations

import math

import pytest

import altitude as alt
from altitude import bounds


def test_complete_graph_bounds_exact_values() -> None:
    assert alt.graham_kleitman(3) == (1.0, 2.25)
    assert alt.graham_kleitman(7) == (2.0, 5.25)
    assert alt.graham_kleitman(1) == (0.0, 0.75)
    for n in range(1, 60):
        lo, hi = alt.graham_kleitman(n)
        assert lo <= hi
        # half (sqrt(4n-3) - 1), exact on perfect squares
        assert abs(lo - (math.sqrt(4 * n - 3) - 1) / 2) < 1e-12
        assert hi == 0.75 * n


def _complete_bracket_by_integers(n: int) -> tuple[int, int]:
    # smallest L with (2L+1)**2 >= 4n-3, i.e. ceil((sqrt(4n-3) - 1) / 2), and floor(3n/4)
    L = 0
    while (2 * L + 1) ** 2 < 4 * n - 3:
        L += 1
    return L, (3 * n) // 4


def test_graham_kleitman_rounds_to_the_integer_bracket() -> None:
    # rounded inward, both bounds match their integer forms
    for n in range(1, 2001):
        lower, upper = alt.graham_kleitman(n)
        assert (math.ceil(lower), math.floor(upper)) == _complete_bracket_by_integers(n), n


def test_hypercube_ratio_and_k() -> None:
    lo, hi = alt.hypercube_bounds(2)
    assert (lo, hi) == (2.0, 2)  # pinches f(Q_2) to 2
    lo5, hi5 = alt.hypercube_bounds(5)
    assert hi5 == 5
    assert abs(lo5 - 5 / math.log2(5)) < 1e-12
    with pytest.raises(ValueError):
        alt.hypercube_bounds(1)

    # k = ceil(d / log2 d) by integer-power characterization
    for d, want in ((2, 2), (3, 2), (4, 2), (5, 3), (9, 3), (10, 4), (16, 4), (17, 5)):
        assert alt.hypercube_k(d) == want, d
    for d in range(2, 200):
        k = alt.hypercube_k(d)
        assert d**k >= 2**d
        assert k == 1 or d ** (k - 1) < 2**d


def test_inequality_six_single_points() -> None:
    # k log2 k - k + 1 < d at k = ceil(d / log2 d)
    for d in (5, 9, 10, 16, 100, 12345):
        assert alt.verify_inequality_6(d)
    with pytest.raises(ValueError):
        alt.verify_inequality_6(4)


def test_float_screens_match_exact_power_rules() -> None:
    # d / log2 d is an integer at d = 2, 4, 16, 256 and 65536, where the
    # float screen must hand over to the exact comparisons.
    for d in [*range(2, 5001), *(2**j for j in range(1, 21))]:
        k = alt.hypercube_k(d)
        assert d**k >= 2**d and (k == 1 or d ** (k - 1) < 2**d), d
        if d >= 5:
            assert alt.verify_inequality_6(d) == (k**k < 2 ** (d + k - 1)), d


def test_inequality_six_sweep_clean() -> None:
    ok, failures = alt.sweep_inequality_6(5, 10**5)
    assert ok
    assert failures == ()


def test_inequality_six_sweep_matches_per_d_exact_answer_on_sub_ranges() -> None:
    # (6) holds on all of these d, so this set is empty; the sweep must not
    # report a d the exact test passes, whatever sub-range it starts in.
    # d/log2 d is an integer at 16, 256 and 65536, where k's run starts or
    # ends only by the exact comparison: ranges start and end next to them.
    failing = {d for d in [*range(5, 3001), *range(65535, 65598)]
               if not alt.verify_inequality_6(d)}
    ranges = [(lo, hi) for lo in range(5, 399, 3) for hi in (lo, lo + 1, lo + 53, 2500)]
    ranges += [(lo, hi) for tie in (16, 256, 65536) for lo in (tie - 1, tie, tie + 1)
               for hi in (tie - 1, tie, tie + 1, lo + 60) if hi >= lo]
    for lo, hi in ranges:
        want = tuple(sorted(d for d in failing if lo <= d <= hi))
        assert bounds.sweep_inequality_6(lo, hi) == (not want, want), (lo, hi)


def test_inequality_six_sweep_does_one_step_per_k(monkeypatch) -> None:
    # a few hypercube_k calls per k, not one per d (about 10^5 here)
    calls = 0
    hypercube_k = bounds.hypercube_k

    def counting(d: int) -> int:
        nonlocal calls
        calls += 1
        return hypercube_k(d)

    monkeypatch.setattr(bounds, "hypercube_k", counting)
    assert bounds.sweep_inequality_6(5, 10**5) == (True, ())
    assert calls <= hypercube_k(10**5) - hypercube_k(5) + 3


def test_gnp_k_values_and_validation() -> None:
    assert alt.gnp_k(10**4, 0.05, omega=5.0, eps=0.1) == 9
    n = round(math.e**10)
    assert alt.gnp_k(n, 10**4 / n, omega=10.0, eps=0.1) == 90
    assert alt.gnp_k(100, 0.5, omega=1.0, eps=0.999) == 0  # vacuous
    with pytest.raises(ValueError):
        alt.gnp_k(1, 0.5, omega=1.0, eps=0.1)
    with pytest.raises(ValueError):
        alt.gnp_k(100, 0.0, omega=1.0, eps=0.1)
    for omega in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="omega must be positive"):
            alt.gnp_k(100, 0.5, omega=omega, eps=0.1)
    with pytest.raises(ValueError):
        alt.gnp_k(100, 0.5, omega=1.0, eps=1.0)


def test_union_bound_exponent_cases() -> None:
    ub = alt.gnp_union_bound_log(10**4, 0.05, 9)
    assert ub.exponent < 0
    assert ub.certifies
    assert ub.binomial_exponent < ub.exponent  # the binomial form is tighter

    # degenerate extreme: k = n, p = 1 gives a useless positive exponent
    deg = alt.gnp_union_bound_log(5, 1.0, 5)
    assert deg.exponent > 0
    assert not deg.certifies

    with pytest.raises(ValueError):
        alt.gnp_union_bound_log(10, 0.5, 0)
    with pytest.raises(ValueError):
        alt.gnp_union_bound_log(10, 0.5, 11)


def test_gnp_certificate_bounds_only_k_from_1_to_n() -> None:
    k, ub = alt.gnp_certificate(10**4, 0.05, omega=5.0, eps=0.1)
    assert k == 9 and ub == alt.gnp_union_bound_log(10**4, 0.05, 9)
    assert alt.gnp_certificate(100, 0.5, omega=1.0, eps=0.999) == (0, None)  # k < 1
    assert alt.gnp_certificate(10, 1.0, omega=0.01, eps=0.1) == (390, None)  # k > n
    k, ub = alt.gnp_certificate(2, 1.0, omega=0.7, eps=0.5)  # k = n
    assert k == 2 and ub == alt.gnp_union_bound_log(2, 1.0, 2)
    with pytest.raises(OverflowError):
        alt.gnp_certificate(2, 1.0, omega=1e-320, eps=0.1)


def test_union_bound_negativity_condition() -> None:
    # exponent < 0 iff k ln n + p C(k,2) < p (n-1)/2
    for n, p, k in ((10**4, 0.05, 9), (200, 1.0, 11), (60, 1.0, 4), (1000, 0.3, 5)):
        lhs = k * math.log(n) + p * k * (k - 1) / 2
        rhs = p * (n - 1) / 2
        assert (alt.gnp_union_bound_log(n, p, k).exponent < 0) == (lhs < rhs)


def test_union_bound_decreases_along_threshold_parameterization() -> None:
    prev = None
    for n in (10**4, 2 * 10**4, 5 * 10**4, 10**5):
        p = min(1.0, alt.gnp_threshold_p(n, 10.0))
        k = alt.gnp_k(n, p, omega=10.0, eps=0.1)
        e = alt.gnp_union_bound_log(n, p, k).exponent
        if prev is not None:
            assert e < prev
        prev = e


def test_threshold_density_rule() -> None:
    assert abs(alt.gnp_threshold_p(10**4, 10.0) - 10 * math.log(10**4) / 100) < 1e-12
    assert alt.gnp_threshold_p(200, 3.0) > 1  # caller caps at 1
    for omega in (0.0, math.nan):
        with pytest.raises(ValueError, match="omega must be positive"):
            alt.gnp_threshold_p(200, omega)
