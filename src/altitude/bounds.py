"""Closed-form bound evaluators for the altitude of special families.

Complete graphs: (sqrt(4n-3) - 1)/2 <= f(K_n) <= 3n/4.  Hypercubes:
d/log2(d) <= f(Q_d) <= d, with the key finite inequality
k*log2(k) - k + 1 < d for k = ceil(d/log2 d), d >= 5.  Random graphs
G(n, p): an explicit k that holds with high probability, certified for
finite parameters by a negative union-bound exponent.  Base-2 logarithms
govern the hypercube quantities, natural logarithms the random-graph ones.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

_TIE = 1e-13  # relative margin within which a float comparison is settled exactly
_LOG2_E = 1 / math.log(2)


def graham_kleitman(n: int) -> tuple[float, float]:
    """(sqrt(4n-3) - 1)/2 and 3n/4: the classical bracket for f(K_n).

    The lower value is computed exactly when 4n-3 is a perfect square.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    s = 4 * n - 3
    r = math.isqrt(s)
    lower = (r - 1) / 2 if r * r == s else (math.sqrt(s) - 1) / 2
    return lower, 0.75 * n


def hypercube_k(d: int) -> int:
    """ceil(d / log2 d) decided exactly: the least k with d**k >= 2**d.

    Returns the float ceiling when d / log2 d lies farther than ``_TIE`` of
    itself from an integer.  Otherwise starts just below the float estimate
    and settles the boundary with a couple of integer power comparisons.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    x = d / math.log2(d)
    if abs(x - round(x)) > _TIE * x:
        return math.ceil(x)
    k = max(1, math.ceil(x) - 2)
    target = 1 << d
    while d**k < target:
        k += 1
    while k > 1 and d ** (k - 1) >= target:
        k -= 1
    return k


def hypercube_bounds(d: int) -> tuple[float, int]:
    """(d / log2 d, d): the bracket for f(Q_d), d >= 2."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return d / math.log2(d), d


def verify_inequality_6(d: int) -> bool:
    """Exact truth of k*log2(k) - k + 1 < d at k = ceil(d/log2 d), d >= 5.

    Decided in floating point when the two sides differ by more than
    ``_TIE``*d, and otherwise by the equivalent integer comparison
    k**k < 2**(d + k - 1), so the verdict never rests on rounding.
    """
    if d < 5:
        raise ValueError("the inequality is asserted for d >= 5 only")
    k = hypercube_k(d)
    y = k * math.log2(k) - k + 1
    if abs(y - d) > _TIE * d:
        return y < d
    return k**k < (1 << (d + k - 1))


def _k_runs(lo: int, hi: int) -> Iterator[tuple[int, int, int]]:
    """Yield (k, first, last) for each maximal run of d in [lo, hi], lo >= 5,
    that shares k = ceil(d/log2 d).

    d/log2 d rises by less than 1 per step, so k rises by one per run, and the
    run of k ends at floor(x) for the root of x = k*log2(x), which Newton finds
    from the previous root moved on by dx/dk, usually in one step.  A root
    within ``_TIE``*x of an integer is settled exactly.  Float rounding of
    lo/log2 lo may overshoot k by one, so the walk starts a run early and
    skips the runs that end before lo.
    """
    log2 = math.log2
    k = math.ceil(lo / log2(lo)) - 1
    x, first = float(lo), lo
    lg = log2(x)
    while first <= hi:
        tol = _TIE * x
        x += lg * lg / (lg - _LOG2_E)
        while True:
            lg = log2(x)
            step = (x - k * lg) / (1 - k * _LOG2_E / x)
            x -= step
            if step * step < tol:  # the error left is about step**2/x
                break
        last = int(x)
        if x - last <= tol and hypercube_k(last) > k:
            last -= 1
        elif last + 1 - x <= tol and hypercube_k(last + 1) == k:
            last += 1
        if last >= first:
            yield k, first, (last if last < hi else hi)
            first = last + 1
        k += 1


def sweep_inequality_6(lo: int = 5, hi: int = 10**6) -> tuple[bool, tuple[int, ...]]:
    """Check the d-range [lo, hi]; returns (all hold, failures).

    Walks the runs of constant k = ceil(d/log2 d) in O(1) memory, about
    (hi - lo)/log2 hi steps.  Within a run the left side k*log2(k) - k + 1 is
    fixed, so only the d up to it can fail; ``verify_inequality_6`` decides
    those exactly, and a margin of ``_TIE`` covers float error, so the
    outcome matches the exact per-d sweep.
    """
    if lo < 5 or hi < lo:
        raise ValueError("need 5 <= lo <= hi")
    failures = []
    for k, first, last in _k_runs(lo, hi):
        top = k * math.log2(k) - k + 1 + _TIE * first  # the largest d that may fail
        if top >= first:
            top = min(last, int(top))
            failures += [d for d in range(first, top + 1) if not verify_inequality_6(d)]
    return (not failures, tuple(failures))


def gnp_k(n: int, p: float, omega: float, eps: float) -> int:
    """floor((1 - eps) * n * p / (omega * ln n)): the certified path length.

    Flooring is the conservative direction for a lower bound.  A result
    below 1 means the parameters certify nothing (vacuous).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    if not omega > 0:  # also rejects NaN
        raise ValueError("omega must be positive")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    return math.floor((1 - eps) * n * p / (omega * math.log(n)))


@dataclass(frozen=True)
class GnpUnionBound:
    """Two log-probability exponents; negative certifies the union bound.

    ``exponent`` is n * (k ln n - p(n-1)/2 + p C(k,2)); ``binomial_exponent``
    is the tighter n ln C(n,k) + (C(n,2) - n C(k,2)) ln(1-p).
    """

    exponent: float
    binomial_exponent: float

    @property
    def certifies(self) -> bool:
        return self.exponent < 0


def gnp_union_bound_log(n: int, p: float, k: int) -> GnpUnionBound:
    """Evaluate both union-bound exponents for finite (n, p, k)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    exponent = n * (k * math.log(n) - p * (n - 1) / 2 + p * k * (k - 1) / 2)
    ln_binom = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )
    exposed = n * (n - 1) // 2 - n * (k * (k - 1) // 2)
    if p == 1.0:
        tail = -math.inf if exposed > 0 else (0.0 if exposed == 0 else math.inf)
    else:
        tail = exposed * math.log1p(-p)
    return GnpUnionBound(exponent, n * ln_binom + tail)


def gnp_certificate(n: int, p: float, omega: float, eps: float) -> tuple[int, GnpUnionBound | None]:
    """``gnp_k`` and its union bound, or None when k < 1 or k > n (vacuous)."""
    k = gnp_k(n, p, omega, eps)
    return k, (gnp_union_bound_log(n, p, k) if 1 <= k <= n else None)


def gnp_threshold_p(n: int, omega: float) -> float:
    """The density scale omega * ln(n) / sqrt(n) used by the sweeps."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not omega > 0:  # also rejects NaN
        raise ValueError("omega must be positive")
    return omega * math.log(n) / math.sqrt(n)
