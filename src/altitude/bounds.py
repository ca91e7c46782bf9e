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
from dataclasses import dataclass

_TIE = 1e-13  # relative margin within which a float comparison is settled exactly


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
    itself from an integer.  Otherwise counts up with integer power
    comparisons from two below that ceiling, which the float error (far
    under 1) keeps below the answer.
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


def sweep_inequality_6(lo: int = 5, hi: int = 10**6) -> tuple[bool, tuple[int, ...]]:
    """Check the d-range [lo, hi]; returns (all hold, failures).

    One step per k = ceil(d/log2 d) in O(1) memory: for d >= 5, k never
    falls and rises by at most one per step, so every k between those of lo
    and hi has a run of d.  Across that run the left side
    y = k*log2(k) - k + 1 is fixed, so only the d up to y can fail.  The run
    ends at the larger root x of x = k*log2(x), and x > k*log2(k) > y, so
    the walk down from y starts inside the run or below it.  A run that
    starts above y (d/log2 d < k - 1 at d = y) is skipped without a walk.
    ``verify_inequality_6`` decides each d walked exactly, and a margin of
    ``_TIE`` on y and on the skip covers float error, so the outcome matches
    the exact per-d sweep.
    """
    if lo < 5 or hi < lo:
        raise ValueError("need 5 <= lo <= hi")
    failures = []
    for k in range(hypercube_k(lo), hypercube_k(hi) + 1):
        d = min(hi, int((k * math.log2(k) - k + 1) * (1 + _TIE)))  # the largest d that may fail
        if d < lo or d < (k - 1) * math.log2(d) * (1 - _TIE):
            continue
        run = []
        while d >= lo and hypercube_k(d) == k:
            if not verify_inequality_6(d):
                run.append(d)
            d -= 1
        failures += reversed(run)
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
    _check_omega_eps(omega, eps)
    return math.floor((1 - eps) * n * p / (omega * math.log(n)))


def _check_omega_eps(omega: float, eps: float) -> None:
    """Raise ValueError unless omega > 0 and 0 < eps < 1 (NaN fails both)."""
    if not omega > 0:
        raise ValueError("omega must be positive")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")


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
