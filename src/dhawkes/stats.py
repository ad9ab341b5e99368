"""Exact binomial confidence intervals and empirical distribution summaries.

The incomplete beta machinery is self-contained: a Lentz-style continued
fraction for the regularized incomplete beta function and a bracketed
bisection with Newton polish for its inverse.  That is all the
Clopper-Pearson interval needs, and it keeps the quantiles accurate at
small significance levels.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

_FPMIN = 1e-300
_CF_EPS = 1e-15
_CF_MAXIT = 500


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAXIT + 1):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < _FPMIN:
                d = _FPMIN
            c = 1.0 + aa / c
            if abs(c) < _FPMIN:
                c = _FPMIN
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise RuntimeError(f"incomplete beta continued fraction failed for a={a} b={b} x={x}")


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b), the CDF of the Beta(a, b) distribution at x."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"shape parameters must be > 0, got a={a} b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def beta_quantile(gamma: float, x: float, y: float) -> float:
    """Inverse of I_q(x, y) in q: the gamma-quantile of Beta(x, y).

    Bisection on [0, 1] down to 1e-12 followed by a few Newton steps on
    the CDF; the result q satisfies |I_q(x, y) - gamma| < 1e-10.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    if not (x > 0.0 and y > 0.0):
        raise ValueError(f"shape parameters must be > 0, got x={x} y={y}")
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if regularized_incomplete_beta(mid, x, y) < gamma:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    ln_norm = math.lgamma(x + y) - math.lgamma(x) - math.lgamma(y)
    for _ in range(4):
        if q <= 0.0 or q >= 1.0:
            break
        pdf = math.exp(ln_norm + (x - 1.0) * math.log(q) + (y - 1.0) * math.log1p(-q))
        if pdf <= 0.0 or not math.isfinite(pdf):
            break
        q_next = q - (regularized_incomplete_beta(q, x, y) - gamma) / pdf
        if not (lo - 1e-9 <= q_next <= hi + 1e-9):
            break
        q = min(max(q_next, 0.0), 1.0)
    return q


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float
    successes: int
    trials: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError(f"invalid interval [{self.lower}, {self.upper}]")
        if not (0 <= self.successes <= self.trials):
            raise ValueError(f"successes {self.successes} out of range for N={self.trials}")

    def contains(self, p: float) -> bool:
        return self.lower <= p <= self.upper


def clopper_pearson(successes: int, trials: int, alpha: float) -> ConfidenceInterval:
    """Exact two-sided binomial interval from Beta quantiles.

    lower = B(alpha/2; X, N-X+1), upper = B(1-alpha/2; X+1, N-X), with
    the closed-form endpoints at X = 0 (upper 1-(alpha/2)^(1/N)) and at
    X = N (mirror image).  Coverage is at least 1 - alpha for every p.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not (0 <= successes <= trials):
        raise ValueError(f"successes must be in [0, {trials}], got {successes}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    x, n = successes, trials
    if x == 0:
        lower = 0.0
        upper = 1.0 - (alpha / 2.0) ** (1.0 / n)
    elif x == n:
        lower = (alpha / 2.0) ** (1.0 / n)
        upper = 1.0
    else:
        lower = beta_quantile(alpha / 2.0, x, n - x + 1)
        upper = beta_quantile(1.0 - alpha / 2.0, x + 1, n - x)
    return ConfidenceInterval(lower, upper, 1.0 - alpha, x, n)


def ecdf(samples: list[int]) -> list[tuple[int, float]]:
    """Support points of the empirical CDF: (value, cumulative fraction).

    Values ascending, fractions right-continuous, last fraction exactly 1.
    Sentinel values (e.g. the horizon+1 explosion marker) are kept, so a
    censoring atom shows up as a final jump.
    """
    if not samples:
        raise ValueError("ecdf requires at least one sample")
    n = len(samples)
    values, counts = zip(*sorted(Counter(samples).items()))
    return [(v, seen / n) for v, seen in zip(values, accumulate(counts))]
