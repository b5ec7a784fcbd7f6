"""Reference values the benchmark computes without tailrisk.

Parametric references use closed forms and ``scipy.stats``; the Student t
expectile is this module's own bisection on the first-order condition.
Empirical references use exact order-statistic formulas on sorted values,
so the allocation checks compare tailrisk against an independent answer.
Parametric references take the tail probability ``p = 1 - alpha`` rather
than alpha, so deep levels keep their digits.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats


def rel_err(got: float, want: float) -> float:
    """Scale-free relative error; 0 when both are exactly equal."""
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(got), abs(want))


def bisect_decreasing(g, lo: float, hi: float) -> float:
    """Root of a decreasing function with g(lo) >= 0 >= g(hi), to the last bit."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid


class StudentRef:
    """Standard Student t with nu > 1 degrees of freedom, via scipy.stats."""

    def __init__(self, nu: float):
        self.nu = float(nu)
        self.law = stats.t(self.nu)

    def var(self, p: float) -> float:
        return float(self.law.isf(p))

    def es(self, p: float) -> float:
        q = self.var(p)
        return float(self.law.pdf(q)) * (self.nu + q * q) / ((self.nu - 1.0) * p)

    def eplus(self, m: float) -> float:
        # int_m^inf t f(t) dt = (nu + m^2) f(m) / (nu - 1)
        nu = self.nu
        return (nu + m * m) * float(self.law.pdf(m)) / (nu - 1.0) - m * float(self.law.sf(m))

    def expectile(self, p: float) -> float:
        alpha = 1.0 - p
        g = lambda m: (2.0 * alpha - 1.0) * self.eplus(m) - p * m  # mean is 0
        return bisect_decreasing(g, 0.0, self.es(p))


class ParetoRef:
    """F(x) = 1 - (1 + x - shift)^(-a) above shift, a > 1."""

    def __init__(self, a: float, shift: float = 0.0):
        self.a, self.shift = float(a), float(shift)

    def var(self, p: float) -> float:
        return p ** (-1.0 / self.a) - 1.0 + self.shift

    def es(self, p: float) -> float:
        a = self.a
        return a / (a - 1.0) * p ** (-1.0 / a) - 1.0 + self.shift

    def eplus_at_level(self, p: float) -> float:
        """E[(L - q)+] at q = var(p): p^(1 - 1/a) / (a - 1)."""
        return p ** (1.0 - 1.0 / self.a) / (self.a - 1.0)

    def eplus(self, m: float) -> float:
        a, x = self.a, m - self.shift
        return (1.0 + x) ** (1.0 - a) / (a - 1.0) if x >= 0.0 else 1.0 / (a - 1.0) - x

    def expectile(self, p: float) -> float:
        alpha = 1.0 - p
        mean = 1.0 / (self.a - 1.0) + self.shift
        g = lambda m: (2.0 * alpha - 1.0) * self.eplus(m) + p * (mean - m)
        return bisect_decreasing(g, mean, self.es(p))


class ExpRef:
    """Standard exponential."""

    def var(self, p: float) -> float:
        return -math.log(p)

    def es(self, p: float) -> float:
        return 1.0 - math.log(p)

    def eplus_at_level(self, p: float) -> float:
        return p


class PowerRef:
    """F(x) = x^a on [0, 1]; a = 1 is the uniform law."""

    def __init__(self, a: float):
        self.a = float(a)

    def var(self, p: float) -> float:
        return math.exp(math.log1p(-p) / self.a)

    def es(self, p: float) -> float:
        a = self.a
        return a * -math.expm1((a + 1.0) / a * math.log1p(-p)) / (p * (a + 1.0))


class TwoPointRef:
    """Mass prob on x1 and 1 - prob on x2 (x1 <= x2)."""

    def __init__(self, x1: float, x2: float, prob: float):
        self.x1, self.x2, self.prob = float(x1), float(x2), float(prob)

    def var(self, p: float) -> float:
        return self.x1 if 1.0 - p <= self.prob else self.x2

    def es(self, p: float) -> float:
        alpha = 1.0 - p
        if alpha >= self.prob:
            return self.x2
        return ((self.prob - alpha) * self.x1 + (1.0 - self.prob) * self.x2) / p


class EmpiricalRef:
    """Exact ES and expectile of an empirical law (equal weights 1/n)."""

    def __init__(self, values):
        self.x = np.sort(np.asarray(values, dtype=float))
        self.n = self.x.size
        # suffix[i] = sum of x[i:]; accumulated from the top so tail sums are short
        self.suffix = np.zeros(self.n + 1)
        self.suffix[:-1] = np.cumsum(self.x[::-1])[::-1]

    def es(self, alpha: float) -> float:
        n = self.n
        i = min(max(math.ceil(alpha * n), 1), n)
        # the partial-width term vanishes at alpha = i/n, so an off-by-one in
        # ceil(alpha*n) from rounding does not change the value
        partial = (i / n - alpha) * self.x[i - 1]
        return (partial + self.suffix[i] / n) / (1.0 - alpha)

    def expectile(self, alpha: float) -> float:
        """Root of the piecewise-linear first-order condition, solved exactly.

        g(m) = (2 alpha - 1) E[(L-m)+] + (1 - alpha)(E[L] - m) decreases; a
        binary search finds the last order statistic with g >= 0, and the
        root is the zero of g's linear piece that starts there.
        """
        n, x, suf = self.n, self.x, self.suffix
        mean = suf[0] / n
        w = 2.0 * alpha - 1.0

        def above(k):  # scenarios <= x[k], counting ties
            return int(np.searchsorted(x, x[k], side="right"))

        def g(k):
            j = above(k)
            return w * (suf[j] - (n - j) * x[k]) / n + (1.0 - alpha) * (mean - x[k])

        lo, hi = 0, n - 1  # g(x[0]) >= 0 for alpha >= 1/2; find the last k with g >= 0
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if g(mid) >= 0.0:
                lo = mid
            else:
                hi = mid - 1
        j = above(lo)
        return float((w * suf[j] / n + (1.0 - alpha) * mean) / (w * (n - j) / n + (1.0 - alpha)))
