"""Exact and 40-digit references for the tests, one per quantity.

Every reference is an ``Exact``: the value and the terms that its
floating-point evaluation rounds with, so that a test states its tolerance
in ulps of those terms (``ulps``) and holds at any scale.  ``Discrete``
evaluates n equally likely values in rational arithmetic, with sums from
``_exact_sum`` (``math.fsum``, no per-value ``Fraction`` work).  The model
laws evaluate their closed forms at 40 digits.  ``of`` gives the reference
law of a tailrisk loss source.  The quadratures integrate the functions
they are given.
"""

import bisect
import functools
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import stdtr, stdtrit

from tailrisk.distributions import (
    Exponential, Pareto, PowerBeta, Sample, StudentT, TwoPoint, Uniform01)

EPS = float(np.finfo(float).eps)
_TINY = Fraction(math.ulp(0.0))
DPS = 40


def _fraction(v) -> Fraction:
    if isinstance(v, mp.mpf):
        man, exp = v.man_exp  # the magnitude's
        return Fraction(-man if v < 0 else man) * Fraction(2) ** exp
    return Fraction(v)


def ulps(got, want, terms: float) -> float:
    """|got - want| in units of eps * terms, or of the least subnormal where
    that is larger: the rounding unit at the scale of the terms."""
    err = abs(Fraction(float(got)) - _fraction(want))
    return float(err / max(Fraction(EPS) * Fraction(terms), _TINY))


def ulps_above(got, bound, terms: float) -> float:
    """How far ``got`` lies above ``bound`` in units of eps * terms, or 0."""
    return ulps(got, bound, terms) if got > bound else 0.0


class Exact(NamedTuple):
    value: object  # a Fraction, or an mpf for the model laws
    terms: float

    def ulps(self, got) -> float:
        return ulps(got, self.value, self.terms)


def _exact_sum(values) -> Fraction:
    """The sum of floats, exactly: fsum rounds it, and each further fsum
    rounds what the parts so far leave over (about 2^-53 of the last)."""
    xs, parts = np.asarray(values, dtype=float).ravel().tolist(), []
    while s := math.fsum(xs + [-p for p in parts]):
        parts.append(s)
    return sum(map(Fraction, parts), Fraction(0))


def foc(law, alpha, m) -> Exact:
    """g(m) = (2 alpha - 1) E[(L-m)+] + (1 - alpha)(E[L] - m), decreasing,
    zero at the alpha-expectile."""
    a, plus, mean = _fraction(alpha), law.eplus(m), law.mean()
    with mp.workdps(DPS):
        value = (2 * a - 1) * plus.value + (1 - a) * (mean.value - _fraction(m))
    return Exact(value, float((2 * a - 1) * plus.terms + (1 - a) * (mean.terms + abs(m))))


def reconstruction(law, alpha, beta) -> Exact:
    """(1 - w) ES_beta + w E[L], w = (1-alpha)/(alpha + (1-2 alpha) beta):
    the alpha-expectile for beta in [P[L < e], P[L <= e]].  Its terms are
    those of ES and the mean only: the denominator is the sum of the
    weights (2 alpha - 1)(1 - beta) and 1 - alpha, which round with no
    cancellation."""
    a, b = Fraction(alpha), Fraction(beta)
    w, es, mean = (1 - a) / (a + (1 - 2 * a) * b), law.es(beta), law.mean()
    with mp.workdps(DPS):
        value = (1 - w) * es.value + w * mean.value
    return Exact(value, float(1 - w) * es.terms + float(w) * mean.terms)


class Discrete:
    """n equally likely values, in exact rational arithmetic."""

    def __init__(self, values):
        self.x = np.sort(np.asarray(values, dtype=float).ravel())
        self.n, self._xs = self.x.size, self.x.tolist()

    def _tail(self, j) -> Fraction:
        """E[L 1{L in x[j:]}]."""
        return self._total if j == 0 else _exact_sum(self.x[j:]) / self.n

    @functools.cached_property
    def _total(self) -> Fraction:
        return _exact_sum(self.x) / self.n

    def _abs_tail(self, j) -> float:
        return float(np.sum(np.abs(self.x[j:]))) / self.n

    def mean(self) -> Exact:
        return Exact(self._total, self._abs_tail(0))

    def var(self, alpha, index=None) -> Exact:
        """q_alpha = x_(ceil(n alpha)), or the order statistic ``index``
        (1-based) given."""
        q = self._xs[self._k(alpha, index)]
        return Exact(q, abs(q))

    def _k(self, alpha, index=None) -> int:
        i = math.ceil(self.n * Fraction(alpha)) if index is None else index
        return min(max(i, 1), self.n) - 1

    def es(self, alpha) -> Exact:
        """[(F(q) - alpha) q + E[L 1{L > q}]]/(1 - alpha) at q = q_alpha, the
        atom weighted by its share of the tail: the tail average."""
        k = self._k(alpha)
        a, q = Fraction(alpha), Fraction(self._xs[k])
        value = ((Fraction(k + 1, self.n) - a) * q + self._tail(k + 1)) / (1 - a)
        return Exact(value, abs(self._xs[k]) + self._abs_tail(k + 1) / (1.0 - float(alpha)))

    def eplus(self, m) -> Exact:
        """E[(L - m)+]."""
        j = bisect.bisect_right(self._xs, m)
        mass = Fraction(self.n - j, self.n)
        return Exact(self._tail(j) - mass * _fraction(m), self._abs_tail(j) + float(mass) * abs(m))

    def expectile(self, alpha) -> Exact:
        """The zero of g, strictly decreasing and linear between consecutive
        distinct values: bisection over them finds its piece.  Terms the
        piece's and E|L|, to which a solver of g stops relative."""
        a, distinct = Fraction(alpha), np.unique(self.x).tolist()
        lo, hi = 0, len(distinct) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if foc(self, a, distinct[mid]).value >= 0 else (lo, mid)
        if lo == hi:
            return self.mean()
        j = bisect.bisect_right(self._xs, distinct[lo])  # the values above m are x[j:]
        den = (2 * a - 1) * Fraction(self.n - j, self.n) + 1 - a
        value = ((2 * a - 1) * self._tail(j) + (1 - a) * self._total) / den
        terms = float(2 * a - 1) * self._abs_tail(j) + float(1 - a) * self._abs_tail(0)
        return Exact(value, terms / float(den) + self._abs_tail(0))


def _allocate(components, groups) -> list:
    """Per column, the exact sum over (rows, weight, scale) groups of the
    weight times the column's sum over the rows; terms the same with the
    scale (the terms of the weight) and |value|."""
    values = [sum((w * _exact_sum(components[rows, c]) for rows, w, _ in groups), Fraction(0))
              for c in range(components.shape[1])]
    terms = sum(float(t) * np.abs(components[rows]).sum(axis=0) for rows, _, t in groups)
    return [Exact(v, t) for v, t in zip(values, terms)]


def es_euler(total, components, alpha) -> list:
    """ES contributions of n equally likely scenarios by their ``total`` as
    given: (1/(1-alpha)) int_alpha^1 E[X_c | L = q(u)] du.  The atom at q
    takes the share (1 - alpha) - P[L > q] of the tail, a difference whose
    terms are the sum."""
    law, a = Discrete(total), Fraction(alpha)
    q = law.var(alpha).value
    at, above = total == q, total > q
    n_at, above_mass = int(np.count_nonzero(at)), Fraction(int(np.count_nonzero(above)), law.n)
    at_row, above_row = 1 / (n_at * (1 - a)), 1 / (law.n * (1 - a))
    return _allocate(components, [
        (at, (1 - a - above_mass) * at_row, (1 - a + above_mass) * at_row),
        (above, above_row, above_row)])


def expectile_euler(total, components, alpha, e=None) -> list:
    """Expectile contributions of n equally likely scenarios:
    E[X_c (alpha 1{L > e} + (1-alpha) 1{L <= e})] / (alpha P[L > e] +
    (1-alpha) P[L <= e]) at the exact expectile e of ``total``, or at the
    root ``e`` given.  Where a total lies within rounding of e the split,
    and with it each contribution (not their sum), depends on which side
    of the total e rounds to: the allocation has a kink there."""
    a = Fraction(alpha)
    e = Discrete(total).expectile(alpha).value if e is None else Fraction(e)
    # rounding is monotone: only a total equal to float(e) needs an exact test
    tail, ties = total > float(e), np.flatnonzero(total == float(e))
    tail[ties] = [Fraction(t) > e for t in total[ties].tolist()]
    den = a * int(np.count_nonzero(tail)) + (1 - a) * int(np.count_nonzero(~tail))
    return _allocate(components, [(tail, a / den, a / den), (~tail, (1 - a) / den, (1 - a) / den)])


# ------------------------------------------------------ models, 40 digits

def _closed(form):
    """A closed form over mpf, evaluated at 40 digits as an Exact whose
    terms are |value|."""
    @functools.wraps(form)
    def exact(self, *args):
        with mp.workdps(DPS):
            value = form(self, *map(mp.mpf, args))
        return Exact(value, float(abs(value)))
    return exact


def _solve(law, a):
    """The zero of g, which lies between the mean and ES_alpha."""
    return mp.findroot(lambda m: foc(law, a, m).value,
                       (law.mean().value, law.es(a).value), solver="anderson")


class Lomax:
    """The Pareto (Lomax) law F(x) = 1 - (1 + x)^-a, x >= 0; its expectile in
    closed form at a = 2."""

    def __init__(self, a):
        self.a = mp.mpf(a)

    @_closed
    def mean(self):
        return 1 / (self.a - 1)

    @_closed
    def var(self, u):
        return (1 - u) ** (-1 / self.a) - 1

    @_closed
    def es(self, u):
        return self.a / (self.a - 1) * (1 - u) ** (-1 / self.a) - 1

    @_closed
    def eplus(self, m):
        return (1 + m) ** (1 - self.a) / (self.a - 1) if m >= 0 else 1 / (self.a - 1) - m

    @_closed
    def expectile(self, a):
        return mp.sqrt(a * (1 - a)) / (1 - a) if self.a == 2 else _solve(self, a)


class UnitExponential:
    """The standard exponential law; its expectile by Lambert W."""

    @_closed
    def mean(self):
        return mp.mpf(1)

    @_closed
    def var(self, u):
        return -mp.log1p(-u)

    @_closed
    def es(self, u):
        return 1 - mp.log1p(-u)

    @_closed
    def eplus(self, m):
        return mp.exp(-m) if m >= 0 else 1 - m

    @_closed
    def expectile(self, a):
        return 1 + mp.lambertw((2 * a - 1) / ((1 - a) * mp.e)).real


class Uniform:
    """The uniform law on [0, 1]; its expectile in closed form."""

    @_closed
    def mean(self):
        return mp.mpf(1) / 2

    @_closed
    def var(self, u):
        return u

    @_closed
    def es(self, u):
        return (1 + u) / 2

    @_closed
    def eplus(self, m):
        return (1 - min(max(m, 0), 1)) ** 2 / 2 + max(-m, 0)

    @_closed
    def expectile(self, a):
        return (mp.sqrt(a * (1 - a)) - a) / (1 - 2 * a)


@functools.cache
def student_log_norm(nu):
    """log Gamma((nu+1)/2) - log Gamma(nu/2) - log(nu pi)/2, the log of the
    t density's constant: two log-gammas of size nu log nu, taken 40
    digits past them."""
    with mp.workdps(DPS + int(math.log10(nu))):
        nu = mp.mpf(nu)
        return mp.loggamma((nu + 1) / 2) - mp.loggamma(nu / 2) - mp.log(nu * mp.pi) / 2


class Student:
    """The standard Student t law, nu > 1: tail probabilities from the
    regularized incomplete beta, and E[T 1{T > q}] = f(q) (nu + q^2)/(nu - 1)."""

    def __init__(self, nu):
        self.log_c, self.nu = student_log_norm(nu), mp.mpf(nu)

    def _sf(self, x):
        nu = self.nu
        half = mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + x * x), regularized=True) / 2
        return half if x >= 0 else 1 - half

    def _density(self, x):
        return mp.exp(self.log_c - (self.nu + 1) / 2 * mp.log1p(x * x / self.nu))

    @_closed
    def mean(self):
        return mp.mpf(0)

    @_closed
    def var(self, u):
        return mp.findroot(lambda q: self._sf(q) - (1 - u), mp.sqrt(2) * mp.erfinv(2 * u - 1))

    @_closed
    def es(self, u):
        q = self.var(u).value
        return self._density(q) * (self.nu + q * q) / ((self.nu - 1) * (1 - u))

    @_closed
    @functools.cache  # tail_es reads the same root
    def tail_var(self, p):
        """The quantile x at tail probability p < 1/2, by Newton's method on
        log P[T < -e^s] = log p in s = log|x|, so it reaches any p, 5e-324
        included, where x may lie past the largest float.  It starts from
        scipy's stdtrit where that is finite, else from the power-law
        asymptote P ~ c nu^((nu-1)/2) |x|^-nu."""
        nu, log_p = self.nu, mp.log(p)
        start = abs(float(stdtrit(float(nu), float(p))))
        if not math.isfinite(start):
            start = mp.exp((self.log_c + (nu - 1) / 2 * mp.log(nu) - log_p) / nu)

        @functools.lru_cache(maxsize=1)  # the residual and slope at one s share a tail
        def step(s):
            # P[T < -e^s] = P[T > e^s], which keeps its digits
            x = mp.exp(s)
            tail = self._sf(x)
            return mp.log(tail) - log_p, -x * self._density(x) / tail

        s = mp.findroot(lambda s: step(s)[0], mp.log(start), solver="newton",
                        df=lambda s: step(s)[1])
        return -mp.exp(s)

    @_closed
    def tail_es(self, p):
        """ES at the level p of ``tail_var``."""
        q = self.tail_var(p).value
        return self._density(q) * (self.nu + q * q) / ((self.nu - 1) * (1 - p))

    @_closed
    def eplus(self, m):
        return (self.nu + m * m) / (self.nu - 1) * self._density(m) - m * self._sf(m)

    @_closed
    def expectile(self, a):
        return _solve(self, a)


def two_point_es(x1, x2, p, alpha) -> Exact:
    """ES_alpha of mass p at x1 and 1 - p at x2, for any p: the tail
    average [(p - alpha)+ x1 + (1 - max(p, alpha)) x2]/(1 - alpha)."""
    a = Fraction(alpha)
    w1 = max(Fraction(p) - a, 0) / (1 - a)
    return Exact(w1 * Fraction(x1) + (1 - w1) * Fraction(x2),
                 float(w1) * abs(x1) + float(1 - w1) * abs(x2))


def of(src):
    """The reference law of an unshifted tailrisk loss source; a two-point
    law with p = k/m becomes m equally likely values."""
    if isinstance(src, Sample):
        return Discrete(src.values)
    assert src.shift == 0.0
    if isinstance(src, TwoPoint):
        p = Fraction(src.p)
        assert p.denominator <= 1024, src
        return Discrete([src.x1] * p.numerator + [src.x2] * (p.denominator - p.numerator))
    if isinstance(src, Uniform01):
        return Uniform()
    if isinstance(src, Exponential):
        return UnitExponential()
    if isinstance(src, Pareto):
        return Lomax(src.a)
    assert isinstance(src, StudentT), src
    return Student(src.nu)


# ---------------------------------------------------------- quadratures

def es_quadrature(quantile, level):
    """(int_level^1 q(u) du, error bound) via u = 1 - exp(-t), which damps
    the quantile's blow-up at u = 1 exponentially.  Truncated at t = 45,
    where the integrand is ~1e-10 for the heaviest tail in the suite; the
    cutoff is folded into the error."""
    umax = np.nextafter(1.0, 0.0)
    val, err = integrate.quad(lambda t: quantile(min(-np.expm1(-t), umax)) * np.exp(-t),
                              -np.log1p(-level), 45.0, limit=300)
    return val, err + 1e-8


def _cdf_sf(dist):
    """(CDF, survival function, lower end of the support) of an unshifted
    family, in closed form or from scipy.special, valid outside the support."""
    assert dist.shift == 0.0
    if isinstance(dist, Pareto):
        return (lambda x: -np.expm1(-dist.a * np.log1p(x)) if x > 0.0 else 0.0,
                lambda x: (1.0 + x) ** -dist.a if x > 0.0 else 1.0, 0.0)
    if isinstance(dist, PowerBeta):
        return (lambda x: min(max(x, 0.0), 1.0) ** dist.a,
                lambda x: 1.0 - min(max(x, 0.0), 1.0) ** dist.a, 0.0)
    if isinstance(dist, StudentT):
        return lambda x: stdtr(dist.nu, x), lambda x: stdtr(dist.nu, -x), -np.inf
    if isinstance(dist, TwoPoint):
        def cdf(x):
            return 0.0 if x < dist.x1 else (dist.p if x < dist.x2 else 1.0)
        return cdf, lambda x: 1.0 - cdf(x), dist.x1
    assert isinstance(dist, Exponential), dist
    return lambda x: -np.expm1(-max(x, 0.0)), lambda x: np.exp(-max(x, 0.0)), 0.0


def w1_quadrature(values, dist) -> float:
    """int |F_n(x) - F(x)| dx by adaptive quadrature in x: one piece per gap
    between distinct order statistics, where F_n is constant, and the
    tails beyond them.  Shares nothing with ``wasserstein_exact``, which
    integrates quantiles in u through the model's ES."""
    cdf, sf, lower = _cdf_sf(dist)
    z, counts = np.unique(values, return_counts=True)
    level = np.cumsum(counts) / len(values)
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    total = integrate.quad(cdf, lower, z[0], **opts)[0] if lower < z[0] else 0.0
    for a, b, c in zip(z[:-1], z[1:], level[:-1]):
        total += integrate.quad(lambda x: abs(c - cdf(x)), a, b, **opts)[0]
    return total + integrate.quad(sf, z[-1], np.inf, **opts)[0]
