"""Finite-sample deviation bounds and sample-size planning.

The empirical ES and expectile of n i.i.d. draws miss the true value by
more than eps, an absolute deviation in loss units, not a relative one,
with a probability that the loss's moment class bounds at threshold h:

- exponential moments E[exp(r|L|^k)] < inf, k > 1:  bound C exp(-c n h^2);
- stretched-exponential moments, 0 < k < 1, with Orlicz rate s in (0, k):
  bound 2C exp(-c n^s h^2), the two-sided form of the estimate;
- polynomial moments E[|L|^q] < inf, q > 2, rate s in (2, q):
  bound C n^(1-s) h^(2(1-s)).

The threshold is h = eps (1-alpha) for ES and h = eps (1-alpha)/alpha
for the expectile, valid for 0 < eps <= alpha/(1-alpha).  The planning
size is the smallest n whose bound is at most a confidence budget gamma;
the VaR counterpart comes from the Dvoretzky-Kiefer-Wolfowitz-type
estimate n >= -ln(gamma/4) / (2 eps^2 delta_alpha^2), where delta_alpha
bounds the density beyond the alpha-quantile from below, so that
sup |F_n - F| <= eps delta_alpha keeps the empirical quantile within eps.

The constants C and c are generally *not explicit* in the underlying
concentration results; every report carries the values used (defaults
C = c = 1) so the absolute sizes are read as orders of magnitude, while
ratios of sizes across risk measures are constant-free.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Sequence

from .distributions import Distribution, _parse_spec, _spec_number

__all__ = [
    "TailClass",
    "ExpMoment",
    "SubExpMoment",
    "PolyMoment",
    "parse_tail_class",
    "deviation_bound",
    "sample_size",
    "var_sample_size",
    "density_bound",
    "SampleSizeReport",
    "sample_size_report",
    "size_ratio_curve",
]


class TailClass:
    """Base moment class; carries the unspecified constants C, c >= ...

    Subclasses give the deviation bound ``bound(n, h)`` with n draws at
    threshold h and ``_inverse(gamma, h)``, the real n where it equals gamma.
    Each declares its spec name ``family`` and its parameters ``params``
    (besides C and c) once, for ``repr`` and ``parse_tail_class``, and an
    ``example`` spec for its messages.
    """

    params = ()

    def __init__(self, C: float = 1.0, c: float = 1.0):
        C = float(C)
        c = float(c)
        if not (C > 0.0) or not math.isfinite(C):
            raise ValueError(f"bound constant C must be a finite positive real, got {C}")
        if not (c > 0.0) or not math.isfinite(c):
            raise ValueError(f"bound constant c must be a finite positive real, got {c}")
        self.C = C
        self.c = c

    def __repr__(self):
        args = ", ".join(f"{k}={_spec_number(getattr(self, k))}" for k in self.params + ("C", "c"))
        return f"{type(self).__name__}({args})"

    def size(self, gamma: float, h: float) -> int:
        """Smallest n >= 1 with ``bound(n, h) <= gamma``: the inverse rounded up,
        stepped where rounding left it one off, below 2**53 (where n - 1 may
        round to n in float arithmetic); 1 with a warning when the inverse
        is <= 0, i.e. gamma reaches the prefactor and every n will do.
        OverflowError when the inverse is not finite in double precision."""
        raw = self._inverse(gamma, h)
        if raw <= 0.0:
            warnings.warn(
                f"gamma={gamma:g} reaches the prefactor of {self!r}: its bound is below "
                "budget for every n; returning 1",
                stacklevel=3,
            )
            return 1
        if not math.isfinite(raw):
            raise OverflowError(f"{self!r} gives no finite sample size at gamma={gamma:g}, h={h:g}")
        n = math.ceil(raw)
        while n < 2 ** 53 and self.bound(n, h) > gamma:
            n += 1
        while 1 < n < 2 ** 53 and self.bound(n - 1, h) <= gamma:
            n -= 1
        return n


class ExpMoment(TailClass):
    """Exponential moment class: E[exp(r |L|^k)] finite for some k > 1."""

    family = "exp"
    params = ("k", "r")
    example = "exp:k=2,r=1"

    def __init__(self, k: float, r: float, C: float = 1.0, c: float = 1.0):
        super().__init__(C, c)
        k = float(k)
        r = float(r)
        if not (k > 1.0):
            raise ValueError(f"exponential moment order k must exceed 1, got {k}")
        if not (r > 0.0):
            raise ValueError(f"exponential moment scale r must be positive, got {r}")
        self.k = k
        self.r = r

    def bound(self, n: int, h: float) -> float:
        return self.C * math.exp(-self.c * n * h * h)

    def _inverse(self, gamma: float, h: float) -> float:
        return -math.log(gamma / self.C) / self.c / (h * h)


class SubExpMoment(TailClass):
    """Stretched-exponential class: E[exp(r |L|^k)] finite, 0 < k < 1.

    ``s`` in (0, k) is the polynomial-in-n rate appearing in the bound
    exponent n^s.
    """

    family = "subexp"
    params = ("k", "r", "s")
    example = "subexp:k=0.5,r=1,s=0.3"

    def __init__(self, k: float, r: float, s: float, C: float = 1.0, c: float = 1.0):
        super().__init__(C, c)
        k = float(k)
        r = float(r)
        s = float(s)
        if not (0.0 < k < 1.0):
            raise ValueError(f"stretched-exponential order k must lie in (0, 1), got {k}")
        if not (r > 0.0):
            raise ValueError(f"moment scale r must be positive, got {r}")
        if not (0.0 < s < k):
            raise ValueError(f"rate s must lie in (0, k) = (0, {k:g}), got {s}")
        self.k = k
        self.r = r
        self.s = s

    def bound(self, n: int, h: float) -> float:
        return 2.0 * self.C * math.exp(-self.c * n ** self.s * h * h)

    def _inverse(self, gamma: float, h: float) -> float:
        t = -math.log(gamma / (2.0 * self.C)) / self.c
        return (max(t, 0.0) / (h * h)) ** (1.0 / self.s)


class PolyMoment(TailClass):
    """Polynomial moment class: E[|L|^q] finite for some q > 2.

    ``s`` in (2, q) is the rate in the power bound C n^(1-s) h^(2(1-s)).
    """

    family = "poly"
    params = ("q", "s")
    example = "poly:q=3,s=2.5"

    def __init__(self, q: float, s: float, C: float = 1.0, c: float = 1.0):
        super().__init__(C, c)
        q = float(q)
        s = float(s)
        if not (q > 2.0):
            raise ValueError(f"polynomial moment order q must exceed 2, got {q}")
        if not (2.0 < s < q):
            raise ValueError(f"rate s must lie in (2, q) = (2, {q:g}), got {s}")
        self.q = q
        self.s = s

    def bound(self, n: int, h: float) -> float:
        return self.C * n ** (1.0 - self.s) * h ** (2.0 * (1.0 - self.s))

    def _inverse(self, gamma: float, h: float) -> float:
        return (self.C / gamma) ** (1.0 / (self.s - 1.0)) * h ** -2.0


# every moment class, by its spec name
_TAIL_CLASSES = {cls.family: cls for cls in (ExpMoment, SubExpMoment, PolyMoment)}


def parse_tail_class(text: str) -> TailClass:
    """Parse a moment-class spec like ``poly:q=3,s=2.5`` or
    ``exp:k=2,r=1,C=2,c=0.5``.

    The grammar is that of ``parse_distribution``: C (the prefactor) and c
    (the exponent constant) are case-sensitive, other keys read in any case.
    """
    return _parse_spec(text, _TAIL_CLASSES, "tail", ("C", "c"))


def _threshold(eps: float, alpha: float, measure: str) -> float:
    eps = float(eps)
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"level alpha must lie in (0, 1), got {alpha}")
    if not (0.0 < eps <= alpha / (1.0 - alpha)):
        raise ValueError(
            f"absolute deviation eps must lie in (0, alpha/(1-alpha)] = "
            f"(0, {alpha / (1.0 - alpha):g}], got {eps}"
        )
    if measure == "es":
        return eps * (1.0 - alpha)
    if measure == "expectile":
        return eps * (1.0 - alpha) / alpha
    raise ValueError(f"measure must be 'es' or 'expectile', got {measure!r}")


def deviation_bound(
    tc: TailClass, n: int, eps: float, alpha: float, measure: str = "es"
) -> float:
    """Probability bound for a deviation beyond eps, in loss units, with n draws.

    The moment class's ``bound(n, h)`` at the measure's threshold h,
    clamped into [0, 1]; values near 1 mean the class says nothing here.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"sample size n must be a positive integer, got {n}")
    return min(1.0, tc.bound(n, _threshold(eps, alpha, measure)))


def sample_size(
    tc: TailClass, gamma: float, eps: float, alpha: float, measure: str = "es"
) -> int:
    """Smallest n making the deviation bound at most gamma, the exact
    inverse of ``deviation_bound`` (see ``TailClass.size``).

    When gamma already reaches the bound's prefactor (C on the exponential
    class, 2C on the stretched-exponential one) every n works; returns 1
    with a warning, since that usually signals a misconfigured budget.
    """
    gamma = float(gamma)
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"confidence budget gamma must lie in (0, 1), got {gamma}")
    return tc.size(gamma, _threshold(eps, alpha, measure))


def var_sample_size(delta_alpha: float, gamma: float, eps: float) -> int:
    """Quantile (VaR) planning size n >= -ln(gamma/4) / (2 eps^2 delta^2).

    ``delta_alpha`` is a positive lower bound on the density just beyond
    the alpha-quantile; halving it quadruples the requirement.
    """
    delta_alpha = float(delta_alpha)
    if not (0.0 < delta_alpha < math.inf):
        raise ValueError(
            f"density lower bound delta_alpha must be positive and finite, got {delta_alpha}"
        )
    gamma = float(gamma)
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"confidence budget gamma must lie in (0, 1), got {gamma}")
    eps = float(eps)
    if not (eps > 0.0):
        raise ValueError(f"accuracy eps must be positive, got {eps}")
    raw = -math.log(gamma / 4.0) / (2.0 * eps * eps) / (delta_alpha * delta_alpha)
    return max(1, int(math.ceil(raw)))


def density_bound(dist: Distribution, alpha: float, offset: float = 1.0) -> float:
    """The density bound delta_alpha: the model density at q_alpha + offset.

    The offset keeps the bound valid on a neighbourhood past the quantile
    rather than at the point itself, so it must be finite and positive.
    Raises when the model has no density or the density vanishes there.
    """
    offset = float(offset)
    if not (0.0 < offset < math.inf):
        raise ValueError(f"delta_offset must be positive and finite, got {offset:g}")
    q = dist.quantile(alpha)
    try:
        dens = float(dist.density(q + offset))
    except NotImplementedError:
        raise ValueError(f"{dist.label} has no density: pass delta_alpha explicitly") from None
    if not (dens > 0.0):
        raise ValueError(
            f"density vanishes at q_{alpha:g} + {offset:g} = {q + offset:g} "
            f"for {dist.label}; choose a smaller delta_offset"
        )
    return dens


class SampleSizeReport(NamedTuple):
    """Planning sizes for one level, with every input that shaped them."""

    alpha: float
    n_var: int
    n_es: int
    n_expectile: int
    ratio_es_var: float
    ratio_expectile_var: float
    eps: float
    gamma: float
    delta_alpha: float
    C: float
    c: float


def sample_size_report(
    tc: TailClass, gamma: float, eps: float, alpha: float, delta_alpha: float
) -> SampleSizeReport:
    """Planning sizes at one level for VaR (density bound ``delta_alpha``),
    ES and the expectile, with the constant-free ratios n_ES/n_VaR and
    n_e/n_VaR."""
    n_var = var_sample_size(delta_alpha, gamma, eps)
    n_es = sample_size(tc, gamma, eps, alpha, "es")
    n_exp = sample_size(tc, gamma, eps, alpha, "expectile")
    return SampleSizeReport(float(alpha), n_var, n_es, n_exp, n_es / n_var, n_exp / n_var,
                            float(eps), float(gamma), float(delta_alpha), tc.C, tc.c)


def size_ratio_curve(
    dist: Distribution,
    tc: TailClass,
    gamma: float,
    eps: float,
    alphas: Sequence[float],
    delta_offset: float = 1.0,
) -> list:
    """Sample-size reports along a level grid, with delta_alpha taken
    from ``density_bound(dist, alpha, delta_offset)``.

    Requires a continuous model with a density.
    """
    return [
        sample_size_report(tc, gamma, eps, a, density_bound(dist, a, delta_offset))
        for a in map(float, alphas)
    ]
