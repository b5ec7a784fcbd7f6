"""Finite-sample deviation bounds and sample-size planning.

The empirical ES and expectile of n i.i.d. draws deviate from the true
value by at most eps (relative, through the deviation threshold h) with
probability controlled by the moment class of the loss:

- exponential moments E[exp(r|L|^k)] < inf, k > 1:  bound C exp(-c n h^2);
- stretched-exponential moments, 0 < k < 1, with Orlicz rate s in (0, k):
  bound C exp(-c n^s h^2);
- polynomial moments E[|L|^q] < inf, q > 2, rate s in (2, q):
  bound C n^(1-s) h^(2(1-s)).

The threshold is h = eps (1-alpha) for ES and h = eps (1-alpha)/alpha
for the expectile, valid for 0 < eps <= alpha/(1-alpha).  Inverting the
bound at a confidence budget gamma gives the planning sample sizes; the
VaR counterpart comes from the Dvoretzky-Kiefer-Wolfowitz-type estimate
n >= -ln(gamma/4) / (2 eps^2 delta_alpha^2), with delta_alpha a lower
bound on the density beyond the alpha-quantile.

The constants C and c are generally *not explicit* in the underlying
concentration results; every report carries the values used (defaults
C = c = 1) so the absolute sizes are read as orders of magnitude, while
ratios of sizes across risk measures are constant-free.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Optional, Sequence, Union

from .distributions import Distribution

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
    "size_ratio_curve",
]


class TailClass:
    """Base moment class; carries the unspecified constants C, c >= ...

    Subclasses fix the functional form of the deviation bound.
    """

    def __init__(self, C: float = 1.0, c: float = 1.0):
        C = float(C)
        c = float(c)
        if not (C > 0.0) or not math.isfinite(C):
            raise ValueError(f"bound constant C must be a finite positive real, got {C}")
        if not (c > 0.0) or not math.isfinite(c):
            raise ValueError(f"bound constant c must be a finite positive real, got {c}")
        self.C = C
        self.c = c

    def _label_params(self) -> str:
        return ""

    def __repr__(self):
        extra = self._label_params()
        sep = ", " if extra else ""
        return f"{type(self).__name__}({extra}{sep}C={self.C:g}, c={self.c:g})"


class ExpMoment(TailClass):
    """Exponential moment class: E[exp(r |L|^k)] finite for some k > 1."""

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

    def _label_params(self) -> str:
        return f"k={self.k:g}, r={self.r:g}"


class SubExpMoment(TailClass):
    """Stretched-exponential class: E[exp(r |L|^k)] finite, 0 < k < 1.

    ``s`` in (0, k) is the polynomial-in-n rate appearing in the bound
    exponent n^s.
    """

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

    def _label_params(self) -> str:
        return f"k={self.k:g}, r={self.r:g}, s={self.s:g}"


class PolyMoment(TailClass):
    """Polynomial moment class: E[|L|^q] finite for some q > 2.

    ``s`` in (2, q) is the rate in the power bound C n^(1-s) h^(2(1-s)).
    """

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

    def _label_params(self) -> str:
        return f"q={self.q:g}, s={self.s:g}"


_TAIL_REQUIRED = {
    "exp": ("k", "r"),
    "subexp": ("k", "r", "s"),
    "poly": ("q", "s"),
}


def parse_tail_class(text: str) -> TailClass:
    """Parse a moment-class spec like ``poly:q=3,s=2.5`` or
    ``exp:k=2,r=1,C=2,c=0.5``.

    The keys C and c are case-sensitive (C is the prefactor, c the
    exponent constant); all other keys are lowercase.
    """
    text = text.strip()
    head, sep, body = text.partition(":")
    family = head.strip().lower()
    if family not in _TAIL_REQUIRED:
        raise ValueError(
            f"unknown tail class {head.strip()!r}: expected one of exp, subexp, poly"
        )
    if not sep or not body.strip():
        raise ValueError(f"tail class {family!r} needs parameters, e.g. '{_tail_example(family)}'")
    kwargs = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, val = item.partition("=")
        key = key.strip()
        if not eq or not val.strip():
            raise ValueError(f"malformed tail parameter {item!r}: expected key=value")
        if key not in ("C", "c"):
            key = key.lower()
        if key not in _TAIL_REQUIRED[family] + ("C", "c"):
            raise ValueError(f"unknown parameter {key!r} for tail class {family!r}")
        if key in kwargs:
            raise ValueError(f"duplicate tail parameter {key!r}")
        try:
            kwargs[key] = float(val.strip())
        except ValueError:
            raise ValueError(f"non-numeric value for tail parameter {key!r}: {val.strip()!r}") from None
    missing = [k for k in _TAIL_REQUIRED[family] if k not in kwargs]
    if missing:
        raise ValueError(f"tail class {family!r} is missing parameter(s): {', '.join(missing)}")
    cls = {"exp": ExpMoment, "subexp": SubExpMoment, "poly": PolyMoment}[family]
    return cls(**kwargs)


def _tail_example(family: str) -> str:
    return {
        "exp": "exp:k=2,r=1",
        "subexp": "subexp:k=0.5,r=1,s=0.3",
        "poly": "poly:q=3,s=2.5",
    }[family]


def _threshold(eps: float, alpha: float, measure: str) -> float:
    eps = float(eps)
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"level alpha must lie in (0, 1), got {alpha}")
    if not (0.0 < eps <= alpha / (1.0 - alpha)):
        raise ValueError(
            f"relative accuracy eps must lie in (0, alpha/(1-alpha)] = "
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
    """Probability bound for a relative deviation beyond eps with n draws.

    The raw bound is clamped into [0, 1]; values near 1 mean the moment
    class says nothing at this sample size.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"sample size n must be a positive integer, got {n}")
    h = _threshold(eps, alpha, measure)
    if isinstance(tc, ExpMoment):
        raw = tc.C * math.exp(-tc.c * n * h * h)
    elif isinstance(tc, SubExpMoment):
        raw = tc.C * math.exp(-tc.c * n ** tc.s * h * h)
    elif isinstance(tc, PolyMoment):
        raw = tc.C * n ** (1.0 - tc.s) * h ** (2.0 * (1.0 - tc.s))
    else:
        raise TypeError(f"unsupported tail class {type(tc).__name__}")
    return min(1.0, raw)


def sample_size(
    tc: TailClass, gamma: float, eps: float, alpha: float, measure: str = "es"
) -> int:
    """Smallest n making the deviation bound at most gamma.

    Inverts the bound formula and rounds up.  The stretched-exponential
    branch inverts the two-sided form with prefactor 2C (the shape the
    underlying estimate takes), so the reported bound at the returned n
    sits near gamma/2 rather than gamma; the exponential and polynomial
    branches invert exactly.  When the confidence budget
    already exceeds the bound's prefactor (gamma >= C on an exponential
    branch) every n works; returns 1 with a warning, since that usually
    signals a misconfigured budget rather than a genuinely easy problem.
    """
    gamma = float(gamma)
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"confidence budget gamma must lie in (0, 1), got {gamma}")
    h = _threshold(eps, alpha, measure)
    if isinstance(tc, ExpMoment):
        t = -math.log(gamma / tc.C) / tc.c
        if t <= 0.0:
            warnings.warn(
                f"gamma={gamma:g} >= C={tc.C:g}: exponential bound is below budget "
                "for every n; returning 1",
                stacklevel=2,
            )
            return 1
        raw = t / (h * h)
    elif isinstance(tc, SubExpMoment):
        t = -math.log(gamma / (2.0 * tc.C)) / tc.c
        if t <= 0.0:
            warnings.warn(
                f"gamma={gamma:g} >= 2C={2.0 * tc.C:g}: stretched-exponential bound is "
                "below budget for every n; returning 1",
                stacklevel=2,
            )
            return 1
        raw = (t / (h * h)) ** (1.0 / tc.s)
    elif isinstance(tc, PolyMoment):
        raw = (tc.C / gamma) ** (1.0 / (tc.s - 1.0)) * h ** -2.0
    else:
        raise TypeError(f"unsupported tail class {type(tc).__name__}")
    return max(1, int(math.ceil(raw)))


def var_sample_size(delta_alpha: float, gamma: float, eps: float) -> int:
    """Quantile (VaR) planning size n >= -ln(gamma/4) / (2 eps^2 delta^2).

    ``delta_alpha`` is a positive lower bound on the density just beyond
    the alpha-quantile; halving it quadruples the requirement.
    """
    delta_alpha = float(delta_alpha)
    if not (delta_alpha > 0.0):
        raise ValueError(
            f"density lower bound delta_alpha must be positive, got {delta_alpha}"
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
    rather than at the point itself.  Raises when the model has no
    density or the density vanishes there.
    """
    offset = float(offset)
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
    rows = []
    for a in alphas:
        a = float(a)
        dens = density_bound(dist, a, delta_offset)
        n_var = var_sample_size(dens, gamma, eps)
        n_es = sample_size(tc, gamma, eps, a, "es")
        n_exp = sample_size(tc, gamma, eps, a, "expectile")
        rows.append(
            SampleSizeReport(
                alpha=a,
                n_var=n_var,
                n_es=n_es,
                n_expectile=n_exp,
                ratio_es_var=n_es / n_var,
                ratio_expectile_var=n_exp / n_var,
                eps=float(eps),
                gamma=float(gamma),
                delta_alpha=dens,
                C=tc.C,
                c=tc.c,
            )
        )
    return rows
