"""Loss-distribution families and empirical samples.

Every source of randomness used by the risk computations lives here:

- six parametric families (power/Beta on [0,1], Exponential with rate 1,
  Pareto, Student t, two-point, standard uniform), each with analytic CDF,
  left quantile, mean, closed-form expected shortfall, partial expectation
  E[(L-m)+], extreme-value classification and seeded inverse-transform
  sampling;
- an additive ``shift`` on every family (location only; "centered" variants
  use shift = -mean);
- :class:`Sample`, an empirical distribution over observed values exposing
  the same risk interface with exact order-statistic/partial-sum formulas.

Parametric families and samples are interchangeable for all risk
operations (same duck-typed interface), so downstream code never branches
on the source kind.

Sampling is inverse-transform only, driven by numpy's PCG64 generator, so
a (family, n, seed) triple reproduces bit-identical samples.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.special import stdtr, stdtrit


class EvClassification(NamedTuple):
    """Extreme-value classification of a distribution's upper tail.

    mda            one of "frechet", "weibull", "gumbel"
    eta            tail index (None for gumbel)
    rho            second-order parameter <= 0, or None when the tail is an
                   exact power law / no second-order term applies
    auxiliary      evaluator x -> A(x) for the second-order term (None for
                   gumbel; the zero function when rho is None)
    right_endpoint finite upper endpoint for weibull, else None
    """

    mda: str
    eta: Optional[float]
    rho: Optional[float]
    auxiliary: Optional[Callable[[float], float]]
    right_endpoint: Optional[float]


# uniforms below this are raised to it before the inverse transform
_U_FLOOR = 2.0 ** -53


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _scalar_in(x) -> bool:
    return np.ndim(x) == 0


class Distribution:
    """Base class for the parametric families.

    Subclasses implement the standard (unshifted) family through the
    ``_cdf0 / _quantile0 / _mean0 / _es0 / _pdf0 / _support0`` hooks, all
    of which accept numpy arrays where meaningful.  The public methods add
    the shift, validate levels, and keep scalar-in/scalar-out semantics.
    """

    family = "base"
    continuous = True

    def __init__(self, shift: float = 0.0):
        shift = float(shift)
        if not math.isfinite(shift):
            raise ValueError(f"shift must be finite, got {shift}")
        self.shift = shift

    # --- hooks ----------------------------------------------------------
    def _cdf0(self, x):
        raise NotImplementedError

    def _quantile0(self, u):
        raise NotImplementedError

    def _mean0(self) -> float:
        raise NotImplementedError

    def _es0(self, beta):
        raise NotImplementedError

    def _pdf0(self, x):
        raise NotImplementedError

    def _support0(self):
        raise NotImplementedError

    def _params_label(self) -> str:
        return ""

    # --- public interface -----------------------------------------------
    def cdf(self, x):
        """P[L <= x]."""
        out = self._cdf0(_as_float_array(x) - self.shift)
        return float(out) if _scalar_in(x) else out

    def prob_lt(self, x):
        """P[L < x]; equals the CDF for the continuous families."""
        return self.cdf(x)

    def quantile(self, u):
        """Left quantile q(u) = inf{m : F(m) >= u}, 0 < u < 1."""
        ua = _as_float_array(u)
        if np.any((ua <= 0.0) | (ua >= 1.0)):
            raise ValueError("quantile level u must lie strictly in (0, 1)")
        out = self._quantile0(ua) + self.shift
        return float(out) if _scalar_in(u) else out

    def mean(self) -> float:
        return self._mean0() + self.shift

    def es(self, beta):
        """Expected shortfall (tail average above the beta-quantile).

        Closed form per family; beta in [0, 1).  es(0) is the mean exactly.
        """
        ba = _as_float_array(beta)
        if np.any((ba < 0.0) | (ba >= 1.0)):
            raise ValueError("expected-shortfall level must lie in [0, 1)")
        if _scalar_in(beta):
            if ba == 0.0:
                return self.mean()
            return float(self._es0(ba)) + self.shift
        zero = ba == 0.0
        safe = np.where(zero, 0.5, ba)
        out = self._es0(safe) + self.shift
        if zero.any():
            out = np.where(zero, self.mean(), out)
        return out

    def eplus(self, m):
        """Partial expectation E[(L - m)+].

        Uses the tail identity E[(L-m)+] = (1-F(m)) (ES_{F(m)} - m), which
        is exact for every law, including atoms and m outside the support.
        """
        m = float(m)
        u = self.cdf(m)
        if u >= 1.0:
            return 0.0
        if u <= 0.0:
            return self.mean() - m
        return (1.0 - u) * (self.es(u) - m)

    def density(self, x):
        """Density f(x) (defined for the continuous families)."""
        out = self._pdf0(_as_float_array(x) - self.shift)
        return float(out) if _scalar_in(x) else out

    def support(self):
        lo, hi = self._support0()
        return lo + self.shift, hi + self.shift

    def sample(self, n: int, seed: int) -> "Sample":
        """Draw n i.i.d. values by inverse transform; deterministic in seed.

        Uniforms come from numpy's PCG64 stream for ``seed``; each uniform
        is pushed through the left quantile (values in (0,1); the zero
        endpoint is nudged to 2^-53 so quantiles stay finite).
        """
        n = int(n)
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        rng = np.random.Generator(np.random.PCG64(int(seed)))
        u = rng.random(n)
        np.maximum(u, _U_FLOOR, out=u)
        return Sample(self.quantile(u))

    def mda(self) -> EvClassification:
        raise NotImplementedError

    def with_shift(self, shift: float) -> "Distribution":
        raise NotImplementedError

    def centered(self) -> "Distribution":
        """Copy of this distribution shifted to zero mean."""
        return self.with_shift(self.shift - self.mean())

    @property
    def label(self) -> str:
        body = self._params_label()
        if self.shift != 0.0:
            body = f"{body},shift={self.shift:g}" if body else f"shift={self.shift:g}"
        return f"{self.family}:{body}" if body else self.family

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class PowerBeta(Distribution):
    """F(x) = x^a on [0, 1] (a > 0); the Beta(a, 1) law.

    Weibull-type upper tail with index 1: 1 - F(1 - 1/t) = a/t + O(1/t^2),
    with second-order term A(x) = (a-1)/(2x) when a != 1.
    """

    family = "power"

    def __init__(self, a: float, shift: float = 0.0):
        super().__init__(shift)
        a = float(a)
        if not (a > 0.0) or not math.isfinite(a):
            raise ValueError(f"power family needs a > 0, got a={a}")
        self.a = a

    def _cdf0(self, x):
        return np.clip(x, 0.0, 1.0) ** self.a

    def _quantile0(self, u):
        return u ** (1.0 / self.a)

    def _mean0(self):
        return self.a / (self.a + 1.0)

    def _es0(self, beta):
        a = self.a
        # 1 - beta^k as -expm1(k log beta): no cancellation as beta -> 1
        return a * -np.expm1((a + 1.0) / a * np.log(beta)) / ((1.0 - beta) * (a + 1.0))

    def _pdf0(self, x):
        x = np.asarray(x)
        inside = (x >= 0.0) & (x <= 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.a * np.where(inside, x, 1.0) ** (self.a - 1.0)
        return np.where(inside, val, 0.0)

    def _support0(self):
        return 0.0, 1.0

    def _params_label(self):
        return f"a={self.a:g}"

    def mda(self) -> EvClassification:
        xhat = 1.0 + self.shift
        a = self.a
        if a == 1.0:
            return EvClassification("weibull", 1.0, None, lambda x: 0.0, xhat)
        return EvClassification(
            "weibull", 1.0, -1.0, lambda x: (a - 1.0) / (2.0 * x), xhat
        )

    def with_shift(self, shift):
        return type(self)(a=self.a, shift=shift) if type(self) is PowerBeta \
            else type(self)(shift=shift)


class Uniform01(PowerBeta):
    """Standard uniform on [0, 1] (power family with a = 1)."""

    family = "uniform"

    def __init__(self, shift: float = 0.0):
        super().__init__(a=1.0, shift=shift)

    def _params_label(self):
        return ""


class Exponential(Distribution):
    """Standard exponential, rate fixed to 1; Gumbel-type upper tail."""

    family = "exp"

    def _cdf0(self, x):
        x = np.asarray(x)
        return np.where(x > 0.0, -np.expm1(-np.where(x > 0.0, x, 0.0)), 0.0)

    def _quantile0(self, u):
        return -np.log1p(-u)

    def _mean0(self):
        return 1.0

    def _es0(self, beta):
        return 1.0 - np.log1p(-beta)

    def _pdf0(self, x):
        x = np.asarray(x)
        return np.where(x >= 0.0, np.exp(-np.where(x >= 0.0, x, 0.0)), 0.0)

    def _support0(self):
        return 0.0, math.inf

    def mda(self) -> EvClassification:
        return EvClassification("gumbel", None, None, None, None)

    def with_shift(self, shift):
        return Exponential(shift=shift)


class Pareto(Distribution):
    """F(x) = 1 - (1+x)^(-a) on [0, inf), a > 1 so the mean is finite.

    Frechet-type tail with index a.  Unshifted, the tail is second-order
    regularly varying with rho = -1 and A(x) = a/x; an additive shift s
    changes the expansion of (1 + x - s)^(-a) around x^(-a), giving
    A(x) = a(1-s)/x (and an exact power law when s = 1).
    """

    family = "pareto"

    def __init__(self, a: float, shift: float = 0.0):
        super().__init__(shift)
        a = float(a)
        if not (a > 1.0) or not math.isfinite(a):
            raise ValueError(
                f"pareto family needs a > 1 for a finite mean, got a={a}"
            )
        self.a = a

    def _cdf0(self, x):
        x = np.asarray(x)
        pos = x > 0.0
        return np.where(pos, 1.0 - (1.0 + np.where(pos, x, 0.0)) ** -self.a, 0.0)

    def _quantile0(self, u):
        return (1.0 - u) ** (-1.0 / self.a) - 1.0

    def _mean0(self):
        return 1.0 / (self.a - 1.0)

    def _es0(self, beta):
        a = self.a
        return a / (a - 1.0) * (1.0 - beta) ** (-1.0 / a) - 1.0

    def _pdf0(self, x):
        x = np.asarray(x)
        pos = x >= 0.0
        return np.where(
            pos, self.a * (1.0 + np.where(pos, x, 0.0)) ** -(self.a + 1.0), 0.0
        )

    def _support0(self):
        return 0.0, math.inf

    def _params_label(self):
        return f"a={self.a:g}"

    def mda(self) -> EvClassification:
        a = self.a
        coef = a * (1.0 - self.shift)
        if coef == 0.0:
            return EvClassification("frechet", a, None, lambda x: 0.0, None)
        return EvClassification("frechet", a, -1.0, lambda x: coef / x, None)

    def with_shift(self, shift):
        return Pareto(a=self.a, shift=shift)


def _t_log_norm(nu: float) -> float:
    """log of the t density normalization Gamma((nu+1)/2)/(sqrt(nu pi) Gamma(nu/2))."""
    return (
        math.lgamma(0.5 * (nu + 1.0))
        - math.lgamma(0.5 * nu)
        - 0.5 * math.log(nu * math.pi)
    )


def _t_density(nu: float, x):
    return np.exp(_t_log_norm(nu) - 0.5 * (nu + 1.0) * np.log1p(x * x / nu))


def _t_lower_tail(nu: float, p, x):
    """Polish x ~ stdtrit(nu, p) so that stdtr(nu, x) = p, for p below 2^-53.

    There stdtrit drifts (stdtr(nu, x)/p near 9 for nu = 2.1) or returns
    +inf; the fixed point x <- x (stdtr(nu, x)/p)^(1/nu) contracts at rate
    O(nu/x^2) on the power-law tail, so a few steps reach full precision.
    Non-finite starts are replaced by the tail asymptote
    P[T < x] ~ c nu^((nu-1)/2) |x|^(-nu), c the density's normalization.
    Where x*x overflows inside stdtr (nu < 2 at the very smallest p) the
    result is -inf.
    """
    log_c = _t_log_norm(nu) + 0.5 * (nu - 1.0) * math.log(nu)
    x = np.where(np.isfinite(x), x, -np.exp((log_c - np.log(p)) / nu))
    with np.errstate(invalid="ignore"):  # -inf * 0 once stdtr has underflowed
        for _ in range(4):
            f = stdtr(nu, x)
            x = np.where(f > 0.0, x * (f / p) ** (1.0 / nu), -np.inf)
    return x


def _t_quantile(nu: float, u):
    """Left quantile of the standard t, inverting the smaller tail probability."""
    upper = u > 0.5
    p = np.where(upper, 1.0 - u, u)
    x = stdtrit(nu, p)
    deep = p < _U_FLOOR
    if np.any(deep):
        x = np.where(deep, _t_lower_tail(nu, p, x), x)
    return np.where(upper, -x, x)


class StudentT(Distribution):
    """Standard Student t with nu > 1 degrees of freedom.

    Backed by ``scipy.special.stdtr`` (CDF) and ``stdtrit`` (quantile, on
    the smaller tail probability so both tails keep relative accuracy).
    Below tail probability 2^-53, under the sampler's floor, stdtrit loses
    precision, so the quantile is polished there against stdtr.

    Frechet-type tail with index nu; unshifted, rho = -2 with
    A(x) = nu^2 (nu+1) / ((nu+2) x^2).  A shift s makes the 1/x term
    dominant: rho = -1 with A(x) = -nu s / x.
    """

    family = "student"

    def __init__(self, nu: float, shift: float = 0.0):
        super().__init__(shift)
        nu = float(nu)
        if not (nu > 1.0) or not math.isfinite(nu):
            raise ValueError(
                f"student family needs nu > 1 for a finite mean, got nu={nu}"
            )
        self.nu = nu

    def _cdf0(self, x):
        return stdtr(self.nu, x)

    def _quantile0(self, u):
        return _t_quantile(self.nu, u)

    def _mean0(self):
        return 0.0

    def _es0(self, beta):
        nu = self.nu
        q = _t_quantile(nu, beta)
        return _t_density(nu, q) * (nu + q * q) / ((1.0 - beta) * (nu - 1.0))

    def _pdf0(self, x):
        return _t_density(self.nu, x)

    def _support0(self):
        return -math.inf, math.inf

    def _params_label(self):
        return f"nu={self.nu:g}"

    def mda(self) -> EvClassification:
        nu = self.nu
        if self.shift == 0.0:
            aux = lambda x: nu * nu * (nu + 1.0) / ((nu + 2.0) * x * x)
            return EvClassification("frechet", nu, -2.0, aux, None)
        s = self.shift
        return EvClassification(
            "frechet", nu, -1.0, lambda x: -nu * s / x, None
        )

    def with_shift(self, shift):
        return StudentT(nu=self.nu, shift=shift)


class TwoPoint(Distribution):
    """Law putting mass p on x1 and 1-p on x2, x1 <= x2."""

    family = "twopoint"
    continuous = False

    def __init__(self, x1: float, x2: float, p: float, shift: float = 0.0):
        super().__init__(shift)
        x1, x2, p = float(x1), float(x2), float(p)
        if not (math.isfinite(x1) and math.isfinite(x2)) or x1 > x2:
            raise ValueError(f"twopoint needs finite x1 <= x2, got {x1}, {x2}")
        if not (0.0 < p < 1.0):
            raise ValueError(f"twopoint needs 0 < p < 1, got p={p}")
        self.x1, self.x2, self.p = x1, x2, p

    def _cdf0(self, x):
        x = np.asarray(x)
        return np.where(x >= self.x2, 1.0, np.where(x >= self.x1, self.p, 0.0))

    def prob_lt(self, x):
        xs = _as_float_array(x) - self.shift
        out = np.where(xs > self.x2, 1.0, np.where(xs > self.x1, self.p, 0.0))
        return float(out) if _scalar_in(x) else out

    def _quantile0(self, u):
        return np.where(u <= self.p, self.x1, self.x2)

    def _mean0(self):
        return self.p * self.x1 + (1.0 - self.p) * self.x2

    def _es0(self, beta):
        beta = np.asarray(beta, dtype=float)
        below = beta < self.p
        safe = np.where(below, beta, 0.0)
        mixed = ((self.p - safe) * self.x1 + (1.0 - self.p) * self.x2) / (1.0 - safe)
        return np.where(below, mixed, self.x2)

    def _pdf0(self, x):
        raise NotImplementedError("two-point law has no density")

    def _support0(self):
        return self.x1, self.x2

    def _params_label(self):
        return f"x1={self.x1:g},x2={self.x2:g},p={self.p:g}"

    def mda(self) -> EvClassification:
        raise ValueError(
            "two-point laws have no extreme-value classification here"
        )

    def with_shift(self, shift):
        return TwoPoint(self.x1, self.x2, self.p, shift=shift)


def order_index(n: int, u):
    """Smallest i with i/n >= u (1-based, clipped to [1, n]): the order
    statistic of the left empirical quantile, robust to fp noise in n*u."""
    nu = n * np.asarray(u, dtype=float)
    i = np.ceil(nu * (1.0 - 1e-14)).astype(np.int64)
    return np.clip(i, 1, n)


class Sample:
    """Empirical distribution over observed values.

    Exposes the same risk interface as the parametric families with exact
    order-statistic / partial-sum formulas:

    - ``quantile(u)``: left quantile, the ceil(n u)-th order statistic;
    - ``es(beta)``: exact tail average
      [(i/n - beta) x_(i) + sum_{j>i} x_(j)/n] / (1-beta) with i = ceil(n beta);
    - ``eplus(m)``: exact partial mean sum (x_j - m)+ / n.

    Values are sorted ascending on construction; suffix sums are cached.
    """

    continuous = False

    def __init__(self, values):
        v = np.asarray(values, dtype=float).ravel()
        if v.size < 1:
            raise ValueError("a sample needs at least one value")
        if not np.isfinite(v).all():
            raise ValueError("sample values must be finite (no NaN/inf)")
        self.values = np.sort(v)
        self.n = v.size
        # suffix[i] = sum of values[i:], suffix[n] = 0; accumulated from the
        # tail so short tail sums carry only short rounding chains
        self._suffix = np.zeros(self.n + 1)
        self._suffix[:-1] = np.cumsum(self.values[::-1])[::-1]

    def mean(self) -> float:
        return float(self._suffix[0] / self.n)

    def quantile(self, u):
        ua = _as_float_array(u)
        if np.any((ua <= 0.0) | (ua > 1.0)):
            raise ValueError("empirical quantile level must lie in (0, 1]")
        out = self.values[order_index(self.n, ua) - 1]
        return float(out) if _scalar_in(u) else out

    def cdf(self, x):
        out = np.searchsorted(self.values, _as_float_array(x), side="right") / self.n
        return float(out) if _scalar_in(x) else out

    def prob_lt(self, x):
        out = np.searchsorted(self.values, _as_float_array(x), side="left") / self.n
        return float(out) if _scalar_in(x) else out

    def es(self, beta):
        ba = _as_float_array(beta)
        if np.any((ba < 0.0) | (ba >= 1.0)):
            raise ValueError("expected-shortfall level must lie in [0, 1)")
        n = self.n
        i = np.clip(np.ceil(ba * n).astype(np.int64), 0, n)
        # at beta = i/n exactly the partial-width term vanishes, so an
        # off-by-one from fp noise in n*beta changes nothing
        partial = (i / n - ba) * self.values[np.maximum(i, 1) - 1]
        partial = np.where(i >= 1, partial, 0.0)
        out = (partial + self._suffix[i] / n) / (1.0 - ba)
        return float(out) if _scalar_in(beta) else out

    def eplus(self, m):
        """E[(L - m)+] under the empirical law, exact."""
        m = float(m)
        j = int(np.searchsorted(self.values, m, side="right"))
        return (self._suffix[j] - (self.n - j) * m) / self.n

    def support(self):
        return float(self.values[0]), float(self.values[-1])

    def min(self) -> float:
        return float(self.values[0])

    def max(self) -> float:
        return float(self.values[-1])

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"<Sample n={self.n} range=[{self.values[0]:g}, {self.values[-1]:g}]>"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_FAMILY_PARAMS = {
    "pareto": ("a",),
    "student": ("nu",),
    "power": ("a",),
    "exp": (),
    "uniform": (),
    "twopoint": ("x1", "x2", "p"),
}


def parse_distribution(text: str) -> Distribution:
    """Parse the compact text form of a distribution.

    Examples: "pareto:a=2.1", "student:nu=2.3", "power:a=1.1", "exp",
    "uniform", "twopoint:x1=0,x2=1,p=0.5"; every family accepts an
    optional ",shift=-1.0" (or ":shift=..." for the parameter-free ones).
    """
    text = text.strip()
    if not text:
        raise ValueError("empty distribution spec")
    name, _, rest = text.partition(":")
    name = name.strip().lower()
    if name not in _FAMILY_PARAMS:
        known = ", ".join(sorted(_FAMILY_PARAMS))
        raise ValueError(f"unknown family {name!r} (known: {known})")
    kwargs = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            key = key.strip().lower()
            if not eq or not key:
                raise ValueError(f"malformed parameter {item!r} in {text!r}")
            try:
                kwargs[key] = float(val)
            except ValueError:
                raise ValueError(
                    f"parameter {key}={val.strip()!r} in {text!r} is not a number"
                ) from None
    allowed = set(_FAMILY_PARAMS[name]) | {"shift"}
    extra = set(kwargs) - allowed
    if extra:
        raise ValueError(
            f"family {name!r} does not take parameter(s) {sorted(extra)}"
        )
    missing = [p for p in _FAMILY_PARAMS[name] if p not in kwargs]
    if missing:
        raise ValueError(f"family {name!r} needs parameter(s) {missing}")
    ctor = {
        "pareto": Pareto,
        "student": StudentT,
        "power": PowerBeta,
        "exp": Exponential,
        "uniform": Uniform01,
        "twopoint": TwoPoint,
    }[name]
    return ctor(**kwargs)
