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
operations (same duck-typed interface).  Only :mod:`tailrisk.risk_core`
branches on the source kind, for exactness: ``expectile`` and
``expected_shortfall(check=True)`` on a sample (its root from its linear
segment, its O(log n) plug-in ES), and ``_step_quantile``, the steps of a
sample's or a two-point law's quantile that ``distortion_value`` and the
two-point ES check sum exactly.

Sampling is inverse-transform only, driven by numpy's PCG64 generator, so
a (family, n, seed) triple reproduces bit-identical samples.  A draw holds
one buffer of n floats: each family's one quantile formula,
``_quantile0(u, out=None)``, passes ``out`` through its ufunc chain, and
``Distribution._draw`` alone gives it the uniforms' own buffer to overwrite
and adds the shift in place.  ``quantile`` never passes ``out``, so a
caller's levels are never written.

Scalar contract of every loss source, families and :class:`Sample` alike:
``cdf``, ``prob_lt``, ``quantile``, ``es`` and the continuous families'
``density`` take a scalar (a Python or numpy number, or a 0-d array) as one
Python float and return a ``float``.  A scalar passes the same validation
as an array (the same levels raise the same ``ValueError``) and gives the
same bits as the matching element of the array call: ``_at`` runs the one
formula, written with numpy ufuncs (``np.power``, not ``**``, whose scalar
form may round differently from the array loop), on either.  A NaN
argument gives NaN without a warning.  Quantile levels lie in (0, 1), for a
``Sample`` in (0, 1] (``quantile(1)`` is its maximum); ES levels lie in
[0, 1).  ``eplus`` takes a scalar only and returns a ``float``.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

import numpy as np

# scipy.special's Student t CDF and quantile, bound by _load_t_kernels on the
# first Student t evaluation: importing scipy.special takes about 0.3 s, and
# no other family needs it
stdtr = stdtrit = None


def _load_t_kernels():
    global stdtr, stdtrit
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
    relation       for gumbel, "equivalent" (e_alpha/q_alpha -> 1) or
                   "log-equivalent" (only their logs' ratio -> 1), else None
    """

    mda: str
    eta: Optional[float]
    rho: Optional[float]
    auxiliary: Optional[Callable[[float], float]]
    right_endpoint: Optional[float]
    relation: Optional[str] = None


# uniforms below this are raised to it before the inverse transform
_U_FLOOR = 2.0 ** -53


def _scalar(x) -> Optional[float]:
    """x as a Python float when it is a scalar (a Python or numpy number or
    a 0-d array), else None."""
    if isinstance(x, (float, int)) or np.ndim(x) == 0:
        return float(x)
    return None


def _at(f, x, shift=0.0):
    """f(x - shift) for an elementwise f: a scalar x reaches f as one Python
    float and gives a ``float``, anything else gives f's array."""
    s = _scalar(x)
    if s is not None:
        return float(f(s - shift))
    return f(np.asarray(x, dtype=float) - shift)


def _spec_number(v: float) -> str:
    """v for a spec: with ``:g`` where that parses back to v, else its ``repr``."""
    return text if float(text := f"{v:g}") == v else repr(v)


_QUANTILE_LEVEL = "quantile level u must lie strictly in (0, 1)"
_ES_LEVEL = "expected-shortfall level must lie in [0, 1)"


class Distribution:
    """Base class for the parametric families.

    Each family defines the standard (unshifted) law through the hooks
    ``_cdf0 / _quantile0 / _mean0 / _es0 / _pdf0 / _support0`` (numpy
    arrays accepted where meaningful) and ``mda()``, none declared here.
    The public methods add the shift, validate levels, and keep
    scalar-in/scalar-out semantics.
    ``_quantile0(u, out)`` writes its result to ``out`` when given, which
    may be u itself; only ``_draw`` gives one.

    Each family declares its spec name ``family`` and its parameters
    ``params`` (besides ``shift``) once, for ``label``, ``with_shift`` and
    ``parse_distribution``, and an ``example`` spec for its messages.
    """

    family = "base"
    params = ()
    continuous = True

    def __init__(self, shift: float = 0.0):
        shift = float(shift)
        if not math.isfinite(shift):
            raise ValueError(f"shift must be finite, got {shift}")
        self.shift = shift

    def cdf(self, x):
        """P[L <= x]."""
        return _at(self._cdf0, x, self.shift)

    def prob_lt(self, x):
        """P[L < x]; equals the CDF for the continuous families."""
        return self.cdf(x)

    def quantile(self, u):
        """Left quantile q(u) = inf{m : F(m) >= u}, 0 < u < 1."""
        s = _scalar(u)
        if s is not None:
            if s <= 0.0 or s >= 1.0:
                raise ValueError(_QUANTILE_LEVEL)
            return float(self._quantile0(s)) + self.shift
        ua = np.asarray(u, dtype=float)
        if np.any((ua <= 0.0) | (ua >= 1.0)):
            raise ValueError(_QUANTILE_LEVEL)
        return self._quantile0(ua) + self.shift

    def mean(self) -> float:
        return self._mean0() + self.shift

    def es(self, beta):
        """Expected shortfall (tail average above the beta-quantile).

        Closed form per family; beta in [0, 1).  es(0) is the mean exactly.
        """
        s = _scalar(beta)
        if s is not None:
            if s < 0.0 or s >= 1.0:
                raise ValueError(_ES_LEVEL)
            if s == 0.0:
                return self.mean()
            return float(self._es0(s)) + self.shift
        ba = np.asarray(beta, dtype=float)
        if np.any((ba < 0.0) | (ba >= 1.0)):
            raise ValueError(_ES_LEVEL)
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
        return _at(self._pdf0, x, self.shift)

    def support(self):
        lo, hi = self._support0()
        return lo + self.shift, hi + self.shift

    def sample(self, n: int, seed: int) -> "Sample":
        """Draw n i.i.d. values by inverse transform; deterministic in seed.

        Uniforms come from numpy's PCG64 stream for ``seed``; each uniform
        is pushed through the left quantile (values in (0,1); the zero
        endpoint is nudged to 2^-53 so quantiles stay finite).  The values
        are those of ``_draw``, which the ratio tables read unsorted, sorted
        in place into the ``Sample``: the uniforms' buffer becomes the
        sample's values, with no second n-float array.
        """
        x = self._draw(n, seed)
        x.sort()
        return Sample._from_sorted(x)

    def _draw(self, n: int, seed: int) -> np.ndarray:
        """The n values of ``sample(n, seed)`` in draw order, as a new array
        the caller owns: the uniforms' own buffer, overwritten in place by
        the family's quantile formula and then by the shift."""
        n = int(n)
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
        rng = np.random.Generator(np.random.PCG64(int(seed)))
        u = rng.random(n)
        np.maximum(u, _U_FLOOR, out=u)
        # u lies in [2^-53, 1) by construction: no level check to make; the
        # quantile overwrites the uniforms, and the shift its result
        x = self._quantile0(u, out=u)
        x += self.shift
        return x

    def with_shift(self, shift: float) -> "Distribution":
        """Copy of this law, of the same class, with its shift set to ``shift``."""
        # the attributes hold nothing derived from the shift; copying them is
        # faster than copy.copy or a rebuild from params
        d = object.__new__(type(self))
        d.__dict__.update(self.__dict__)
        Distribution.__init__(d, shift)
        return d

    def centered(self) -> "Distribution":
        """Copy of this distribution shifted to zero mean."""
        return self.with_shift(self.shift - self.mean())

    @property
    def label(self) -> str:
        """The spec of this law, e.g. ``pareto:a=2.1,shift=-1``."""
        items = [f"{k}={_spec_number(getattr(self, k))}" for k in self.params]
        if self.shift != 0.0:
            items.append(f"shift={_spec_number(self.shift)}")
        return f"{self.family}:{','.join(items)}" if items else self.family

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class PowerBeta(Distribution):
    """F(x) = x^a on [0, 1] (a > 0); the Beta(a, 1) law.

    Weibull-type upper tail with index 1: 1 - F(1 - 1/t) = a/t + O(1/t^2),
    with second-order term A(x) = (a-1)/(2x) when a != 1.
    """

    family = "power"
    params = ("a",)
    example = "power:a=2"

    def __init__(self, a: float, shift: float = 0.0):
        super().__init__(shift)
        a = float(a)
        if not (a > 0.0) or not math.isfinite(a):
            raise ValueError(f"power family needs a > 0, got a={a}")
        self.a = a

    def _cdf0(self, x):
        return np.power(np.minimum(np.maximum(x, 0.0), 1.0), self.a)

    def _quantile0(self, u, out=None):
        return np.power(u, 1.0 / self.a, out=out)

    def _mean0(self):
        return self.a / (self.a + 1.0)

    def _es0(self, beta):
        a = self.a
        # 1 - beta^k as -expm1(k log beta): no cancellation as beta -> 1
        return a * -np.expm1((a + 1.0) / a * np.log(beta)) / ((1.0 - beta) * (a + 1.0))

    def _pdf0(self, x):
        inside = (x >= 0.0) & (x <= 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = self.a * np.power(np.where(inside, x, 1.0), self.a - 1.0)
        return np.where(inside, val, 0.0)

    def _support0(self):
        return 0.0, 1.0

    def mda(self) -> EvClassification:
        xhat = 1.0 + self.shift
        a = self.a
        if a == 1.0:
            return EvClassification("weibull", 1.0, None, lambda x: 0.0, xhat)
        return EvClassification(
            "weibull", 1.0, -1.0, lambda x: (a - 1.0) / (2.0 * x), xhat
        )


class Uniform01(PowerBeta):
    """Standard uniform on [0, 1] (power family with a = 1)."""

    family = "uniform"
    params = ()

    def __init__(self, shift: float = 0.0):
        super().__init__(a=1.0, shift=shift)


class Exponential(Distribution):
    """Standard exponential, rate fixed to 1; Gumbel-type upper tail."""

    family = "exp"

    def _cdf0(self, x):
        return -np.expm1(-np.maximum(x, 0.0))

    def _quantile0(self, u, out=None):
        x = np.negative(u, out=out)
        x = np.log1p(x, out=out)
        return np.negative(x, out=out)

    def _mean0(self):
        return 1.0

    def _es0(self, beta):
        return 1.0 - np.log1p(-beta)

    def _pdf0(self, x):
        return np.where(x >= 0.0, np.exp(-np.maximum(x, 0.0)), 0.0)

    def _support0(self):
        return 0.0, math.inf

    def mda(self) -> EvClassification:
        # the integrated tail meets the second-order von Mises condition
        return EvClassification("gumbel", None, None, None, None, "equivalent")


class Pareto(Distribution):
    """F(x) = 1 - (1+x)^(-a) on [0, inf), a > 1 so the mean is finite.

    Frechet-type tail with index a.  Unshifted, the tail is second-order
    regularly varying with rho = -1 and A(x) = a/x; an additive shift s
    changes the expansion of (1 + x - s)^(-a) around x^(-a), giving
    A(x) = a(1-s)/x (and an exact power law when s = 1).
    """

    family = "pareto"
    params = ("a",)
    example = "pareto:a=2.1"

    def __init__(self, a: float, shift: float = 0.0):
        super().__init__(shift)
        a = float(a)
        if not (a > 1.0) or not math.isfinite(a):
            raise ValueError(
                f"pareto family needs a > 1 for a finite mean, got a={a}"
            )
        self.a = a

    def _cdf0(self, x):
        return 1.0 - np.power(1.0 + np.maximum(x, 0.0), -self.a)

    def _quantile0(self, u, out=None):
        x = np.subtract(1.0, u, out=out)
        x = np.power(x, -1.0 / self.a, out=out)
        return np.subtract(x, 1.0, out=out)

    def _mean0(self):
        return 1.0 / (self.a - 1.0)

    def _es0(self, beta):
        a = self.a
        return a / (a - 1.0) * np.power(1.0 - beta, -1.0 / a) - 1.0

    def _pdf0(self, x):
        return np.where(
            x >= 0.0, self.a * np.power(1.0 + np.maximum(x, 0.0), -(self.a + 1.0)), 0.0
        )

    def _support0(self):
        return 0.0, math.inf

    def mda(self) -> EvClassification:
        a = self.a
        coef = a * (1.0 - self.shift)
        if coef == 0.0:
            return EvClassification("frechet", a, None, lambda x: 0.0, None)
        return EvClassification("frechet", a, -1.0, lambda x: coef / x, None)


# above this nu, _t_log_norm takes log Gamma(x + 1/2) - log Gamma(x) from
# its asymptotic series; the difference of two lgamma values cancels there
_T_SERIES_NU = 40.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _t_log_norm(nu: float) -> float:
    """log of the t density normalization Gamma((nu+1)/2)/(sqrt(nu pi) Gamma(nu/2)).

    With x = nu/2 it is log Gamma(x + 1/2) - log Gamma(x) - log(x)/2 -
    log(2 pi)/2.  The difference of the two lgamma values cancels as nu
    grows (it is off by 9e-12 at nu = 1e4, 1e-8 at 1e8 and wholly at 1e17,
    and so is the relative ES), so above ``_T_SERIES_NU``
    log Gamma(x + 1/2) - log Gamma(x) - log(x)/2 is summed from its
    asymptotic series sum_k (2^(1-k) - 2) B_k / (k (k-1) x^(k-1)),
    k = 2, 4, ..., 10 (B_k the Bernoulli numbers); the next term is below
    2e-17 at nu = 40.
    """
    if nu <= _T_SERIES_NU:
        return (
            math.lgamma(0.5 * (nu + 1.0))
            - math.lgamma(0.5 * nu)
            - 0.5 * math.log(nu * math.pi)
        )
    x = 0.5 * nu
    y = 1.0 / (x * x)
    series = (-1.0 / 8.0 + y * (1.0 / 192.0 + y * (-1.0 / 640.0 + y * (
        17.0 / 14336.0 + y * (-31.0 / 18432.0))))) / x
    return series - _HALF_LOG_2PI


def _t_density(nu: float, x):
    return np.exp(_t_log_norm(nu) - 0.5 * (nu + 1.0) * np.log1p(x * x / nu))


def _t_deep_tail(nu: float, p, x):
    """(x, log M) at tail probabilities p below 2^-53, from starts x ~ stdtrit(nu, p):
    the quantile of the standard t (-inf only where it overflows) and the
    log of its ES numerator M = f(x) (nu + x^2), f the density.  Both read

        P[T < x] = M G / (nu |x|),  G = 2F1(1/2, 1; nu/2 + 1; -nu/x^2) = sum c_k,
        c_0 = 1,  c_{k+1} = -c_k (2k + 1) / (x^2 (1 + (2k + 2)/nu)),

    G summed up to its smallest term, below 2e-15 at these p where x^2 < nu
    makes the series diverge (scipy's hyp2f1(0.5, 1, 5001, -6.5) is nan).
    Newton's method solves log P = log p in s = log|x|, slope
    -nu/((1 + nu/x^2) G), from log|x| where finite, else from the power-law
    asymptote beyond the quantile; then log M = log(nu |x| p / G).
    log1p(x^2/nu) is taken directly where x^2 is finite, as
    2s - log(nu) + log1p(nu/x^2) loses digits for large nu.
    """
    log_c, log_p, log_nu = _t_log_norm(nu), np.log(p), math.log(nu)
    s = np.log(np.abs(x))
    s = np.where(np.isfinite(s), s, (log_c + 0.5 * (nu - 1.0) * log_nu - log_p) / nu)
    active = np.ones(s.shape, bool)  # per point: no point's bits depend on the others
    with np.errstate(over="ignore"):  # x^2 past |x| ~ 1e154, x past the largest float
        while True:
            x2 = np.exp(2.0 * s)
            lg = np.where(x2 < np.inf, np.log1p(x2 / nu), 2.0 * s - log_nu)
            r = np.exp(-2.0 * s)
            g, c, k = np.ones_like(s), np.ones_like(s), 0
            adding = np.ones(s.shape, bool)
            while adding.any():
                nxt = c * (-(2 * k + 1.0) * r / (1.0 + (2 * k + 2.0) / nu))
                adding &= (np.abs(nxt) < np.abs(c)) & (g + nxt != g)
                g = np.where(adding, g + nxt, g)
                c, k = nxt, k + 1
            if not active.any():
                break
            ds = (log_c + 0.5 * (1.0 - nu) * lg + np.log(g) - s - log_p) * (1.0 + nu * r) * g / nu
            s = np.where(active, s + ds, s)
            active &= np.abs(ds) > 1e-9
        return -np.exp(s), log_p + log_nu + s - np.log(g)


def _t_lower_quantile(nu: float, p, out=None):
    """(x, log M): the quantile x <= 0 of the standard t at p <= 1/2, and the
    log M of ``_t_deep_tail`` at the p below 2^-53 (NaN elsewhere), or None.
    x is written to ``out`` when given, which may be p itself."""
    if stdtrit is None:
        _load_t_kernels()
    deep = p < _U_FLOOR
    p_deep = np.asarray(p)[deep]  # read before out, which may be p, is written
    x = stdtrit(nu, p, out=out)
    if not p_deep.size:
        return x, None
    x, log_m = np.asarray(x), np.full(np.shape(x), np.nan)
    x[deep], log_m[deep] = _t_deep_tail(nu, p_deep, x[deep])
    return x, log_m


class StudentT(Distribution):
    """Standard Student t with nu > 1 degrees of freedom.

    Backed by ``scipy.special.stdtr`` (CDF) and ``stdtrit`` (quantile, on
    the smaller tail probability so both tails keep relative accuracy).
    Below tail probability 2^-53, under the sampler's floor, stdtrit drifts
    or overflows, and the quantile and ES numerator f(q) (nu + q^2) come
    from one routine in log|q| (``_t_deep_tail``).  Both kernels load
    with ``scipy.special`` on the first CDF, quantile or ES evaluation of
    any instance, constructed, copied or unpickled alike, so
    ``import tailrisk`` and processes that never evaluate a t law skip it.

    Frechet-type tail with index nu; unshifted, rho = -2 with
    A(x) = nu^2 (nu+1) / ((nu+2) x^2).  A shift s makes the 1/x term
    dominant: rho = -1 with A(x) = -nu s / x.
    """

    family = "student"
    params = ("nu",)
    example = "student:nu=2.3"

    def __init__(self, nu: float, shift: float = 0.0):
        super().__init__(shift)
        nu = float(nu)
        if not (nu > 1.0) or not math.isfinite(nu):
            raise ValueError(
                f"student family needs nu > 1 for a finite mean, got nu={nu}"
            )
        self.nu = nu

    def _cdf0(self, x):
        if stdtr is None:
            _load_t_kernels()
        return stdtr(self.nu, x)

    def _quantile0(self, u, out=None):
        # invert the smaller tail probability: x <= 0 is the quantile there;
        # above the median symmetry gives -x, and a product with -1.0 is exact
        upper = u > 0.5  # read before out, which may be u, is written
        x, _ = _t_lower_quantile(self.nu, np.minimum(u, 1.0 - u, out=out), out=out)
        return np.multiply(x, np.where(upper, -1.0, 1.0), out=out)

    def _mean0(self):
        return 0.0

    def _es0(self, beta):
        # E[T 1{T > q}] = f(q) (nu + q^2) / (nu - 1), even in q, so the
        # quantile at the smaller tail probability serves both tails
        nu = self.nu
        q, log_m = _t_lower_quantile(nu, np.minimum(beta, 1.0 - beta))
        if log_m is None:
            mass = _t_density(nu, q) * (nu + q * q)
        else:  # M from its log where f(q) is not a normal float
            with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf past |q| ~ 1e154
                f = _t_density(nu, q)
                mass = np.where(f < np.finfo(float).tiny, np.exp(log_m), f * (nu + q * q))
        return mass / ((1.0 - beta) * (nu - 1.0))

    def _pdf0(self, x):
        # x * x overflows past |x| ~ 1e154, where the density is 0 anyway
        with np.errstate(over="ignore"):
            return _t_density(self.nu, x)

    def _support0(self):
        return -math.inf, math.inf

    def mda(self) -> EvClassification:
        nu = self.nu
        if self.shift == 0.0:
            aux = lambda x: nu * nu * (nu + 1.0) / ((nu + 2.0) * x * x)
            return EvClassification("frechet", nu, -2.0, aux, None)
        s = self.shift
        return EvClassification(
            "frechet", nu, -1.0, lambda x: -nu * s / x, None
        )


class TwoPoint(Distribution):
    """Law putting mass p on x1 and 1-p on x2, x1 <= x2."""

    family = "twopoint"
    params = ("x1", "x2", "p")
    example = "twopoint:x1=0,x2=1,p=0.5"
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
        return self._steps(x, x >= self.x1, x >= self.x2)

    def prob_lt(self, x):
        return _at(self._prob_lt0, x, self.shift)

    def _prob_lt0(self, x):
        return self._steps(x, x > self.x1, x > self.x2)

    def _steps(self, x, past_x1, past_x2):
        """p past x1 and 1 past x2 (p < 1), from the two indicators; NaN at
        a NaN x, which passes neither: 0 sign(x) adds +-0, or NaN."""
        return np.maximum(self.p * past_x1, past_x2) + 0.0 * np.sign(x)

    def _quantile0(self, u, out=None):
        # sign(u) is 1 at every valid level and NaN at a NaN one
        atoms = np.where(u <= self.p, self.x1, self.x2)
        return np.multiply(atoms, np.sign(u, out=out), out=out)

    def _mean0(self):
        return self.p * self.x1 + (1.0 - self.p) * self.x2

    def _es0(self, beta):
        # below p the atom at x1 is split (1 - b > 0); the mix may round past x2
        b = np.minimum(beta, self.p)
        mixed = ((self.p - b) * self.x1 + (1.0 - self.p) * self.x2) / (1.0 - b)
        return np.where(beta >= self.p, self.x2, np.minimum(mixed, self.x2))

    def _pdf0(self, x):
        raise NotImplementedError("two-point law has no density")

    def _support0(self):
        return self.x1, self.x2

    def mda(self) -> EvClassification:
        raise ValueError(
            "two-point laws have no extreme-value classification here"
        )


def order_stats(n: int, u):
    """(i, j, w): the 1-based order statistics that level u picks among n
    equally likely values for VaR (i) and ES (j), and the part w = j - n u
    in [0, 1] of x_(j)'s unit weight in ES's tail.  VaR reads n u to 1e-14
    of itself, so n = 100, u = 0.88 gives x_(88) though the binary u is
    4e-18 above 0.88.  ES takes j = ceil(n u) exactly, from n u = p + e (p
    its rounding, e its error by Dekker's two-product), so w >= 0 and ES is
    the tail average at u, at most the maximum.  One formula serves a
    scalar u or an array; a NaN level gives i = 1, j = 0 and w = NaN.
    """
    u = np.asarray(u, dtype=float)
    p = n * u
    i = np.fmin(np.fmax(np.ceil(p * (1.0 - 1e-14)), 1.0), n).astype(np.int64)
    # u split by 2^27 + 1 (Veltkamp) and n at 2^27: products of halves are exact
    c = 134217729.0 * u
    uh, nl = c - (c - u), n % 2 ** 27
    e = ((((n - nl) * uh - p) + (n - nl) * (u - uh)) + nl * uh) + nl * (u - uh)
    j = np.ceil(p)
    w = (j - p) - e
    up = w < 0.0  # p = j, and the exact n u lies above it
    return i, np.fmax(j + up, 0.0).astype(np.int64), w + up


def suffix_sums(x: np.ndarray) -> np.ndarray:
    """s[i] = sum of x[i:] for i = 0..len(x), with s[len(x)] = 0; accumulated
    from the end, so short tail sums of sorted x carry short rounding chains."""
    s = np.empty(x.size + 1)
    s[-1] = 0.0
    np.cumsum(x[::-1], out=s[:-1][::-1])
    return s


def empirical_es(x, above, n_above, mass):
    """ES of equally likely losses from ES's order statistic x = x_(j) of
    ``order_stats``, the sum ``above`` of n_above losses >= x that hold all
    those above it, and the tail's size mass = n - j + w in losses: the tail
    average [w x + sum_{k>j} x_(k)] / mass as x plus the mean excess over x.
    The excess is >= 0 (a tie adds nothing) but for the rounding of
    ``above``, so a tail of ties gives x exactly and ES >= VaR holds in
    floating point; as w >= 0, ES passes the maximum only by rounding: callers clip."""
    return x + np.maximum(above - n_above * x, 0.0) / mass


class Sample:
    """Empirical distribution over observed values.

    Exposes the same risk interface as the parametric families with exact
    order-statistic / partial-sum formulas:

    - ``quantile(u)``: left quantile x_(ceil(n u)), n u read to 1e-14 of
      itself (``order_stats``), u in (0, 1]; ``quantile(1)`` is the maximum;
    - ``cdf(x)`` / ``prob_lt(x)``: the share of values <= x / < x;
    - ``es(beta)``: exact tail average ``empirical_es``
      [(j/n - beta) x_(j) + sum_{k>j} x_(k)/n] / (1-beta), j = ceil(n beta)
      taken exactly, so it never exceeds the maximum; ``es(0)`` is the mean;
    - ``eplus(m)``: exact partial mean sum (x_j - m)+ / n, for a scalar m.

    All of them keep the families' scalar contract (module docstring).

    Values are sorted ascending on construction (into a new array: the
    caller's values are never changed); suffix sums are cached.
    """

    continuous = False

    def __init__(self, values):
        v = np.asarray(values, dtype=float).ravel()
        if v.size < 1:
            raise ValueError("a sample needs at least one value")
        if not np.isfinite(v).all():
            raise ValueError("sample values must be finite (no NaN/inf)")
        self._set_sorted(np.sort(v))

    @classmethod
    def _from_sorted(cls, x: np.ndarray) -> "Sample":
        """Sample over x, finite and sorted ascending; x is kept, not copied."""
        s = cls.__new__(cls)
        s._set_sorted(x)
        return s

    def _set_sorted(self, x: np.ndarray):
        self.values = x
        self.n = x.size
        self._suffix = suffix_sums(x)

    def mean(self) -> float:
        return float(self._suffix[0] / self.n)

    def quantile(self, u):
        return _at(self._quantile0, u)

    def _quantile0(self, u):
        if np.count_nonzero((u <= 0.0) | (u > 1.0)):
            raise ValueError("empirical quantile level must lie in (0, 1]")
        # sign(u) is 1 at every valid level and NaN at a NaN one
        return self.values[order_stats(self.n, u)[0] - 1] * np.sign(u)

    def cdf(self, x):
        return _at(lambda v: self._share(v, "right"), x)

    def prob_lt(self, x):
        return _at(lambda v: self._share(v, "left"), x)

    def _share(self, x, side):
        # searchsorted places a NaN after every value; 0 sign(x) adds +-0,
        # or NaN at a NaN x
        return np.searchsorted(self.values, x, side=side) / self.n + 0.0 * np.sign(x)

    def es(self, beta):
        return _at(self._es0, beta)

    def _es0(self, beta):
        if np.count_nonzero((beta < 0.0) | (beta >= 1.0)):
            raise ValueError(_ES_LEVEL)
        n = self.n
        _, j, w = order_stats(n, beta)
        x = self.values[np.maximum(j, 1) - 1]
        return np.where(beta == 0.0, self._suffix[0] / n, np.minimum(
            empirical_es(x, self._suffix[j], n - j, n - j + w), self.values[-1]))

    def eplus(self, m):
        """E[(L - m)+] under the empirical law, exact."""
        m = float(m)
        j = int(np.searchsorted(self.values, m, side="right"))
        return float((self._suffix[j] - (self.n - j) * m) / self.n)

    def support(self):
        return float(self.values[0]), float(self.values[-1])

    def __len__(self):
        return self.n

    def __repr__(self):
        return f"<Sample n={self.n} range=[{self.values[0]:g}, {self.values[-1]:g}]>"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_spec(text: str, registry: dict, kind: str, options: tuple):
    """``cls(**values)`` for a ``name:key=value,...`` spec, ``cls`` the class
    ``registry[name]``: the one grammar of distribution and tail specs.

    The name matches in lower case.  The keys are the class's ``params``,
    all required, and ``options``; a key matches exactly, else in lower case
    (``C`` and ``c`` stay distinct, ``Q`` reads as ``q``).  Empty items are
    skipped, a repeated key is rejected; ``kind`` names the spec in messages.
    """
    head, _, body = text.partition(":")
    name = head.strip().lower()
    cls = registry.get(name)
    if cls is None:
        raise ValueError(f"unknown {kind} class {head.strip()!r} "
                         f"(known: {', '.join(sorted(registry))})")
    keys = cls.params + options
    values = {}
    for item in filter(str.strip, body.split(",")):
        key, eq, val = (part.strip() for part in item.partition("="))
        if not (key and eq and val):
            raise ValueError(f"malformed {kind} parameter {item.strip()!r}: expected key=value")
        if key not in keys and key.lower() in keys:
            key = key.lower()
        if key not in keys:
            raise ValueError(f"unknown parameter {key!r} for {kind} class {name!r} "
                             f"(it takes {', '.join(keys)})")
        if key in values:
            raise ValueError(f"duplicate {kind} parameter {key!r}")
        try:
            values[key] = float(val)
        except ValueError:
            raise ValueError(f"non-numeric value for {kind} parameter {key!r}: {val!r}") from None
    missing = [k for k in cls.params if k not in values]
    if missing:
        raise ValueError(f"{kind} class {name!r} needs parameters, e.g. '{cls.example}' "
                         f"(missing parameter(s) {', '.join(missing)})")
    return cls(**values)


# every family, by its spec name
_FAMILIES = {c.family: c for c in (Pareto, StudentT, PowerBeta, Exponential, Uniform01, TwoPoint)}


def parse_distribution(text: str) -> Distribution:
    """Parse the compact text form of a distribution.

    Examples: "pareto:a=2.1", "student:nu=2.3", "power:a=1.1", "exp",
    "uniform", "twopoint:x1=0,x2=1,p=0.5"; every family accepts an
    optional ",shift=-1.0" (or ":shift=..." for the parameter-free ones).
    The grammar is that of ``parse_tail_class``.
    """
    return _parse_spec(text, _FAMILIES, "distribution", ("shift",))
