"""Core risk functionals: VaR, expected shortfall, expectile and friends.

All functionals accept any loss source exposing the common interface from
:mod:`tailrisk.distributions` (parametric family or empirical sample):

- ``value_at_risk`` — the left quantile;
- ``expected_shortfall`` — the source's closed-form tail average, exact
  for both parametric and empirical sources;
- ``expectile`` — unique root of the first-order condition
  alpha E[(L-m)+] = (1-alpha) E[(L-m)-]: for parametric sources by Newton's
  method started at the ES lower bound, for samples by one linear solve
  on the segment between order statistics that holds the root;
- ``oce`` — the optimized certainty equivalent of a piecewise-linear
  utility, evaluated through its expected-shortfall representation;
- ``expectile_bounds`` / ``beta_star`` / ``expectile_from_es`` — the exact
  two-sided expectile/ES bounds and the level beta* at which the expectile
  is a convex combination of ES_{beta*} and the mean;
- ``distortion_value`` / ``distortion_curves`` — the concave distortion
  phi(t) = alpha t/((2 alpha - 1) t + 1 - alpha) dominating the expectile,
  and the smallest dominating two-point ES mixture.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple, Union

import numpy as np

from .distributions import Distribution, Sample, TwoPoint

LossSource = Union[Distribution, Sample]

# expectile levels this close to 1 make the [mean, ES] bracket degenerate
_ALPHA_CAP = 1.0 - 1e-12


class Bounds(NamedTuple):
    """Two-sided expectile bounds at (alpha, beta), plus the ES cap.

    lower <= e_alpha <= upper <= es_cap, where es_cap = ES_{(2a-1)/a}.
    """

    lower: float
    upper: float
    es_cap: float


class BetaStarResult(NamedTuple):
    """The ES level(s) whose convex combination with the mean gives e_alpha.

    lower = P[L < e_alpha], upper = P[L <= e_alpha]; the reconstruction
    identity holds for every beta in [lower, upper].  ``point`` is the
    distinguished value used downstream: the CDF value for continuous
    sources (the interval is then a single point), the interval midpoint
    for atomic ones.
    """

    lower: float
    upper: float
    point: float
    expectile: float


def _check_var_level(alpha: float):
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"value-at-risk level must lie in (0, 1), got {alpha}")


def _check_es_level(alpha: float):
    if not (0.0 <= alpha < 1.0):
        raise ValueError(
            f"expected-shortfall level must lie in [0, 1), got {alpha}"
        )


def _check_expectile_level(alpha: float):
    if not (0.5 <= alpha < _ALPHA_CAP):
        raise ValueError(
            "expectile level must satisfy 1/2 <= alpha < 1 - 1e-12 "
            f"(bracket degenerates beyond), got {alpha}"
        )


def _is_constant(src: LossSource) -> bool:
    lo, hi = src.support()
    return lo == hi


def value_at_risk(src: LossSource, alpha: float) -> float:
    """Left quantile q(alpha) = inf{m : P[L <= m] >= alpha}."""
    _check_var_level(alpha)
    return float(src.quantile(alpha))


def expected_shortfall(src: LossSource, alpha: float, check: bool = False) -> float:
    """ES_alpha, the average of the worst (1-alpha) fraction of losses.

    Returns the source's own closed form ``src.es(alpha)``: per-family
    formulas for parametric sources, exact order statistics and partial
    sums for empirical ones; both equal the tail average
    (1/(1-alpha)) int_alpha^1 q(u) du for every law, atoms included.
    ``check=True`` re-derives the value independently (adaptive
    quadrature of the quantile for parametric sources, the plug-in
    q_alpha + E[(L-q_alpha)+]/(1-alpha) for empirical ones) and asserts
    1e-9 relative agreement.
    """
    _check_es_level(alpha)
    val = float(src.es(alpha))
    if check:
        if alpha == 0.0:
            ref = float(src.mean())
        elif isinstance(src, Sample):
            q = float(src.quantile(alpha))
            ref = q + float(src.eplus(q)) / (1.0 - alpha)
        else:
            # imported on use: scipy.integrate takes about as long to import
            # as the rest of the package
            from scipy.integrate import IntegrationWarning, quad

            # the quantile is singular at u=1 for unbounded families; the
            # extrapolating quadrature handles it but grumbles about
            # roundoff near machine tolerance, so check abserr ourselves
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                integral, abserr = quad(
                    lambda u: src.quantile(u), alpha, 1.0,
                    epsabs=1e-12, epsrel=1e-12, limit=400,
                )
            ref = integral / (1.0 - alpha)
        if abs(val - ref) > 1e-9 * (1.0 + abs(val)):
            raise AssertionError(
                f"expected-shortfall cross-check failed: closed form {val!r} vs "
                f"reference {ref!r} at alpha={alpha}"
            )
    return val


def foc_residual(src: LossSource, alpha: float, m: float) -> float:
    """g(m) = (2 alpha - 1) E[(L-m)+] + (1-alpha)(E[L] - m).

    The expectile is the unique root of g; g is continuous, convex and
    strictly decreasing for alpha > 1/2, with right derivative
    g'(m) = -(2 alpha - 1)(1 - F(m)) - (1 - alpha).
    """
    return _residual(alpha, float(src.mean()), m, float(src.eplus(m)))


def _residual(alpha: float, mu: float, m: float, eplus: float) -> float:
    """g(m) from E[L] = mu and E[(L-m)+] = eplus."""
    return (2.0 * alpha - 1.0) * eplus + (1.0 - alpha) * (mu - m)


# Newton stops once a step moves the iterate by at most this many ulps of
# the problem's magnitude max(|m|, |E[L]|); g itself is not resolved finer
_STEP_ULPS = 4.0 * float(np.finfo(float).eps)
# relative bracket width below which the chord through an overshoot is
# exact to working precision (its error is quadratic in the width)
_CHORD_WIDTH = float(np.sqrt(np.finfo(float).eps))
# Newton steps before falling back to bisection, and the bisection budget
_NEWTON_STEPS = 60
_BISECTION_STEPS = 200


def expectile(src: LossSource, alpha: float) -> float:
    """The alpha-expectile, root of the asymmetric-mean first-order condition.

    Parametric sources: Newton's method on the convex, decreasing residual
    g (``foc_residual``), started at the lower bound
    (1 - w) ES_alpha + w E[L], w = 1/(2 alpha), so the iterates climb
    monotonically to the root; each step evaluates the CDF once, for g and
    its slope alike.  It stops on a step of a few ulps, and falls
    back to bisection inside [mean, ES_alpha] if rounding ever breaks the
    monotone climb.  Samples: g is linear between order statistics, so a
    binary search finds the segment holding the root and one linear
    equation gives it exactly.  At alpha = 1/2 returns the mean exactly.
    """
    _check_expectile_level(alpha)
    mu = float(src.mean())
    if alpha == 0.5:
        return mu
    if _is_constant(src):
        return float(src.support()[0])
    if isinstance(src, Sample):
        return _segment_root(src, alpha)
    hi = expected_shortfall(src, alpha)
    if not hi > mu:
        return mu
    return _newton_root(src, alpha, mu, hi)


def _newton_root(src: Distribution, alpha: float, mu: float, hi: float) -> float:
    """Root of g in [mu, hi] for a parametric source; hi = ES_alpha."""
    lo = _combination(hi, mu, alpha, alpha)
    g_lo, s_lo = _residual_and_slope(src, alpha, mu, lo)
    if not g_lo > 0.0:  # rounding put the bound at or past the root
        lo = mu
        g_lo, s_lo = _residual_and_slope(src, alpha, mu, lo)
        if not g_lo > 0.0:
            return mu
    for _ in range(_NEWTON_STEPS):
        # g is convex, so the tangent at lo meets zero at or left of the root
        m = lo + g_lo / s_lo
        tol = _STEP_ULPS * max(abs(m), abs(mu))
        if m - lo <= tol:
            return m
        if m >= hi:
            break
        g_m, s_m = _residual_and_slope(src, alpha, mu, m)
        if g_m > 0.0:
            lo, g_lo, s_lo = m, g_m, s_m
            continue
        if g_m == 0.0:
            return m
        # rounding overshoot: the root lies in [lo, m], at or right of the
        # tangent's zero at m (convexity) and at or left of the chord's zero;
        # return the chord's once g is linear on [lo, m] to working precision
        # or the tangent bounds the root within a few ulps
        chord = lo + g_lo * ((m - lo) / (g_lo - g_m))
        if m - lo <= _CHORD_WIDTH * max(abs(m), abs(mu)):
            return chord
        if m + g_m / s_m >= m - tol:
            return chord
        hi = m
        break
    for _ in range(_BISECTION_STEPS):
        m = 0.5 * (lo + hi)
        if not lo < m < hi:
            break
        if foc_residual(src, alpha, m) > 0.0:
            lo = m
        else:
            hi = m
    return 0.5 * (lo + hi)


def _residual_and_slope(src: Distribution, alpha: float, mu: float, m: float):
    """g(m) and -g'(m) from one CDF evaluation: the F(m) behind the tail
    identity for E[(L-m)+] also gives the slope."""
    u, eplus = src._cdf_eplus(m)
    return _residual(alpha, mu, m, eplus), _slope(alpha, u)


def _slope(alpha: float, u: float) -> float:
    """-g'(m) for ``foc_residual`` from u = F(m) (the right derivative at
    atoms, a subgradient of the convex g)."""
    return (2.0 * alpha - 1.0) * (1.0 - u) + (1.0 - alpha)


def _segment_root(src: Sample, alpha: float) -> float:
    """Exact root of g for a non-constant sample.

    At an order statistic x_k, n g(x_k) = (2 alpha - 1)(S_{k+1} - (n-k-1) x_k)
    + (1 - alpha)(S_0 - n x_k), with S_j the suffix sums; it decreases in k,
    is positive at the minimum and non-positive at the maximum.  Between the
    last positive knot and the next one the losses above m are fixed, so
    g is linear there and its zero is one division.
    """
    x, s, n = src.values, src._suffix, src.n
    a1, a0 = 2.0 * alpha - 1.0, 1.0 - alpha
    lo, hi = 0, n - 1
    while hi - lo > 1:
        k = (lo + hi) // 2
        xk = x[k]
        if a1 * (s[k + 1] - (n - k - 1) * xk) + a0 * (s[0] - n * xk) > 0.0:
            lo = k
        else:
            hi = k
    # on [x_lo, x_hi] the losses above m are x[hi:]
    m = (a1 * s[hi] + a0 * s[0]) / (a1 * (n - hi) + a0 * n)
    return float(min(max(m, x[lo]), x[hi]))


def oce(src: LossSource, a: float, b: float = 0.0, check: bool = False) -> float:
    """Optimized certainty equivalent of the piecewise-linear loss
    l(x) = x+/a - b x-, i.e. inf_m { m + E[l(L - m)] }.

    Equals (1-b) ES_{lam} + b E[L] with mixing level
    lam(a, b) = (1-a)/(1-ab); a = 1-alpha, b = 0 recovers ES_alpha.
    ``check=True`` re-evaluates the objective at its minimizer, the
    lam-quantile, and asserts 1e-9 agreement.
    """
    a = float(a)
    b = float(b)
    if not (0.0 < a < 1.0):
        raise ValueError(f"oce parameter a must lie in (0, 1), got {a}")
    if not (0.0 <= b <= 1.0):
        raise ValueError(f"oce parameter b must lie in [0, 1], got {b}")
    lam = (1.0 - a) / (1.0 - a * b)
    mu = float(src.mean())
    val = mu if b == 1.0 else (1.0 - b) * expected_shortfall(src, lam) + b * mu
    if check and b < 1.0:
        m = float(src.quantile(lam))
        ep = float(src.eplus(m))
        direct = m + ep / a - b * (ep - mu + m)
        if abs(direct - val) > 1e-9 * (1.0 + abs(val)):
            raise AssertionError(
                f"oce cross-check failed: representation {val!r} vs direct "
                f"objective {direct!r} at (a={a}, b={b})"
            )
    return val


def _combination(es_val: float, mu: float, alpha: float, beta: float) -> float:
    w = (1.0 - alpha) / (alpha + (1.0 - 2.0 * alpha) * beta)
    return (1.0 - w) * es_val + w * mu


def expectile_bounds(src: LossSource, alpha: float, beta: float) -> Bounds:
    """Exact bound chain lower <= e_alpha <= upper <= es_cap.

    lower uses ES at the caller's beta, upper is the beta = alpha case,
    and es_cap = ES_{(2 alpha - 1)/alpha} dominates upper without any
    mean term.
    """
    _check_expectile_level(alpha)
    if not (0.0 < beta < 1.0):
        raise ValueError(f"bound level beta must lie in (0, 1), got {beta}")
    mu = float(src.mean())
    es_beta = expected_shortfall(src, beta)
    lower = _combination(es_beta, mu, alpha, beta)
    es_alpha = es_beta if beta == alpha else expected_shortfall(src, alpha)
    wu = (1.0 - alpha) / alpha
    upper = (1.0 - wu) * es_alpha + wu * mu
    es_cap = expected_shortfall(src, (2.0 * alpha - 1.0) / alpha)
    return Bounds(lower, upper, es_cap)


def beta_star(src: LossSource, alpha: float) -> BetaStarResult:
    """The interval of ES levels reconstructing the expectile.

    Computes e_alpha, then lower = P[L < e], upper = P[L <= e]; for every
    beta in [lower, upper] the convex combination
    (1 - w) ES_beta + w E[L], with w = (1-alpha)/(alpha + (1-2alpha) beta),
    equals e_alpha.  Undefined for constant sources (every level works).
    """
    _check_expectile_level(alpha)
    if _is_constant(src):
        raise ValueError(
            "beta_star is undefined for a constant loss: the expectile "
            "equals the constant and every ES level reproduces it"
        )
    e = expectile(src, alpha)
    lower = float(src.prob_lt(e))
    upper = float(src.cdf(e))
    if getattr(src, "continuous", False):
        point = upper
    else:
        point = 0.5 * (lower + upper)
    return BetaStarResult(lower, upper, point, e)


def expectile_from_es(
    src: LossSource, alpha: float, beta: float, strict: bool = False
) -> float:
    """Reconstruct e_alpha from ES_beta and the mean.

    Exact whenever beta lies in the beta_star interval.  Outside it the
    value is still returned but a warning is emitted (``strict=True``
    raises instead).
    """
    _check_expectile_level(alpha)
    if not (0.0 < beta < 1.0):
        raise ValueError(f"reconstruction level beta must lie in (0,1), got {beta}")
    bs = beta_star(src, alpha)
    if not (bs.lower - 1e-12 <= beta <= bs.upper + 1e-12):
        msg = (
            f"beta={beta} lies outside the valid interval "
            f"[{bs.lower}, {bs.upper}]; the combination no longer equals "
            f"the expectile"
        )
        if strict:
            raise ValueError(msg)
        warnings.warn(msg, stacklevel=2)
    return _combination(expected_shortfall(src, beta), float(src.mean()), alpha, beta)


# ---------------------------------------------------------------------------
# distortion objects
# ---------------------------------------------------------------------------

class ExpectileDistortion:
    """Concave distortion phi(t) = alpha t / ((2 alpha - 1) t + 1 - alpha).

    The distorted expectation R_phi(L) = int_0^1 phi'(t) q_L(1-t) dt is the
    smallest law-invariant coherent risk measure dominating the
    alpha-expectile; on indicator losses it equals phi of the event
    probability.
    """

    def __init__(self, alpha: float):
        _check_expectile_level(alpha)
        self.alpha = float(alpha)

    def phi(self, t):
        a = self.alpha
        t = np.asarray(t, dtype=float)
        out = a * t / ((2.0 * a - 1.0) * t + 1.0 - a)
        return float(out) if np.ndim(t) == 0 else out

    def phi_prime(self, t):
        a = self.alpha
        t = np.asarray(t, dtype=float)
        out = a * (1.0 - a) / ((2.0 * a - 1.0) * t + 1.0 - a) ** 2
        return float(out) if np.ndim(t) == 0 else out

    def __repr__(self):
        return f"ExpectileDistortion(alpha={self.alpha:g})"


class MixtureES:
    """Distortion of a two-point ES mixture (1-lam) ES_beta + lam ES_delta.

    phi(t) = (1-lam) min(t/(1-beta), 1) + lam min(t/(1-delta), 1).
    """

    def __init__(self, lam: float, beta: float, delta: float):
        lam, beta, delta = float(lam), float(beta), float(delta)
        if not (0.0 <= lam <= 1.0):
            raise ValueError(f"mixture weight must lie in [0, 1], got {lam}")
        for name, level in (("beta", beta), ("delta", delta)):
            if not (0.0 <= level < 1.0):
                raise ValueError(f"mixture level {name} must lie in [0,1), got {level}")
        self.lam, self.beta, self.delta = lam, beta, delta

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        out = (1.0 - self.lam) * np.minimum(t / (1.0 - self.beta), 1.0) \
            + self.lam * np.minimum(t / (1.0 - self.delta), 1.0)
        return float(out) if np.ndim(t) == 0 else out

    def __repr__(self):
        return (
            f"MixtureES(lam={self.lam:g}, beta={self.beta:g}, "
            f"delta={self.delta:g})"
        )


DistortionSpec = Union[ExpectileDistortion, MixtureES]


def _distortion_exact_atomic(d: ExpectileDistortion, levels, atoms) -> float:
    """R_phi for a step quantile: sum of atoms times phi increments.

    ``levels`` are the cumulative probabilities 0 = u_0 < ... < u_k = 1 and
    ``atoms`` the quantile values on each (u_{i-1}, u_i]; the integral of
    phi'(1-u) over a piece is phi(1-u_{i-1}) - phi(1-u_i), exactly.
    """
    levels = np.asarray(levels, dtype=float)
    atoms = np.asarray(atoms, dtype=float)
    w = d.phi(1.0 - levels[:-1]) - d.phi(1.0 - levels[1:])
    return float(np.dot(atoms, w))


def distortion_value(src: LossSource, d: DistortionSpec) -> float:
    """Distorted expectation of the loss under ``d``.

    MixtureES evaluates exactly as (1-lam) ES_beta + lam ES_delta.  The
    expectile distortion integrates phi'(t) q(1-t): exactly (piecewise
    antiderivative) for atomic sources, by adaptive quadrature for the
    continuous families.
    """
    if isinstance(d, MixtureES):
        return (1.0 - d.lam) * expected_shortfall(src, d.beta) \
            + d.lam * expected_shortfall(src, d.delta)
    if not isinstance(d, ExpectileDistortion):
        raise TypeError(f"unknown distortion spec {d!r}")
    if isinstance(src, Sample):
        levels = np.arange(src.n + 1) / src.n
        return _distortion_exact_atomic(d, levels, src.values)
    if isinstance(src, TwoPoint):
        levels = [0.0, src.p, 1.0]
        atoms = [src.x1 + src.shift, src.x2 + src.shift]
        return _distortion_exact_atomic(d, levels, atoms)
    from scipy.integrate import IntegrationWarning, quad

    val = 0.0
    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in ((0.0, 0.5), (0.5, 1.0)):
            part, aerr = quad(
                lambda u: d.phi_prime(1.0 - u) * src.quantile(u),
                lo, hi, epsabs=1e-12, epsrel=1e-12, limit=500,
            )
            val += part
            err += aerr
    if err > 1e-7 * (1.0 + abs(val)):
        raise RuntimeError(
            f"distortion quadrature did not converge: estimated error {err:g} "
            f"for value {val:g}"
        )
    if err > 1e-9 * (1.0 + abs(val)):
        warnings.warn(
            f"distortion quadrature achieved only {err:g} estimated error",
            stacklevel=2,
        )
    return val


def distortion_curves(alpha: float, grid: int):
    """Uniform t-grid with phi(t) and the optimal ES-mixture distortion.

    The mixture uses (lam, beta, delta) = ((1-alpha)/alpha, alpha, 0), the
    smallest two-point ES mixture dominating phi.  Returns (t, phi values,
    mixture values); phi <= mixture pointwise, endpoints exact.
    """
    grid = int(grid)
    if grid < 2:
        raise ValueError(f"grid must have at least 2 points, got {grid}")
    _check_expectile_level(alpha)
    t = np.linspace(0.0, 1.0, grid)
    d = ExpectileDistortion(alpha)
    mix = MixtureES((1.0 - alpha) / alpha, alpha, 0.0)
    return t, d.phi(t), mix.phi(t)
