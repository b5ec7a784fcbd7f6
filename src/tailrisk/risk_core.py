"""Core risk functionals: VaR, expected shortfall, expectile and friends.

All functionals accept any loss source exposing the common interface from
:mod:`tailrisk.distributions` (parametric family or empirical sample):

- ``value_at_risk`` — the left quantile;
- ``expected_shortfall`` — the source's closed-form tail average, exact
  for both parametric and empirical sources;
- ``expectile`` — unique root of the first-order condition
  alpha E[(L-m)+] = (1-alpha) E[(L-m)-]: for parametric sources by Newton's
  method, each step of which is the beta* reconstruction below at the
  level F(m) of the iterate, for samples by one linear solve on the
  segment between order statistics that holds the root;
- ``oce`` — the optimized certainty equivalent of a piecewise-linear
  utility, evaluated through its expected-shortfall representation;
- ``expectile_bounds`` / ``beta_star`` / ``expectile_from_es`` — the exact
  two-sided expectile/ES bounds, the level beta* at which the expectile
  is a convex combination of ES_{beta*} and the mean, and that combination,
  checked at its own value with no root solve;
- ``distortion_value`` / ``distortion_curves`` — the concave distortion
  phi(t) = alpha t/((2 alpha - 1) t + 1 - alpha) dominating the expectile,
  and the smallest dominating two-point ES mixture.

Raw loss values at one level, with no ``Sample`` built, go through two
private helpers shared by the ratio tables and the Euler allocations.
``_select`` gives VaR, ES and the indices of every value at or above a
threshold t <= q_alpha.  Above ``_SAMPLE_MIN_N`` values it finds t from a
strided sample of about ``_SAMPLE`` of them (Floyd & Rivest 1975) and
partitions only the values >= t, about (1 - alpha) n plus a few binomial
standard deviations; below that size, for tails over an eighth of the
values, or when the sample misjudges the tail, it partitions all n.
``_tail_expectile`` gives the expectile, sorting only the values above the
paper's ES lower bound, which it finds among those indices when the bound
is >= t.  They give the ``Sample`` values up to the rounding of the sums.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Optional, Union

import numpy as np

from .distributions import (
    _U_FLOOR,
    Distribution,
    Sample,
    TwoPoint,
    _at,
    empirical_es,
    order_stats,
    suffix_sums,
)

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


def _check_expectile_level(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.5 <= alpha < _ALPHA_CAP):
        raise ValueError(f"expectile level must lie in [0.5, 1 - 1e-12), got {alpha!r}")
    return alpha


def _alpha_grid(alphas) -> list:
    """The expectile levels as floats, each checked by ``_check_expectile_level``."""
    out = [_check_expectile_level(a) for a in alphas]
    if not out:
        raise ValueError("alpha grid is empty")
    return out


def _is_constant(src: LossSource) -> bool:
    lo, hi = src.support()
    return lo == hi


def _agree(check: str, value, ref, terms, tol: float, err: float = 0.0):
    """Raise AssertionError naming ``check`` unless |value - ref| <= tol *
    terms elementwise, ``terms`` being the magnitudes the identity adds up;
    NaN fails.  ``err`` is the error estimate of a quadrature that gave a
    scalar ``ref``: a miss it covers raises RuntimeError instead, since that
    reference cannot resolve the tolerance."""
    miss = abs(value - ref)
    within = miss <= tol * terms  # False at NaN; a bool from scalars needs no numpy
    if within if isinstance(within, bool) else within.all():
        return
    if err and miss <= tol * terms + err:
        raise RuntimeError(f"{check}: the quadrature cannot resolve {tol:g} x terms {terms:.6g}: "
                           f"its error estimate {err:.3g} covers the miss between {value!r} "
                           f"and its reference {ref!r}")
    raise AssertionError(f"{check} failed: {value!r} vs reference {ref!r}, "
                         f"beyond {tol:g} x terms {terms!r}")


def _quantile_quad(src: Distribution, lo: float, epsabs: float, weight=None):
    """(int_lo^1 w q du, int_lo^1 w |q| du, error estimate of the first) by
    adaptive quadrature of the quantile q, w = ``weight`` (positive) or 1,
    to ``epsabs`` or 1e-12 relative, every node at or below 1 - 2^-53.

    Cuts at 1/2 and at P[L < 0] inside the range give each end singularity
    a piece and q one sign per piece.  Where P[L < 0] cuts a half, the
    piece at the half's end lo or 1 is integrated and the other taken as
    the half less it: a quadrature that ends close to a singular end, but
    not at it, can miss the singularity in its value and its estimate."""
    # imported on use: it takes about as long to import as the whole package
    from scipy.integrate import IntegrationWarning, quad

    def q(u):  # a node next to u = 1 can round to 1.0
        return src.quantile(u if u < 1.0 else 1.0 - _U_FLOOR)

    f = q if weight is None else lambda u: weight(u) * q(u)

    def integral(a, b):
        return quad(f, a, b, epsabs=epsabs, epsrel=1e-12, limit=400)

    p0 = float(src.prob_lt(0.0))
    value = terms = err = 0.0
    # a singular end makes quad warn of roundoff; the callers weigh its estimate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in ((lo, 0.5), (0.5, 1.0)) if lo < 0.5 else ((lo, 1.0),):
            half, half_err = integral(a, b)
            outer = half
            if a < p0 < b:
                outer = integral(a, p0)[0] if b == 0.5 else integral(p0, b)[0]
            value += half
            terms += abs(outer) + abs(half - outer)
            err += half_err
    return value, terms, err


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
    ``check=True`` compares it, through ``_agree``, to 1e-9 of the terms of
    one of three independent references.  For a sample, the plug-in
    q + E[(L-q)+]/(1-alpha) at ES's order statistic q (``order_stats``), with
    terms |q| + E[(L-q)+]/(1-alpha), in O(log n); for a two-point law, the
    exact sum over the steps of its quantile (``_step_quantile``) of each
    atom times its share of the tail, with terms the same sum over |atoms|;
    for a continuous family, the quadrature (1/(1-alpha)) int_alpha^1 q(u) du,
    run to 1e-12 of |ES_alpha|, with terms (1/(1-alpha)) int_alpha^1 |q(u)| du.
    A miss raises AssertionError, or RuntimeError where the quadrature's
    error estimate covers it, as on heavy tails past about alpha = 1 - 1e-4.
    """
    _check_es_level(alpha)
    val = float(src.es(alpha))
    if check:
        check_name = f"expected-shortfall cross-check at alpha={alpha}"
        if isinstance(src, Sample):
            q = float(src.values[max(order_stats(src.n, alpha)[1], 1) - 1])
            excess = float(src.eplus(q)) / (1.0 - alpha)
            _agree(check_name, val, q + excess, abs(q) + excess, 1e-9)
        elif (steps := _step_quantile(src)) is not None:
            levels, atoms = steps
            tail = MixtureES(0.0, alpha, 0.0)
            _agree(check_name, val, _distortion_exact_atomic(tail, levels, atoms),
                   _distortion_exact_atomic(tail, levels, np.abs(atoms)), 1e-9)
        else:
            integral, terms, err = _quantile_quad(src, alpha, 1e-12 * abs(val))
            a = 1.0 - alpha
            _agree(check_name, val, integral / a, terms / a, 1e-9, err / a)
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


def expectile(src: LossSource, alpha: float) -> float:
    """The alpha-expectile, root of the asymmetric-mean first-order condition.

    Parametric sources: Newton's method on the convex, decreasing residual
    g (``foc_residual``).  From any m its step is the paper's
    reconstruction (1 - w) ES_u + w E[L] at u = F(m) (``_newton_step``), one
    CDF evaluation per step.  The first step, from the lower bound
    (1 - w) ES_alpha + w E[L], w = 1/(2 alpha), lands at or left of the
    root by convexity, and the iterates then climb monotonically to it; it
    stops on a step of a few ulps, with no bisection.  Samples: g is linear
    between order statistics, so a binary search finds the segment holding
    the root and one linear equation gives it exactly.  At alpha = 1/2
    returns the mean exactly.
    """
    _check_expectile_level(alpha)
    mu = float(src.mean())
    if alpha == 0.5:
        return mu
    if _is_constant(src):
        return float(src.support()[0])
    if isinstance(src, Sample):
        return _segment_root(src.values, src._suffix, src.n, src._suffix[0], alpha)
    hi = expected_shortfall(src, alpha)
    if not hi > mu:
        return mu
    return _newton_root(src, alpha, mu, hi)


def _newton_root(src: Distribution, alpha: float, mu: float, hi: float) -> float:
    """Root of g for a parametric source; hi = ES_alpha.

    g is convex, so every Newton step lands at or left of the root: the
    first, from the lower bound, even where rounding put that bound past
    the root, and each later one climbs by more than the tolerance until it
    stops (a NaN stops it too)."""
    m = _newton_step(src, alpha, mu, _combination(hi, mu, alpha, alpha))
    while True:
        r = _newton_step(src, alpha, mu, m)
        if not r - m > _STEP_ULPS * max(abs(r), abs(mu)):
            return r
        m = r


def _newton_step(src: Distribution, alpha: float, mu: float, m: float) -> float:
    """m - g(m)/g'(m), which is the reconstruction (1 - w) ES_u + w E[L] at
    u = F(m), taken about m; g' is the right derivative at atoms, and past
    the support (u = 1) the step lands on the mean."""
    u = src.cdf(m)
    if u >= 1.0:
        return mu
    return m + _combination(src.es(u) - m, mu - m, alpha, u)


def _segment_root(x: np.ndarray, suffix: np.ndarray, n: int, total: float,
                  alpha: float) -> float:
    """Exact root of g over n losses summing to ``total``, from their k
    largest x (sorted ascending, k = n for a whole sample) and the suffix
    sums suffix[j] = sum of x[j:].

    Every loss outside x must lie at or below a point where g > 0, so that
    the root lies above them all (for k = n: g > 0 at the minimum of a
    non-constant sample).  At x_j, n g(x_j) = (2 alpha - 1)(suffix[j+1]
    - (k-j-1) x_j) + (1 - alpha)(total - n x_j); it decreases in j and is
    non-positive at the maximum.  Between the last positive knot and the next
    one the losses above m are fixed, so g is linear there and its zero is
    one division.
    """
    k = x.size
    a1, a0 = 2.0 * alpha - 1.0, 1.0 - alpha
    # g(x[lo]) > 0, with lo = -1 standing for a point below x[0], and g(x[hi]) <= 0
    lo, hi = -1, k - 1
    while hi - lo > 1:
        j = (lo + hi) // 2
        xj = x[j]
        if a1 * (suffix[j + 1] - (k - j - 1) * xj) + a0 * (total - n * xj) > 0.0:
            lo = j
        else:
            hi = j
    # below x_hi the losses above m are x[hi:]
    m = (a1 * suffix[hi] + a0 * total) / (a1 * (k - hi) + a0 * n)
    if lo >= 0:
        m = max(m, x[lo])
    return float(min(m, x[hi]))


# ---------------------------------------------------------------------------
# raw loss values at one level, by selection
# ---------------------------------------------------------------------------

# below this many values a selection partitions them all; above it, a
# strided sample of about _SAMPLE values first bounds q_alpha from below
_SAMPLE = 4096
_SAMPLE_MIN_N = 8 * _SAMPLE
# binomial standard deviations between the expected tail count of the
# sample and the rank taken as the threshold: it misses q_alpha about once
# in 3e4 draws in random order, and then costs one compare pass
_SAMPLE_Z = 4.0


class _Tail(NamedTuple):
    """n equally likely values at one level, by selection: q = q_alpha, es =
    ES_alpha, its order statistic ``atom`` and n (1 - alpha) as ``mass``
    (``order_stats``), and the values ``vals`` at the ascending indices
    ``rows``, which hold every value >= t (rows None: all, t = -inf)."""

    q: float
    es: float
    atom: float
    mass: float
    t: float
    rows: Optional[np.ndarray]
    vals: np.ndarray


def _indices(rows: Optional[np.ndarray], mask: np.ndarray) -> np.ndarray:
    """The ascending indices of the values a mask over ``_Tail.vals`` keeps."""
    return np.flatnonzero(mask) if rows is None else rows[mask]


def _select(values: np.ndarray, alpha: float) -> _Tail:
    """q_alpha and ES_alpha at the order statistics ``Sample(values)``
    reads (``order_stats``), and the values at or above a threshold t <= q_alpha.

    The k = n - i + 1 values at or above the i-th smallest hold q_alpha and
    the tail, whose order statistic is the i-th or the next.  For
    n >= ``_SAMPLE_MIN_N`` and k <= n/8, t is the value of a strided sample
    ``values[::n // _SAMPLE]`` of rank ``_SAMPLE_Z`` binomial standard
    deviations above its expected count of tail values.  If at least k
    values are >= t, t <= q_alpha (a t above q_alpha leaves at most n - i
    values at or above it), and only those values are partitioned; if
    fewer, or more than a quarter of the values (heavy ties at t), all n
    are, at the cost of one compare pass and one index pass more.  Past
    those bounds, gathering the kept values costs about what it saves.  The
    kept values are counted by their index array, with no pass of its own.
    """
    n = values.size
    i, i_es, w = order_stats(n, alpha)
    k = n - i + 1
    t, rows, vals = -np.inf, None, values
    if n >= _SAMPLE_MIN_N and 8 * k <= n:
        sample = values[:: n // _SAMPLE]
        m = sample.size
        p = k / n
        # r < m / 4 since p <= 1/8 and m >= _SAMPLE
        r = math.ceil(m * p + _SAMPLE_Z * math.sqrt(m * p * (1.0 - p))) + 1
        cut = float(np.partition(sample, m - r)[m - r])
        kept = np.flatnonzero(values >= cut)
        if k <= kept.size <= n // 4:
            t, rows = cut, kept
            vals = values[rows]
    j = vals.size - k
    part = np.partition(vals, j)
    q, top = float(part[j]), part[j + 1:]
    atom, mass = q if i_es == i else float(top.min()), float(n - i_es + w)
    es = min(float(empirical_es(atom, top.sum(), k - 1, mass)), float(part[j:].max()))
    return _Tail(q, es, atom, mass, t, rows, vals)


def _tail_expectile(values: np.ndarray, alpha: float, sel: Optional[_Tail] = None):
    """(e_alpha of the values, the indices of the values > e), sorting only
    the values above the paper's lower bound; ``sel`` is ``_select``'s
    result at alpha, made here when not given.

    The bound (1 - w) ES_alpha + w E[L] <= e_alpha, w = 1/(2 alpha), leaves
    about 1.3 (1 - alpha) n values above it for heavy tails; only those are
    sorted, and the segment search over them solves for e exactly, as for a
    ``Sample``.  They are found among ``sel``'s values when the bound is at
    or above its threshold, else by a pass over all of them.  If rounding
    puts the bound at or past the root, every value is sorted instead.  At
    alpha = 1/2 e is the mean, and no selection is made.
    """
    n = values.size
    s0 = float(values.sum())
    if alpha == 0.5:
        e = s0 / n
        return e, np.flatnonzero(values > e)
    if sel is None:
        sel = _select(values, alpha)
    lower = _combination(sel.es, s0 / n, alpha, alpha)
    rows, vals = (sel.rows, sel.vals) if lower >= sel.t else (None, values)
    rows = _indices(rows, vals > lower)
    tail = values[rows]
    k = tail.size
    if not (k and _residual(alpha, s0 / n, lower, (tail.sum() - k * lower) / n) > 0.0):
        rows, tail = np.arange(n), values
    x = np.sort(tail)
    if x.size == n and x[0] == x[-1]:
        return float(x[0]), rows[:0]
    e = _segment_root(x, suffix_sums(x), n, s0, alpha)
    return e, rows[tail > e]


def oce(src: LossSource, a: float, b: float = 0.0, check: bool = False) -> float:
    """Optimized certainty equivalent of the piecewise-linear loss
    l(x) = x+/a - b x-, i.e. inf_m { m + E[l(L - m)] }.

    Equals (1-b) ES_{lam} + b E[L] with mixing level
    lam(a, b) = (1-a)/(1-ab); a = 1-alpha, b = 0 recovers ES_alpha.
    ``check=True`` re-evaluates the objective at its minimizer m, the
    lam-quantile, and raises AssertionError (never RuntimeError: there is
    no quadrature) unless the two agree to 1e-9 of the direct objective's
    own terms, |m| + E[(L-m)+]/a + b (E[(L-m)+] + |E[L]| + |m|).
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
        terms = abs(m) + ep / a + b * (ep + abs(mu) + abs(m))
        _agree(f"oce cross-check at (a={a}, b={b})", val, direct, terms, 1e-9)
    return val


def _combination(es_val: float, mu: float, alpha: float, beta: float) -> float:
    """(1 - w) es_val + w mu, w = (1-alpha)/(alpha + (1-2alpha) beta), from
    the weights a = (2 alpha - 1)(1 - beta) of ES and b = 1 - alpha of the
    mean.  Their sum a + b is w's denominator, which written as
    alpha + (1-2alpha) beta cancels when alpha and beta are both near 1."""
    a, b = (2.0 * alpha - 1.0) * (1.0 - beta), 1.0 - alpha
    return (a * es_val + b * mu) / (a + b)


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
    upper = _combination(es_alpha, mu, alpha, 0.0)
    es_cap = expected_shortfall(src, (2.0 * alpha - 1.0) / alpha)
    return Bounds(lower, upper, es_cap)


def _levels(src: LossSource, x: float):
    """(P[L < x], P[L <= x]), from one CDF evaluation on continuous laws."""
    upper = float(src.cdf(x))
    return (upper if src.continuous else float(src.prob_lt(x))), upper


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
    lower, upper = _levels(src, e)
    point = upper if src.continuous else 0.5 * (lower + upper)
    return BetaStarResult(lower, upper, point, e)


def expectile_from_es(
    src: LossSource, alpha: float, beta: float, strict: bool = False
) -> float:
    """Reconstruct e_alpha as r = (1 - w) ES_beta + w E[L], with
    w = (1-alpha)/(alpha + (1-2alpha) beta).

    r = e_alpha exactly for beta in the ``beta_star`` interval.  At any
    beta-quantile m, r - m = g(m)/(alpha + (1-2alpha) beta), g being
    ``foc_residual`` with e its only root, so r = e exactly when r is itself
    a beta-quantile: beta is accepted in [P[L < r], P[L <= r]] to 1e-12, or
    in [P[L < r - t], P[L <= r + t]], t being 4 ulps of r's terms
    (1 - w)|ES_beta| + w|E[L]|.  That costs one ES, the mean and, on a
    continuous law, one CDF evaluation, with no root solve.  Outside, r is
    still returned with a warning naming the ``beta_star`` interval
    (``strict=True`` raises ValueError); constant sources raise ValueError.
    """
    _check_expectile_level(alpha)
    if not (0.0 < beta < 1.0):
        raise ValueError(f"reconstruction level beta must lie in (0,1), got {beta}")
    if _is_constant(src):
        beta_star(src, alpha)  # raises: every level reconstructs a constant
    es_beta, mu = expected_shortfall(src, beta), float(src.mean())
    r = _combination(es_beta, mu, alpha, beta)
    lower, upper = _levels(src, r)
    if not lower - 1e-12 <= beta <= upper + 1e-12:
        t = _STEP_ULPS * _combination(abs(es_beta), abs(mu), alpha, beta)
        if not src.prob_lt(r - t) - 1e-12 <= beta <= src.cdf(r + t) + 1e-12:
            bs = beta_star(src, alpha)
            msg = (f"beta={beta} lies outside the valid interval [{bs.lower}, {bs.upper}]; "
                   "the combination no longer equals the expectile")
            if strict:
                raise ValueError(msg)
            warnings.warn(msg, stacklevel=2)
    return r


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
        self.alpha = _check_expectile_level(alpha)

    def phi(self, t):
        a = self.alpha
        return _at(lambda t: np.divide(a * t, (2.0 * a - 1.0) * t + 1.0 - a), t)

    def phi_prime(self, t):
        a = self.alpha
        return _at(lambda t: a * (1.0 - a) / np.square((2.0 * a - 1.0) * t + 1.0 - a), t)

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
        return _at(lambda t: (1.0 - self.lam) * np.minimum(t / (1.0 - self.beta), 1.0)
                   + self.lam * np.minimum(t / (1.0 - self.delta), 1.0), t)

    def __repr__(self):
        return (
            f"MixtureES(lam={self.lam:g}, beta={self.beta:g}, "
            f"delta={self.delta:g})"
        )


DistortionSpec = Union[ExpectileDistortion, MixtureES]


def _step_quantile(src: LossSource):
    """(levels, atoms) of an atomic source's step quantile, None for a
    continuous family: q(u) = atoms[i] on (levels[i], levels[i+1]], the
    levels running from 0 to 1."""
    if isinstance(src, Sample):
        return np.arange(src.n + 1) / src.n, src.values
    if isinstance(src, TwoPoint):
        return np.array([0.0, src.p, 1.0]), np.array([src.x1 + src.shift, src.x2 + src.shift])
    return None


def _distortion_exact_atomic(d: DistortionSpec, levels: np.ndarray, atoms: np.ndarray) -> float:
    """R_phi for a step quantile: sum of atoms times phi increments.

    ``levels`` and ``atoms`` are those of ``_step_quantile``; the integral
    of phi'(1-u) over (u_{i-1}, u_i] is phi(1-u_{i-1}) - phi(1-u_i),
    exactly.  The sum makes no BLAS call: OpenBLAS threads ``ddot`` above
    1e4 values, and its threads can stall it for milliseconds.
    """
    w = d.phi(1.0 - levels[:-1]) - d.phi(1.0 - levels[1:])
    return float(np.sum(atoms * w))


def distortion_value(src: LossSource, d: DistortionSpec) -> float:
    """Distorted expectation of the loss under ``d``.

    MixtureES evaluates exactly as (1-lam) ES_beta + lam ES_delta.  The
    expectile distortion integrates phi'(1-u) q(u): exactly (piecewise
    antiderivative) for atomic sources, by adaptive quadrature to 1e-12
    relative for the continuous families.  A quadrature error estimate above
    1e-7 of the terms int_0^1 phi'(1-u) |q(u)| du raises RuntimeError, and
    one above 1e-9 of them warns.
    """
    if isinstance(d, MixtureES):
        return (1.0 - d.lam) * expected_shortfall(src, d.beta) \
            + d.lam * expected_shortfall(src, d.delta)
    if not isinstance(d, ExpectileDistortion):
        raise TypeError(f"unknown distortion spec {d!r}")
    steps = _step_quantile(src)
    if steps is not None:
        return _distortion_exact_atomic(d, *steps)
    val, terms, err = _quantile_quad(src, 0.0, 0.0, lambda u: d.phi_prime(1.0 - u))
    if err > 1e-7 * terms:
        raise RuntimeError(f"distortion quadrature did not converge: estimated error {err:g} "
                           f"for value {val:g} of terms {terms:g}")
    if err > 1e-9 * terms:
        warnings.warn(f"distortion quadrature achieved only {err:g} estimated error", stacklevel=2)
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
