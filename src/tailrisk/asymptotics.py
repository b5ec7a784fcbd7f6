"""Tail expansions of the expectile against expected shortfall.

For alpha near 1 the expectile/ES relationship is governed by the
extreme-value class of the loss law:

- Frechet class (tail index eta > 1): the ratio e_alpha/ES_alpha tends to
  (eta-1)^((eta-1)/eta)/eta, with a second-order correction driven by the
  auxiliary function A of the quantile's regular variation;
- Weibull class (finite right endpoint xhat, index eta > 0): the gap
  ratio (xhat - ES_alpha)/(xhat - e_alpha) tends to 0 at an explicit
  polynomial rate;
- Gumbel class: no universal ratio expansion exists; the expectile and
  the quantile/ES are either log-equivalent or (under a second-order
  condition) asymptotically equivalent, and the law's classification
  states which in ``EvClassification.relation``.

The level-ratio expansions (1 - beta*)/(1 - alpha), where beta* is the
tail level at which ES-based combinations reproduce the expectile, come
in the same two quantitative flavours.

Second-order formulas consume the auxiliary function *value* at the
relevant quantile, so they stay usable with estimated inputs; the
``ratio_expansion`` and ``beta_star_expansion`` conveniences wire a known
distribution through its own classification, and ``exact_ratio`` and
``exact_beta_star_ratio`` give the exact values they approximate.  Frechet
expansions are expansions of the *centered* ratio e(L - E[L])/ES(L - E[L]);
Weibull gap ratios are location-invariant in their inputs and are computed
for the raw variable.  A second-order term asked of a tail that has none
(``rho`` is None) raises ``NoSecondOrder``, a ValueError.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .distributions import Distribution, Sample
from .risk_core import _alpha_grid, _check_expectile_level, beta_star, expected_shortfall, expectile

__all__ = [
    "ExpansionResult",
    "NoSecondOrder",
    "frechet_first_order_constant",
    "frechet_second_order_coefficient",
    "frechet_ratio",
    "frechet_beta_star_ratio",
    "weibull_ratio",
    "weibull_beta_star_ratio",
    "hill_estimator",
    "extreme_expectile_estimate",
    "ratio_expansion",
    "beta_star_expansion",
    "exact_ratio",
    "exact_beta_star_ratio",
    "ExpansionCurveRow",
    "expansion_curve",
]


class ExpansionResult(NamedTuple):
    """A one- or two-term tail expansion evaluated at one level.

    ``value = leading * (1 + correction)``; first-order results carry
    ``correction = 0.0`` so ``value == leading``.
    """

    order: int
    leading: float
    correction: float
    value: float
    alpha: float


def _result(order: int, lead: float, corr: float, alpha: float) -> ExpansionResult:
    """``ExpansionResult(order, lead, corr, lead * (1 + corr), alpha)``,
    raising ValueError when a term is not finite in double precision."""
    value = lead * (1.0 + corr)
    if not (math.isfinite(lead) and math.isfinite(corr) and math.isfinite(value)):
        raise ValueError(
            f"the order-{order} expansion at alpha={alpha:g} is not finite in double "
            f"precision (leading {lead:g}, correction {corr:g})"
        )
    return ExpansionResult(order, lead, corr, value, alpha)


class NoSecondOrder(ValueError):
    """A second-order expansion was asked of a tail without a second-order
    parametrization (``rho`` is None); first order is available."""


def _second_order(rho: Optional[float]) -> float:
    """rho as a float, refusing the None of a tail with no second-order term."""
    if rho is None:
        raise NoSecondOrder("the tail has no second-order term (rho is None); use order=1")
    return float(rho)


def _tail_index(eta: float, floor: float, what: str) -> float:
    """eta as a float, refusing eta <= floor with "<what> needs eta > floor"."""
    eta = float(eta)
    if not eta > floor:
        raise ValueError(f"{what} needs eta > {floor:g}, got {eta}")
    return eta


def _check_order(order: int) -> int:
    if order not in (1, 2):
        raise ValueError(f"expansion order must be 1 or 2, got {order!r}")
    return int(order)


def _check_alpha(alpha: float) -> float:
    """alpha as a float in [0.5, 1), the domain of the expansion formulas;
    the exact values take the expectile's own levels."""
    alpha = float(alpha)
    if not (0.5 <= alpha < 1.0):
        raise ValueError(f"level alpha must lie in [0.5, 1), got {alpha}")
    return alpha


def _frechet_rho(eta: float, rho: float) -> Tuple[float, float]:
    """(rho, eta - rho - 1) for a validated rho <= 0; eta > 1 keeps the second > 0."""
    rho = float(rho)
    if rho > 0.0:
        raise ValueError(f"second-order parameter rho must be <= 0, got {rho}")
    return rho, eta - rho - 1.0


def _endpoint_inputs(xhat: float, q_alpha: float, mean: float) -> Tuple[float, float, float]:
    """(xhat, q_alpha, mean) as floats, with q_alpha and mean below xhat."""
    xhat, q_alpha, mean = float(xhat), float(q_alpha), float(mean)
    if not (q_alpha < xhat):
        raise ValueError(
            f"quantile {q_alpha} must lie strictly below the right endpoint {xhat}"
        )
    if not (mean < xhat):
        raise ValueError(f"mean {mean} must lie strictly below the right endpoint {xhat}")
    return xhat, q_alpha, mean


def frechet_first_order_constant(eta: float) -> float:
    """Limit of e_alpha/ES_alpha for a tail index eta > 1."""
    eta = _tail_index(eta, 1.0, "heavy-tail ratio limit")
    return (eta - 1.0) ** ((eta - 1.0) / eta) / eta


def frechet_second_order_coefficient(eta: float, rho: float) -> float:
    """Coefficient multiplying A(q_alpha) in the second-order ratio term.

    The rho = 0 case is a genuinely different formula, not the rho -> 0
    limit of the generic one.
    """
    eta = _tail_index(eta, 1.0, "second-order coefficient")
    rho, denom = _frechet_rho(eta, rho)
    if rho == 0.0:
        return (math.log(eta - 1.0) + 1.0 / (eta - 1.0)) / eta
    return (eta - 1.0) / (rho * eta) * (1.0 - (eta - 1.0) ** (-rho / eta)) / denom


def frechet_ratio(
    eta: float,
    rho: Optional[float],
    a_at_q: float,
    alpha: float,
    order: int = 2,
) -> ExpansionResult:
    """Expansion of e_alpha/ES_alpha for a centered heavy-tailed loss.

    ``a_at_q`` is the auxiliary function evaluated at the alpha-quantile
    of the centered variable; it is ignored at first order.
    """
    alpha = _check_alpha(alpha)
    order = _check_order(order)
    if order == 1:
        return _result(1, frechet_first_order_constant(eta), 0.0, alpha)
    rho = _second_order(rho)
    lead = (
        (eta - 1.0) ** ((eta - 1.0) / eta)
        * (2.0 * alpha - 1.0) ** (1.0 / eta)
        / eta
    )
    corr = -frechet_second_order_coefficient(eta, rho) * float(a_at_q)
    return _result(2, lead, corr, alpha)


def frechet_beta_star_ratio(
    eta: float,
    rho: Optional[float],
    a_at_q: float,
    alpha: float,
    order: int = 2,
) -> ExpansionResult:
    """Expansion of (1 - beta*)/(1 - alpha) in the heavy-tailed class."""
    alpha = _check_alpha(alpha)
    order = _check_order(order)
    eta = _tail_index(eta, 1.0, "heavy-tail level ratio")
    if order == 1:
        return _result(1, eta - 1.0, 0.0, alpha)
    rho, denom = _frechet_rho(eta, _second_order(rho))
    # the leading term has a pole at alpha = 1/2, refused as not finite
    lead = (eta - 1.0) / (2.0 * alpha - 1.0) if alpha > 0.5 else math.inf
    corr = -((eta - 1.0) ** (-rho / eta) / denom) * float(a_at_q)
    return _result(2, lead, corr, alpha)


def weibull_ratio(
    eta: float,
    rho: Optional[float],
    xhat: float,
    mean: float,
    q_alpha: float,
    a0_at_q: float,
    alpha: float,
    order: int = 2,
) -> ExpansionResult:
    """Expansion of (xhat - ES_alpha)/(xhat - e_alpha) near a finite
    right endpoint.

    eta > 0 indexes the polynomial decay of the gap law at xhat;
    ``a0_at_q`` is the auxiliary value of the transformed gap variable at
    level (xhat - q_alpha)^(-eta/(eta+1)).  Requires q_alpha < xhat.
    """
    alpha = _check_alpha(alpha)
    order = _check_order(order)
    eta = _tail_index(eta, 0.0, "endpoint gap expansion")
    xhat, q_alpha, mean = _endpoint_inputs(xhat, q_alpha, mean)
    c_eta = ((xhat - mean) * (eta + 1.0)) ** (1.0 / (eta + 1.0))
    lead = (
        eta
        * ((2.0 * alpha - 1.0) * (xhat - q_alpha)) ** (1.0 / (eta + 1.0))
        / ((eta + 1.0) * c_eta)
    )
    if order == 1:
        return _result(1, lead, 0.0, alpha)
    rho = _second_order(rho)
    if not (rho < 0.0):
        raise ValueError(f"endpoint second-order parameter rho must be < 0, got {rho}")
    corr = (
        c_eta * (xhat - q_alpha) ** (eta / (eta + 1.0)) / ((eta + 1.0) * (xhat - mean))
        + c_eta ** (-rho) * float(a0_at_q) / (rho * (eta - rho + 1.0))
    )
    return _result(2, lead, corr, alpha)


def weibull_beta_star_ratio(
    eta: float, xhat: float, q_alpha: float, alpha: float, mean: float = 0.0
) -> float:
    """Leading order of (1 - beta*)/(1 - alpha) near a finite endpoint.

    The textbook display assumes a centered loss; passing the actual
    ``mean`` applies the location adjustment (xhat - mean) that makes the
    approximation usable for uncentered variables.  alpha enters only
    through q_alpha at this order but is validated for interface
    symmetry.
    """
    _check_alpha(alpha)
    eta = _tail_index(eta, 0.0, "endpoint level ratio")
    xhat, q_alpha, mean = _endpoint_inputs(xhat, q_alpha, mean)
    return ((xhat - mean) * (eta + 1.0) / (xhat - q_alpha)) ** (eta / (eta + 1.0))


def hill_estimator(sample: Sample, k: Optional[int] = None) -> float:
    """Hill estimate of the tail index from the top k order statistics.

    Uses eta_hat = k / sum_{i=1}^{k} log(X_(n-i+1) / X_(n-k)); the
    default window is k = ceil(n^0.7).
    """
    n = len(sample)
    if k is None:
        k = int(math.ceil(n ** 0.7))
    k = int(k)
    if not (2 <= k < n):
        raise ValueError(f"tail window must satisfy 2 <= k < n, got k={k}, n={n}")
    window = sample.values[n - k - 1 :]
    if window[0] <= 0.0:
        raise ValueError(
            f"nonpositive order statistics in the tail window (X_(n-k)={window[0]:g}); "
            "shift the sample or shrink k"
        )
    logs = np.log(window[1:]) - math.log(window[0])
    return k / float(np.sum(logs))


def extreme_expectile_estimate(
    sample: Sample, alpha: float, k: Optional[int] = None
) -> float:
    """Plug-in extreme expectile (eta_hat - 1)^(-1/eta_hat) q_alpha_n.

    Combines the Hill index with the empirical quantile through the
    first-order heavy-tail proportionality; errors out when the estimated
    index does not support a finite-mean heavy tail (eta_hat <= 1).
    """
    alpha = _check_alpha(alpha)
    eta_hat = hill_estimator(sample, k)
    if eta_hat <= 1.0:
        raise ValueError(
            f"estimated tail index {eta_hat:.4f} <= 1: extreme expectile "
            "proportionality needs a finite-mean heavy tail"
        )
    return (eta_hat - 1.0) ** (-1.0 / eta_hat) * sample.quantile(alpha)


def _centered_tail(dist: Distribution, alpha: float, order: int):
    """(eta, rho, A(q_alpha)) of the centered law of a Frechet-class ``dist``.

    At first order A is not evaluated and comes back 0.0.  A's pole at 0,
    the centered median of a symmetric law, gives an infinite A, which the
    second-order formulas refuse as not finite.
    """
    centered = dist.centered()
    ccls = centered.mda()
    if order == 1:
        return ccls.eta, ccls.rho, 0.0
    with np.errstate(all="ignore"):
        a_val = float(ccls.auxiliary(np.float64(centered.quantile(alpha))))
    return ccls.eta, ccls.rho, a_val


def _endpoint_quantile(dist: Distribution, xhat: float, alpha: float) -> float:
    """q_alpha of a law with right endpoint xhat, refusing one that rounds
    to the endpoint, where the endpoint expansions divide by xhat - q."""
    q = float(dist.quantile(alpha))
    if not q < xhat:
        raise ValueError(
            f"the {alpha:g}-quantile of {dist.label} rounds to its right endpoint "
            f"{xhat:g} in double precision"
        )
    return q


def _polynomial_class(dist: Distribution):
    """``dist.mda()``, refusing the Gumbel class, which has no ratio expansion."""
    cls = dist.mda()
    if cls.mda == "gumbel":
        raise ValueError(
            f"{dist.label} has a light (Gumbel-type) tail: no polynomial ratio "
            "expansion exists; see mda().relation for the qualitative statement"
        )
    return cls


def ratio_expansion(dist: Distribution, alpha: float, order: int = 2) -> ExpansionResult:
    """Evaluate the ratio expansion matching ``dist``'s extreme-value class.

    Frechet class: expansion of e(L~)/ES(L~) for the centered variable
    L~ = L - E[L], with the auxiliary function taken from the centered
    law's own classification.  Weibull class: expansion of
    (xhat - ES)/(xhat - e) for the raw variable.  Gumbel class: no
    numeric expansion exists; raises with a pointer to the
    classification's ``relation``.  A second-order request for a tail
    without a second-order term raises ``NoSecondOrder``.
    """
    alpha = _check_alpha(alpha)
    order = _check_order(order)
    cls = _polynomial_class(dist)
    if cls.mda == "frechet":
        return frechet_ratio(*_centered_tail(dist, alpha, order), alpha, order=order)
    xhat = cls.right_endpoint
    q = _endpoint_quantile(dist, xhat, alpha)
    a0 = float(cls.auxiliary((xhat - q) ** (-cls.eta / (cls.eta + 1.0))))
    return weibull_ratio(cls.eta, cls.rho, xhat, dist.mean(), q, a0, alpha, order=order)


def beta_star_expansion(dist: Distribution, alpha: float, order: int = 2) -> ExpansionResult:
    """Evaluate the level-ratio expansion of (1 - beta*)/(1 - alpha) for
    ``dist``'s extreme-value class.

    Frechet class: ``frechet_beta_star_ratio`` with the centered law's
    tail parameters, as in ``ratio_expansion``.  Weibull class: only the
    leading order is known, so the result has ``order == 1`` whatever
    order was asked for.  Gumbel class: raises.
    """
    alpha = _check_alpha(alpha)
    order = _check_order(order)
    cls = _polynomial_class(dist)
    if cls.mda == "frechet":
        return frechet_beta_star_ratio(*_centered_tail(dist, alpha, order), alpha, order=order)
    xhat = cls.right_endpoint
    lead = weibull_beta_star_ratio(
        cls.eta, xhat, _endpoint_quantile(dist, xhat, alpha), alpha, mean=dist.mean()
    )
    return _result(1, lead, 0.0, alpha)


def exact_ratio(dist: Distribution, alpha: float) -> float:
    """The exact value that ``ratio_expansion`` approximates, at an
    expectile level alpha (``risk_core._check_expectile_level``).

    Frechet class: e_alpha/ES_alpha of the centered law.  Weibull class:
    the endpoint gap ratio (xhat - ES_alpha)/(xhat - e_alpha) of the raw
    variable.  Gumbel class: raises, as ``ratio_expansion`` does.  Raises
    ValueError when the denominator, positive for every non-constant law,
    is not positive in double precision: the centered law has collapsed
    (a huge tail index), or the expectile rounds to the endpoint.
    """
    alpha = _check_expectile_level(alpha)
    cls = _polynomial_class(dist)
    if cls.mda == "frechet":
        centered = dist.centered()
        num, den = expectile(centered, alpha), expected_shortfall(centered, alpha)
        what = "ES of the centered law"
    else:
        xhat = cls.right_endpoint
        num = xhat - expected_shortfall(dist, alpha)
        den = xhat - expectile(dist, alpha)
        what = "gap of the expectile to the right endpoint"
    if not den > 0.0:
        raise ValueError(
            f"{dist.label} is degenerate in double precision at alpha={alpha:g}: "
            f"the {what} is {den:g}, not positive"
        )
    return num / den


def exact_beta_star_ratio(dist: Distribution, alpha: float) -> float:
    """The exact (1 - beta*)/(1 - alpha) that ``beta_star_expansion`` approximates.

    Raises ValueError when beta* is not inside (0, 1) in double precision,
    as for a law collapsed to a point by a huge tail index.
    """
    point = beta_star(dist, alpha).point
    if not 0.0 < point < 1.0:
        raise ValueError(
            f"{dist.label} is degenerate in double precision at alpha={alpha:g}: "
            f"beta* is {point:g}, not inside (0, 1)"
        )
    return (1.0 - point) / (1.0 - alpha)


class ExpansionCurveRow(NamedTuple):
    """One level of ``expansion_curve``; the field names are its CSV header."""

    alpha: float
    exact: float
    first_order: float
    second_order: float


def expansion_curve(dist: Distribution, alphas: Sequence[float]) -> list:
    """``exact_ratio`` and its first- and second-order ``ratio_expansion``
    along a nonempty grid of expectile levels.  In the Weibull class the
    rows hold their reciprocals, (xhat - e)/(xhat - ES), which grow as
    alpha -> 1."""
    reciprocal = _polynomial_class(dist).mda == "weibull"
    rows = []
    for a in _alpha_grid(alphas):
        values = [exact_ratio(dist, a), ratio_expansion(dist, a, order=1).value,
                  ratio_expansion(dist, a, order=2).value]
        rows.append(ExpansionCurveRow(a, *(1.0 / v if reciprocal else v for v in values)))
    return rows
