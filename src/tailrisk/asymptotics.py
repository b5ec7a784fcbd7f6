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
  condition) asymptotically equivalent.

The level-ratio expansions (1 - beta*)/(1 - alpha), where beta* is the
tail level at which ES-based combinations reproduce the expectile, come
in the same two quantitative flavours.

Second-order formulas consume the auxiliary function *value* at the
relevant quantile, so they stay usable with estimated inputs; the
``ratio_expansion`` and ``beta_star_expansion`` conveniences wire a known
distribution through its own classification, and ``exact_ratio`` gives
the exact value that ``ratio_expansion`` approximates.  Frechet expansions are expansions of the *centered*
ratio e(L - E[L])/ES(L - E[L]); Weibull gap ratios are location-invariant
in their inputs and are computed for the raw variable.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .distributions import Distribution, Sample
from .risk_core import expected_shortfall, expectile

__all__ = [
    "ExpansionResult",
    "frechet_first_order_constant",
    "frechet_second_order_coefficient",
    "frechet_ratio",
    "frechet_beta_star_ratio",
    "weibull_ratio",
    "weibull_beta_star_ratio",
    "gumbel_relation",
    "hill_estimator",
    "extreme_expectile_estimate",
    "ratio_expansion",
    "beta_star_expansion",
    "exact_ratio",
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


def _check_order(order: int) -> int:
    if order not in (1, 2):
        raise ValueError(f"expansion order must be 1 or 2, got {order!r}")
    return int(order)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.5 <= alpha < 1.0):
        raise ValueError(f"expansion level alpha must lie in [0.5, 1), got {alpha}")
    return alpha


def _frechet_rho(eta: float, rho: float) -> Tuple[float, float]:
    """Validated Frechet second-order parameter, as (rho, eta - rho - 1)."""
    rho = float(rho)
    if rho > 0.0:
        raise ValueError(f"second-order parameter rho must be <= 0, got {rho}")
    denom = eta - rho - 1.0
    if denom == 0.0:
        raise ValueError(f"degenerate combination eta - rho - 1 = 0 (eta={eta}, rho={rho})")
    return rho, denom


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
    eta = float(eta)
    if not (eta > 1.0):
        raise ValueError(f"heavy-tail ratio limit needs eta > 1, got {eta}")
    return (eta - 1.0) ** ((eta - 1.0) / eta) / eta


def frechet_second_order_coefficient(eta: float, rho: float) -> float:
    """Coefficient multiplying A(q_alpha) in the second-order ratio term.

    The rho = 0 case is a genuinely different formula, not the rho -> 0
    limit of the generic one.
    """
    eta = float(eta)
    if not (eta > 1.0):
        raise ValueError(f"second-order coefficient needs eta > 1, got {eta}")
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
        lead = frechet_first_order_constant(eta)
        return ExpansionResult(1, lead, 0.0, lead, alpha)
    if rho is None:
        raise ValueError("second-order expansion needs rho (got None); use order=1")
    lead = (
        (eta - 1.0) ** ((eta - 1.0) / eta)
        * (2.0 * alpha - 1.0) ** (1.0 / eta)
        / eta
    )
    corr = -frechet_second_order_coefficient(eta, rho) * float(a_at_q)
    return ExpansionResult(2, lead, corr, lead * (1.0 + corr), alpha)


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
    eta = float(eta)
    if not (eta > 1.0):
        raise ValueError(f"heavy-tail level ratio needs eta > 1, got {eta}")
    if order == 1:
        lead = eta - 1.0
        return ExpansionResult(1, lead, 0.0, lead, alpha)
    if rho is None:
        raise ValueError("second-order expansion needs rho (got None); use order=1")
    rho, denom = _frechet_rho(eta, rho)
    lead = (eta - 1.0) / (2.0 * alpha - 1.0)
    corr = -((eta - 1.0) ** (-rho / eta) / denom) * float(a_at_q)
    return ExpansionResult(2, lead, corr, lead * (1.0 + corr), alpha)


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
    eta = float(eta)
    if not (eta > 0.0):
        raise ValueError(f"endpoint gap expansion needs eta > 0, got {eta}")
    xhat, q_alpha, mean = _endpoint_inputs(xhat, q_alpha, mean)
    c_eta = ((xhat - mean) * (eta + 1.0)) ** (1.0 / (eta + 1.0))
    lead = (
        eta
        * ((2.0 * alpha - 1.0) * (xhat - q_alpha)) ** (1.0 / (eta + 1.0))
        / ((eta + 1.0) * c_eta)
    )
    if order == 1:
        return ExpansionResult(1, lead, 0.0, lead, alpha)
    if rho is None:
        raise ValueError("second-order expansion needs rho (got None); use order=1")
    rho = float(rho)
    if not (rho < 0.0):
        raise ValueError(f"endpoint second-order parameter rho must be < 0, got {rho}")
    if eta - rho + 1.0 == 0.0:
        raise ValueError(f"degenerate combination eta - rho + 1 = 0 (eta={eta}, rho={rho})")
    corr = (
        c_eta * (xhat - q_alpha) ** (eta / (eta + 1.0)) / ((eta + 1.0) * (xhat - mean))
        + c_eta ** (-rho) * float(a0_at_q) / (rho * (eta - rho + 1.0))
    )
    return ExpansionResult(2, lead, corr, lead * (1.0 + corr), alpha)


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
    eta = float(eta)
    if not (eta > 0.0):
        raise ValueError(f"endpoint level ratio needs eta > 0, got {eta}")
    xhat, q_alpha, mean = _endpoint_inputs(xhat, q_alpha, mean)
    return ((xhat - mean) * (eta + 1.0) / (xhat - q_alpha)) ** (eta / (eta + 1.0))


def gumbel_relation(
    has_finite_endpoint: bool = False, satisfies_second_order: bool = False
) -> str:
    """Qualitative expectile/quantile relation in the light-tailed class.

    Returns ``"equivalent"`` when e_alpha/q_alpha -> 1 (finite endpoint,
    or an unbounded law whose integrated tail satisfies the second-order
    von Mises refinement, e.g. the exponential), else
    ``"log-equivalent"`` (only log e_alpha / log q_alpha -> 1 is
    guaranteed).
    """
    if has_finite_endpoint or satisfies_second_order:
        return "equivalent"
    return "log-equivalent"


def hill_estimator(sample: Sample, k: Optional[int] = None) -> float:
    """Hill estimate of the tail index from the top k order statistics.

    Uses eta_hat = k / sum_{i=1}^{k} log(X_(n-i+1) / X_(n-k)); the
    default window is k = ceil(n^0.7).
    """
    if not isinstance(sample, Sample):
        sample = Sample(sample)
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
    if not isinstance(sample, Sample):
        sample = Sample(sample)
    alpha = float(alpha)
    if not (0.5 <= alpha < 1.0):
        raise ValueError(f"estimation level alpha must lie in [0.5, 1), got {alpha}")
    eta_hat = hill_estimator(sample, k)
    if eta_hat <= 1.0:
        raise ValueError(
            f"estimated tail index {eta_hat:.4f} <= 1: extreme expectile "
            "proportionality needs a finite-mean heavy tail"
        )
    return (eta_hat - 1.0) ** (-1.0 / eta_hat) * sample.quantile(alpha)


def _centered_tail(dist: Distribution, alpha: float, order: int):
    """(eta, rho, A(q_alpha)) of the centered law of a Frechet-class ``dist``.

    At first order only eta is used: rho comes back None and A as 0.0.
    """
    centered = dist.centered()
    ccls = centered.mda()
    if order == 1:
        return ccls.eta, None, 0.0
    if ccls.rho is None:
        raise ValueError(f"{dist.label} has no second-order tail parametrization; use order=1")
    return ccls.eta, ccls.rho, float(ccls.auxiliary(centered.quantile(alpha)))


def _polynomial_class(dist: Distribution):
    """``dist.mda()``, refusing the Gumbel class, which has no ratio expansion."""
    cls = dist.mda()
    if cls.mda == "gumbel":
        raise ValueError(
            f"{dist.label} has a light (Gumbel-type) tail: no polynomial ratio "
            "expansion exists; see gumbel_relation() for the qualitative statement"
        )
    return cls


def ratio_expansion(dist: Distribution, alpha: float, order: int = 2) -> ExpansionResult:
    """Evaluate the ratio expansion matching ``dist``'s extreme-value class.

    Frechet class: expansion of e(L~)/ES(L~) for the centered variable
    L~ = L - E[L], with the auxiliary function taken from the centered
    law's own classification.  Weibull class: expansion of
    (xhat - ES)/(xhat - e) for the raw variable.  Gumbel class: no
    numeric expansion exists; raises with a pointer to
    ``gumbel_relation``.
    """
    alpha = _check_alpha(alpha)
    order = _check_order(order)
    cls = _polynomial_class(dist)
    if cls.mda == "frechet":
        eta, rho, a_val = _centered_tail(dist, alpha, order)
        return frechet_ratio(eta, rho, a_val, alpha, order=order)
    xhat = cls.right_endpoint
    q = dist.quantile(alpha)
    mean = dist.mean()
    if order == 1:
        return weibull_ratio(cls.eta, None, xhat, mean, q, 0.0, alpha, order=1)
    if cls.rho is None:
        raise ValueError(f"{dist.label} has no second-order tail parametrization; use order=1")
    a0 = float(cls.auxiliary((xhat - q) ** (-cls.eta / (cls.eta + 1.0))))
    return weibull_ratio(cls.eta, cls.rho, xhat, mean, q, a0, alpha, order=2)


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
        eta, rho, a_val = _centered_tail(dist, alpha, order)
        return frechet_beta_star_ratio(eta, rho, a_val, alpha, order=order)
    lead = weibull_beta_star_ratio(
        cls.eta, cls.right_endpoint, dist.quantile(alpha), alpha, mean=dist.mean()
    )
    return ExpansionResult(1, lead, 0.0, lead, alpha)


def exact_ratio(dist: Distribution, alpha: float) -> float:
    """The exact value that ``ratio_expansion`` approximates.

    Frechet class: e_alpha/ES_alpha of the centered law.  Weibull class:
    the endpoint gap ratio (xhat - ES_alpha)/(xhat - e_alpha) of the raw
    variable.  Gumbel class: raises, as ``ratio_expansion`` does.
    """
    alpha = _check_alpha(alpha)
    cls = _polynomial_class(dist)
    if cls.mda == "frechet":
        centered = dist.centered()
        return expectile(centered, alpha) / expected_shortfall(centered, alpha)
    xhat = cls.right_endpoint
    return (xhat - expected_shortfall(dist, alpha)) / (xhat - expectile(dist, alpha))
