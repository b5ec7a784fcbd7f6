"""Tail expansions, Hill estimation and the light-tail dichotomy."""

import numpy as np
import pytest

from tailrisk.asymptotics import (
    beta_star_expansion,
    exact_ratio,
    extreme_expectile_estimate,
    frechet_beta_star_ratio,
    frechet_first_order_constant,
    frechet_ratio,
    frechet_second_order_coefficient,
    gumbel_relation,
    hill_estimator,
    ratio_expansion,
    weibull_beta_star_ratio,
    weibull_ratio,
)
from tailrisk.distributions import (
    Exponential,
    Pareto,
    PowerBeta,
    Sample,
    StudentT,
    Uniform01,
)
from tailrisk.risk_core import beta_star, expectile, expected_shortfall


# ------------------------------------------------------------ constants

def test_first_order_constant_values():
    assert abs(frechet_first_order_constant(2.0) - 0.5) < 1e-15
    assert abs(frechet_first_order_constant(3.0) - 2.0 ** (2 / 3) / 3.0) < 1e-15
    with pytest.raises(ValueError):
        frechet_first_order_constant(1.0)


def test_second_order_coefficient_values():
    # rho = 0 has its own expression, not the rho -> 0 limit
    assert abs(frechet_second_order_coefficient(2.0, 0.0) - 0.5) < 1e-15
    # eta = 2 makes (eta-1)^(-rho/eta) collapse to 1 for every rho
    assert frechet_second_order_coefficient(2.0, -1.0) == 0.0
    assert abs(frechet_second_order_coefficient(3.0, -1.0)
               - 0.0577602333099718) < 1e-15
    with pytest.raises(ValueError):
        frechet_second_order_coefficient(0.9, -1.0)
    with pytest.raises(ValueError):
        frechet_second_order_coefficient(2.0, 0.5)


def test_expansion_result_invariants():
    r = frechet_ratio(2.1, -1.0, 0.05, 0.999)
    assert r.order == 2
    assert abs(r.value - r.leading * (1 + r.correction)) < 1e-15
    r1 = frechet_ratio(2.1, None, 0.0, 0.999, order=1)
    assert r1.order == 1 and r1.correction == 0.0
    # order 1 never looks at rho
    assert frechet_ratio(2.1, -1.0, 0.3, 0.999, order=1).value == r1.value


def test_frechet_leading_term_approaches_constant():
    for eta in (1.8, 2.1, 2.9):
        lead = frechet_ratio(eta, None, 0.0, 1 - 1e-12, order=1).leading
        assert abs(lead - frechet_first_order_constant(eta)) < 1e-9


def test_frechet_ratio_requires_rho_for_second_order():
    with pytest.raises(ValueError, match="order=1"):
        frechet_ratio(2.1, None, 0.0, 0.99, order=2)


# -------------------------------------------------- expansion vs exact

def _exact_centered_ratio(dist, alpha):
    c = dist.centered()
    return expectile(c, alpha) / expected_shortfall(c, alpha)


# For a = 1.8 the exact centered ratio crosses the first-order constant
# at alpha ~ 0.9875; near the crossing the first-order error
# transiently vanishes, so the comparison starts past it.  Everywhere
# else the second-order error is smaller and decays at the faster rate.
@pytest.mark.parametrize("dist,lo", [(Pareto(1.8), 0.993),
                                     (Pareto(2.9), 0.99),
                                     (StudentT(1.8), 0.99),
                                     (StudentT(2.9), 0.99)],
                         ids=lambda v: repr(v) if hasattr(v, "mda") else str(v))
def test_second_order_beats_first_order(dist, lo):
    for alpha in (lo, 0.999, 0.9999, 1 - 1e-6):
        exact = _exact_centered_ratio(dist, alpha)
        e1 = ratio_expansion(dist, alpha, order=1).value
        e2 = ratio_expansion(dist, alpha, order=2).value
        assert abs(e2 - exact) < abs(e1 - exact)


def test_expansion_limit_near_constant():
    for dist, eta in ((Pareto(1.8), 1.8), (StudentT(2.9), 2.9)):
        exact = _exact_centered_ratio(dist, 1 - 1e-6)
        assert abs(exact - frechet_first_order_constant(eta)) < 0.01


def test_ratio_expansion_matches_manual_frechet_call():
    d = Pareto(2.3)
    alpha = 0.995
    c = d.centered()
    ccls = c.mda()
    a_val = ccls.auxiliary(c.quantile(alpha))
    manual = frechet_ratio(ccls.eta, ccls.rho, a_val, alpha, order=2)
    auto = ratio_expansion(d, alpha, order=2)
    assert manual == auto


# ------------------------------------------------------------ beta-star

def test_frechet_beta_star_second_order_beats_first():
    d = Pareto(2.0)
    alpha = 0.999
    bs = beta_star(d, alpha)
    exact = (1 - bs.point) / (1 - alpha)
    c = d.centered()
    ccls = c.mda()
    a_val = ccls.auxiliary(c.quantile(alpha))
    r1 = frechet_beta_star_ratio(2.0, None, 0.0, alpha, order=1).value
    r2 = frechet_beta_star_ratio(2.0, ccls.rho, a_val, alpha, order=2).value
    assert abs(r2 - exact) < abs(r1 - exact)
    assert abs(r2 - exact) < 0.01 * exact


def test_pareto2_beta_star_closed_form():
    # for a = 2 the reconstruction level is explicit:
    # e = sqrt(a(1-a))/(1-a), beta* = 1 - (1+e)^-2
    d = Pareto(2.0)
    for alpha in (0.9, 0.99, 0.999):
        r = np.sqrt(alpha * (1 - alpha))
        want = 1.0 - (1 - alpha) / (1 - alpha + 2 * r + r * r / (1 - alpha))
        assert abs(beta_star(d, alpha).point - want) < 1e-9


def test_weibull_beta_star_sqrt8_anchor():
    # eta 1, endpoint 1, quantile 3/4 -> ((1-0) * 2 / (1/4))^(1/2)
    val = weibull_beta_star_ratio(1.0, 1.0, 0.75, 0.75)
    assert abs(val - np.sqrt(8.0)) < 1e-12


def test_weibull_beta_star_uniform_within_ten_percent():
    d = Uniform01()
    alpha = 0.999
    bs = beta_star(d, alpha)
    exact = (1 - bs.point) / (1 - alpha)
    approx = weibull_beta_star_ratio(1.0, 1.0, d.quantile(alpha), alpha,
                                     mean=d.mean())
    assert abs(approx / exact - 1) < 0.10


def test_beta_star_expansion_matches_manual_frechet_call():
    d = Pareto(2.3)
    alpha = 0.995
    c = d.centered()
    ccls = c.mda()
    a_val = ccls.auxiliary(c.quantile(alpha))
    manual = frechet_beta_star_ratio(ccls.eta, ccls.rho, a_val, alpha, order=2)
    assert beta_star_expansion(d, alpha, order=2) == manual
    manual1 = frechet_beta_star_ratio(ccls.eta, None, 0.0, alpha, order=1)
    assert beta_star_expansion(d, alpha, order=1) == manual1


@pytest.mark.parametrize("order", [1, 2])
def test_beta_star_expansion_weibull_is_leading_order_only(order):
    d = Uniform01()
    alpha = 0.99
    res = beta_star_expansion(d, alpha, order=order)
    want = weibull_beta_star_ratio(1.0, 1.0, d.quantile(alpha), alpha, mean=d.mean())
    assert res.order == 1 and res.correction == 0.0
    assert res.leading == res.value == want


def test_beta_star_expansion_gumbel_raises():
    with pytest.raises(ValueError, match="gumbel_relation"):
        beta_star_expansion(Exponential(), 0.99)


def test_exact_ratio_matches_inline_formulas():
    for d in (Pareto(2.3), StudentT(2.9)):
        assert exact_ratio(d, 0.995) == _exact_centered_ratio(d, 0.995)
    d = PowerBeta(2.0)
    gap = (1 - expected_shortfall(d, 0.995)) / (1 - expectile(d, 0.995))
    assert exact_ratio(d, 0.995) == gap
    with pytest.raises(ValueError, match="gumbel_relation"):
        exact_ratio(Exponential(), 0.99)


# -------------------------------------------------------------- weibull

def test_weibull_ratio_second_order_beats_first():
    d = PowerBeta(2.0)
    cls = d.mda()
    for alpha in (0.99, 0.999):
        e = expectile(d, alpha)
        es = expected_shortfall(d, alpha)
        exact = (1 - es) / (1 - e)
        q = d.quantile(alpha)
        target = (1 - q) ** (-cls.eta / (cls.eta + 1))
        r1 = weibull_ratio(cls.eta, None, 1.0, d.mean(), q, 0.0, alpha,
                           order=1).value
        r2 = weibull_ratio(cls.eta, cls.rho, 1.0, d.mean(), q,
                           cls.auxiliary(target), alpha, order=2).value
        assert abs(r2 - exact) < abs(r1 - exact)


def test_weibull_ratio_validation():
    with pytest.raises(ValueError):
        weibull_ratio(0.0, -1.0, 1.0, 0.5, 0.9, 0.1, 0.99)
    with pytest.raises(ValueError):
        weibull_ratio(1.0, -1.0, 1.0, 0.5, 1.2, 0.1, 0.99)  # q beyond endpoint
    with pytest.raises(ValueError):
        weibull_ratio(1.0, -1.0, 1.0, 1.5, 0.9, 0.1, 0.99)  # mean beyond endpoint
    with pytest.raises(ValueError, match="order=1"):
        weibull_ratio(1.0, None, 1.0, 0.5, 0.9, 0.0, 0.99, order=2)


def test_ratio_expansion_weibull_matches_figure_orientation():
    d = PowerBeta(2.0)
    alpha = 0.995
    r2 = ratio_expansion(d, alpha, order=2)
    exact = (1 - expected_shortfall(d, alpha)) / (1 - expectile(d, alpha))
    assert abs(r2.value / exact - 1) < 0.05


# ----------------------------------------------------------------- hill

def test_hill_estimator_frozen_value():
    s = Pareto(2.1).sample(100_000, seed=3)
    est = hill_estimator(s)
    assert abs(est - 1.8696) < 2e-3
    assert abs(est - 2.1) / 2.1 < 0.15


def test_hill_estimator_explicit_k():
    s = Pareto(2.1).sample(100_000, seed=3)
    assert hill_estimator(s, k=5000) != hill_estimator(s, k=500)
    with pytest.raises(ValueError):
        hill_estimator(s, k=1)
    with pytest.raises(ValueError):
        hill_estimator(s, k=100_000)


def test_hill_estimator_rejects_nonpositive_window():
    s = Sample(np.array([-1.0, -0.5, 0.5, 1.0, 2.0]))
    with pytest.raises(ValueError):
        hill_estimator(s, k=4)


def test_extreme_expectile_estimate_close_to_truth():
    d = Pareto(2.1)
    s = d.sample(100_000, seed=3)
    est = extreme_expectile_estimate(s, 0.999)
    true = expectile(d, 0.999)
    assert 0.9 < est / true < 1.1


def test_extreme_expectile_needs_integrable_tail():
    # survival x**-0.8 on [1, inf): infinite mean, so the Hill index
    # lands below 1 and the proportionality constant is undefined
    rng = np.random.default_rng(5)
    u = np.maximum(rng.random(20_000), 2.0 ** -53)
    s = Sample(np.sort(u ** (-1.0 / 0.8)))
    with pytest.raises(ValueError, match="finite-mean"):
        extreme_expectile_estimate(s, 0.999)


# ----------------------------------------------------------- gumbel part

def test_gumbel_relation_enum():
    assert gumbel_relation(has_finite_endpoint=True) == "equivalent"
    assert gumbel_relation(satisfies_second_order=True) == "equivalent"
    assert gumbel_relation() == "log-equivalent"
    assert gumbel_relation(True, True) == "equivalent"


def test_ratio_expansion_gumbel_raises_with_pointer():
    with pytest.raises(ValueError, match="gumbel_relation"):
        ratio_expansion(Exponential(), 0.99)


def test_exponential_ratio_converges_logarithmically():
    # e/ES climbs to 1 but only at rate ln(L)/L with L = -ln(1-alpha);
    # check monotonicity and that the drift sits inside the rate window
    d = Exponential()
    alphas = 1 - 10.0 ** -np.arange(2, 11)
    ratios = np.array([expectile(d, a) / expected_shortfall(d, a)
                       for a in alphas])
    assert np.all(np.diff(ratios) > 0)
    assert ratios[-1] < 1.0
    for a, r in zip(alphas, ratios):
        big_l = -np.log1p(-a)
        scaled = (1 - r) * (big_l + 1) / (1 + np.log(big_l))
        assert 0.7 < scaled < 1.15
