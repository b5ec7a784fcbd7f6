"""Deviation bounds, planning sizes, and the size-ratio curves."""

import math

import pytest

from tailrisk.concentration import (
    ExpMoment,
    PolyMoment,
    SubExpMoment,
    density_bound,
    deviation_bound,
    parse_tail_class,
    sample_size,
    size_ratio_curve,
    var_sample_size,
)
from tailrisk.distributions import Exponential, Pareto, StudentT, TwoPoint, Uniform01


# ------------------------------------------------------------- parsing

def test_parse_each_family():
    tc = parse_tail_class("exp:k=2,r=1")
    assert isinstance(tc, ExpMoment) and tc.k == 2.0 and tc.r == 1.0
    assert tc.C == 1.0 and tc.c == 1.0
    tc = parse_tail_class("subexp:k=0.5,r=1,s=0.3")
    assert isinstance(tc, SubExpMoment) and tc.s == 0.3
    tc = parse_tail_class(" poly : q=3, s=2.5 ")
    assert isinstance(tc, PolyMoment) and tc.q == 3.0 and tc.s == 2.5


def test_parse_constants_are_case_sensitive():
    tc = parse_tail_class("exp:k=2,r=1,C=3,c=0.25")
    assert tc.C == 3.0 and tc.c == 0.25
    # every other key is case-insensitive
    tc = parse_tail_class("poly:Q=3,S=2.5")
    assert tc.q == 3.0 and tc.s == 2.5


def test_parse_rejections():
    with pytest.raises(ValueError, match="unknown tail class 'beta'"):
        parse_tail_class("beta:q=3")
    with pytest.raises(ValueError, match="needs parameters.*poly:q=3,s=2.5"):
        parse_tail_class("poly")
    with pytest.raises(ValueError, match="missing parameter"):
        parse_tail_class("poly:q=3")
    with pytest.raises(ValueError, match="unknown parameter 'z'"):
        parse_tail_class("poly:q=3,s=2.5,z=1")
    with pytest.raises(ValueError, match="duplicate tail parameter 'q'"):
        parse_tail_class("poly:q=3,q=4,s=2.5")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_tail_class("poly:q=abc,s=2.5")
    with pytest.raises(ValueError, match="key=value"):
        parse_tail_class("poly:q")


def test_class_parameter_validation():
    with pytest.raises(ValueError, match="k must exceed 1"):
        ExpMoment(k=1.0, r=1.0)
    with pytest.raises(ValueError, match="r must be positive"):
        ExpMoment(k=2.0, r=0.0)
    with pytest.raises(ValueError, match=r"k must lie in \(0, 1\)"):
        SubExpMoment(k=1.2, r=1.0, s=0.3)
    with pytest.raises(ValueError, match=r"s must lie in \(0, k\)"):
        SubExpMoment(k=0.5, r=1.0, s=0.5)
    with pytest.raises(ValueError, match="q must exceed 2"):
        PolyMoment(q=2.0, s=1.5)
    with pytest.raises(ValueError, match=r"s must lie in \(2, q\)"):
        PolyMoment(q=3.0, s=3.0)
    with pytest.raises(ValueError, match="C must be"):
        PolyMoment(q=3.0, s=2.5, C=0.0)
    with pytest.raises(ValueError, match="c must be"):
        PolyMoment(q=3.0, s=2.5, c=-1.0)


def test_repr_carries_constants():
    assert repr(PolyMoment(q=3, s=2.5, C=2, c=0.5)) == "PolyMoment(q=3, s=2.5, C=2, c=0.5)"


# ----------------------------------------------------- deviation bounds

def test_poly_bound_scales_like_n_to_one_minus_s():
    # pick (eps, alpha) so the raw bound sits far from the clamp at 1
    tc = PolyMoment(q=3.0, s=2.5)
    b1 = deviation_bound(tc, 1_000_000, 0.5, 0.9)
    b2 = deviation_bound(tc, 2_000_000, 0.5, 0.9)
    assert 0.0 < b2 < b1 < 1e-4
    assert abs(b2 / b1 - 2.0 ** (1.0 - 2.5)) < 1e-12


def test_bound_clamps_to_one():
    tc = PolyMoment(q=3.0, s=2.5)
    assert deviation_bound(tc, 10, 0.01, 0.99) == 1.0


def test_exp_bound_form():
    tc = ExpMoment(k=2.0, r=1.0, C=2.0, c=0.5)
    h = 0.1 * (1.0 - 0.9)
    want = 2.0 * math.exp(-0.5 * 100_000 * h * h)
    assert 0.0 < want < 1.0
    assert abs(deviation_bound(tc, 100_000, 0.1, 0.9) - want) < 1e-15


def test_expectile_threshold_is_larger_so_bound_is_smaller():
    tc = ExpMoment(k=2.0, r=1.0)
    b_es = deviation_bound(tc, 50_000, 0.5, 0.95, "es")
    b_ex = deviation_bound(tc, 50_000, 0.5, 0.95, "expectile")
    assert b_ex < b_es < 1.0


def test_eps_validity_window():
    tc = ExpMoment(k=2.0, r=1.0)
    # eps may reach alpha/(1-alpha) but not exceed it
    deviation_bound(tc, 10, 9.0, 0.9)
    with pytest.raises(ValueError, match=r"eps must lie in \(0, alpha/\(1-alpha\)\]"):
        deviation_bound(tc, 10, 9.0001, 0.9)
    with pytest.raises(ValueError, match="alpha must lie in"):
        deviation_bound(tc, 10, 0.1, 1.0)
    with pytest.raises(ValueError, match="n must be a positive integer"):
        deviation_bound(tc, 0, 0.1, 0.9)
    with pytest.raises(ValueError, match="measure"):
        deviation_bound(tc, 10, 0.1, 0.9, "var")


# ------------------------------------------------------- sample sizes

def test_exp_sample_size_inverts_bound():
    tc = ExpMoment(k=2.0, r=2.0, C=1.5, c=0.7)
    n = sample_size(tc, 0.05, 0.1, 0.99)
    assert deviation_bound(tc, n, 0.1, 0.99) <= 0.05
    assert deviation_bound(tc, n - 1, 0.1, 0.99) > 0.05


def test_poly_sample_size_inverts_bound():
    tc = PolyMoment(q=2.05, s=2.01)
    n = sample_size(tc, 0.05, 0.5, 0.9)
    assert deviation_bound(tc, n, 0.5, 0.9) <= 0.05
    assert deviation_bound(tc, n - 1, 0.5, 0.9) > 0.05


def test_subexp_sample_size_inverts_two_sided_form():
    # the planning branch inverts the two-sided shape with prefactor 2C,
    # so the one-sided bound at the returned n sits at gamma/2
    tc = SubExpMoment(k=0.5, r=1.0, s=0.3)
    n = sample_size(tc, 0.05, 0.1, 0.99)
    assert abs(deviation_bound(tc, n, 0.1, 0.99) - 0.025) < 1e-5
    assert deviation_bound(tc, max(1, n // 4), 0.1, 0.99) > 0.05


def test_oversized_budget_warns_and_returns_one():
    with pytest.warns(UserWarning, match="returning 1"):
        assert sample_size(ExpMoment(k=2.0, r=1.0, C=0.04), 0.05, 0.1, 0.9) == 1
    with pytest.warns(UserWarning, match="returning 1"):
        assert sample_size(SubExpMoment(k=0.5, r=1.0, s=0.3, C=0.02), 0.05, 0.1, 0.9) == 1


def test_expectile_needs_fewer_samples_than_es():
    # the expectile threshold h is larger by 1/alpha, so its size is
    # smaller; on the polynomial branch the ratio is exactly alpha^2
    tc = PolyMoment(q=3.0, s=2.5)
    for alpha in (0.9, 0.99, 0.999):
        n_e = sample_size(tc, 0.05, 0.1, alpha, "expectile")
        n_s = sample_size(tc, 0.05, 0.1, alpha, "es")
        assert n_e < n_s
        assert abs(n_e / n_s - alpha * alpha) < 1e-3
    te = ExpMoment(k=2.0, r=1.0)
    assert sample_size(te, 0.05, 0.1, 0.99, "expectile") < sample_size(te, 0.05, 0.1, 0.99, "es")


def test_gamma_validation():
    with pytest.raises(ValueError, match="gamma must lie in"):
        sample_size(ExpMoment(k=2.0, r=1.0), 0.0, 0.1, 0.9)
    with pytest.raises(ValueError, match="gamma must lie in"):
        var_sample_size(1.0, 1.0, 0.1)


# -------------------------------------------------------- quantile side

def test_var_sample_size_formula():
    want = math.ceil(-math.log(0.05 / 4.0) / (2.0 * 0.01 ** 2) / 1.0 ** 2)
    assert var_sample_size(1.0, 0.05, 0.01) == want == 21911


def test_var_size_quadruples_when_density_bound_halves():
    n1 = var_sample_size(0.5, 0.05, 0.1)
    n2 = var_sample_size(0.25, 0.05, 0.1)
    assert abs(n2 / n1 - 4.0) < 0.02


def test_var_size_quadruples_when_eps_halves():
    n1 = var_sample_size(1.0, 0.05, 0.02)
    n2 = var_sample_size(1.0, 0.05, 0.01)
    assert abs(n2 / n1 - 4.0) < 0.02
    with pytest.raises(ValueError, match="delta_alpha must be positive"):
        var_sample_size(0.0, 0.05, 0.1)
    with pytest.raises(ValueError, match="eps must be positive"):
        var_sample_size(1.0, 0.05, 0.0)


# --------------------------------------------------------- ratio curves

ALPHAS = (0.9, 0.99, 0.999, 0.9999)


def test_heavy_tail_ratio_curves_decrease():
    tc = PolyMoment(q=2.05, s=2.01)
    for dist in (Pareto(2.1), StudentT(2.1)):
        rows = size_ratio_curve(dist, tc, 0.05, 0.1, ALPHAS)
        ratios = [r.ratio_es_var for r in rows]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        exp_ratios = [r.ratio_expectile_var for r in rows]
        assert all(a > b for a, b in zip(exp_ratios, exp_ratios[1:]))
        for r in rows:
            assert r.n_expectile < r.n_es


def test_light_tail_ratio_curve_is_flat():
    rows = size_ratio_curve(Exponential(), ExpMoment(k=2.0, r=1.0), 0.05, 0.1,
                            (0.9, 0.99, 0.999))
    ratios = [r.ratio_es_var for r in rows]
    # both sizes grow like (1-alpha)^-2, so the ratio settles to a constant
    assert max(ratios) / min(ratios) < 1.001


def test_pareto_ratio_curve_frozen_values():
    rows = size_ratio_curve(Pareto(2.1), PolyMoment(q=2.05, s=2.01), 0.05, 0.1, ALPHAS)
    ratios = [r.ratio_es_var for r in rows]
    want = (0.73029, 0.252538, 0.0432767, 0.00561173)
    for got, ref in zip(ratios, want):
        assert abs(got / ref - 1.0) < 1e-4
    assert ratios[-1] / ratios[0] < 1e-2


def test_report_carries_inputs():
    rows = size_ratio_curve(Pareto(2.1), PolyMoment(q=2.05, s=2.01, C=2.0, c=0.3),
                             0.05, 0.1, (0.9,))
    r = rows[0]
    assert r.alpha == 0.9 and r.eps == 0.1 and r.gamma == 0.05
    assert r.C == 2.0 and r.c == 0.3
    assert r.delta_alpha == pytest.approx(Pareto(2.1).density(Pareto(2.1).quantile(0.9) + 1.0))
    assert r.ratio_es_var == pytest.approx(r.n_es / r.n_var)


def test_delta_offset_changes_density_bound():
    rows_near = size_ratio_curve(Pareto(2.1), PolyMoment(q=2.05, s=2.01),
                                 0.05, 0.1, (0.9,), delta_offset=0.1)
    rows_far = size_ratio_curve(Pareto(2.1), PolyMoment(q=2.05, s=2.01),
                                0.05, 0.1, (0.9,), delta_offset=5.0)
    assert rows_near[0].delta_alpha > rows_far[0].delta_alpha
    assert rows_near[0].n_var < rows_far[0].n_var


def test_density_bound_is_density_past_quantile():
    d = Pareto(2.1)
    for offset in (0.1, 1.0, 5.0):
        assert density_bound(d, 0.9, offset) == d.density(d.quantile(0.9) + offset)


def test_uniform_density_vanishes_past_support():
    with pytest.raises(ValueError, match="density vanishes.*smaller delta_offset"):
        size_ratio_curve(Uniform01(), ExpMoment(k=2.0, r=1.0), 0.05, 0.1, (0.9,))
    rows = size_ratio_curve(Uniform01(), ExpMoment(k=2.0, r=1.0), 0.05, 0.1, (0.9,),
                            delta_offset=0.05)
    assert rows[0].delta_alpha == 1.0


def test_atomic_law_has_no_density():
    with pytest.raises(ValueError, match="has no density: pass delta_alpha explicitly"):
        size_ratio_curve(TwoPoint(0.0, 1.0, 0.5), ExpMoment(k=2.0, r=1.0),
                         0.05, 0.1, (0.9,))
