"""Deviation bounds, planning sizes, and the size-ratio curves."""

import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st_h

from tailrisk.concentration import (
    _TAIL_CLASSES,
    ExpMoment,
    PolyMoment,
    SubExpMoment,
    TailClass,
    density_bound,
    deviation_bound,
    parse_tail_class,
    sample_size,
    sample_size_report,
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
    with pytest.raises(ValueError, match="r must be positive"):
        SubExpMoment(0.5, 0.0, 0.3)
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


@pytest.mark.parametrize("tc, text", [
    (ExpMoment(k=2, r=1), "ExpMoment(k=2, r=1, C=1, c=1)"),
    (ExpMoment(k=2.5, r=0.5, C=3, c=0.25), "ExpMoment(k=2.5, r=0.5, C=3, c=0.25)"),
    (SubExpMoment(k=0.5, r=1, s=0.3), "SubExpMoment(k=0.5, r=1, s=0.3, C=1, c=1)"),
    (SubExpMoment(k=0.5, r=2, s=0.3, C=1e-3, c=7), "SubExpMoment(k=0.5, r=2, s=0.3, C=0.001, c=7)"),
    (PolyMoment(q=3, s=2.5), "PolyMoment(q=3, s=2.5, C=1, c=1)"),
    (TailClass(C=2, c=0.5), "TailClass(C=2, c=0.5)"),
    (PolyMoment(q=3.1234567, s=2.0 + 1.0 / 3.0),
     "PolyMoment(q=3.1234567, s=2.3333333333333335, C=1, c=1)"),
])
def test_repr_is_pinned(tc, text):
    assert repr(tc) == text


@pytest.mark.parametrize("cls", _TAIL_CLASSES.values(), ids=lambda c: c.family)
def test_example_parses_back_to_the_same_class(cls):
    tc = parse_tail_class(cls.example)
    assert type(tc) is cls
    again = parse_tail_class(f"{cls.family}:" + ",".join(
        f"{k}={getattr(tc, k)!r}" for k in cls.params + ("C", "c")))
    assert repr(again) == repr(tc)
    assert [getattr(again, k) for k in cls.params] == [getattr(tc, k) for k in cls.params]


def test_parse_rejects_repeated_keys_and_skips_empty_items():
    with pytest.raises(ValueError, match="duplicate tail parameter 'q'"):
        parse_tail_class("poly:q=3,Q=4,s=2.5")
    with pytest.raises(ValueError, match="duplicate tail parameter 'C'"):
        parse_tail_class("poly:q=3,s=2.5,C=1,C=2")
    assert repr(parse_tail_class("poly:,q=3,,s=2.5,")) == "PolyMoment(q=3, s=2.5, C=1, c=1)"
    assert repr(parse_tail_class("poly:q=3,s=2.5,C=2,c=3")) == "PolyMoment(q=3, s=2.5, C=2, c=3)"


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


_FRACTION = st_h.floats(0.0, 1.0)
_CONSTANT = st_h.floats(0.01, 10.0)
_TAIL_CLASSES = st_h.one_of(
    st_h.builds(lambda k, C, c: ExpMoment(k=k, r=1.0, C=C, c=c),
                st_h.floats(1.01, 5.0), _CONSTANT, _CONSTANT),
    st_h.builds(lambda s, u, C, c: SubExpMoment(k=s + (1.0 - s) * (0.5 + u / 4), r=1.0, s=s,
                                                C=C, c=c),
                st_h.floats(0.2, 0.9), _FRACTION, _CONSTANT, _CONSTANT),
    st_h.builds(lambda q, u, C, c: PolyMoment(q=q, s=2.0 + (q - 2.0) * (0.05 + 0.9 * u),
                                              C=C, c=c),
                st_h.floats(2.1, 10.0), _FRACTION, _CONSTANT, _CONSTANT),
)


@settings(deadline=None, max_examples=300)
@given(_TAIL_CLASSES, st_h.floats(1e-6, 0.5), st_h.floats(1e-3, 1.0),
       st_h.floats(0.5, 0.9999), st_h.sampled_from(["es", "expectile"]))
def test_sample_size_inverts_the_deviation_bound(tc, gamma, fraction, alpha, measure):
    # the smallest n with bound(n) <= gamma: bound(n) <= gamma < bound(n - 1),
    # or n = 1; from 2**53 on, n - 1 may round to n in the bound's float
    # arithmetic (stretched-exponential sizes reach 1e22)
    eps = fraction * alpha / (1.0 - alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        n = sample_size(tc, gamma, eps, alpha, measure)
    if n < 2 ** 53:
        assert deviation_bound(tc, n, eps, alpha, measure) <= gamma
        assert n == 1 or deviation_bound(tc, n - 1, eps, alpha, measure) > gamma


def test_subexp_bound_at_the_returned_size_is_the_budget():
    # both sides use the two-sided prefactor 2C
    tc = SubExpMoment(k=0.5, r=1.0, s=0.3)
    for gamma in (0.01, 0.05, 0.2):
        n = sample_size(tc, gamma, 0.1, 0.99)
        assert deviation_bound(tc, n, 0.1, 0.99) == pytest.approx(gamma, rel=1e-6)


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


def test_a_size_past_double_precision_is_an_overflow_naming_the_class():
    # c = 1e-310 puts the inverse -log(gamma) / (c h^2) past the largest double
    tc = ExpMoment(k=2.0, r=1.0, c=1e-310)
    with pytest.raises(OverflowError, match=r"ExpMoment\(k=2, r=1, C=1, c=1e-310\) gives no "
                                            r"finite sample size at gamma=0.05, h=0.001"):
        sample_size(tc, 0.05, 0.1, 0.99)


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


@pytest.mark.parametrize("delta", [math.inf, math.nan, -1.0])
def test_var_sample_size_rejects_a_density_bound_that_bounds_nothing(delta):
    # an infinite density bound would plan a single draw
    with pytest.raises(ValueError, match="delta_alpha must be positive and finite"):
        var_sample_size(delta, 0.05, 0.1)


@pytest.mark.parametrize("offset", [-1.0, 0.0, math.inf, math.nan])
def test_density_bound_rejects_offsets_off_the_right_of_the_quantile(offset):
    # exp at q - 1 has density 0.0272 against 0.01 at q itself: a negative
    # offset would overstate the density bound and understate n_var
    with pytest.raises(ValueError, match="delta_offset must be positive and finite"):
        density_bound(Exponential(), 0.99, offset)
    with pytest.raises(ValueError, match="delta_offset must be positive and finite"):
        size_ratio_curve(Exponential(), ExpMoment(k=2.0, r=1.0), 0.05, 0.1, (0.99,),
                         delta_offset=offset)


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


def test_curve_rows_are_one_level_reports():
    tc = PolyMoment(q=2.05, s=2.01)
    rows = size_ratio_curve(Pareto(2.1), tc, 0.05, 0.1, ALPHAS)
    for r in rows:
        assert r == sample_size_report(tc, 0.05, 0.1, r.alpha, r.delta_alpha)
        assert (r.n_es, r.n_expectile) == (sample_size(tc, 0.05, 0.1, r.alpha, "es"),
                                           sample_size(tc, 0.05, 0.1, r.alpha, "expectile"))
        assert r.n_var == var_sample_size(r.delta_alpha, 0.05, 0.1)


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
