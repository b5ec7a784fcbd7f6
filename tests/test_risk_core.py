"""Expectile, ES, VaR: closed forms, frozen references and properties."""

import gc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_h
from scipy.special import lambertw

from tailrisk import risk_core
from tailrisk.distributions import (
    Exponential,
    Pareto,
    Sample,
    StudentT,
    TwoPoint,
    Uniform01,
    parse_distribution,
)
from tailrisk.risk_core import (
    ExpectileDistortion,
    MixtureES,
    beta_star,
    distortion_curves,
    distortion_value,
    expectile,
    expectile_bounds,
    expectile_from_es,
    expected_shortfall,
    foc_residual,
    oce,
    value_at_risk,
)

# Reference values computed with 30-digit arithmetic from the closed-form
# tail functionals of each family (first-order condition solved by
# bisection + Newton); 12 significant digits, keyed (spec, alpha) ->
# (expectile, value at risk, expected shortfall).
REFERENCE = {
    ("pareto:a=2.1", 0.983): ("6.52186407182", "5.96054700723", "12.2883170138"),
    ("pareto:a=2.1", 0.987): ("7.43409332592", "6.90901161227", "14.0990221689"),
    ("pareto:a=2.1", 0.991): ("8.88715787562", "8.42258868280", "16.9885783944"),
    ("pareto:a=2.1", 0.995): ("11.8035939348", "11.4660415293", "22.7988065559"),
    ("pareto:a=2.1", 0.999): ("25.5390571757", "25.8269579528", "50.2151015462"),
    ("student:nu=2.1", 0.983): ("4.79882073569", "5.01078905197", "9.75730988435"),
    ("student:nu=2.1", 0.987): ("5.48907851864", "5.73354567931", "11.1137865237"),
    ("student:nu=2.1", 0.991): ("6.58299629110", "6.87894341310", "13.2731459010"),
    ("student:nu=2.1", 0.995): ("8.76712075945", "9.16566586145", "17.6041200463"),
    ("student:nu=2.1", 0.999): ("18.9933404790", "19.8697957998", "37.9823935389"),
    ("pareto:a=2.3", 0.983): ("5.01307403630", "4.87990127443", "9.40290225476"),
    ("pareto:a=2.3", 0.987): ("5.66448746536", "5.60730917896", "10.6898547012"),
    ("pareto:a=2.3", 0.991): ("6.68893207939", "6.75282138508", "12.7165301428"),
    ("pareto:a=2.3", 0.995): ("8.70534195434", "9.01031685153", "16.7105605835"),
    ("pareto:a=2.3", 0.999): ("17.7558942101", "19.1533768594", "34.6559744436"),
    ("student:nu=2.3", 0.983): ("4.10694160025", "4.57807110661", "8.30112629300"),
    ("student:nu=2.3", 0.987): ("4.65085879575", "5.18863668826", "9.35863625227"),
    ("student:nu=2.3", 0.991): ("5.50010777041", "6.14195939201", "11.0183974986"),
    ("student:nu=2.3", 0.995): ("7.15887759515", "8.00374526687", "14.2776921964"),
    ("student:nu=2.3", 0.999): ("14.5361405969", "16.2794159827", "28.8600519030"),
}


@pytest.mark.parametrize("key", sorted(REFERENCE), ids=lambda k: f"{k[0]}-{k[1]}")
def test_frozen_reference_values(key):
    spec, alpha = key
    d = parse_distribution(spec)
    want_e, want_q, want_es = (float(v) for v in REFERENCE[key])
    assert abs(expectile(d, alpha) / want_e - 1) < 1e-10
    assert abs(value_at_risk(d, alpha) / want_q - 1) < 1e-10
    assert abs(expected_shortfall(d, alpha) / want_es - 1) < 1e-10


# ------------------------------------------------------ closed forms

ALPHA_GRID_50 = np.linspace(0.501, 0.9995, 50)


def test_uniform_expectile_closed_form():
    d = Uniform01()
    for a in ALPHA_GRID_50:
        want = (np.sqrt(a * (1 - a)) - a) / (1 - 2 * a)
        assert abs(expectile(d, a) - want) <= 1e-9


def test_exponential_expectile_closed_form():
    d = Exponential()
    for a in ALPHA_GRID_50:
        want = 1 + lambertw((2 * a - 1) / ((1 - a) * np.e)).real
        assert abs(expectile(d, a) - want) <= 1e-9 * (1 + want)


def test_pareto2_expectile_closed_form():
    d = Pareto(2.0)
    for a in ALPHA_GRID_50:
        want = np.sqrt(a * (1 - a)) / (1 - a)
        assert abs(expectile(d, a) - want) <= 1e-9 * (1 + want)


# levels down to tail probability 1e-10, where an absolute solver
# tolerance would show; the references are evaluated at the binary alpha
SOLVER_LEVELS = [0.6, 0.9, 0.99, 0.999, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8, 1 - 1e-10]


def _uniform_exact(a):
    return (mpmath.sqrt(a * (1 - a)) - a) / (1 - 2 * a)


def _exponential_exact(a):
    return 1 + mpmath.lambertw((2 * a - 1) / ((1 - a) * mpmath.e)).real


def _pareto2_exact(a):
    return mpmath.sqrt(a * (1 - a)) / (1 - a)


@pytest.mark.parametrize("alpha", SOLVER_LEVELS)
@pytest.mark.parametrize("dist, exact", [
    (Uniform01(), _uniform_exact),
    (Exponential(), _exponential_exact),
    (Pareto(2.0), _pareto2_exact),
], ids=["uniform", "exp", "pareto2"])
def test_expectile_solver_matches_closed_form_to_1e13(dist, exact, alpha):
    with mpmath.workdps(40):
        want = exact(mpmath.mpf(alpha))
        assert abs(expectile(dist, alpha) / want - 1) <= 1e-13


def _segment_roots_exact(values, alpha):
    """Every zero of the first-order condition, solved segment by segment in
    rational arithmetic: on (u_j, u_{j+1}) the losses above m are those
    >= u_{j+1}, so g is linear there."""
    xs = [Fraction(v) for v in values]
    a, n = Fraction(alpha), len(xs)
    mean = sum(xs) / n
    distinct = sorted(set(xs))
    roots = []
    for lo, hi in zip(distinct, distinct[1:]):
        above = [x for x in xs if x >= hi]
        # (2a-1)(sum(above) - k m)/n + (1-a)(mean - m) = 0
        m = ((2 * a - 1) * sum(above) / n + (1 - a) * mean) / (
            (2 * a - 1) * len(above) / n + (1 - a))
        if lo <= m <= hi:
            roots.append(m)
    return roots


TIED_SAMPLES = [
    [0.0, 0.0, 1.0, 1.0, 1.0, 2.0],
    [0.0, 1.0, 1.0, 6.0],
    [3.0, -1.5, 3.0, 0.25, 3.0, -1.5, 7.0],
    list(np.random.default_rng(3).integers(0, 4, size=40).astype(float)),
    list(np.random.default_rng(4).pareto(2.1, size=50) * 1e-13),
]


@pytest.mark.parametrize("values", TIED_SAMPLES, ids=range(len(TIED_SAMPLES)))
def test_sample_expectile_is_exact_segment_root(values):
    for a in (0.5 + 1e-9, 0.6, 0.7, 0.75, 0.9, 0.99, 1 - 1e-10):
        roots = _segment_roots_exact(values, a)
        assert len(set(roots)) == 1
        want = roots[0]
        got = expectile(Sample(values), a)
        assert abs(Fraction(got) - want) <= 4 * np.finfo(float).eps * abs(want)


def test_expectile_leaves_no_reference_cycle():
    # a solver whose objective sits in a cycle keeps the Sample it closes
    # over alive until the cyclic collector runs
    gc.collect()
    gc.disable()
    try:
        expectile(Sample(np.random.default_rng(1).standard_normal(1000)), 0.9)
        expectile(StudentT(2.3), 0.99)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_newton_overshoot_falls_back_to_bisection(monkeypatch):
    # a slope at half its value doubles each Newton step, so the iterate
    # lands past the root with a wide bracket and bisection finishes
    want = {(d.label, a): expectile(d, a) for d in (Pareto(2.1), StudentT(2.3), Exponential())
            for a in (0.6, 0.99, 1 - 1e-8)}
    slope = risk_core._slope
    monkeypatch.setattr(risk_core, "_slope", lambda a, u: 0.5 * slope(a, u))
    for d in (Pareto(2.1), StudentT(2.3), Exponential()):
        for a in (0.6, 0.99, 1 - 1e-8):
            assert expectile(d, a) == pytest.approx(want[d.label, a], rel=1e-14)


@pytest.mark.parametrize("dist", [StudentT(2.3), Pareto(2.1), Exponential()], ids=repr)
@pytest.mark.parametrize("alpha", [0.9, 0.99, 1 - 1e-6])
def test_newton_evaluates_the_cdf_once_per_residual(monkeypatch, dist, alpha):
    # each residual g(m) needs ES at u = F(m), after the one ES_alpha of the
    # start; the slope -g'(m) reuses that u, so the CDF runs once per residual
    counts = {"_cdf0": 0, "_es0": 0}
    for hook in counts:
        def counting(self, x, hook=hook, fn=getattr(type(dist), hook)):
            counts[hook] += 1
            return fn(self, x)
        monkeypatch.setattr(type(dist), hook, counting)
    expectile(dist, alpha)
    residuals = counts["_es0"] - 1
    assert residuals >= 2
    assert counts["_cdf0"] == residuals


def test_newton_start_past_root_restarts_from_mean(monkeypatch):
    want = expectile(Pareto(2.1), 0.99)
    # a start at ES_alpha lies right of the root, where g < 0
    monkeypatch.setattr(risk_core, "_combination", lambda es_val, mu, alpha, beta: es_val)
    assert expectile(Pareto(2.1), 0.99) == pytest.approx(want, rel=1e-14)


def test_expectile_at_half_is_mean():
    for src in (Uniform01(), Pareto(2.1), Exponential(),
                Sample([0.0, 1.0, 1.0, 6.0])):
        assert abs(expectile(src, 0.5) - src.mean()) < 1e-12


def test_foc_residual_vanishes_at_expectile():
    for src in (Pareto(2.1), StudentT(2.3), Sample([0.0, 1.0, 1.0, 6.0])):
        for a in (0.6, 0.9, 0.99):
            e = expectile(src, a)
            assert abs(foc_residual(src, a, e)) < 1e-9 * (1 + abs(e))
            assert foc_residual(src, a, e - 0.5) > 0
            assert foc_residual(src, a, e + 0.5) < 0


def test_expectile_monotone_in_level():
    d = StudentT(2.1)
    es = [expectile(d, a) for a in np.linspace(0.5, 0.999, 30)]
    assert np.all(np.diff(es) > 0)


# ------------------------------------------------------------- atoms

def test_atom_sample_expectile_exact():
    s = Sample([0.0, 1.0, 1.0, 6.0])
    # alpha = 0.7 balances 0.7 * E(L-3)+ = 0.525 = 0.3 * E(3-L)+
    assert abs(expectile(s, 0.7) - 3.0) < 1e-12
    assert value_at_risk(s, 0.5) == 1.0
    assert abs(expected_shortfall(s, 0.75) - 6.0) < 1e-12
    assert abs(expected_shortfall(s, 0.5) - 3.5) < 1e-12


def test_expected_shortfall_check_flag():
    # check=True re-derives ES from the acceptance-rejection identity
    for src in (Pareto(2.1), Sample([0.0, 1.0, 1.0, 6.0])):
        for a in (0.3, 0.9, 0.99):
            assert expected_shortfall(src, a, check=True) == \
                expected_shortfall(src, a)


def test_two_point_expectile_anchor():
    # symmetric unit two-point law at alpha = 0.9: e = 0.9 exactly
    d = TwoPoint(0.0, 1.0, 0.5)
    assert abs(expectile(d, 0.9) - 0.9) < 1e-12
    assert abs(expected_shortfall(d, 4.0 / 9.0) - 0.9) < 1e-12


@pytest.mark.parametrize("s", [10.0 ** k for k in range(-15, 16)])
def test_expectile_is_scale_free(s):
    # 0.6 * 0.25 (s - e) = 0.4 * 0.75 e gives e = s/3 at every magnitude
    assert expectile(TwoPoint(0.0, s, 0.75), 0.6) / s == pytest.approx(1.0 / 3.0, rel=1e-12)


# ---------------------------------------------------------------- oce

def test_oce_matches_es_mixture():
    for src in (Pareto(2.3), Uniform01(), Sample([0.0, 1.0, 1.0, 6.0])):
        mu = src.mean()
        for a in (0.05, 0.3, 0.7):
            for b in (0.0, 0.25, 0.8, 1.0):
                lam = (1 - a) / (1 - a * b)
                want = mu if b == 1.0 else \
                    (1 - b) * expected_shortfall(src, lam) + b * mu
                got = oce(src, a, b, check=True)
                assert abs(got - want) < 1e-12 * (1 + abs(want))


def test_oce_rejects_bad_parameters():
    d = Uniform01()
    for a, b in ((0.0, 0.0), (1.0, 0.0), (0.5, -0.1), (0.5, 1.1)):
        with pytest.raises(ValueError):
            oce(d, a, b)


# -------------------------------------------------- beta_star / bounds

def test_beta_star_interval_and_reconstruction():
    for src in (Pareto(2.1), Uniform01(), Sample([0.0, 1.0, 1.0, 6.0]),
                TwoPoint(0.0, 1.0, 0.5)):
        for a in (0.6, 0.9, 0.99):
            bs = beta_star(src, a)
            e = expectile(src, a)
            assert abs(bs.expectile - e) < 1e-12 * (1 + abs(e))
            assert bs.lower <= bs.point <= bs.upper
            assert abs(bs.lower - src.prob_lt(e)) < 1e-12
            assert abs(bs.upper - src.cdf(e)) < 1e-12
            for beta in (bs.lower, 0.5 * (bs.lower + bs.upper), bs.upper):
                if 0.0 < beta < 1.0:
                    back = expectile_from_es(src, a, beta)
                    assert abs(back - e) < 1e-9 * (1 + abs(e))


def test_beta_star_two_point_value():
    # the reconstruction interval collapses to P[L < e] = P[L <= e] = 1/2;
    # ES_{4/9} happens to coincide with e in VALUE but 4/9 is outside it
    d = TwoPoint(0.0, 1.0, 0.5)
    bs = beta_star(d, 0.9)
    assert bs.lower == 0.5 and bs.upper == 0.5
    assert abs(expectile_from_es(d, 0.9, 0.5) - 0.9) < 1e-12
    with pytest.warns(UserWarning):
        off = expectile_from_es(d, 0.9, 4.0 / 9.0)
    assert abs(off - 0.9) > 1e-3


def test_beta_star_pareto2_closed_form():
    # for Pareto a=2 the reconstruction level has an explicit form
    d = Pareto(2.0)
    for a in (0.9, 0.99, 0.999):
        bs = beta_star(d, a)
        # e = sqrt(a(1-a))/(1-a); beta* = F(e) = 1 - 1/(1+e)^2
        e = np.sqrt(a * (1 - a)) / (1 - a)
        assert abs(bs.point - (1 - (1 + e) ** -2.0)) < 1e-10


def test_beta_star_translation_invariant():
    base = Pareto(2.1)
    shifted = base.with_shift(7.0)
    for a in (0.8, 0.99):
        b0, b1 = beta_star(base, a), beta_star(shifted, a)
        assert abs(b0.lower - b1.lower) < 1e-9
        assert abs(b0.upper - b1.upper) < 1e-9


def test_beta_star_rejects_constant():
    with pytest.raises(ValueError):
        beta_star(Sample([2.0, 2.0, 2.0]), 0.9)


def test_expectile_from_es_warns_outside_interval():
    d = Pareto(2.1)
    bs = beta_star(d, 0.9)
    with pytest.warns(UserWarning):
        expectile_from_es(d, 0.9, bs.upper + 0.05)
    with pytest.raises(ValueError):
        expectile_from_es(d, 0.9, bs.upper + 0.05, strict=True)


def test_bounds_chain():
    rng = np.random.default_rng(3)
    for src in (Pareto(2.1), StudentT(2.3), Uniform01(),
                Sample(rng.standard_normal(200))):
        for a in (0.6, 0.9, 0.99):
            e = expectile(src, a)
            for beta in (0.1, a, 0.95):
                b = expectile_bounds(src, a, beta)
                assert b.lower <= e + 1e-12 * (1 + abs(e))
                assert e <= b.upper + 1e-12 * (1 + abs(e))
                assert e <= b.es_cap + 1e-12 * (1 + abs(e))


def test_bounds_two_point_upper_value():
    # Prop-style upper bound is strictly larger than the exact expectile
    b = expectile_bounds(TwoPoint(0.0, 1.0, 0.5), 0.9, 0.9)
    assert abs(b.upper - 17.0 / 18.0) < 1e-12
    assert b.upper > expectile(TwoPoint(0.0, 1.0, 0.5), 0.9)


def test_bounds_at_beta_alpha_evaluate_es_alpha_once(monkeypatch):
    # lower and upper share ES_alpha when beta == alpha; es_cap needs
    # ES_{(2 alpha - 1)/alpha}
    levels = []
    es = risk_core.expected_shortfall

    def counting_es(src, beta, **kwargs):
        levels.append(beta)
        return es(src, beta, **kwargs)

    monkeypatch.setattr(risk_core, "expected_shortfall", counting_es)
    d = StudentT(2.3)
    b = expectile_bounds(d, 0.99, 0.99)
    assert levels == [0.99, pytest.approx(0.98 / 0.99, rel=1e-15)]
    wu = (1.0 - 0.99) / 0.99
    assert b.upper == (1.0 - wu) * es(d, 0.99) + wu * d.mean()


# ----------------------------------------------------------- distortion

def test_distortion_phi_shape():
    phi = ExpectileDistortion(0.94)
    ts = np.linspace(0, 1, 101)
    vals = phi.phi(ts)
    assert vals[0] == 0.0 and vals[-1] == 1.0
    assert np.all(np.diff(vals) > 0)
    assert np.all(np.diff(vals, 2) < 1e-12)  # concave
    # phi(t) = alpha t / ((2 alpha - 1) t + 1 - alpha)
    t = 0.25
    assert abs(phi.phi(t) - 0.94 * t / (0.88 * t + 0.06)) < 1e-14


def test_distortion_value_majorizes_expectile():
    for src in (Pareto(2.1), Uniform01(), Sample([0.0, 1.0, 1.0, 6.0])):
        for a in (0.7, 0.9, 0.99):
            r = distortion_value(src, ExpectileDistortion(a))
            assert r >= expectile(src, a) - 1e-10


def test_distortion_two_point_exact():
    d = TwoPoint(0.0, 1.0, 0.5)
    assert abs(distortion_value(d, ExpectileDistortion(0.9)) - 0.9) < 1e-12


def test_mixture_es_value_and_domination():
    # phi_mix with (lam, beta, delta) = ((1-alpha)/alpha, alpha, 0)
    # dominates the expectile distortion pointwise, hence in value
    a = 0.9
    d = TwoPoint(0.0, 1.0, 0.5)
    mix = MixtureES((1 - a) / a, a, 0.0)
    want = (1 - mix.lam) * expected_shortfall(d, a) + mix.lam * d.mean()
    got = distortion_value(d, mix)
    assert abs(got - want) < 1e-12
    assert abs(got - 17.0 / 18.0) < 1e-12
    ts = np.linspace(0, 1, 201)
    assert np.all(mix.phi(ts) >= ExpectileDistortion(a).phi(ts) - 1e-12)


def test_distortion_curves_grid():
    t, phi, mix = distortion_curves(0.94, 101)
    assert len(t) == len(phi) == len(mix) == 101
    assert t[0] == 0.0 and t[-1] == 1.0
    assert phi[0] == 0.0 and abs(phi[-1] - 1.0) < 1e-14
    assert np.all(mix >= phi - 1e-12)


# ------------------------------------------------- property-based suite

finite_arrays = st_h.lists(
    st_h.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                allow_infinity=False),
    min_size=2, max_size=60,
).filter(lambda v: max(v) > min(v))

levels = st_h.floats(min_value=0.5, max_value=0.995)


@settings(deadline=None, max_examples=120)
@given(finite_arrays, levels)
def test_expectile_between_mean_and_es(values, alpha):
    s = Sample(values)
    e = expectile(s, alpha)
    scale = 1 + abs(s.mean()) + abs(s.es(alpha))
    assert s.mean() - 1e-9 * scale <= e <= s.es(alpha) + 1e-9 * scale


@settings(deadline=None, max_examples=120)
@given(finite_arrays, levels)
def test_reconstruction_identity_property(values, alpha):
    s = Sample(values)
    e = expectile(s, alpha)
    bs = beta_star(s, alpha)
    mid = 0.5 * (bs.lower + bs.upper)
    if 0.0 < mid < 1.0:
        back = expectile_from_es(s, alpha, mid)
        assert abs(back - e) < 1e-9 * (1 + abs(e))


@settings(deadline=None, max_examples=120)
@given(finite_arrays, levels, st_h.floats(min_value=-100, max_value=100),
       st_h.floats(min_value=0.01, max_value=50))
def test_expectile_monetary_axioms(values, alpha, shift, scale):
    s = Sample(values)
    e = expectile(s, alpha)
    shifted = expectile(Sample(np.asarray(values) + shift), alpha)
    scaled = expectile(Sample(np.asarray(values) * scale), alpha)
    tol = 1e-9 * (1 + abs(e) + abs(shift)) * max(scale, 1.0)
    assert abs(shifted - (e + shift)) < tol
    assert abs(scaled - scale * e) < tol


@settings(deadline=None, max_examples=80)
@given(
    st_h.lists(
        st_h.tuples(
            st_h.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
            st_h.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        ),
        min_size=2, max_size=40,
    ),
    levels,
)
def test_expectile_subadditive_on_joint_scenarios(pairs, alpha):
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    ex, ey = expectile(Sample(x), alpha), expectile(Sample(y), alpha)
    exy = expectile(Sample(x + y), alpha)
    assert exy <= ex + ey + 1e-9 * (1 + abs(ex) + abs(ey))


@settings(deadline=None, max_examples=80)
@given(finite_arrays, levels)
def test_es_dominates_var(values, alpha):
    s = Sample(values)
    q = s.quantile(alpha)
    assert s.es(alpha) >= q - 1e-12 * (1 + abs(q))
