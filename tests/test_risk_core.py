"""Expectile, ES, VaR: closed forms and properties, against the 40-digit
and exact laws of ``oracle``."""

import gc
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import oracle
import pytest
from hypothesis import given, settings, strategies as st_h

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

@pytest.mark.parametrize("spec", ["pareto:a=2.1", "student:nu=2.1", "pareto:a=2.3",
                                  "student:nu=2.3"])
@pytest.mark.parametrize("alpha", [0.983, 0.987, 0.991, 0.995, 0.999])
def test_reference_values(spec, alpha):
    d = parse_distribution(spec)
    law = oracle.of(d)
    assert abs(expectile(d, alpha) / law.expectile(alpha).value - 1) < 1e-10
    assert abs(value_at_risk(d, alpha) / law.var(alpha).value - 1) < 1e-10
    assert abs(expected_shortfall(d, alpha) / law.es(alpha).value - 1) < 1e-10


# ------------------------------------------------------ closed forms

ALPHA_GRID_50 = np.linspace(0.501, 0.9995, 50)


def test_uniform_expectile_closed_form():
    d = Uniform01()
    for a in ALPHA_GRID_50:
        want = float(oracle.of(Uniform01()).expectile(a).value)
        assert abs(expectile(d, a) - want) <= 1e-9


def test_exponential_expectile_closed_form():
    d = Exponential()
    for a in ALPHA_GRID_50:
        assert oracle.of(d).expectile(a).ulps(expectile(d, a)) <= 4


def test_pareto2_expectile_closed_form():
    d = Pareto(2.0)
    for a in ALPHA_GRID_50:
        assert oracle.of(d).expectile(a).ulps(expectile(d, a)) <= 4


# levels down to tail probability 1e-10, where an absolute solver
# tolerance would show; the references are evaluated at the binary alpha
SOLVER_LEVELS = [0.6, 0.9, 0.99, 0.999, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8, 1 - 1e-10]


@pytest.mark.parametrize("alpha", SOLVER_LEVELS)
@pytest.mark.parametrize("dist", [Uniform01(), Exponential(), Pareto(2.0)],
                         ids=["uniform", "exp", "pareto2"])
def test_expectile_solver_matches_closed_form_to_1e13(dist, alpha):
    with mpmath.workdps(40):
        want = oracle.of(dist).expectile(alpha).value
        assert abs(expectile(dist, alpha) / want - 1) <= 1e-13


TIED_SAMPLES = [
    [0.0, 0.0, 1.0, 1.0, 1.0, 2.0],
    [0.0, 1.0, 1.0, 6.0],
    [3.0, -1.5, 3.0, 0.25, 3.0, -1.5, 7.0],
    list(np.random.default_rng(3).integers(0, 4, size=40).astype(float)),
    list(np.random.default_rng(4).pareto(2.1, size=50) * 1e-13),
]


@pytest.mark.parametrize("values", TIED_SAMPLES, ids=range(len(TIED_SAMPLES)))
def test_sample_expectile_is_exact_segment_root(values):
    law = oracle.Discrete(values)
    for a in (0.5 + 1e-9, 0.6, 0.7, 0.75, 0.9, 0.99, 1 - 1e-10):
        want = law.expectile(a).value
        got = expectile(Sample(values), a)
        assert oracle.ulps(got, want, abs(float(want))) <= 4


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


@pytest.mark.parametrize("dist", [StudentT(2.3), Pareto(2.1), Exponential()], ids=repr)
@pytest.mark.parametrize("alpha", [0.9, 0.99, 1 - 1e-6])
def test_newton_evaluates_the_cdf_once_per_step(monkeypatch, dist, alpha):
    # each step needs ES at u = F(m), after the one ES_alpha of the start;
    # the weights of the step reuse that u, so the CDF runs once per step
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


@pytest.mark.parametrize("dist", [StudentT(2.3), Pareto(2.1), Exponential()], ids=repr)
@pytest.mark.parametrize("alpha", [0.6, 0.99, 1 - 1e-8])
def test_newton_start_past_root_lands_left_of_it(dist, alpha):
    # g is convex, so a step from a start right of the root, where g < 0,
    # lands at or left of it and the iterates climb back to the root
    mu, hi = dist.mean(), 100.0 * expected_shortfall(dist, alpha)
    assert foc_residual(dist, alpha, risk_core._combination(hi, mu, alpha, alpha)) < 0.0
    got = risk_core._newton_root(dist, alpha, mu, hi)
    assert got == pytest.approx(expectile(dist, alpha), rel=1e-14)


def test_expectile_at_half_is_mean():
    for src in (Uniform01(), Pareto(2.1), Exponential(),
                Sample([0.0, 1.0, 1.0, 6.0])):
        assert abs(expectile(src, 0.5) - src.mean()) < 1e-12


def test_foc_residual_vanishes_at_expectile():
    for src in (Pareto(2.1), StudentT(2.3), Sample([0.0, 1.0, 1.0, 6.0])):
        for a in (0.6, 0.9, 0.99):
            e = expectile(src, a)
            terms = oracle.foc(oracle.of(src), a, e).terms
            assert oracle.ulps(foc_residual(src, a, e), 0.0, terms) <= 8
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


def _es_check_sources():
    draws = Pareto(2.1).sample(1000, seed=5).values
    for s in (1e-15, 1.0, 1e15):
        for name, values in (("", draws), ("tied ", np.round(draws)), ("negative ", -draws)):
            yield pytest.param(Sample(s * values), 0.0, id=f"{name}sample x {s:g}")
        yield pytest.param(TwoPoint(0.0, s, 0.5), 0.0, id=f"two-point x {s:g}")
    for base in (Pareto(2.1), StudentT(2.3)):
        for shift in (-1e6, 1e6):
            yield pytest.param(base.with_shift(shift), shift, id=f"{base.label} shift {shift:g}")


@pytest.mark.parametrize("src, shift", list(_es_check_sources()))
def test_es_check_is_relative_to_its_terms(monkeypatch, src, shift):
    # unplanted, the check passes on the oracle's value; an ES off by 1e-6
    # of itself fails it at every scale and shift
    levels = (0.0, 0.3, 0.9, 0.99)
    law = oracle.of(src if isinstance(src, Sample) else src.with_shift(0.0))
    for a in levels:
        want = law.es(a) if a > 0.0 else law.mean()
        got = expected_shortfall(src, a, check=True)
        assert oracle.ulps(got, want.value + shift, want.terms + abs(shift)) <= 32, (a, got)
    es = type(src).es
    monkeypatch.setattr(type(src), "es", lambda self, beta: es(self, beta) * (1.0 + 1e-6))
    for a in levels:
        with pytest.raises(AssertionError, match="expected-shortfall cross-check"):
            expected_shortfall(src, a, check=True)


_TWO_POINT_P = (1e-6, 0.01, 0.3, 0.5, 0.9, 0.999, 0.999999, 1 - 1e-12)


def _two_point_levels(p):
    """The ES levels in [0, 1) that probe an atom at level p: both sides of
    it, halfway to either end, and fixed levels out to 1 - 1e-10."""
    near = (p, np.nextafter(p, 0.0), np.nextafter(p, 1.0), p / 2, (1 + p) / 2)
    return sorted({float(a) for a in (0.0, 0.25, 0.5, 0.9, 0.99, 0.999999, *near, 1 - 1e-10)})


@pytest.mark.parametrize("x1, x2", [(0.0, 1.0), (-1.0, 1.0), (1e15, 1e15 + 3), (-5e-14, 1e-13),
                                    (3.0, 3.0000001), (-1e6, -1e6 + 1), (0.0, 1e300)])
def test_two_point_es_check_sums_the_steps_exactly(monkeypatch, x1, x2):
    # a quadrature of the step quantile misses the atom at p; the exact
    # step sum passes every level, and still fails an ES off by 1e-8 of
    # itself wherever that is over 1e-9 of the terms
    cases = [(TwoPoint(x1, x2, p), a, oracle.two_point_es(x1, x2, p, a))
             for p in _TWO_POINT_P for a in _two_point_levels(p)]
    assert len(cases) == 92
    for src, a, want in cases:
        assert want.ulps(expected_shortfall(src, a, check=True)) <= 4, (src, a)
    es = TwoPoint.es
    monkeypatch.setattr(TwoPoint, "es", lambda self, beta: es(self, beta) * (1.0 + 1e-8))
    for src, a, want in cases:
        if abs(float(want.value)) >= 0.2 * want.terms:
            with pytest.raises(AssertionError, match="expected-shortfall cross-check"):
                expected_shortfall(src, a, check=True)


@pytest.mark.parametrize("src", [Sample(Pareto(2.1).sample(1000, seed=5).values), Pareto(2.1)],
                         ids=["sample", "pareto"])
def test_es_check_at_level_zero_has_its_own_reference(monkeypatch, src):
    # es(0) is the mean by construction, so a mean off by 1e-6 of itself is
    # an ES_0 off by as much; the reference must not be the mean
    mean, es = type(src).mean, type(src).es
    monkeypatch.setattr(type(src), "mean", lambda self: mean(self) * (1.0 + 1e-6))
    monkeypatch.setattr(type(src), "es",
                        lambda self, beta: self.mean() if beta == 0.0 else es(self, beta))
    with pytest.raises(AssertionError, match="expected-shortfall cross-check"):
        expected_shortfall(src, 0.0, check=True)


@pytest.mark.parametrize("src, alpha", [(Pareto(2.1), 1 - 1e-6), (StudentT(2.3), 0.9999),
                                        (Exponential(), 1 - 1e-8)],
                         ids=["pareto-1e-6", "student-1e-4", "exp-1e-8"])
def test_es_check_blames_the_quadrature_it_cannot_trust(src, alpha):
    # the closed forms are right (tests/oracle.py); the quadrature of the
    # quantile misses them by less than its own error estimate
    assert oracle.ulps(expected_shortfall(src, alpha), oracle.of(src).es(alpha).value,
                       oracle.of(src).es(alpha).terms) <= 32
    with pytest.raises(RuntimeError, match="expected-shortfall cross-check.*error estimate"):
        expected_shortfall(src, alpha, check=True)


def test_checks_fail_on_nan(monkeypatch):
    # a NaN is never within a tolerance
    sources = (Sample([0.0, 1.0, 1.0, 6.0]), Pareto(2.1))
    for src in sources:
        monkeypatch.setattr(type(src), "es", lambda self, beta: np.nan)
    for src in sources:
        for a in (0.0, 0.3, 0.99):
            with pytest.raises(AssertionError, match="expected-shortfall cross-check"):
                expected_shortfall(src, a, check=True)
        with pytest.raises(AssertionError, match="oce cross-check"):
            oce(src, 0.3, 0.25, check=True)


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
        mu, ref = src.mean(), oracle.of(src)
        for a in (0.05, 0.3, 0.7):
            for b in (0.0, 0.25, 0.8, 1.0):
                lam = (1 - a) / (1 - a * b)
                want = mu if b == 1.0 else \
                    (1 - b) * expected_shortfall(src, lam) + b * mu
                got = oce(src, a, b, check=True)
                terms = ref.mean().terms if b == 1.0 else \
                    (1 - b) * ref.es(lam).terms + b * ref.mean().terms
                assert oracle.ulps(got, want, terms) <= 4


@pytest.mark.parametrize("scale", [1e-15, 1.0, 1e15])
def test_oce_check_is_relative_to_its_terms(monkeypatch, scale):
    # an ES off by 1e-6 of itself makes the representation miss the direct
    # objective and fails the check at every scale; unplanted, nothing fires
    draws = Pareto(2.1).sample(1000, seed=5).values
    sources = (Sample(scale * draws), Sample(scale * np.round(draws)),
               TwoPoint(0.0, scale, 0.75))
    grid = [(a, b) for a in (0.05, 0.3, 0.7) for b in (0.0, 0.25, 0.8)]
    for src in sources:
        for a, b in grid:
            oce(src, a, b, check=True)
    es = risk_core.expected_shortfall
    monkeypatch.setattr(risk_core, "expected_shortfall",
                        lambda src, level: es(src, level) * (1.0 + 1e-6))
    for src in sources:
        for a, b in grid:
            with pytest.raises(AssertionError, match="oce cross-check"):
                oce(src, a, b, check=True)


def test_oce_rejects_bad_parameters():
    d = Uniform01()
    for a, b in ((0.0, 0.0), (1.0, 0.0), (0.5, -0.1), (0.5, 1.1)):
        with pytest.raises(ValueError):
            oce(d, a, b)


# -------------------------------------------------- beta_star / bounds

def test_beta_star_interval_and_reconstruction():
    for src in (Pareto(2.1), Uniform01(), Sample([0.0, 1.0, 1.0, 6.0]),
                TwoPoint(0.0, 1.0, 0.5)):
        ref = oracle.of(src)
        for a in (0.6, 0.9, 0.99):
            bs = beta_star(src, a)
            e = expectile(src, a)
            assert bs.expectile == e
            assert bs.lower <= bs.point <= bs.upper
            assert abs(bs.lower - src.prob_lt(e)) < 1e-12
            assert abs(bs.upper - src.cdf(e)) < 1e-12
            for beta in (bs.lower, 0.5 * (bs.lower + bs.upper), bs.upper):
                if 0.0 < beta < 1.0:
                    back = expectile_from_es(src, a, beta)
                    terms = oracle.reconstruction(ref, a, beta).terms
                    assert oracle.ulps(back, e, terms) <= 4


DEEP_LEVELS = [1 - 1e-8, 1 - 1e-10]


@pytest.mark.parametrize("dist", [Pareto(1.3), Pareto(2.1)], ids=repr)
@pytest.mark.parametrize("alpha", DEEP_LEVELS)
def test_deep_reconstruction_and_lower_bound(dist, alpha):
    # the weights (2 alpha - 1)(1 - beta) and 1 - alpha round on their own;
    # their sum written as alpha + (1 - 2 alpha) beta cancels to about 1e-8
    # relative at these levels.  ES_beta's own rounding grows with
    # |log(1 - beta)|/a (4.5 ulps at 1 - beta = 3e-11, a = 1.3), so the terms
    # are those of both sides of e = r, as in the other reconstruction checks
    law, point = oracle.of(dist), beta_star(dist, alpha).point
    e_terms = law.expectile(alpha).terms
    for beta, got in ((point, expectile_from_es(dist, alpha, point)),
                      (alpha, expectile_bounds(dist, alpha, alpha).lower)):
        want = oracle.reconstruction(law, alpha, beta)
        assert oracle.ulps(got, want.value, e_terms + want.terms) <= 4, beta


@pytest.mark.parametrize("dist", [StudentT(1.2), StudentT(2.3)], ids=repr)
@pytest.mark.parametrize("alpha", DEEP_LEVELS)
def test_deep_reconstruction_gives_back_the_root(dist, alpha):
    # the oracle's Student quantile cannot start this deep, so the
    # reconstruction is held to the root it reconstructs, in ulps of its
    # terms (1 - w)|ES_beta| + w|E[L]|
    bs = beta_star(dist, alpha)
    a, b = Fraction(alpha), Fraction(bs.point)
    w = (1 - a) / (a + (1 - 2 * a) * b)
    terms = float((1 - w) * abs(Fraction(dist.es(bs.point))) + w * abs(Fraction(dist.mean())))
    assert oracle.ulps(expectile_from_es(dist, alpha, bs.point), bs.expectile, terms) <= 4


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


@pytest.mark.parametrize("call, match", [
    (lambda d: value_at_risk(d, 1.0), r"value-at-risk level must lie in \(0, 1\), got 1.0"),
    (lambda d: expected_shortfall(d, 1.0), r"expected-shortfall level must lie in \[0, 1\)"),
    (lambda d: expectile(d, 1.5), r"expectile level must lie in \[0.5, 1 - 1e-12\), got 1.5$"),
    (lambda d: expectile_bounds(d, 0.9, 1.0), r"bound level beta must lie in \(0, 1\), got 1.0"),
    (lambda d: expectile_from_es(d, 0.9, 0.0), "reconstruction level beta must lie in"),
    (lambda d: MixtureES(2.0, 0.5, 0.5), r"mixture weight must lie in \[0, 1\], got 2.0"),
    (lambda d: MixtureES(0.5, 1.0, 0.5), "mixture level beta must lie in"),
], ids=["var", "es", "expectile", "bounds-beta", "from-es-beta", "mixture-weight",
        "mixture-level"])
def test_levels_and_weights_out_of_range_are_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call(Exponential())


def test_distortion_value_refuses_an_unknown_spec():
    with pytest.raises(TypeError, match="unknown distortion spec"):
        distortion_value(Exponential(), object())


def test_beta_star_rejects_constant():
    with pytest.raises(ValueError):
        beta_star(Sample([2.0, 2.0, 2.0]), 0.9)


def test_expectile_from_es_rejects_constant():
    with pytest.raises(ValueError, match="undefined for a constant loss"):
        expectile_from_es(Sample([2.0, 2.0, 2.0]), 0.9, 0.5)


def test_expectile_from_es_warns_outside_interval():
    d = Pareto(2.1)
    bs = beta_star(d, 0.9)
    interval = re.escape(f"lies outside the valid interval [{bs.lower}, {bs.upper}]")
    with pytest.warns(UserWarning, match=interval):
        expectile_from_es(d, 0.9, bs.upper + 0.05)
    with pytest.raises(ValueError, match=interval):
        expectile_from_es(d, 0.9, bs.upper + 0.05, strict=True)


def test_expectile_from_es_solves_no_root(monkeypatch):
    d = StudentT(2.3)
    beta = beta_star(d, 0.99).point

    def no_solve(*args):
        raise AssertionError("a valid reconstruction solved for the expectile")

    monkeypatch.setattr(risk_core, "_newton_root", no_solve)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expectile_from_es(d, 0.99, beta)


RECONSTRUCTION_SOURCES = [parse_distribution(spec) for spec in (
    "pareto:a=2.1", "pareto:a=1.3", "student:nu=2.3", "student:nu=1.2", "exp", "uniform",
    "power:a=1.1", "power:a=5", "twopoint:x1=0,x2=1,p=0.5", "twopoint:x1=-1,x2=3,p=0.9",
    "student:nu=2.3,shift=-3")] + [
    Sample([0.0, 1.0, 1.0, 6.0, 6.0, 6.0, 2.0, 2.0, 9.0]),
    Sample(np.random.default_rng(7).pareto(2.1, 500)),
    Sample([-3.0, 0.5, 0.5, 4.0])]


@pytest.mark.parametrize("src", RECONSTRUCTION_SOURCES, ids=repr)
def test_expectile_from_es_verdict_is_the_beta_star_interval(src):
    # the check at r's own levels accepts exactly the beta* interval, 1e-12
    # wide on each side: beta at its ends, point and midpoint, moved by
    # offsets either side of that slack
    offsets = [0.0] + [s * d for d in (5e-13, 2e-12, 1e-11, 1e-6, 1e-3) for s in (-1, 1)]
    for alpha in (0.5, 0.6, 0.9, 0.99, 0.999, 1 - 1e-6, 1 - 1e-8, 1 - 1e-10):
        bs = beta_star(src, alpha)
        for b0 in (bs.lower, bs.upper, bs.point, 0.5 * (bs.lower + bs.upper)):
            for beta in (b0 + d for d in offsets):
                if not 0.0 < beta < 1.0:
                    continue
                valid = bs.lower - 1e-12 <= beta <= bs.upper + 1e-12
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    expectile_from_es(src, alpha, beta)
                assert (not caught) == valid, (alpha, beta, bs)


@pytest.mark.parametrize("alpha", [0.9, 0.99])
@pytest.mark.parametrize("shift", [0.0, 1e6, -1e6, 1e9, -1e9, 1e12, -1e12, 1e15, -1e15])
def test_expectile_from_es_translation_invariant(alpha, shift):
    # beta* does not move with the law; F(r) carries about ulp(shift) f(r)
    beta = beta_star(Pareto(2.1), alpha).point
    d = Pareto(2.1, shift=shift)
    expectile_from_es(d, alpha, beta, strict=True)
    # an offset past what F resolves over 4 ulps of r's terms is still caught
    w = (1 - alpha) / (alpha + (1 - 2 * alpha) * beta)
    es, mu = expected_shortfall(d, beta), d.mean()
    r = (1 - w) * es + w * mu
    t = 4 * np.finfo(float).eps * ((1 - w) * abs(es) + w * abs(mu))
    resolution = d.cdf(r + t) - d.prob_lt(r - t)
    offset = next(o for o in (1e-6, 1e-4, 1e-2, 0.2) if o > 2 * resolution)
    with pytest.warns(UserWarning, match="outside the valid interval"):
        expectile_from_es(d, alpha, beta - offset)


def test_bounds_chain():
    rng = np.random.default_rng(3)
    for src in (Pareto(2.1), StudentT(2.3), Uniform01(),
                Sample(rng.standard_normal(200))):
        ref = oracle.of(src)
        for a in (0.6, 0.9, 0.99):
            e = expectile(src, a)
            e_terms = ref.expectile(a).terms
            wu = (1 - a) / a
            upper_terms = (1 - wu) * ref.es(a).terms + wu * ref.mean().terms
            for beta in (0.1, a, 0.95):
                b = expectile_bounds(src, a, beta)
                lower_terms = oracle.reconstruction(ref, a, beta).terms
                cap_terms = ref.es((2 * a - 1) / a).terms
                assert oracle.ulps_above(b.lower, e, e_terms + lower_terms) <= 4
                assert oracle.ulps_above(e, b.upper, e_terms + upper_terms) <= 4
                assert oracle.ulps_above(e, b.es_cap, e_terms + cap_terms) <= 4


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
    # at 0.999 a Student t quadrature node next to u = 1 rounds to 1.0
    for src in (Pareto(2.1), Uniform01(), Sample([0.0, 1.0, 1.0, 6.0]), StudentT(2.3),
                StudentT(2.3, shift=-3.0)):
        for a in (0.7, 0.9, 0.99, 0.999):
            r = distortion_value(src, ExpectileDistortion(a))
            assert np.isfinite(r) and r >= expectile(src, a) - 1e-10


@pytest.mark.parametrize("shift", [-1e6, 0.0, 1e6])
def test_distortion_gate_is_relative_to_its_terms(monkeypatch, shift):
    # R(L + s) = R(L) + s; an error estimate above 1e-7 of the terms raises
    # and one above 1e-9 of them warns, whatever the shift
    d, src = ExpectileDistortion(0.9), StudentT(2.3, shift=shift)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = distortion_value(src, d)
    assert abs(got - shift - distortion_value(StudentT(2.3), d)) <= 1e-12 * (abs(shift) + 4.0)
    quantile_quad = risk_core._quantile_quad
    for share, outcome in ((2e-7, pytest.raises(RuntimeError, match="did not converge")),
                           (2e-9, pytest.warns(UserWarning, match="estimated error"))):
        def planted(*args):
            value, terms, _ = quantile_quad(*args)
            return value, terms, share * terms
        monkeypatch.setattr(risk_core, "_quantile_quad", planted)
        with outcome:
            distortion_value(src, d)


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
    s, law = Sample(values), oracle.Discrete(values)
    e = expectile(s, alpha)
    terms = law.expectile(alpha).terms + law.mean().terms + law.es(alpha).terms
    assert oracle.ulps_above(s.mean(), e, terms) <= 4
    assert oracle.ulps_above(e, s.es(alpha), terms) <= 4


@settings(deadline=None, max_examples=120)
@given(finite_arrays, levels)
def test_reconstruction_identity_property(values, alpha):
    s = Sample(values)
    e = expectile(s, alpha)
    bs = beta_star(s, alpha)
    mid = 0.5 * (bs.lower + bs.upper)
    if 0.0 < mid < 1.0:
        back = expectile_from_es(s, alpha, mid)
        law = oracle.Discrete(values)
        terms = law.expectile(alpha).terms + oracle.reconstruction(law, alpha, mid).terms
        assert oracle.ulps(back, e, terms) <= 4


@settings(deadline=None, max_examples=120)
@given(finite_arrays, levels, st_h.floats(min_value=-100, max_value=100),
       st_h.floats(min_value=0.01, max_value=50))
def test_expectile_monetary_axioms(values, alpha, shift, scale):
    s = Sample(values)
    e = expectile(s, alpha)
    shifted = expectile(Sample(np.asarray(values) + shift), alpha)
    scaled = expectile(Sample(np.asarray(values) * scale), alpha)
    # the shifted and scaled values are rounded: their own terms, and those
    # of e carried over
    e_terms = oracle.Discrete(values).expectile(alpha).terms
    shifted_terms = oracle.Discrete(np.asarray(values) + shift).expectile(alpha).terms
    scaled_terms = oracle.Discrete(np.asarray(values) * scale).expectile(alpha).terms
    assert oracle.ulps(shifted, e + shift, shifted_terms + e_terms + abs(shift)) <= 16
    assert oracle.ulps(scaled, scale * e, scaled_terms + scale * e_terms) <= 16


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
    terms = sum(oracle.Discrete(v).expectile(alpha).terms for v in (x, y, x + y))
    assert oracle.ulps_above(exy, ex + ey, terms) <= 8


@settings(deadline=None, max_examples=80)
@given(finite_arrays, levels)
def test_es_dominates_var(values, alpha):
    # ES is q plus a mean excess that is never negative, also in floating
    # point: no tolerance at all
    s = Sample(values)
    q = s.quantile(alpha)
    assert s.es(alpha) >= q


# ------------------------------------ selection of raw values at one level

def _selection_values():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 100, 4097, 32767, 32768, 50_001, 300_000):
        heavy = rng.pareto(2.1, n)
        yield f"pareto-{n}", heavy
        if n >= 100:
            yield f"sorted-{n}", np.sort(heavy)
            yield f"reversed-{n}", np.sort(heavy)[::-1].copy()
            yield f"constant-{n}", np.full(n, 2.5)
            yield f"tied-{n}", rng.poisson(1.5, n).astype(float)
    # spikes once per stride of the strided sample: the sample is all the
    # spikes, so its threshold keeps too few values and the selection falls
    # back, unless the tail is a value or two
    n = 100_003
    spiked = rng.random(n)
    spiked[:: n // risk_core._SAMPLE] += 1000.0
    yield "spikes-at-the-stride", spiked


SELECTION_VALUES = list(_selection_values())


def _selection_levels(n):
    """n alpha integral (1/2, 3/4, 1 - 1/n) and not, over tails that are
    sampled and tails over an eighth of the values."""
    levels = {0.5, 0.75, 0.87, 0.88, 0.99, 0.9991, 1.0 - 1.0 / n, 1.0 - 0.5 / n}
    return sorted(a for a in levels if 0.5 <= a < 1.0)


@pytest.mark.parametrize("scale", [1e-15, 1.0, 1e15])
@pytest.mark.parametrize("name, values", SELECTION_VALUES, ids=[v[0] for v in SELECTION_VALUES])
def test_selection_matches_full_partition_and_exact_tail(monkeypatch, name, values, scale):
    x = values * scale
    n = x.size
    law = oracle.Discrete(x)
    for alpha in _selection_levels(n):
        sel = risk_core._select(x, alpha)
        # VaR at the library's order statistic, which reads n alpha to
        # 1e-14; ES, its order statistic and the tail's size exactly
        i, _, _ = risk_core.order_stats(n, alpha)
        q, es = law.var(alpha, int(i)).value, law.es(alpha)
        assert sel.q == q, (alpha, sel.q, q)
        assert es.ulps(sel.es) <= 64, (alpha, sel.es, float(es.value))
        assert sel.atom == law.var(alpha).value
        assert oracle.ulps(sel.mass, n * (1 - Fraction(alpha)), n) <= 1
        # the kept rows ascend and hold every value at or above the threshold
        rows = np.arange(n) if sel.rows is None else sel.rows
        assert sel.t <= q and np.all(np.diff(rows) > 0)
        np.testing.assert_array_equal(sel.vals, x[rows])
        np.testing.assert_array_equal(rows[sel.vals >= sel.t], np.flatnonzero(x >= sel.t))
        np.testing.assert_array_equal(risk_core._indices(sel.rows, sel.vals >= sel.q),
                                      np.flatnonzero(x >= q))
        if n < risk_core._SAMPLE_MIN_N or alpha < 0.875 or name.startswith("constant"):
            assert sel.rows is None
        elif name == "spikes-at-the-stride":
            assert (sel.rows is None) == (alpha < 1.0 - 3.0 / n)
        else:
            assert sel.rows is not None
        # the same root and indices as from a partition of all n values
        e, above = risk_core._tail_expectile(x, alpha, sel)
        with monkeypatch.context() as m:
            m.setattr(risk_core, "_SAMPLE_MIN_N", n + 1)
            full = risk_core._select(x, alpha)
            assert full.rows is None and full.q == sel.q
            assert risk_core._tail_expectile(x, alpha, full)[0] == e
        np.testing.assert_array_equal(above, np.flatnonzero(x > e))


def test_selection_partitions_only_the_tail_of_a_random_draw(monkeypatch):
    sizes = []
    partition = np.partition

    def counted(a, *args, **kwargs):
        sizes.append(np.size(a))
        return partition(a, *args, **kwargs)

    monkeypatch.setattr(np, "partition", counted)
    x = np.random.default_rng(43).pareto(2.1, 200_000)
    for alpha in (0.88, 0.9, 0.99, 0.999):
        sizes.clear()
        sel = risk_core._select(x, alpha)
        assert sel.rows is not None and len(sizes) == 2
        k = x.size - int(risk_core.order_stats(x.size, alpha)[0]) + 1
        assert sizes[0] < 0.05 * x.size and k <= sizes[1] < k + 0.05 * x.size
    # at alpha = 1/2 the expectile is the mean: no selection at all
    sizes.clear()
    e, above = risk_core._tail_expectile(x, 0.5)
    assert sizes == [] and e == x.sum() / x.size
