"""Student t special functions, through StudentT's public methods, against
scipy references (the hooks are backed by scipy.special.stdtr/stdtrit) and,
below tail probability 2^-53, against the 40-digit oracle."""

import math
import warnings

import numpy as np
import oracle
import pytest
import scipy.stats as st
from scipy.special import stdtr

from tailrisk.distributions import StudentT, _t_log_norm

NUS = [1.1, 1.5, 2.1, 2.3, 4.0, 9.5, 30.0]
XS = [-50.0, -7.5, -2.0, -0.3, 0.0, 0.3, 2.0, 7.5, 50.0, 400.0]


def test_student_pdf_cdf_sf_match_scipy():
    for nu in NUS:
        d = StudentT(nu)
        for x in XS:
            assert abs(d.density(x) - st.t.pdf(x, nu)) < 1e-13
            assert abs(d.cdf(x) - st.t.cdf(x, nu)) < 1e-13
            # the upper tail, read through symmetry, keeps relative accuracy
            want = st.t.sf(x, nu)
            assert abs(d.cdf(-x) / want - 1.0) < 1e-12


def test_student_vectorized_agree_with_scalar():
    xs = np.array(XS)
    us = np.array([1e-20, 1e-8, 0.3, 0.5, 0.7, 1 - 1e-8])
    for nu in NUS:
        d = StudentT(nu)
        np.testing.assert_allclose(d.density(xs), [d.density(x) for x in xs], rtol=1e-14)
        np.testing.assert_allclose(d.cdf(xs), [d.cdf(x) for x in xs], rtol=1e-14)
        np.testing.assert_allclose(d.quantile(us), [d.quantile(u) for u in us], rtol=1e-14)


def test_student_quantile_matches_scipy_and_roundtrips():
    us = np.array([1e-8, 1e-4, 0.05, 0.3, 0.5, 0.7, 0.95, 0.9999, 1 - 1e-8])
    for nu in NUS:
        d = StudentT(nu)
        got = d.quantile(us)
        np.testing.assert_allclose(got, st.t.ppf(us, nu), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(d.cdf(got), us, rtol=1e-11, atol=1e-16)


def test_student_quantile_median_and_symmetry():
    for nu in NUS:
        d = StudentT(nu)
        assert d.quantile(0.5) == 0.0
        assert abs(d.quantile(0.25) + d.quantile(0.75)) < 1e-12


def test_student_cdf_increment_near_median():
    # cdf(x) - 1/2 must keep relative accuracy for tiny x
    for nu in NUS:
        d = StudentT(nu)
        c = st.t.pdf(0.0, nu)
        for x in (1e-9, 1e-7, 1e-4):
            inc = d.cdf(x) - 0.5
            assert abs(inc - c * x) < 1e-6 * c * x + 1e-22
            assert abs(d.cdf(-x) + d.cdf(x) - 1.0) < 3e-16


def test_student_quantile_rejects_endpoints():
    for u in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            StudentT(2.1).quantile(u)


@pytest.mark.parametrize("nu,kmax", [
    (1.1, 170), (1.5, 231), (2.1, 300), (2.3, 300), (4.0, 300), (9.5, 300), (30.0, 300),
])
def test_student_deep_tail_roundtrip(nu, kmax):
    # past kmax for nu < 2 the square of the quantile overflows inside
    # stdtr itself, so no double quantile can round-trip there
    d = StudentT(nu)
    p = 10.0 ** -np.arange(1, kmax + 1, dtype=float)
    q = d.quantile(p)
    assert np.isfinite(q).all()
    np.testing.assert_array_less(np.abs(stdtr(nu, q) / p - 1.0), 1e-12)
    # upper tail: 1 - u is exact for u > 1/2
    u = 1.0 - p[:15]
    np.testing.assert_array_less(np.abs(stdtr(nu, -d.quantile(u)) / (1.0 - u) - 1.0), 1e-12)


@pytest.mark.parametrize("nu", [1.1, 1.5, 2.3, 9.5])
def test_student_es_is_finite_and_monotone_down_to_1e_300(nu):
    # ES_b falls to the mean 0 as b -> 0.  Deep in the lower tail the
    # density f(q) underflows and q*q overflows (past b ~ 1e-162 for
    # nu = 1.1, 1e-185 for nu = 1.5), so f(q) (nu + q^2) is formed in logs
    d = StudentT(nu)
    b = np.logspace(-300, -1, 600)
    es = d.es(b)
    q = d.quantile(b)
    assert np.isfinite(es).all() and (es > 0.0).all() and np.isfinite(q).all()
    assert (np.diff(es) > 0.0).all()
    assert [d.es(float(v)) for v in b] == es.tolist()
    # the quantile follows the tail asymptote P[T < q] = c |q|^-nu, exact
    # to O(nu/q^2) there, and E[T 1{T > q}] = b |q| nu/(nu - 1) likewise
    log_c = (math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
             - 0.5 * math.log(nu * math.pi) + 0.5 * (nu - 1.0) * math.log(nu))
    deep = b < 1e-100
    np.testing.assert_allclose(log_c - nu * np.log(-q[deep]), np.log(b[deep]), rtol=1e-13)
    want = b[deep] * -q[deep] * nu / ((nu - 1.0) * (1.0 - b[deep]))
    np.testing.assert_allclose(es[deep], want, rtol=1e-12)
    # where the density is a normal float, ES keeps the product form's bits
    normal = d.density(q) >= np.finfo(float).tiny
    qn, bn = q[normal], b[normal]
    product = d.density(qn) * (nu + qn * qn) / ((1.0 - bn) * (nu - 1.0))
    np.testing.assert_array_equal(es[normal], product)
    assert normal.sum() < b.size


@pytest.mark.parametrize("nu", [1.01, 2.3, 100.0, 1e4, 1e8, 1e12, 1e17])
def test_student_es_keeps_relative_accuracy_at_any_nu(nu):
    # the density's normalization differences two lgamma values, which
    # cancel as nu grows: ES was 9e-12 off at nu = 1e4, 1e-8 at 1e8 and
    # 100% at 1e17 before large nu took the series; the reference is the
    # tail average with q from the incomplete beta, at 40 digits
    d = StudentT(nu)
    ref = oracle.of(d)
    for alpha in (0.9, 0.99):
        want = float(ref.es(alpha).value)
        assert abs(d.es(alpha) - want) <= 1e-13 * want, (alpha, d.es(alpha), want)


@pytest.mark.parametrize("nu", [1.01, 2.3, 30.0, 39.9, 40.5, 50.0, 70.0, 99.9, 100.0, 100.5,
                                101.0, 150.0, 1e3, 1e6, 1e17, 1e300])
def test_student_log_normalization_against_mpmath(nu):
    # within 2 ulps of its size (about 0.92) above nu = 40, where the
    # series replaces the two lgamma values (which miss by up to 5e-14 on
    # [60, 100]); within 2e-14 below it, where the series would miss by 4e-14
    want = oracle.student_log_norm(nu)
    tol = 2.5e-16 if nu > 40.0 else 2e-14
    assert abs(_t_log_norm(nu) - float(want)) <= tol, (nu, _t_log_norm(nu), float(want))


@pytest.mark.parametrize("nu", [1.01, 1.5, 2.3, 100.0, 1e3, 1e4])
def test_student_deep_tail_matches_the_oracle(nu):
    # below 2^-53 the quantile and the ES numerator come from one log-space
    # routine.  Before it, ES was 0 at nu = 1.01, p = 1e-313 (f(q) underflowed
    # past an overflowing asymptote), the quantile 3.3e-7 off at nu = 100,
    # p = 1e-310, and the asymptote fallback 15 % and 174 % off, with ES 0,
    # at nu = 1e3 and 1e4, p = 1e-313.  An ES that is itself subnormal holds
    # fewer digits than 1e-12 asks, so there one least subnormal is allowed.
    d, ref = StudentT(nu), oracle.Student(nu)
    levels = [2.0 ** -54, 1e-100, 1e-300, 1e-310, 1e-313, 5e-324]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, es = d.quantile(np.array(levels)), d.es(np.array(levels))
        assert [d.quantile(p) for p in levels] == q.tolist()
        assert [d.es(p) for p in levels] == es.tolist()
    for p, got_q, got_es in zip(levels, q, es):
        want_q, want_es = float(ref.tail_var(p).value), float(ref.tail_es(p).value)
        if math.isinf(want_q):
            assert got_q == want_q, (p, got_q)
        else:
            assert abs(got_q / want_q - 1.0) <= 1e-12, (p, got_q, want_q)
        assert abs(got_es - want_es) <= max(1e-12 * want_es, math.ulp(0.0)), (p, got_es, want_es)
