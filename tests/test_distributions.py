"""Parametric families, empirical samples and the text parser."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from tailrisk.distributions import (
    Exponential,
    Pareto,
    PowerBeta,
    Sample,
    StudentT,
    TwoPoint,
    Uniform01,
    parse_distribution,
)

CONTINUOUS = [
    Pareto(2.1),
    Pareto(3.5),
    StudentT(2.3),
    PowerBeta(2.0),
    Uniform01(),
    Exponential(),
]


# ---------------------------------------------------------------- parser

def test_parse_roundtrip_examples():
    assert parse_distribution("pareto:a=2.1").a == 2.1
    assert parse_distribution("student:nu=2.3").nu == 2.3
    assert parse_distribution("power:a=1.1").a == 1.1
    assert isinstance(parse_distribution("exp"), Exponential)
    assert isinstance(parse_distribution(" uniform "), Uniform01)
    tp = parse_distribution("twopoint:x1=0,x2=1,p=0.5")
    assert (tp.x1, tp.x2, tp.p) == (0.0, 1.0, 0.5)
    shifted = parse_distribution("pareto:a=2.1,shift=-1.5")
    assert shifted.shift == -1.5
    assert parse_distribution("exp:shift=2.0").shift == 2.0


@pytest.mark.parametrize("bad", [
    "", "beta:a=2", "pareto", "pareto:a=2,b=3", "pareto:a=abc",
    "student:nu", "twopoint:x1=0,x2=1",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_distribution(bad)


def test_parse_error_names_known_families():
    with pytest.raises(ValueError, match="exp.*pareto.*power.*student"):
        parse_distribution("beta:a=2")


# ------------------------------------------------- closed-form anchors

def test_pareto_quantile_mean_es():
    d = Pareto(2.0)
    assert abs(d.quantile(0.75) - 1.0) < 1e-15
    assert abs(d.mean() - 1.0) < 1e-15
    # ES_b = a/(a-1) (1-b)^(-1/a) - 1
    assert abs(d.es(0.75) - (2.0 * 2.0 - 1.0)) < 1e-12


def test_uniform_and_exponential_es():
    u = Uniform01()
    for b in (0.0, 0.3, 0.9, 0.999):
        assert abs(u.es(b) - (1 + b) / 2) < 5e-14
    e = Exponential()
    for b in (0.0, 0.3, 0.9, 0.999):
        assert abs(e.es(b) - (1 - np.log(1 - b))) < 1e-12


def test_power_beta_moments():
    d = PowerBeta(3.0)
    assert abs(d.mean() - 0.75) < 1e-14
    assert abs(d.quantile(0.5 ** 3) - 0.5) < 1e-14
    assert abs(d.cdf(0.5) - 0.125) < 1e-14


def test_eplus_closed_forms():
    p = Pareto(2.1)
    for m in (0.0, 0.5, 4.0, 40.0):
        assert abs(p.eplus(m) - (1 + m) ** (1 - 2.1) / 1.1) < 1e-14
    e = Exponential()
    for m in (0.0, 1.0, 10.0):
        assert abs(e.eplus(m) - np.exp(-m)) < 1e-14
    u = Uniform01()
    for m in (0.0, 0.25, 0.8):
        assert abs(u.eplus(m) - (1 - m) ** 2 / 2) < 1e-14


def test_mean_zero_at_half_exponent_student():
    d = StudentT(2.1)
    assert abs(d.mean()) < 1e-15
    assert abs(d.quantile(0.5)) < 1e-12


# ------------------------------------------------ quadrature cross-checks

def _upper_tail_integral(dist, lo_level):
    """integral of q(u) over (lo_level, 1) via u = 1 - exp(-t).

    The substitution turns the quantile blow-up at u = 1 into an
    exponentially damped integrand that quad copes with for every family.
    Truncated at t = 45 where the damped integrand is ~1e-10 for the
    heaviest tail in the suite; the cutoff is folded into the error.
    """
    t0 = -np.log1p(-lo_level)
    umax = np.nextafter(1.0, 0.0)
    val, err = integrate.quad(
        lambda t: dist.quantile(min(-np.expm1(-t), umax)) * np.exp(-t),
        t0, 45.0, limit=300)
    return val, err + 1e-8


@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: repr(d))
def test_es_matches_quantile_quadrature(dist):
    for beta in (0.1, 0.7, 0.95):
        raw, err = _upper_tail_integral(dist, beta)
        want = raw / (1.0 - beta)
        assert abs(dist.es(beta) - want) < 1e-9 * (1 + abs(want)) + 10 * err


@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: repr(d))
def test_eplus_matches_quantile_quadrature(dist):
    m = dist.quantile(0.9)
    level = dist.cdf(m)
    raw, err = _upper_tail_integral(dist, level)
    want = raw - (1.0 - level) * m
    assert abs(dist.eplus(m) - want) < 1e-9 * (1 + abs(want)) + 10 * err


@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: repr(d))
def test_density_is_cdf_derivative(dist):
    for u in (0.2, 0.5, 0.9):
        x = dist.quantile(u)
        h = 1e-6 * (1 + abs(x))
        slope = (dist.cdf(x + h) - dist.cdf(x - h)) / (2 * h)
        assert abs(dist.density(x) - slope) < 1e-6 * (1 + slope)


@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: repr(d))
def test_quantile_cdf_roundtrip(dist):
    for u in (0.01, 0.3, 0.5, 0.9, 0.999):
        assert abs(dist.cdf(dist.quantile(u)) - u) < 1e-10


# --------------------------------------------------------------- shifts

def test_shift_translates_everything():
    base = Pareto(2.1)
    d = base.with_shift(3.0)
    for u in (0.2, 0.9, 0.999):
        assert abs(d.quantile(u) - base.quantile(u) - 3.0) < 1e-12
    assert abs(d.mean() - base.mean() - 3.0) < 1e-12
    assert abs(d.es(0.9) - base.es(0.9) - 3.0) < 1e-12
    assert abs(d.cdf(4.0) - base.cdf(1.0)) < 1e-14
    assert abs(d.eplus(4.0) - base.eplus(1.0)) < 1e-14


def test_centered_has_zero_mean():
    for dist in CONTINUOUS:
        assert abs(dist.centered().mean()) < 1e-12


# -------------------------------------------------------------- sampling

def test_sampling_deterministic_and_sorted():
    d = Pareto(2.1)
    a = d.sample(1000, seed=11).values
    b = d.sample(1000, seed=11).values
    c = d.sample(1000, seed=12).values
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.diff(a) >= 0)


def test_sampling_mean_within_three_se():
    d = Pareto(3.5)  # finite variance
    n = 100_000
    s = d.sample(n, seed=1)
    var = 2 * 3.5 / ((2.5) * (1.5) ** 2) - d.mean() ** 2  # E[L^2] - mean^2
    se = np.sqrt(var / n)
    assert abs(s.mean() - d.mean()) < 3 * se

    u = Uniform01().sample(n, seed=1)
    assert abs(u.mean() - 0.5) < 3 * np.sqrt(1 / 12 / n)


def test_two_point_sampling_fractions():
    s = TwoPoint(0.0, 1.0, 0.5).sample(100_000, seed=7)
    frac = np.mean(s.values == 0.0)
    assert 0.48 < frac < 0.52
    assert set(np.unique(s.values)) == {0.0, 1.0}


# --------------------------------------------------------- MDA metadata

def test_mda_classification_values():
    c = Pareto(2.1).mda()
    assert (c.mda, c.eta, c.rho) == ("frechet", 2.1, -1.0)
    assert c.right_endpoint is None
    # Pareto auxiliary a^2/((a-1) x) from the centered law
    assert abs(c.auxiliary(5.0) - 2.1 ** 2 / (1.1 * 5.0 * 2.1 / 1.1)) < 1e-12

    c = StudentT(2.3).mda()
    assert (c.mda, c.eta, c.rho) == ("frechet", 2.3, -2.0)

    c = Uniform01().mda()
    assert (c.mda, c.eta, c.right_endpoint) == ("weibull", 1.0, 1.0)
    assert c.rho is None

    c = PowerBeta(2.0).mda()
    assert (c.mda, c.eta, c.rho, c.right_endpoint) == ("weibull", 1.0, -1.0, 1.0)

    c = Exponential().mda()
    assert c.mda == "gumbel"
    assert c.eta is None


def test_two_point_has_no_mda():
    with pytest.raises(ValueError):
        TwoPoint(0.0, 1.0, 0.5).mda()


# ---------------------------------------------------------------- Sample

def test_sample_left_quantile_and_es_on_atoms():
    s = Sample([3.0, 0.0, 4.0, 3.0])
    assert s.quantile(0.25) == 0.0
    assert s.quantile(0.250001) == 3.0
    assert s.quantile(0.5) == 3.0
    assert s.quantile(1.0) == 4.0
    assert abs(s.mean() - 2.5) < 1e-15
    assert abs(s.es(0.5) - 3.5) < 1e-15
    # partial atom: ES_{0.6} averages 0.15 mass of the 3-atom and the 4-atom
    assert abs(s.es(0.6) - (0.15 * 3.0 + 0.25 * 4.0) / 0.4) < 1e-12
    assert abs(s.eplus(3.0) - 0.25) < 1e-15
    assert s.prob_lt(3.0) == 0.25
    assert s.cdf(3.0) == 0.75


def test_sample_es_zero_is_mean():
    rng = np.random.default_rng(5)
    s = Sample(rng.standard_normal(257))
    assert abs(s.es(0.0) - s.mean()) < 1e-12


def test_sample_rejects_empty_and_nan():
    with pytest.raises(ValueError):
        Sample([])
    with pytest.raises(ValueError):
        Sample([1.0, np.nan])


def test_two_point_validation():
    with pytest.raises(ValueError):
        TwoPoint(1.0, 0.0, 0.5)  # needs x1 < x2
    with pytest.raises(ValueError):
        TwoPoint(0.0, 1.0, 1.5)


# ------------------------------------------------- scalar/array parity

PARITY_FAMILIES = [
    base.with_shift(shift)
    for base in (Pareto(2.1), StudentT(2.3), PowerBeta(1.1), PowerBeta(0.5),
                 Uniform01(), Exponential(), TwoPoint(-1.0, 2.5, 0.3))
    for shift in (0.0, -0.75)
]
PARITY_LEVELS = [1e-300, 1e-20, 2.0 ** -60, 2.0 ** -53, 1e-9, 0.3, 0.5, 0.9, 0.99,
                 1 - 1e-10, 1 - 2.0 ** -53, float("nan")]
BAD_QUANTILE_LEVELS = [0.0, -0.0, 1.0, -0.5, 1.5, float("inf"), float("-inf")]
BAD_ES_LEVELS = [-1e-300, -0.5, 1.0, 1.5, float("inf"), float("-inf")]


def _parity_points(dist):
    """Points inside the support, on its edges, outside it and at +-inf."""
    lo, hi = dist.support()
    pts = [float("-inf"), -1e300, 1e300, float("inf"), float("nan"), -0.0, dist.shift]
    pts += [float(dist.quantile(u)) for u in (1e-12, 0.3, 0.5, 0.9, 1 - 1e-9)]
    for edge in (lo, hi):
        if np.isfinite(edge):
            pts += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf),
                    edge - 1.0, edge + 1.0]
    return pts


def _same_bits(a, b):
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return a == b and np.signbit(a) == np.signbit(b)


def _check_parity(method, args):
    want = method(np.array(args))
    assert isinstance(want, np.ndarray) and want.shape == (len(args),)
    for k, x in enumerate(args):
        # a Python float, a numpy scalar and a 0-d array are all scalars
        for scalar in (x, np.float64(x), np.asarray(x)):
            got = method(scalar)
            assert type(got) is float, (method.__name__, x)
            assert _same_bits(got, want[k]), (method.__name__, x, got, want[k])


@pytest.mark.parametrize("dist", PARITY_FAMILIES, ids=lambda d: d.label)
def test_scalar_call_matches_array_element_bit_for_bit(dist):
    points = _parity_points(dist)
    _check_parity(dist.cdf, points)
    _check_parity(dist.prob_lt, points)
    _check_parity(dist.quantile, PARITY_LEVELS)
    _check_parity(dist.es, [0.0, -0.0] + PARITY_LEVELS)
    if dist.continuous:
        _check_parity(dist.density, points)
    # eplus takes scalars only: the tail identity on the array results
    finite = [x for x in points if np.isfinite(x)]
    u = dist.cdf(np.array(finite))
    es_u = dist.es(np.where((u > 0.0) & (u < 1.0), u, 0.5))
    for k, m in enumerate(finite):
        if u[k] >= 1.0:
            want = 0.0
        elif u[k] <= 0.0:
            want = dist.mean() - m
        else:
            want = (1.0 - u[k]) * (es_u[k] - m)
        for scalar in (m, np.float64(m), np.asarray(m)):
            got = dist.eplus(scalar)
            assert type(got) is float and _same_bits(got, want), (m, got, want)


@pytest.mark.parametrize("dist", PARITY_FAMILIES, ids=lambda d: d.label)
def test_invalid_levels_raise_the_same_error_as_scalar_or_array(dist):
    for method, bad in ((dist.quantile, BAD_QUANTILE_LEVELS), (dist.es, BAD_ES_LEVELS)):
        for level in bad:
            messages = set()
            for arg in (level, np.float64(level), np.array([0.5, level])):
                with pytest.raises(ValueError) as exc:
                    method(arg)
                messages.add(str(exc.value))
            assert len(messages) == 1, (method.__name__, level, messages)


# ------------------------------------------- empirical ES, exactly

def _exact_es(xs, suffix, beta):
    """The tail average at level beta of the sorted sample ``xs`` (exact
    rationals, ``suffix[i]`` = sum of xs[i:]), in exact arithmetic."""
    n, b = len(xs), Fraction(beta)
    i = math.ceil(n * b)
    partial = (Fraction(i, n) - b) * xs[i - 1] if i else 0
    return (partial + suffix[i] / n) / (1 - b)


def _es_samples():
    rng = np.random.default_rng(11)
    yield pytest.param(np.r_[np.zeros(990), np.ones(10)], id="ten 1s in 1000")
    yield pytest.param(rng.integers(0, 3, 97).astype(float), id="atoms")
    yield pytest.param(np.r_[rng.standard_normal(40), np.full(9, 0.1)], id="tied tail")
    for scale in (1e-15, 1e-5, 1.0, 1e5, 1e15):
        yield pytest.param(scale * Pareto(2.1).sample(200, seed=4).values,
                           id=f"pareto x {scale:g}")
        yield pytest.param(scale * np.round(rng.standard_normal(150), 1),
                           id=f"signed ties x {scale:g}")


def _es_levels(n):
    rng = np.random.default_rng(n)
    grid = [k / n for k in range(n)]
    near = [np.nextafter(k / n, d) for k in range(1, n) for d in (0.0, 1.0)]
    return [0.0, 1e-300] + grid + near + list(rng.random(50)) + [0.99, 1 - 1e-12]


@pytest.mark.parametrize("values", list(_es_samples()))
def test_sample_es_matches_exact_rational_evaluation(values):
    s = Sample(values)
    levels = _es_levels(s.n)
    got_all = s.es(np.array(levels))
    eps = np.finfo(float).eps
    xs = [Fraction(float(v)) for v in s.values]
    suffix = [Fraction(0)] * (s.n + 1)
    for j in range(s.n - 1, -1, -1):
        suffix[j] = suffix[j + 1] + xs[j]
    for k, beta in enumerate(levels):
        got = s.es(beta)
        assert got == got_all[k]
        want = _exact_es(xs, suffix, beta)
        # relative to the tail's magnitude: the suffix sum carries n roundings
        i = max(math.ceil(s.n * Fraction(beta)), 1)
        scale = float(np.max(np.abs(s.values[i - 1:])))
        assert abs(Fraction(got) - want) <= 4 * s.n * eps * scale, (beta, got, float(want))
        if beta > 0.0:
            assert got >= s.quantile(beta), (beta, got, s.quantile(beta))


def test_sample_es_of_a_flat_tail_is_the_tie_value():
    # 1 - beta rounds (1 - 0.99 = 0.010000000000000009), but a tail of ties
    # averages to the tie value exactly, as twopoint samples do
    for c in (1.0, 0.75, 3 * 2.0 ** -40, 2.0 ** 50):
        s = Sample(np.r_[np.full(900, -7.0), np.full(100, c)])
        for beta in (0.9 + 1e-9, 0.95, 0.99, 0.999):
            assert s.es(beta) == c
