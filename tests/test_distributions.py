"""Parametric families, empirical samples and the text parser."""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import oracle
import pytest

from tailrisk.distributions import (
    _FAMILIES,
    _U_FLOOR,
    Exponential,
    Pareto,
    PowerBeta,
    Sample,
    StudentT,
    TwoPoint,
    Uniform01,
    parse_distribution,
)
from tailrisk.risk_core import ExpectileDistortion, MixtureES

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


def test_parse_rejects_repeated_keys():
    for spec in ("pareto:a=2,a=3", "uniform:shift=1,shift=2", "pareto:a=2,A=3",
                 "twopoint:x1=0,x2=1,p=0.5,x2=2"):
        with pytest.raises(ValueError, match="duplicate distribution parameter"):
            parse_distribution(spec)


def test_parse_skips_empty_items_and_folds_case():
    assert parse_distribution("pareto:a=2.1,").a == 2.1
    assert parse_distribution("Pareto:,A=2.1,,SHIFT=-1").label == "pareto:a=2.1,shift=-1"
    assert parse_distribution("uniform:").label == "uniform"
    with pytest.raises(ValueError, match="unknown parameter 'C'.*takes a, shift"):
        parse_distribution("pareto:a=2.1,C=1")
    with pytest.raises(ValueError, match="needs parameters, e.g. 'student:nu=2.3'"):
        parse_distribution("student:")


def _registry_laws():
    """One law of every registered family, unshifted and shifted."""
    for name, cls in _FAMILIES.items():
        law = parse_distribution(cls.example if cls.params else name)
        yield law
        yield law.with_shift(-1.5)


# parameters that 6 significant digits do not name: a label keeps all of them
_INEXACT_LAWS = (Pareto(2.1234567), Pareto(2.1).centered(), StudentT(2.0 + 1.0 / 3.0))


@pytest.mark.parametrize("law", [*_registry_laws(), *_INEXACT_LAWS], ids=lambda d: d.label)
def test_label_parses_back_to_the_same_law(law):
    back = parse_distribution(law.label)
    assert type(back) is type(law) and back.family == law.family
    assert [getattr(back, k) for k in law.params + ("shift",)] == \
        [getattr(law, k) for k in law.params + ("shift",)]


# the labels the CLI prints for the specs of its pinned command lines
LABELS = {
    "pareto:a=2.1": "pareto:a=2.1", "pareto:a=2": "pareto:a=2", "pareto:a=1e300": "pareto:a=1e+300",
    "student:nu=2.3": "student:nu=2.3", "power:a=1.1": "power:a=1.1",
    "power:a=1e300": "power:a=1e+300", "exp": "exp", "uniform": "uniform",
    "twopoint:x1=0,x2=1,p=0.5": "twopoint:x1=0,x2=1,p=0.5",
    "twopoint:x1=1,x2=1,p=0.5": "twopoint:x1=1,x2=1,p=0.5",
    "exp:shift=2.0": "exp:shift=2", "pareto:a=2.1,shift=-1.5": "pareto:a=2.1,shift=-1.5",
}


@pytest.mark.parametrize("spec, label", LABELS.items())
def test_labels_are_pinned(spec, label):
    law = parse_distribution(spec)
    assert law.label == label and repr(law) == f"<{type(law).__name__} {label}>"


def test_with_shift_and_centered_keep_the_subclass():
    class P(Pareto):
        pass

    assert type(P(2.1).centered()) is P and type(P(2.1).with_shift(3.0)) is P
    for law in _registry_laws():
        moved = law.with_shift(0.25)
        assert type(moved) is type(law) and moved.shift == 0.25
        assert moved.label.startswith(law.family)


def _readme_specs():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    family = "|".join(_FAMILIES)
    # quoted specs ("exp"), specs after --dist, and any family:params token
    quoted = re.findall(rf'"((?:{family})(?::[^"]*)?)"', text)
    flagged = re.findall(r"--dist\s+(\S+)", text)
    inline = re.findall(rf"\b((?:{family}):[^\s\"`\]]+)", text)
    return sorted(set(quoted + flagged + inline))


def test_readme_distribution_specs_parse():
    specs = _readme_specs()
    assert "twopoint:x1=0,x2=1,p=0.5" in specs and "exp" in specs
    for spec in specs:
        parse_distribution(spec)


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

# the laws with a 40-digit closed form in the oracle compare with it, in
# ulps of its terms; the power law, which has none, with the quadrature,
# good to its own error estimate: the tolerance is that, plus ulps of the
# integral of |q| the value averages
@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: repr(d))
def test_es_matches_quantile_quadrature(dist):
    for beta in (0.1, 0.7, 0.95):
        if type(dist) is not PowerBeta:
            want = oracle.of(dist).es(beta)
            assert want.ulps(dist.es(beta)) <= 8, (beta, dist.es(beta), float(want.value))
            continue
        raw, err = oracle.es_quadrature(dist.quantile, beta)
        terms, _ = oracle.es_quadrature(lambda u: abs(dist.quantile(u)), beta)
        want = raw / (1.0 - beta)
        assert abs(dist.es(beta) - want) <= 64 * oracle.EPS * terms / (1.0 - beta) + 10 * err


@pytest.mark.parametrize("dist", CONTINUOUS, ids=lambda d: repr(d))
def test_eplus_matches_quantile_quadrature(dist):
    m = dist.quantile(0.9)
    level = dist.cdf(m)
    if type(dist) is not PowerBeta:
        # the tail identity (1 - F(m)) (ES_F(m) - m) rounds with these terms
        terms = (1.0 - level) * (abs(dist.es(level)) + abs(m))
        assert oracle.ulps(dist.eplus(m), oracle.of(dist).eplus(m).value, terms) <= 8
        return
    raw, err = oracle.es_quadrature(dist.quantile, level)
    terms, _ = oracle.es_quadrature(lambda u: abs(dist.quantile(u)), level)
    want = raw - (1.0 - level) * m
    terms += (1.0 - level) * abs(m)
    assert abs(dist.eplus(m) - want) <= 64 * oracle.EPS * terms + 10 * err


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

def test_shift_must_be_finite():
    with pytest.raises(ValueError, match="shift must be finite, got inf"):
        Pareto(2.1, shift=math.inf)


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


def test_sample_never_changes_the_callers_values():
    values = np.array([3.0, -1.0, 2.0, 0.5])
    kept = values.copy()
    s = Sample(values)
    np.testing.assert_array_equal(values, kept)
    assert not np.shares_memory(s.values, values)
    np.testing.assert_array_equal(s.values, np.sort(kept))


@pytest.mark.parametrize("dist", CONTINUOUS + [TwoPoint(-1.0, 2.5, 0.3)],
                         ids=lambda d: d.label)
def test_drawn_sample_matches_a_sample_of_the_same_draws(dist):
    # Distribution.sample sorts its own draws in place and keeps them; the
    # values and suffix sums are the public constructor's, bit for bit
    u = np.random.Generator(np.random.PCG64(7)).random(1001)
    want = Sample(dist.quantile(np.maximum(u, _U_FLOOR)))
    got = dist.sample(1001, seed=7)
    np.testing.assert_array_equal(got.values, want.values)
    np.testing.assert_array_equal(got._suffix, want._suffix)
    np.testing.assert_array_equal(got._suffix[:-1], np.cumsum(want.values[::-1])[::-1])
    assert got._suffix[-1] == 0.0


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
# a sample's quantile domain is (0, 1]: quantile(1) is its maximum
BAD_SAMPLE_QUANTILE_LEVELS = [0.0, -0.0, -1e-300, -0.5, 1.0 + 2.0 ** -52, 1.5,
                              float("inf"), float("-inf")]
BAD_ES_LEVELS = [-1e-300, -0.5, 1.0, 1.5, float("inf"), float("-inf")]


def _parity_samples():
    """One value, tied atoms, signed ties, and signed ties scaled by 1e-15 and 1e15."""
    signed = np.round(np.random.default_rng(3).standard_normal(40), 1)
    yield pytest.param(Sample([2.5]), id="sample n=1")
    yield pytest.param(Sample([0.0, 1.0, 1.0, 1.0, 2.0, 2.0]), id="sample ties")
    for scale in (1.0, 1e-15, 1e15):
        yield pytest.param(Sample(scale * signed), id=f"sample signed ties x {scale:g}")


PARITY_SOURCES = [pytest.param(d, id=d.label) for d in PARITY_FAMILIES] + list(_parity_samples())


@pytest.mark.parametrize("dist", PARITY_FAMILIES, ids=lambda d: d.label)
def test_draw_is_the_quantile_of_its_uniforms(dist):
    # _draw calls the family hook without quantile's level check, which its
    # uniforms in [2^-53, 1) cannot fail, and writes it into the uniforms'
    # own buffer: same values, bit for bit, below and above numpy's 256 KiB
    # threshold for reusing temporaries
    for n, seed in ((1, 0), (1001, 7), (30000, 11), (300_000, 13)):
        u = np.random.Generator(np.random.PCG64(seed)).random(n)
        want = dist.quantile(np.maximum(u, _U_FLOOR))
        got = dist._draw(n, seed)
        assert got.dtype == want.dtype and got.shape == (n,)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("dist", PARITY_SOURCES)
def test_quantile_never_writes_the_callers_levels(dist):
    # only _draw passes the quantile hook a buffer to overwrite
    rng = np.random.default_rng(5)
    levels = np.r_[PARITY_LEVELS, np.maximum(rng.random(300_000), _U_FLOOR)]
    kept = levels.copy()
    x = dist.quantile(levels)
    assert not np.shares_memory(x, levels)
    np.testing.assert_array_equal(levels.view(np.int64), kept.view(np.int64))


@pytest.mark.parametrize("dist", PARITY_FAMILIES, ids=lambda d: d.label)
def test_quantile_hook_written_over_its_levels_gives_the_same_bits(dist):
    # levels straddling the Student t's deep-tail seam at 2^-53, which draws
    # never reach: its routine reads them before the quantile overwrites them
    levels = np.array(PARITY_LEVELS)
    want = dist._quantile0(levels.copy())
    u = levels.copy()
    got = dist._quantile0(u, out=u)
    assert got is u
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# the traced peak of one draw of n values, in units of 8n bytes: the one
# buffer of uniforms the quantile overwrites, where the formula allows it;
# the Student t (1 - u, then its sign) and the two-point law (its atoms) hold
# a second array and a mask, about 2.13, under their earlier peaks of 4 and 3
DRAW_BUDGETS = {"pareto": 1, "exp": 1, "power": 1, "uniform": 1, "student": 4, "twopoint": 3}


@pytest.mark.parametrize("dist", PARITY_FAMILIES, ids=lambda d: d.label)
def test_draw_peak_memory_stays_in_budget(dist):
    n = 300_000
    dist._draw(10, 0)  # loads scipy.special for the Student t outside the trace
    tracemalloc.start()
    try:
        dist._draw(n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= DRAW_BUDGETS[dist.family] * 8 * n + 64 * 1024, peak / (8 * n)


def _parity_points(dist):
    """Points inside the support, on its edges, outside it and at +-inf."""
    lo, hi = dist.support()
    pts = [float("-inf"), -1e300, 1e300, float("inf"), float("nan"), -0.0,
           getattr(dist, "shift", 0.0)]
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


def test_sample_es_of_nan_is_nan():
    # NaN in, NaN out, with no warning, as for the families
    s = Sample([1.0, 2.0, 3.0])
    assert math.isnan(s.es(float("nan")))
    _check_parity(s.es, [0.0, -0.0] + PARITY_LEVELS)


@pytest.mark.parametrize("dist", PARITY_SOURCES)
def test_scalar_call_matches_array_element_bit_for_bit(dist):
    points = _parity_points(dist)
    _check_parity(dist.cdf, points)
    _check_parity(dist.prob_lt, points)
    _check_parity(dist.quantile, PARITY_LEVELS + ([1.0] if isinstance(dist, Sample) else []))
    _check_parity(dist.es, [0.0, -0.0] + PARITY_LEVELS)
    if dist.continuous:
        _check_parity(dist.density, points)
    # NaN in, NaN out, as the parity checks need of the array elements too
    for method in (dist.cdf, dist.prob_lt, dist.quantile, dist.es):
        assert math.isnan(method(float("nan"))), method.__name__
    # eplus takes scalars only: the tail identity on the array results, or
    # for a sample the partial mean from its suffix sums on numpy scalars
    finite = [x for x in points if np.isfinite(x)]
    u = dist.cdf(np.array(finite))
    es_u = dist.es(np.where((u > 0.0) & (u < 1.0), u, 0.5))
    for k, m in enumerate(finite):
        if isinstance(dist, Sample):
            j = np.searchsorted(dist.values, m, side="right")
            want = (dist._suffix[j] - (dist.n - j) * np.float64(m)) / dist.n
        elif u[k] >= 1.0:
            want = 0.0
        elif u[k] <= 0.0:
            want = dist.mean() - m
        else:
            want = (1.0 - u[k]) * (es_u[k] - m)
        for scalar in (m, np.float64(m), np.asarray(m)):
            got = dist.eplus(scalar)
            assert type(got) is float and _same_bits(got, want), (m, got, want)


@pytest.mark.parametrize("dist", PARITY_SOURCES)
def test_invalid_levels_raise_the_same_error_as_scalar_or_array(dist):
    bad_quantile = BAD_SAMPLE_QUANTILE_LEVELS if isinstance(dist, Sample) else BAD_QUANTILE_LEVELS
    for method, bad in ((dist.quantile, bad_quantile), (dist.es, BAD_ES_LEVELS)):
        for level in bad:
            messages = set()
            for arg in (level, np.float64(level), np.array([0.5, level])):
                with pytest.raises(ValueError) as exc:
                    method(arg)
                messages.add(str(exc.value))
            assert len(messages) == 1, (method.__name__, level, messages)


@pytest.mark.parametrize("phi", [
    ExpectileDistortion(0.5).phi, ExpectileDistortion(0.9).phi, ExpectileDistortion(1 - 1e-9).phi,
    ExpectileDistortion(0.5).phi_prime, ExpectileDistortion(0.9).phi_prime,
    ExpectileDistortion(1 - 1e-9).phi_prime,
    MixtureES(1.0 / 9.0, 0.9, 0.0).phi, MixtureES(0.3, 0.5, 0.99).phi,
], ids=lambda f: f"{f.__self__!r}.{f.__name__}")
def test_distortion_scalar_call_matches_array_element_bit_for_bit(phi):
    _check_parity(phi, [0.0, -0.0, 1e-300, 1e-12, 0.3, 0.5, 1 - 1e-12, 1.0, 2.0, float("nan")])


# ------------------------------------------- empirical ES, exactly

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
    s, law = Sample(values), oracle.Discrete(values)
    levels = _es_levels(s.n)
    got_all = s.es(np.array(levels))
    for k, beta in enumerate(levels):
        got = s.es(beta)
        assert got == got_all[k]
        want = law.es(beta)
        # relative to the tail's magnitude: the suffix sum carries n roundings
        scale = max(abs(law.var(beta).value), abs(law.x[-1]))
        assert oracle.ulps(got, want.value, scale) <= 4 * s.n, (beta, got, float(want.value))
        if beta > 0.0:
            assert got >= s.quantile(beta), (beta, got, s.quantile(beta))


def test_sample_es_of_a_flat_tail_is_the_tie_value():
    # 1 - beta rounds (1 - 0.99 = 0.010000000000000009), but a tail of ties
    # averages to the tie value exactly, as twopoint samples do
    for c in (1.0, 0.75, 3 * 2.0 ** -40, 2.0 ** 50):
        s = Sample(np.r_[np.full(900, -7.0), np.full(100, c)])
        for beta in (0.9 + 1e-9, 0.95, 0.99, 0.999):
            assert s.es(beta) == c
