"""The paper's identities on tied and atomic laws at any magnitude, against
the exact references of ``tests/oracle.py``.

Samples of integers over 1, 3 or 10 (ties) and two-point laws with
p = k/64, scaled by 10^U(-15, 15), at levels up to 1 - 1e-10, and for
VaR <= ES <= max L also at the levels k/n where n alpha rounds to an
integer that its exact value is not.  Every tolerance is a number of ulps
of the identity's own terms (``oracle.ulps``).
"""

import numpy as np
import oracle
from hypothesis import example, given, settings, strategies as st

from tailrisk.allocation import Portfolio, es_euler, expectile_euler
from tailrisk.distributions import Pareto, Sample, TwoPoint
from tailrisk.risk_core import (
    _select,
    beta_star,
    expectile,
    expectile_bounds,
    expectile_from_es,
    expected_shortfall,
    value_at_risk,
)

scales = st.floats(-15.0, 15.0).map(lambda u: 10.0 ** u)
tied_values = st.tuples(st.lists(st.integers(-50, 50), min_size=2, max_size=40),
                        st.sampled_from([1.0, 3.0, 10.0])).map(lambda t: np.array(t[0]) / t[1])


@st.composite
def sources(draw):
    """A Sample with ties, or a two-point law, at a scale 10^U(-15, 15)."""
    s = draw(scales)
    if draw(st.booleans()):
        return Sample(s * draw(tied_values.filter(lambda v: v.max() > v.min())))
    lo, gap = draw(st.integers(-50, 50)), draw(st.integers(1, 50))
    return TwoPoint(s * lo, s * (lo + gap), draw(st.integers(1, 63)) / 64)


expectile_levels = st.floats(0.5, 1.0 - 1e-10)
es_levels = st.floats(0.0, 1.0 - 1e-10)
inner_levels = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def sources_and_es_levels(draw):
    """A source and an ES level: a uniform one, or k/n for the source's n
    equally likely values (64 for a two-point law) or the float either side
    of it, where n alpha may round to k though its exact ceiling is k + 1."""
    src = draw(sources())
    if draw(st.booleans()):
        return src, draw(es_levels)
    n = len(src) if isinstance(src, Sample) else 64
    k = draw(st.integers(1, n - 1))
    return src, float(np.nextafter(k / n, k / n + draw(st.sampled_from([-1.0, 0.0, 1.0]))))


@settings(deadline=None, max_examples=150)
@given(sources_and_es_levels())
def test_var_es_max_chain(case):
    # VaR <= ES <= max L, with ES the oracle's tail average; ES is bounded
    # by the maximum exactly, VaR by ES to the rounding of the terms
    src, alpha = case
    want, es = oracle.of(src).es(alpha), expected_shortfall(src, alpha)
    assert want.ulps(es) <= 8, (alpha, es, float(want.value))
    assert es <= src.support()[1], (alpha, es)
    if alpha > 0.0:
        assert oracle.ulps_above(value_at_risk(src, alpha), es, want.terms) <= 4


def test_es_is_the_maximum_where_the_tail_average_rounds_above_it():
    # x + (max - x) rounds past the maximum here; ES is bounded by it exactly
    for v in ([-3.648765872615266e-15, 1.824382936307633e-15],
              [-0.35498169449065997, -0.035498169449065996]):
        x = np.array(v)
        assert Sample(x).es(0.5) == _select(x, 0.5).es == x.max()
    law = TwoPoint(-0.48491794938289456, -0.4843913645899755, 0.1663487761386872)
    assert law.es(0.16634877613868718) == law.support()[1]


def _top_levels(n):
    """The top 50 levels k/n and the float either side of each, all >= 1/2."""
    for k in range(n - 1, max(n - 51, 0), -1):
        for alpha in (np.nextafter(k / n, 0.0), k / n, np.nextafter(k / n, 1.0)):
            if alpha >= 0.5:
                yield float(alpha)


def test_sample_es_at_top_levels_is_the_tail_average():
    # Sample.es, the selection and the Euler allocation read ES's order
    # statistic exactly: at a level a hair above k/n that is the (k+1)-th,
    # whose weight is nearly 1, and never the k-th continued past the maximum
    levels = 0
    for n in (7, 100, 1000, 50001, 99991):
        x = Pareto(2.1)._draw(n, 7)
        s, law, p = Sample(x), oracle.Discrete(x), Portfolio(x[:, None])
        for alpha in _top_levels(n):
            want = law.es(alpha)
            for got in (s.es(alpha), _select(x, alpha).es, es_euler(p, alpha).sum()):
                assert got <= x.max() and want.ulps(got) <= 8, (n, alpha, got, float(want.value))
            levels += 1
    assert levels == 608


@settings(deadline=None, max_examples=150)
@given(sources(), expectile_levels, inner_levels)
def test_bound_chain(src, alpha, beta):
    # lower <= e <= upper <= es_cap, with e the oracle's
    law, b = oracle.of(src), expectile_bounds(src, alpha, beta)
    e = law.expectile(alpha)
    wu = (1 - alpha) / alpha
    upper_terms = (1 - wu) * law.es(alpha).terms + wu * law.mean().terms
    cap_terms = law.es((2 * alpha - 1) / alpha).terms
    assert oracle.ulps_above(b.lower, e.value, oracle.reconstruction(law, alpha, beta).terms) <= 4
    assert oracle.ulps_above(e.value, b.upper, upper_terms) <= 4
    assert oracle.ulps_above(b.upper, b.es_cap, upper_terms + cap_terms) <= 4


@settings(deadline=None, max_examples=150)
@given(sources(), expectile_levels)
def test_beta_star_reconstruction(src, alpha):
    # every level in [P[L < e], P[L <= e]] gives back the oracle's e
    law, bs = oracle.of(src), beta_star(src, alpha)
    e = law.expectile(alpha)
    assert e.ulps(bs.expectile) <= 4
    for beta in (bs.lower, 0.5 * (bs.lower + bs.upper), bs.upper):
        if 0.0 < beta < 1.0:
            terms = e.terms + oracle.reconstruction(law, alpha, beta).terms
            assert oracle.ulps(expectile_from_es(src, alpha, beta), e.value, terms) <= 4


def _transformed(src, scale, shift):
    if isinstance(src, Sample):
        return Sample(scale * src.values + shift)
    return TwoPoint(scale * src.x1 + shift, scale * src.x2 + shift, src.p)


@settings(deadline=None, max_examples=150)
@given(sources(), expectile_levels, es_levels, scales, st.floats(-1.0, 1.0))
def test_translation_and_scale_equivariance(src, alpha, level, scale, shift):
    # a monotone map of the values maps the order statistics: VaR exactly;
    # ES and the expectile to ulps of their terms, against the oracle too
    q, es, e = value_at_risk(src, alpha), expected_shortfall(src, level), expectile(src, alpha)
    for c, t in ((scale, 0.0), (1.0, shift * float(np.max(np.abs(oracle.of(src).x))))):
        moved = _transformed(src, c, t)
        law = oracle.of(moved)
        assert value_at_risk(moved, alpha) == c * q + t
        es_want, e_want = law.es(level), law.expectile(alpha)
        assert es_want.ulps(expected_shortfall(moved, level)) <= 8
        assert e_want.ulps(expectile(moved, alpha)) <= 8
        # c x + t rounds with the terms of both its parts
        es_terms, e_terms = es_want.terms + abs(c * es) + abs(t), e_want.terms + abs(c * e) + abs(t)
        assert oracle.ulps(expected_shortfall(moved, level), c * es + t, es_terms) <= 8
        assert oracle.ulps(expectile(moved, alpha), c * e + t, e_terms) <= 8


@settings(deadline=None, max_examples=100)
@given(st.lists(tied_values, min_size=1, max_size=4), scales,
       st.floats(0.0, 1.0 - 1e-10, exclude_min=True), expectile_levels)
# next to alpha = 1/2, where a check that formed 1 - w = 1 - (1 - alpha)/den
# cancelled, the allocation still passes
@example([np.array([0.0, 1.0, -1.0])], 1.0, 0.5, 0.5000000000000001)
def test_full_allocation(columns, scale, es_level, alpha):
    # the contributions are the oracle's, the expectile's split at the
    # library's root, and add up to the portfolio's ES and exact expectile.
    n = min(map(len, columns))
    p = Portfolio(scale * np.column_stack([c[:n] for c in columns]))
    contrib, e = expectile_euler(p, alpha, check=True, full_output=True)
    for got, want, total in (
        (es_euler(p, es_level), oracle.es_euler(p.total, p.components, es_level),
         oracle.of(Sample(p.total)).es(es_level)),
        (contrib, oracle.expectile_euler(p.total, p.components, alpha, e),
         oracle.of(Sample(p.total)).expectile(alpha)),
    ):
        assert all(w.ulps(c) <= 8 for c, w in zip(got, want)), (got, want)
        assert oracle.ulps(got.sum(), total.value, sum(w.terms for w in want)) <= 8
