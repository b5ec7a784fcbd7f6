"""Euler risk contributions for scenario portfolios."""

import os

import numpy as np
import oracle
import pytest

from tailrisk import allocation, distributions, risk_core
from tailrisk.allocation import (
    Portfolio,
    es_euler,
    euler_asymptotic_ratio,
    expectile_euler,
)
from tailrisk.distributions import Pareto, Sample
from tailrisk.risk_core import expected_shortfall, expectile

FOUR = Portfolio([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [3.0, 3.0]])


def test_portfolio_shape_and_total():
    assert (FOUR.n, FOUR.d) == (4, 2)
    np.testing.assert_array_equal(FOUR.total, [0.0, 1.0, 1.0, 6.0])


def test_portfolio_rejects_bad_input():
    with pytest.raises(ValueError):
        Portfolio([[1.0], []])
    with pytest.raises(ValueError):
        Portfolio(np.ones((0, 2)))
    with pytest.raises(ValueError):
        Portfolio([[1.0, np.nan]])
    with pytest.raises(ValueError, match="2-d scenarios x components"):
        Portfolio(np.zeros((2, 2, 2)))
    # 1-d input is promoted to a single column
    assert Portfolio(np.array([1.0, 2.0])).d == 1


def test_portfolio_borrows_a_float64_matrix_and_owns_other_inputs(tmp_path):
    # nothing is copied: a 1e6 x 5 matrix stays one 40 MB array
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = Portfolio(x)
    assert p.components is x
    x[0, 0] = 10.0
    np.testing.assert_array_equal(p.total, [3.0, 7.0])
    rows = [[1.0, 2.0], [3.0, 4.0]]
    path = tmp_path / "scen.csv"
    path.write_text("1,2\n3,4\n")
    for owner in (Portfolio(rows), Portfolio(np.array(rows, dtype=np.float32)),
                  Portfolio.from_csv(path)):
        assert owner.components.flags.owndata
        np.testing.assert_array_equal(owner.components, rows)


def test_portfolio_computes_its_column_means_once():
    # expectile_euler reads these means, the reduction over all rows it
    # made on every call before; a borrowed array written later leaves them
    # stale, as it does the totals
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 9.0]])
    p = Portfolio(x)
    assert p.means.tobytes() == (np.ones(3) @ x / 3).tobytes()
    x[0, 0] = 10.0
    np.testing.assert_array_equal(p.means, [3.0, 5.0])


def test_es_contributions_hand_example():
    # q_{0.7}(total) = 1, tied by (0,1) and (1,0); the tail 0.3 holds the
    # (3,3) scenario and 0.2 of the atom's 0.5, which averages to (0.5, 0.5):
    # ((3, 3) + 0.2/0.5 (0.5, 0.5)) / 1.2
    np.testing.assert_allclose(es_euler(FOUR, 0.7), [31 / 12, 31 / 12], rtol=1e-15, atol=0.0)


def test_es_contributions_when_q_is_the_maximum():
    # q_{0.9}(total) = 6, the largest total: the tail is all atom
    np.testing.assert_allclose(es_euler(FOUR, 0.9), [3.0, 3.0], rtol=1e-15, atol=0.0)


def test_expectile_contributions_hand_example():
    # e_{0.7}(total) = 3; tail scenario (3,3), body mean (0.25, 0.25),
    # denominator 0.7 - 0.4 * 3/4 = 0.4 -> (1.5, 1.5)
    got = expectile_euler(FOUR, 0.7)
    np.testing.assert_allclose(got, [1.5, 1.5], atol=1e-10)
    # contributions decompose as 0.25 * tail-ES part + 0.75 * mean part
    np.testing.assert_allclose(0.25 * np.array([3.0, 3.0])
                               + 0.75 * np.array([1.0, 1.0]), got, atol=1e-12)


def test_expectile_contributions_cross_check_flag():
    assert np.allclose(expectile_euler(FOUR, 0.7, check=True),
                       expectile_euler(FOUR, 0.7, check=False))


def test_full_allocation_random_portfolios():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(20, 400))
        d = int(rng.integers(1, 6))
        comp = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, size=d)
        p = Portfolio(comp)
        a = float(rng.uniform(0.55, 0.99))
        contrib = expectile_euler(p, a)
        total = expectile(Sample(p.total), a)
        terms = sum(c.terms for c in oracle.expectile_euler(p.total, p.components, a))
        assert oracle.ulps(contrib.sum(), total, terms) <= 16


@pytest.mark.parametrize("scale", [10.0 ** k for k in range(-15, 16, 2)])
def test_expectile_full_allocation_at_any_scale(scale):
    # an absolute tie tolerance would put every scenario in the body once
    # the losses fall below it, and the contributions would miss e
    comp = np.random.default_rng(0).pareto(2.1, size=(2000, 3))
    p = Portfolio(comp * scale)
    for a in (0.6, 0.9, 0.99):
        contrib = expectile_euler(p, a, check=True)
        assert contrib.sum() == pytest.approx(expectile(Sample(p.total), a), rel=1e-12)
        unscaled = expectile_euler(Portfolio(comp), a, check=False)
        np.testing.assert_allclose(contrib / scale, unscaled, rtol=1e-12, atol=0.0)


@pytest.fixture(scope="module")
def heavy_million_rows():
    # 1e6 Lomax rows with a shared shock: the tail past levels near 1
    # holds a handful of rows
    rng = np.random.default_rng(3)
    common = rng.pareto(2.5, size=1_000_000)
    tail_index = np.array([2.2, 2.5, 3.0, 3.5, 4.0])
    return rng.pareto(tail_index, size=(1_000_000, 5)) + 0.3 * common[:, None]


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e13])
def test_expectile_full_allocation_near_level_one_on_many_rows(heavy_million_rows, scale):
    # the denominator alpha + (1 - 2 alpha) P[L <= e] is about 1 - alpha;
    # formed from terms of size 1 it cancelled, and check=True raised at
    # 1 - 1e-6 with the sum 3.6e-11 off e
    p = Portfolio(heavy_million_rows * scale)
    for a in (0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-7):
        contrib, e = expectile_euler(p, a, check=True, full_output=True)
        assert abs(contrib.sum() - e) <= 1e-14 * np.sum(np.abs(contrib)), (a, contrib.sum(), e)


def test_expectile_check_asserts_full_allocation(monkeypatch):
    # a root that is off reaches the contributions only through the body/tail
    # split, so the sum against the portfolio expectile sees it
    comp = np.random.default_rng(0).pareto(2.1, size=(200, 2))
    p = Portfolio(comp)
    expectile_euler(p, 0.9, check=True)
    segment_root = risk_core._segment_root
    monkeypatch.setattr(risk_core, "_segment_root",
                        lambda *args: segment_root(*args) * (1.0 + 1e-9))
    with pytest.raises(AssertionError, match="full allocation"):
        expectile_euler(p, 0.9, check=True)
    expectile_euler(p, 0.9, check=False)


def test_expectile_full_allocation_is_relative_to_its_terms(monkeypatch):
    # e = 0 against losses of either sign: sum |contrib| is about 1e-16, no
    # scale for the rounding of a sum whose terms are about 12
    p = Portfolio(10 ** 1.5 * np.array([0] * 13 + [-1, -2, 3.0]))
    contrib, e = expectile_euler(p, 0.5, check=True, full_output=True)
    assert abs(contrib.sum() - e) <= 1e-12 * 12
    # a NaN root fails the check
    p = Portfolio(np.random.default_rng(0).pareto(2.1, size=(200, 2)))
    monkeypatch.setattr(risk_core, "_segment_root", lambda *args: np.nan)
    with pytest.raises(AssertionError, match="full allocation"):
        expectile_euler(p, 0.9, check=True)


@pytest.mark.parametrize("alpha", [0.5000000000000001, 0.5000000000000002])
def test_expectile_check_holds_next_to_one_half(alpha):
    # a check that formed 1 - w, w = (1 - alpha) / den about 1 here, rounded
    # by as much as its own value and refused e = (2 alpha - 1) / (2 - alpha)
    p = Portfolio([[0.0], [1.0], [-1.0]])
    contrib, e = expectile_euler(p, alpha, check=True, full_output=True)
    assert contrib[0] == e
    assert oracle.of(Sample(p.total)).expectile(alpha).ulps(e) <= 8


def test_single_component_self_allocation():
    rng = np.random.default_rng(2)
    v = rng.standard_exponential(150)
    p = Portfolio(v[:, None])
    law = oracle.Discrete(v)
    for a in (0.6, 0.9, 0.99):
        got = expectile_euler(p, a)
        assert oracle.ulps(got[0], expectile(Sample(v), a), law.expectile(a).terms) <= 8


def test_comonotone_columns_split_proportionally():
    rng = np.random.default_rng(9)
    v = rng.standard_exponential(200)
    p = Portfolio(np.column_stack([v, 2.0 * v]))
    for a in (0.7, 0.95):
        c = expectile_euler(p, a)
        total = expectile(Sample(3.0 * v), a)
        terms = oracle.Discrete(3.0 * v).expectile(a).terms
        assert oracle.ulps(c[0], total / 3.0, terms) <= 4
        assert oracle.ulps(c[1], 2.0 * total / 3.0, terms) <= 4


def test_constant_column_gets_its_constant():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(100)
    p = Portfolio(np.column_stack([v, np.full(100, 2.5)]))
    for a in (0.6, 0.9):
        c = expectile_euler(p, a)
        assert abs(c[1] - 2.5) < 1e-10
        assert abs(c[0] - expectile(Sample(v), a)) < 1e-9


@pytest.mark.parametrize("n", [1000, 2000, 4000])
@pytest.mark.parametrize("alpha", [0.7, 0.95, 0.975, 0.999])
def test_es_contributions_match_sample_quantile(n, alpha):
    # alpha is no binary fraction, so n * alpha is an integer only up to
    # rounding: the selected order statistic must be Sample.quantile's
    rng = np.random.default_rng(n)
    comp = rng.standard_normal((n, 3)) * [1.0, 2.0, 0.5]
    p = Portfolio(comp)
    tail = p.total > Sample(p.total).quantile(alpha)
    want = comp[tail].mean(axis=0)
    np.testing.assert_allclose(es_euler(p, alpha), want, rtol=1e-12, atol=0.0)
    assert tail.sum() == n - distributions.order_stats(n, alpha)[0]


def test_es_and_sample_share_one_order_index():
    assert risk_core.order_stats is distributions.order_stats
    assert not hasattr(distributions, "order_index") and not hasattr(Sample, "_index")


# -------------------------------------------------- selection, not sorts

def _selection_portfolios():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 2000):
        heavy = rng.pareto(2.1, size=(n, 3)) + 0.1
        yield pytest.param(heavy, id=f"pareto-{n}")
        yield pytest.param(-heavy, id=f"negative-{n}")
        yield pytest.param(rng.poisson([1.0, 2.0, 3.0], size=(n, 3)) + 1.0, id=f"poisson-{n}")
        yield pytest.param(rng.choice([1.0, 2.0, 50.0], p=[0.9, 0.09, 0.01], size=(n, 2)),
                           id=f"atomic-{n}")
    # totals nine 0s and one 1: at alpha = 0.9 the ES lower bound is the root
    yield pytest.param(np.r_[np.zeros(9), 1.0][:, None] * [0.25, 0.75], id="bound-is-root")
    # totals -1, 0, 1, 2: at alpha = 0.75 the root is the total 1, which
    # belongs to the body
    yield pytest.param(np.array([[-1.0, 0.0], [0.0, 0.0], [0.5, 0.5], [2.0, 0.0]]),
                       id="root-on-a-total")


SELECTION_PORTFOLIOS = list(_selection_portfolios())
SELECTION_LEVELS = (0.5, 0.6, 0.75, 0.9, 0.99, 0.999, 1 - 1e-6, 1 - 1e-10)


@pytest.mark.parametrize("scale", [1e-15, 1.0, 1e15])
@pytest.mark.parametrize("comp", SELECTION_PORTFOLIOS)
def test_selection_expectile_matches_sample_expectile(comp, scale):
    p = Portfolio(comp * scale)
    for a in SELECTION_LEVELS:
        contrib, e = expectile_euler(p, a, full_output=True)
        want = expectile(Sample(p.total), a)
        assert abs(e - want) <= 1e-13 * abs(want), (a, e, want)
        # the weighted tail/body average with dense indicators, at the same root
        tail = (p.total > e).astype(float)
        den = a + (1.0 - 2.0 * a) * (1.0 - tail.mean())
        dense = (a * (tail @ p.components) + (1.0 - a) * ((1.0 - tail) @ p.components))
        np.testing.assert_allclose(contrib, dense / p.n / den, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("scale", [1e-15, 1.0, 1e15])
@pytest.mark.parametrize("comp", SELECTION_PORTFOLIOS)
def test_selection_es_matches_dense_indicator(comp, scale):
    p = Portfolio(comp * scale)
    for a in SELECTION_LEVELS:
        q = Sample(p.total).quantile(a)
        above, at = p.total > q, p.total == q
        # the tail's part of the atom at q, in scenarios
        m = min(max(p.n * (1.0 - a) - np.count_nonzero(above), 0.0), np.count_nonzero(at))
        weight = above + at * (m / np.count_nonzero(at))
        want = weight @ p.components / (np.count_nonzero(above) + m)
        np.testing.assert_allclose(es_euler(p, a), want, rtol=1e-12, atol=0.0)


# ------------------------------------------ ES with the fractional atom

ROADMAP_8X2 = np.array([[2, 1], [1, 0], [0, 0], [0, 0], [0, 2], [1, 2], [1, 1], [2, 2]], float)
ROADMAP_8X2_ES = {0.5: 3.0, 0.6: 3.25, 0.75: 3.5, 0.9: 4.0}


def _fraction_portfolios():
    rng = np.random.default_rng(29)
    yield pytest.param(rng.poisson([1.0, 2.0, 3.0], size=(60, 3)).astype(float), id="poisson")
    yield pytest.param(rng.choice([1.0, 2.0, 50.0], p=[0.8, 0.15, 0.05], size=(40, 2)),
                       id="atomic")
    # n alpha = 22.2, 27.75, 33.3, 35.15 and 36.63: never an integer, and q
    # is the largest total from alpha > 36/37 on
    yield pytest.param(rng.standard_normal((37, 3)), id="normal-37")
    yield pytest.param(np.array([[1.5, -0.5, 2.0]]), id="n-1")
    yield pytest.param(FOUR.components, id="four")
    yield pytest.param(ROADMAP_8X2, id="integers-8x2")


@pytest.mark.parametrize("scale", [1e-15, 1.0, 1e15])
@pytest.mark.parametrize("comp", list(_fraction_portfolios()))
def test_es_contributions_match_exact_tail_integral(comp, scale):
    p = Portfolio(comp * scale)
    for a in (0.1, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99, 1 - 1e-6):
        want = oracle.es_euler(p.total, p.components, a)
        got = es_euler(p, a)
        assert all(w.ulps(g) <= 16 for w, g in zip(want, got)), (a, got, want)


@pytest.mark.parametrize("scale", [1e-15, 1.0, 1e15])
@pytest.mark.parametrize(
    "comp",
    SELECTION_PORTFOLIOS
    + list(_fraction_portfolios())
    + [pytest.param(np.random.default_rng(31).standard_normal((500, 3)), id="normal-500")],
)
def test_es_full_allocation(comp, scale):
    p = Portfolio(comp * scale)
    for a in (0.05, 0.3) + SELECTION_LEVELS:
        c, es = es_euler(p, a, full_output=True)
        want = expected_shortfall(Sample(p.total), a)
        assert abs(c.sum() - want) <= 1e-12 * np.sum(np.abs(c)), (a, c.sum(), want)
        assert abs(es - want) <= 1e-13 * abs(want), (a, es, want)
        assert np.array_equal(c, es_euler(p, a))
        if comp is ROADMAP_8X2 and scale == 1.0 and a in ROADMAP_8X2_ES:
            assert want == ROADMAP_8X2_ES[a]


@pytest.mark.parametrize("alpha", [0.99999, 0.999993])
def test_es_full_allocation_deep_level_many_rows(alpha):
    # n alpha is not an integer and q lies below the maximum: the atom's
    # share m of the tail must carry no more than the rounding of
    # n (1 - alpha), not that of n alpha, which is ~1e-11 of n (1 - alpha)
    p = Portfolio(np.random.default_rng(1).pareto(1.5, size=(300_007, 2)))
    c = es_euler(p, alpha)
    want = expected_shortfall(Sample(p.total), alpha)
    assert abs(c.sum() - want) <= 1e-12 * np.sum(np.abs(c)), (c.sum(), want)


def test_constant_total_is_its_own_expectile():
    p = Portfolio(np.tile([0.1, 0.2], (2000, 1)))
    for a in (0.6, 0.9, 0.99):
        contrib, e = expectile_euler(p, a, full_output=True)
        assert e == p.total[0]
        np.testing.assert_allclose(contrib, [0.1, 0.2], rtol=1e-13, atol=0.0)


def test_allocations_build_no_sample(monkeypatch):
    def refuse(self, x):
        raise AssertionError("an allocation built a Sample")

    monkeypatch.setattr(Sample, "_set_sorted", refuse)
    p = Portfolio(np.random.default_rng(4).pareto(2.1, size=(2000, 3)))
    for a in (0.5, 0.9, 0.99):
        expectile_euler(p, a, check=True)
        es_euler(p, a, full_output=True)


def test_expectile_sorts_only_the_totals_above_the_lower_bound(monkeypatch):
    sizes = []
    sort = np.sort

    def counted(a, *args, **kwargs):
        sizes.append(a.size)
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", counted)
    p = Portfolio(np.random.default_rng(5).pareto(2.1, size=(100_000, 3)))
    expectile_euler(p, 0.99, check=True)
    assert len(sizes) == 1 and sizes[0] < 0.02 * p.n


def test_allocations_partition_only_the_tail(monkeypatch):
    sizes = []
    partition = np.partition

    def counted(a, *args, **kwargs):
        sizes.append(np.size(a))
        return partition(a, *args, **kwargs)

    monkeypatch.setattr(np, "partition", counted)
    p = Portfolio(np.random.default_rng(5).pareto(2.1, size=(100_000, 3)))
    for a in (0.9, 0.99, 0.999):
        for call in (es_euler, expectile_euler):
            sizes.clear()
            call(p, a)
            assert len(sizes) == 2 and max(sizes) < 0.15 * p.n
    # at alpha = 1/2 the expectile is the mean: no selection
    sizes.clear()
    expectile_euler(p, 0.5, check=True)
    assert sizes == []


def test_expectile_solves_over_every_total_when_the_bound_overshoots(monkeypatch):
    # rounding can put the bound at or past the root; then all totals are
    # sorted, and the root is the same
    p = Portfolio(np.random.default_rng(6).pareto(2.1, size=(2000, 3)))
    want = {a: expectile_euler(p, a, full_output=True) for a in (0.6, 0.9, 0.99)}
    monkeypatch.setattr(risk_core, "_combination", lambda es, mu, alpha, beta: es)
    for a, (contrib, e) in want.items():
        got, root = expectile_euler(p, a, check=True, full_output=True)
        assert abs(root - e) <= 1e-13 * abs(e)
        np.testing.assert_allclose(got, contrib, rtol=1e-12, atol=0.0)


# --------------------------------------------------------------- ratios

def test_asymptotic_constant_values():
    rows = euler_asymptotic_ratio(FOUR, 2.0, [0.7])
    assert abs(rows[0].constant - 0.5) < 1e-15
    rows = euler_asymptotic_ratio(FOUR, 3.0, [0.7])
    assert abs(rows[0].constant - 2.0 ** (2.0 / 3.0) / 3.0) < 1e-15


def test_asymptotic_rejects_eta_at_most_one():
    with pytest.raises(ValueError):
        euler_asymptotic_ratio(FOUR, 1.0, [0.9])


def test_asymptotic_rows_carry_ratios_and_levels_are_checked_first(monkeypatch):
    rows = euler_asymptotic_ratio(FOUR, 2.1, [0.7, 0.9])
    for row, a in zip(rows, (0.7, 0.9)):
        assert row.alpha == a
        assert row.ratios == tuple(expectile_euler(FOUR, a) / es_euler(FOUR, a))
    # at 0.9 q is the largest total: ES (3, 3), expectile (7/3, 7/3)
    assert rows[1].ratios == pytest.approx((7 / 9, 7 / 9), rel=1e-15)
    calls = []
    monkeypatch.setattr(allocation, "es_euler", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="expectile level"):
        euler_asymptotic_ratio(FOUR, 2.1, [0.7, 1.0])
    assert calls == []


def test_asymptotic_ratio_approaches_constant_iid_pareto():
    # independent heavy-tailed components: contribution ratios near the
    # limit constant once alpha is deep in the tail
    dist = Pareto(2.1)
    rng = np.random.default_rng(1)
    n, d = 200_000, 3
    u = np.maximum(rng.random((n, d)), 2.0 ** -53)
    comp = dist.quantile(u)
    rows = euler_asymptotic_ratio(Portfolio(comp), 2.1, [0.999])
    const = rows[0].constant
    assert rows[0].ratios is not None
    for r in rows[0].ratios:
        assert abs(r - const) < 0.2


# ------------------------------------------------------------------ csv

@pytest.fixture
def parses(monkeypatch):
    """Grows by one on each ``np.loadtxt`` call, from an empty memo."""
    monkeypatch.setattr(Portfolio, "_last_csv", None)
    seen = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        seen.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return seen


def test_from_csv_roundtrip(tmp_path):
    path = tmp_path / "port.csv"
    path.write_text("c1,c2\n0,0\n0,1\n1,0\n3,3\n")
    p = Portfolio.from_csv(path)
    np.testing.assert_array_equal(p.components, FOUR.components)


def test_from_csv_without_header(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1.5,2.5\n3.5,4.5\n")
    p = Portfolio.from_csv(path)
    np.testing.assert_allclose(p.components, [[1.5, 2.5], [3.5, 4.5]])


def test_from_csv_reports_offending_line(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="ragged"):
        Portfolio.from_csv(ragged)
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,x\n")
    with pytest.raises(ValueError, match="line 2"):
        Portfolio.from_csv(bad)


@pytest.mark.parametrize("text, want", [
    ('"1.5","2"\n"3","4.25"\n', [[1.5, 2.0], [3.0, 4.25]]),
    (" 1 , 2 \n3 ,  4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("c1,c2\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\n\n3,4\n\n\n5,6\n", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    ("c1,c2,c3\n1,2,3\n", [[1.0, 2.0, 3.0]]),
    ("loss\n1\n2.5\n4\n", [[1.0], [2.5], [4.0]]),
    ("\ufeff1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    ("\ufeffc1,c2\n1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
])
def test_from_csv_accepted_layouts(tmp_path, text, want, parses):
    # the first read parses; the second finds the text and copies its matrix
    path = tmp_path / "port.csv"
    path.write_bytes(text.encode())
    got = Portfolio.from_csv(path).components
    assert got.shape == np.shape(want)
    np.testing.assert_array_equal(got, want)
    again = Portfolio.from_csv(path).components
    assert len(parses) == 1 and again.tobytes() == got.tobytes()


@pytest.mark.parametrize("text, match", [
    ("c1,c2\n", "no scenario rows"),
    ("c1,c2\n\n\n", "no scenario rows"),
    ("1,2\n3,inf\n", "must be finite"),
    ("1,2\n3,,4\n", "empty cell at line 2"),
    ("1,2,\n3,4,\n", "empty cell at line 1"),
    ("c1,c2\n1,2\n3,4\n5,\n", "empty cell at line 4"),
])
def test_from_csv_rejects(tmp_path, text, match):
    path = tmp_path / "port.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        Portfolio.from_csv(path)


def test_from_csv_keys_on_the_content_not_the_path_or_mtime(tmp_path, parses):
    path = tmp_path / "port.csv"
    path.write_text("1,2\n3,4\n")
    stamp = path.stat()
    Portfolio.from_csv(path)
    # other bytes of the same length, at the same modification time
    path.write_text("5,6\n7,8\n")
    os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stamp.st_size, stamp.st_mtime_ns)
    np.testing.assert_array_equal(Portfolio.from_csv(path).components, [[5.0, 6.0], [7.0, 8.0]])
    # the same text under another name needs no parse
    copy = tmp_path / "copy.csv"
    copy.write_text("5,6\n7,8\n")
    np.testing.assert_array_equal(Portfolio.from_csv(copy).components, [[5.0, 6.0], [7.0, 8.0]])
    assert len(parses) == 2


def test_from_csv_gives_each_portfolio_its_own_writable_matrix(tmp_path, parses):
    path = tmp_path / "port.csv"
    path.write_text("1,2\n3,4\n")
    for p in (Portfolio.from_csv(path), Portfolio.from_csv(path)):
        assert p.components.flags.writeable and p.components.flags.owndata
        p.components[0, 0] = 99.0
    np.testing.assert_array_equal(Portfolio.from_csv(path).components, [[1.0, 2.0], [3.0, 4.0]])
    assert len(parses) == 1


def test_from_csv_remembers_no_file_above_the_bound(tmp_path, parses, monkeypatch):
    # a longer text is parsed on every read and leaves the last short one
    # remembered
    monkeypatch.setattr(allocation, "_CSV_MEMO_CHARS", len("1,2\n3,4\n"))
    short, long = tmp_path / "short.csv", tmp_path / "long.csv"
    short.write_text("1,2\n3,4\n")
    long.write_text("1,2\n3,4\n5,6\n")
    for path, parsed in ((short, 1), (long, 2), (long, 3), (short, 3)):
        Portfolio.from_csv(path)
        assert len(parses) == parsed


@pytest.mark.parametrize("bad, match", [
    ("1,2\n3,x\n", "line 2"),
    ("1,2\n3,inf\n", "must be finite"),
])
def test_from_csv_remembers_no_failed_parse(tmp_path, parses, bad, match):
    # good, bad, good, bad: each bad file is parsed and refused again, and
    # the good one keeps its matrix
    good, wrong = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("1,2\n3,4\n")
    wrong.write_text(bad)
    for _ in range(2):
        np.testing.assert_array_equal(Portfolio.from_csv(good).components,
                                      [[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match=match):
            Portfolio.from_csv(wrong)
    assert len(parses) == 3
