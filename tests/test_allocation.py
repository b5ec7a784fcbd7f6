"""Euler risk contributions for scenario portfolios."""

import numpy as np
import pytest

from tailrisk import allocation, distributions
from tailrisk.allocation import (
    Portfolio,
    es_euler,
    euler_asymptotic_ratio,
    expectile_euler,
)
from tailrisk.distributions import Pareto, Sample
from tailrisk.risk_core import expectile

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
    # 1-d input is promoted to a single column
    assert Portfolio(np.array([1.0, 2.0])).d == 1


def test_es_contributions_hand_example():
    # q_{0.7}(total) = 1, strict tail = the (3,3) scenario
    np.testing.assert_allclose(es_euler(FOUR, 0.7), [3.0, 3.0], atol=1e-12)


def test_es_contributions_empty_tail_raises():
    with pytest.raises(ValueError, match="0.9"):
        es_euler(FOUR, 0.9)  # VaR is the sample max, nothing above it


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
        assert abs(contrib.sum() - total) < 1e-9 * (1 + abs(total))


def test_single_component_self_allocation():
    rng = np.random.default_rng(2)
    v = rng.standard_exponential(150)
    p = Portfolio(v[:, None])
    for a in (0.6, 0.9, 0.99):
        got = expectile_euler(p, a)
        assert abs(got[0] - expectile(Sample(v), a)) < 1e-12 * (1 + abs(got[0]))


def test_comonotone_columns_split_proportionally():
    rng = np.random.default_rng(9)
    v = rng.standard_exponential(200)
    p = Portfolio(np.column_stack([v, 2.0 * v]))
    for a in (0.7, 0.95):
        c = expectile_euler(p, a)
        total = expectile(Sample(3.0 * v), a)
        assert abs(c[0] - total / 3.0) < 1e-9 * (1 + abs(total))
        assert abs(c[1] - 2.0 * total / 3.0) < 1e-9 * (1 + abs(total))


def test_constant_column_gets_its_constant():
    rng = np.random.default_rng(4)
    v = rng.standard_normal(100)
    p = Portfolio(np.column_stack([v, np.full(100, 2.5)]))
    for a in (0.6, 0.9):
        c = expectile_euler(p, a)
        assert abs(c[1] - 2.5) < 1e-10
        assert abs(c[0] - expectile(Sample(v), a)) < 1e-9


def test_es_contributions_sum_to_strict_tail_mean():
    rng = np.random.default_rng(31)
    comp = rng.standard_normal((500, 3))
    p = Portfolio(comp)
    a = 0.95
    c = es_euler(p, a)
    total = p.total
    q = Sample(total).quantile(a)
    tail = total > q
    assert abs(c.sum() - total[tail].mean()) < 1e-9


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
    assert tail.sum() == n - distributions.order_index(n, alpha)


def test_es_and_sample_share_one_order_index():
    assert allocation.order_index is distributions.order_index
    assert not hasattr(Sample, "_index")


# --------------------------------------------------------------- ratios

def test_asymptotic_constant_values():
    rows = euler_asymptotic_ratio(FOUR, 2.0, [0.7])
    assert abs(rows[0].constant - 0.5) < 1e-15
    rows = euler_asymptotic_ratio(FOUR, 3.0, [0.7])
    assert abs(rows[0].constant - 2.0 ** (2.0 / 3.0) / 3.0) < 1e-15


def test_asymptotic_rejects_eta_at_most_one():
    with pytest.raises(ValueError):
        euler_asymptotic_ratio(FOUR, 1.0, [0.9])


def test_asymptotic_degenerate_rows_carry_note():
    rows = euler_asymptotic_ratio(FOUR, 2.1, [0.7, 0.9])
    assert rows[0].ratios is not None and rows[0].note == ""
    assert rows[1].ratios is None and "0.9" in rows[1].note


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
def test_from_csv_accepted_layouts(tmp_path, text, want):
    path = tmp_path / "port.csv"
    path.write_bytes(text.encode())
    got = Portfolio.from_csv(path).components
    assert got.shape == np.shape(want)
    np.testing.assert_array_equal(got, want)


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
