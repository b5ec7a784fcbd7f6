"""Simulation tables, seeding, Wasserstein machinery, figure data."""

import math

import numpy as np
import oracle
import pytest

from tailrisk import montecarlo, risk_core
from tailrisk.asymptotics import ExpansionCurveRow, expansion_curve
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
from tailrisk.montecarlo import (
    RatioTableRow,
    SimulationConfig,
    cell_seed,
    ratio_table,
    ratio_table_csv,
    render_csv,
    splitmix64,
    transport_bounds,
    wasserstein_exact,
)
from tailrisk.risk_core import distortion_curves, expectile, expected_shortfall, value_at_risk


# -------------------------------------------------------------- seeding

def test_splitmix64_reference_vectors():
    # canonical outputs of the SplitMix64 stream started at state 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4


def test_cell_seeds_are_distinct():
    seeds = {
        cell_seed(1, ia, jn, r)
        for ia in range(5)
        for jn in range(4)
        for r in range(6)
    }
    assert len(seeds) == 5 * 4 * 6
    assert cell_seed(1, 0, 0, 0) != cell_seed(2, 0, 0, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        cell_seed(1, -1, 0, 0)


# --------------------------------------------------------------- tables

def test_ratio_table_deterministic():
    cfg = SimulationConfig(Pareto(2.1), (0.95, 0.99), (500, 2000), seed=7)
    assert ratio_table(cfg) == ratio_table(cfg)


def test_theoretical_column_matches_direct_computation():
    alphas = (0.983, 0.991, 0.999)
    d = Pareto(2.1)
    rows = ratio_table(SimulationConfig(d, alphas, (200,), seed=1))
    for row, a in zip(rows, alphas):
        want = expectile(d, a) / expected_shortfall(d, a)
        assert row.theoretical == pytest.approx(want, rel=1e-14)
    rows = ratio_table(SimulationConfig(d, alphas, (200,), seed=1, vs="var"))
    for row, a in zip(rows, alphas):
        want = expectile(d, a) / value_at_risk(d, a)
        assert row.theoretical == pytest.approx(want, rel=1e-14)


def test_rows_sorted_and_seeded_by_original_position():
    d = Pareto(2.1)
    cfg = SimulationConfig(d, (0.99, 0.95), (1000,), seed=11)
    rows = ratio_table(cfg)
    assert [r.alpha for r in rows] == [0.95, 0.99]
    # alpha=0.95 sat at index 1 of the config, so its cell drew with that index
    s = d.sample(1000, seed=cell_seed(11, 1, 0, 0))
    want = expectile(s, 0.95) / expected_shortfall(s, 0.95)
    assert rows[0].empirical[0] == pytest.approx(want, rel=1e-14)


def test_replications_take_cellwise_medians():
    d = Exponential()
    cfg = SimulationConfig(d, (0.9,), (400,), seed=5, replications=3)
    row = ratio_table(cfg)[0]
    ratios = []
    for r in range(3):
        s = d.sample(400, seed=cell_seed(5, 0, 0, r))
        ratios.append(expectile(s, 0.9) / expected_shortfall(s, 0.9))
    th = row.theoretical
    errs = [100.0 * abs(x - th) / abs(th) for x in ratios]
    assert row.empirical[0] == pytest.approx(float(np.median(ratios)), rel=1e-14)
    assert row.err_pct[0] == pytest.approx(float(np.median(errs)), rel=1e-14)


def test_table_cells_build_no_sample_and_sort_only_the_tail(monkeypatch):
    # a cell reads its raw draw: partitions of a strided sample and of the
    # values above its threshold, none of all n values, and a sort of the
    # values above the ES lower bound on the expectile (~1.3% of n)
    def refuse(self, x):
        raise AssertionError("a table cell built a Sample")

    monkeypatch.setattr(Sample, "_set_sorted", refuse)
    sorts, partitions = [], []
    sort, partition = np.sort, np.partition

    def counted_sort(a, *args, **kwargs):
        sorts.append(np.size(a))
        return sort(a, *args, **kwargs)

    def counted_partition(a, *args, **kwargs):
        partitions.append(np.size(a))
        return partition(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", counted_sort)
    monkeypatch.setattr(np, "partition", counted_partition)
    n = 100_000
    for vs in ("es", "var"):
        sorts.clear()
        partitions.clear()
        ratio_table(SimulationConfig(Pareto(2.1), (0.99,), (n,), seed=3, vs=vs))
        assert partitions and max(partitions) <= 0.05 * n
        assert len(sorts) == 1 and sorts[0] < 0.02 * n


# (law, alpha, n, ratio denominator): tied draws (9 ones among 2000 for
# master seed 1, so at 0.99 the tie block at 0 straddles the quantile and at
# 0.9961 the one at 1 does), a constant law, n = 1 and 2, alpha = 1/2, and
# n alpha not an integer
CELL_CASES = [
    ("twopoint:x1=0,x2=1,p=0.995", 0.99, 2000, "es"),
    ("twopoint:x1=0,x2=1,p=0.995", 0.9961, 2000, "es"),
    ("twopoint:x1=0,x2=1,p=0.995", 0.9961, 2000, "var"),
    ("twopoint:x1=0,x2=1,p=0.995", 0.999, 2000, "var"),
    ("twopoint:x1=0,x2=1,p=0.995,shift=0.5", 0.99, 2000, "var"),
] + [
    (law, alpha, n, vs)
    for law, alpha, n in [
        ("twopoint:x1=2.5,x2=2.5,p=0.3", 0.9, 50),
        ("pareto:a=2.1", 0.9, 1),
        ("pareto:a=2.1", 0.7, 2),
        ("pareto:a=2.1", 0.5, 2),
        ("pareto:a=2.1", 0.5, 101),
        ("pareto:a=2.1", 0.993, 777),
        ("exp", 0.9871, 1234),
    ]
    for vs in ("es", "var")
]


@pytest.mark.parametrize("law,alpha,n,vs", CELL_CASES)
def test_cell_ratio_matches_exact_rational_evaluation(law, alpha, n, vs):
    dist = parse_distribution(law)
    law = oracle.Discrete(dist.sample(n, seed=cell_seed(1, 0, 0, 0)).values)
    var, es, e = law.var(alpha).value, law.es(alpha).value, law.expectile(alpha).value
    want = float(e / (es if vs == "es" else var))
    row = ratio_table(SimulationConfig(dist, (alpha,), (n,), seed=1, vs=vs))[0]
    assert abs(row.empirical[0] - want) <= 1e-14 * abs(want)
    # each part of the cell, from one selection of the raw draw
    x = dist._draw(n, cell_seed(1, 0, 0, 0))
    sel = risk_core._select(x, alpha)
    got_e, above = risk_core._tail_expectile(x, alpha, sel)
    assert sel.q == var
    assert abs(sel.es - es) <= 1e-14 * abs(es)
    assert abs(got_e - e) <= 1e-14 * abs(e)
    np.testing.assert_array_equal(above, np.flatnonzero(x > got_e))


def test_table_validation():
    d = Exponential()
    with pytest.raises(ValueError, match="denominator"):
        ratio_table(SimulationConfig(d, (0.9,), (100,), 1, vs="quantile"))
    with pytest.raises(ValueError, match="alpha grid is empty"):
        ratio_table(SimulationConfig(d, (), (100,), 1))
    with pytest.raises(ValueError, match="size grid is empty"):
        ratio_table(SimulationConfig(d, (0.9,), (), 1))
    with pytest.raises(ValueError, match=r"^expectile level must lie in \[0.5, 1 - 1e-12\), "
                                         r"got 0.4$"):
        ratio_table(SimulationConfig(d, (0.4,), (100,), 1))
    with pytest.raises(ValueError, match="sample size"):
        ratio_table(SimulationConfig(d, (0.9,), (0,), 1))
    with pytest.raises(ValueError, match="replications"):
        ratio_table(SimulationConfig(d, (0.9,), (100,), 1, replications=0))


def test_levels_are_refused_before_any_draw(monkeypatch):
    # the rows run in level order, so a check made row by row would draw
    # the 0.9 row before it reached the level past the expectile's cap
    def drawn(self, n, seed):
        raise AssertionError("a cell was drawn before every level was checked")

    monkeypatch.setattr(Exponential, "_draw", drawn)
    with pytest.raises(ValueError, match=r"^expectile level must lie in \[0.5, 1 - 1e-12\)"):
        ratio_table(SimulationConfig(Exponential(), (0.9, 1 - 1e-13), (10,), 1))


def test_a_zero_denominator_is_named_by_law_level_and_measure():
    # the model's ES is zero: no ratio to compare the draws with
    with pytest.raises(ZeroDivisionError, match=r"^twopoint:x1=0,x2=0,p=0.5: zero es of the "
                                                r"model at alpha=0.9$"):
        ratio_table(SimulationConfig(TwoPoint(0.0, 0.0, 0.5), (0.9,), (10,), 1))
    # ES_0.5 = 0.02 and VaR_0.995 = 1 for the model, but both are 0 for a
    # draw of ten zeros, about nine draws in ten
    for vs, alpha in (("es", 0.5), ("var", 0.995)):
        cfg = SimulationConfig(TwoPoint(0.0, 1.0, 0.99), (alpha,), (10,), 1, vs=vs)
        with pytest.raises(ZeroDivisionError, match=rf"^twopoint:x1=0,x2=1,p=0.99: zero {vs} "
                                                    rf"of the n=10 draw \(replication 0\) "
                                                    rf"at alpha={alpha}$"):
            ratio_table(cfg)
    # the model's expectile at 0.5 is its mean 0: the error percentages,
    # relative to the theoretical ratio, are undefined
    with pytest.raises(ZeroDivisionError, match=r"^twopoint:x1=-1,x2=1,p=0.5: zero theoretical "
                                                r"ratio at alpha=0.5: its error percentages "
                                                r"are undefined$"):
        ratio_table(SimulationConfig(TwoPoint(-1.0, 1.0, 0.5), (0.5, 0.6), (10,), 1))


# ------------------------------------------------------------ rendering

def test_render_csv_formats():
    text = render_csv(["a", "b", "c"], [[0.123456789012345, 3, "x"]])
    assert text == "a,b,c\n0.123456789012,3,x\n"


def test_ratio_table_csv_headers_use_n_labels():
    rows = [RatioTableRow(0.9, 1.0, (1.01, 0.99), (1.0, 0.5))]
    text = ratio_table_csv(rows, [1_000_000, 500_000])
    head = text.splitlines()[0]
    assert head == ("alpha,theo_ratio,emp_ratio_1e6,err_pct_1e6,"
                    "emp_ratio_5e5,err_pct_5e5")
    rows = [RatioTableRow(0.9, 1.0, (1.01,), (1.0,))]
    assert "emp_ratio_1234" in ratio_table_csv(rows, [1234])


# ---------------------------------------------------------- wasserstein

def test_two_point_distance_by_hand():
    # median split vs p=0.75 split: quantiles differ on (0.5, 0.75]
    s = Sample(np.array([0.0, 0.0, 1.0, 1.0]))
    d = TwoPoint(0.0, 1.0, 0.75)
    assert abs(wasserstein_exact(s, d) - 0.25) < 1e-12
    d = TwoPoint(0.0, 1.0, 0.25)
    assert abs(wasserstein_exact(s, d) - 0.25) < 1e-12


W1_MODELS = (Pareto(2.1), Exponential(), Uniform01(), StudentT(2.3), PowerBeta(1.1))


def test_exact_matches_fine_quadrature():
    for dist in W1_MODELS:
        for n in (1, 20, 200):
            smp = dist.sample(n, seed=9)
            want = oracle.w1_quadrature(smp.values, dist)
            assert wasserstein_exact(smp, dist) == pytest.approx(want, rel=1e-8, abs=0.0)
    # ties in the sample; the model's atoms sit on sample points
    smp = Sample(np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.0]))
    d = TwoPoint(0.0, 2.0, 0.5)
    want = oracle.w1_quadrature(smp.values, d)
    assert want == pytest.approx(0.5, rel=1e-12)
    assert wasserstein_exact(smp, d) == pytest.approx(0.5, rel=1e-12)


def test_exact_matches_quadrature_over_many_runs():
    # at n = 5000 the sample crosses the model hundreds of times, so the
    # sum runs over many same-side runs and crossing blocks
    for dist in (W1_MODELS[0], W1_MODELS[3]):
        smp = dist.sample(5000, seed=4)
        want = oracle.w1_quadrature(smp.values, dist)
        assert wasserstein_exact(smp, dist) == pytest.approx(want, rel=1e-8, abs=0.0)


def test_exact_with_sample_points_outside_the_support():
    # below the support F = 0, above it F = 1: whole blocks on one side,
    # including the last block, whose right edge carries E(1) = 0
    uniform, pareto = W1_MODELS[2], W1_MODELS[0]
    for dist, values in (
        (uniform, [-0.2, 1.5]),
        (pareto, [-0.5, -0.1, 0.3, 2.0]),
        (pareto, [-2.0, -1.0]),
    ):
        smp = Sample(np.array(values))
        want = oracle.w1_quadrature(smp.values, dist)
        assert wasserstein_exact(smp, dist) == pytest.approx(want, rel=1e-8, abs=0.0)
    # by hand: int_0^1/2 (u + 0.2) du + int_1/2^1 (1.5 - u) du
    assert wasserstein_exact(Sample(np.array([-0.2, 1.5])), Uniform01()) == pytest.approx(0.6)


def test_exact_asks_es_only_at_run_boundaries_and_crossings():
    # ES is needed where the sample changes side or crosses the model,
    # not at every block edge and split point (2n levels)
    d = StudentT(2.3)
    es = d.es
    asked = []

    def counting_es(beta):
        asked.append(np.size(beta))
        return es(beta)

    d.es = counting_es
    n = 100_000
    smp = d.sample(n, seed=1)
    wasserstein_exact(smp, d)
    assert 0 < sum(asked) < n / 20


def _w1_every_point(s, dist):
    """``wasserstein_exact`` with the model CDF evaluated at every sample
    point, the formula as it stood before the CDF was inferred."""
    vals = s.values
    n = len(vals)
    edges = np.arange(n + 1) / n
    u = dist.cdf(vals)
    above = u >= edges[1:]
    below = u <= edges[:-1]
    ustar = np.clip(u, edges[:-1], edges[1:])
    edge_weight = np.full(n + 1, -2)
    edge_weight[0] = -1
    edge_weight[1:] += 2 * above
    edge_weight[:-1] += 2 * below
    k = np.flatnonzero(edge_weight[:-1])
    cross = ~(above | below)
    levels = np.concatenate((edges[k], ustar[cross]))
    weight = np.concatenate((edge_weight[k], np.full(np.count_nonzero(cross), 2)))
    big_e = (1.0 - levels) * dist.es(levels)
    total = math.fsum((weight * big_e).tolist()) + float(
        np.sum(vals * (2.0 * ustar - edges[:-1] - edges[1:]))
    )
    return max(total, 0.0)


def _w1_bit_cases():
    models = (StudentT(2.3), Pareto(2.1), Pareto(2.1, shift=-1.0), Exponential(),
              Uniform01(), PowerBeta(1.1), TwoPoint(-1.0, 2.5, 0.3))
    for dist in models:
        for n in (1, 2, 3, 17, 1000, 100_000):
            yield pytest.param(dist, dist.sample(n, seed=n % 7), id=f"{dist.label} n={n}")
        # ties: the model's own draws rounded, and one value repeated
        drawn = dist.sample(1000, seed=2).values
        yield pytest.param(dist, Sample(np.round(drawn, 1)), id=f"{dist.label} rounded")
        yield pytest.param(dist, Sample(np.full(3000, drawn[700])), id=f"{dist.label} constant")
    rng = np.random.default_rng(6)
    # partly and wholly outside the support
    yield pytest.param(Uniform01(), Sample(rng.uniform(-0.5, 1.5, 4000)), id="uniform straddling")
    yield pytest.param(Uniform01(), Sample(rng.uniform(2.0, 3.0, 4000)), id="uniform above")
    yield pytest.param(Pareto(2.1), Sample(rng.uniform(-3.0, -1.0, 4000)), id="pareto below")
    yield pytest.param(PowerBeta(1.1), Sample(np.r_[-np.ones(500), 2.0 * np.ones(500)]),
                       id="power both sides")
    # 0/s samples against the two-point model, every value tied
    for s in (1e-15, 1e-5, 1.0, 1e5, 1e15):
        for k in range(3):
            hits = rng.random(5000) < 0.3
            yield pytest.param(TwoPoint(0.0, s, 0.75), Sample(s * hits), id=f"0/s x {s:g} #{k}")


@pytest.mark.parametrize("dist,smp", list(_w1_bit_cases()))
def test_exact_has_the_bits_of_evaluating_every_point(dist, smp):
    assert wasserstein_exact(smp, dist).hex() == _w1_every_point(smp, dist).hex()


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_exact_evaluates_the_model_cdf_only_where_the_side_is_open(seed):
    # the side of most blocks follows from the CDF at evaluated points, so
    # the model CDF sees about 2-12k of the 1e5 sample points, not n
    d = StudentT(2.3)
    cdf = d.cdf
    points = []

    def counting_cdf(x):
        points.append(np.size(x))
        return cdf(x)

    d.cdf = counting_cdf
    n = 100_000
    smp = d.sample(n, seed=seed)
    wasserstein_exact(smp, d)
    assert 0 < sum(points) <= n / 8
    # one call for the grid, then one per bisection level
    assert len(points) <= 1 + math.log2(montecarlo._CDF_GRID)


def test_self_distance_shrinks_with_sample_size():
    d = Pareto(2.1)
    w = [wasserstein_exact(d.sample(n, seed=3), d) for n in (250, 1000, 4000, 16000)]
    assert all(a > b for a, b in zip(w, w[1:]))


def test_risk_gaps_bounded_by_distance():
    # ES is 1/(1-alpha)-Lipschitz and the expectile alpha/(1-alpha)-
    # Lipschitz with respect to this distance
    viol = 0
    for dist in (Pareto(2.1), Exponential(), Uniform01(), StudentT(2.3)):
        for seed in (1, 2, 3, 4, 5):
            smp = dist.sample(300, seed=seed)
            w = wasserstein_exact(smp, dist)
            for alpha in (0.5, 0.9, 0.99):
                es_gap = abs(expected_shortfall(smp, alpha)
                             - expected_shortfall(dist, alpha))
                e_gap = abs(expectile(smp, alpha) - expectile(dist, alpha))
                if es_gap > w / (1.0 - alpha) + 1e-12:
                    viol += 1
                if e_gap > alpha / (1.0 - alpha) * w + 1e-12:
                    viol += 1
    assert viol == 0


def test_transport_bounds_match_the_acceptance_formulas():
    # the inline formulas of test_criterion_8_wasserstein_bounds, field by
    # field; alpha w/(1-alpha) is rounded in another order there
    for dist in (Pareto(2.1), Exponential(), Uniform01(), StudentT(2.3)):
        for seed in (1, 2):
            s = dist.sample(300, seed=seed)
            w = wasserstein_exact(s, dist)
            for a in (0.5, 0.9, 0.99):
                got = transport_bounds(s, dist, a)
                assert got[:4] == (
                    w,
                    abs(expected_shortfall(s, a) - expected_shortfall(dist, a)),
                    w / (1.0 - a),
                    abs(expectile(s, a) - expectile(dist, a)),
                )
                assert got.expectile_bound == pytest.approx(a / (1.0 - a) * w, rel=1e-15)
                assert got.es_deviation <= got.es_bound + 1e-12
                assert got.expectile_deviation <= got.expectile_bound + 1e-12


def test_deviation_bounds_on_tied_and_scaled_losses():
    # the printed bounds |ES_n - ES| <= w/(1-alpha) and
    # |e_n - e| <= alpha w/(1-alpha) on 0/s samples (every value tied)
    # against the two-point model, at every scale; the slack is relative,
    # so small scales cannot pass on it alone
    rng = np.random.default_rng(0)
    hits = [rng.random(8) < 0.3 for _ in range(20)]
    viol = []
    for s in (1e-15, 1e-13, 1e-10, 1e-5, 1.0, 1e5, 1e10, 1e15):
        model = TwoPoint(0.0, s, 0.75)
        for h in hits:
            smp = Sample(s * h)
            w = wasserstein_exact(smp, model)
            for alpha in (0.5, 0.6, 0.75, 0.9, 0.99):
                for name, measure, lip in (("es", expected_shortfall, 1.0),
                                           ("expectile", expectile, alpha)):
                    got, want = measure(smp, alpha), measure(model, alpha)
                    slack = 1e-12 * max(abs(got), abs(want))
                    if abs(got - want) > lip * w / (1.0 - alpha) + slack:
                        viol.append((name, s, alpha, got, want, w))
    assert viol == []


# ---------------------------------------------------------- figure data

def test_weibull_beta_series_orders_the_expansions():
    rows = expansion_curve(PowerBeta(2.0), (0.95,))
    assert ExpansionCurveRow._fields == ("alpha", "exact", "first_order", "second_order")
    alpha, exact, first, second = rows[0]
    assert exact == pytest.approx(8.9499, abs=5e-4)
    assert first == pytest.approx(10.8175, abs=5e-4)
    assert second == pytest.approx(9.22024, abs=5e-4)
    assert abs(second - exact) < abs(first - exact)


def test_frechet_pareto_series_values():
    rows = expansion_curve(Pareto(2.1), (0.95,))
    alpha, exact, first, second = rows[0]
    assert exact == pytest.approx(0.48087, abs=5e-5)
    assert first == pytest.approx(0.500567, abs=5e-6)
    assert second == pytest.approx(0.466271, abs=5e-6)


def test_frechet_student_series_second_order_converges():
    rows = expansion_curve(StudentT(2.3), (0.95, 0.999))
    for alpha, exact, first, second in rows:
        c = StudentT(2.3).centered()
        want = expectile(c, alpha) / expected_shortfall(c, alpha)
        assert exact == pytest.approx(want, rel=1e-12)
    # at the deep end the second order is within 1e-5 of exact
    alpha, exact, first, second = rows[1]
    assert abs(second - exact) < 1e-5 < abs(first - exact)


def test_distortion_series_takes_every_expectile_level():
    # the level check is distortion_curves' own: 0.5 is in, the cap is out
    t, phi, mix = distortion_curves(0.5, 3)
    assert list(t) == [0.0, 0.5, 1.0]
    with pytest.raises(ValueError, match="expectile level"):
        distortion_curves(1 - 1e-13, 3)


def test_figure_data_validation():
    with pytest.raises(ValueError, match="at least 2"):
        distortion_curves(0.94, 1)
    with pytest.raises(ValueError, match=r"^expectile level must lie in \[0.5, 1 - 1e-12\), "
                                         r"got 0.3$"):
        expansion_curve(Pareto(2.1), (0.3,))
    with pytest.raises(ValueError, match="alpha grid is empty"):
        expansion_curve(PowerBeta(2.0), ())
    with pytest.raises(ValueError, match="Gumbel-type"):
        expansion_curve(Exponential(), (0.95,))
