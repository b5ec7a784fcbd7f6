"""Simulation tables and Wasserstein distances.

The ratio tables compare theoretical expectile/ES and expectile/VaR
ratios against their empirical counterparts on freshly drawn samples,
one draw per (alpha, n) cell.  Empirical error percentages depend on the
draw by nature; theoretical columns never do.  A cell costs its draw, one
selection and a sort of the values above the paper's ES lower bound on the
expectile, not a sort of all n.  From 32768 draws on, the selection
partitions a strided sample of about 4096 draws and then only the draws
above the threshold it gives, about (1 - alpha) n of them, not all n.
Cell seeds are derived from the master seed by a documented SplitMix64
chain so any cell can be reproduced in isolation and adding replications
never reshuffles earlier draws.

``wasserstein_exact`` computes the order-1 distance between an empirical
law and a model, w = int_0^1 |q_n(u) - q(u)| du, in closed form: the
model quantile is integrated exactly between the empirical jumps through
E(u) = (1-u) ES_u.  Each block between jumps lies above the model, below
it, or crosses it; over a run of blocks on one side the E terms
telescope, so the model's ES is needed only at run boundaries and
crossings (about a thousand levels for 1e5 Student t draws, not 2n).  The
side of a block follows from the model CDF at its sample point, and since
the CDF is nondecreasing along the sorted sample, it is evaluated only
where the CDF at already evaluated points leaves a block's side open: a
bisection from a coarse grid, about 2-12k points for 1e5 Student t draws,
not n.  It backs the deviation inequalities
|ES_n - ES| <= w/(1-alpha) and |e_n - e| <= alpha w/(1-alpha), which
are theorems and are asserted as such in the tests; ``transport_bounds``
reports both deviations of a sample next to these bounds at one level.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .distributions import Distribution, Sample
from .risk_core import (
    _alpha_grid,
    _select,
    _tail_expectile,
    expected_shortfall,
    expectile,
    value_at_risk,
)

__all__ = [
    "splitmix64",
    "cell_seed",
    "SimulationConfig",
    "RatioTableRow",
    "ratio_table",
    "ratio_table_csv",
    "wasserstein_exact",
    "TransportBounds",
    "transport_bounds",
    "render_csv",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One SplitMix64 step: advance x by the golden-gamma and mix.

    A tiny, well-studied 64-bit avalanche; used here only to fan a master
    seed out into decorrelated per-cell seeds.
    """
    z = (int(x) + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def cell_seed(master: int, alpha_index: int, n_index: int, replication: int = 0) -> int:
    """Deterministic seed for one table cell.

    Chains splitmix64 over (master, alpha_index, n_index, replication) in
    that fixed order; every argument change lands in an unrelated stream.
    """
    s = splitmix64(int(master) & _MASK64)
    for v in (int(alpha_index), int(n_index), int(replication)):
        if v < 0:
            raise ValueError("cell indices must be nonnegative")
        s = splitmix64((s + v + 1) & _MASK64)
    return s


class SimulationConfig(NamedTuple):
    """One table request: grid of levels and sample sizes over a model.

    ``vs`` selects the denominator of the ratio ("es" or "var");
    ``replications`` > 1 replaces each cell by the median over that many
    independent draws (ratios and error percentages take medians
    independently).
    """

    dist: Distribution
    alphas: Tuple[float, ...]
    ns: Tuple[int, ...]
    seed: int
    vs: str = "es"
    replications: int = 1


class RatioTableRow(NamedTuple):
    """One level's worth of table output; tuples follow the ns order."""

    alpha: float
    theoretical: float
    empirical: Tuple[float, ...]
    err_pct: Tuple[float, ...]


def ratio_table(cfg: SimulationConfig) -> list:
    """Theoretical vs empirical ratio rows, sorted by level.

    Each (alpha, n, replication) cell draws its own sample with
    ``cell_seed``; rows come out sorted by alpha no matter the evaluation
    order, with the empirical columns following ``cfg.ns`` as given.

    A cell's empirical ratio is that of ``Sample(draw)`` (``expectile``
    over ``expected_shortfall`` or ``value_at_risk``), read from the raw
    draw without building the ``Sample``: one selection gives VaR_alpha,
    ES_alpha and the expectile's lower bound, and only the draws above the
    bound, about 1.3 (1 - alpha) n of them for heavy tails, are sorted.
    A zero ES or VaR, of the model or a draw, raises ZeroDivisionError, as
    does a zero theoretical ratio, relative to which no error percentage is
    defined.  The levels are expectile levels, all checked before any draw.
    """
    if cfg.vs not in ("es", "var"):
        raise ValueError(f"ratio denominator must be 'es' or 'var', got {cfg.vs!r}")
    alphas = _alpha_grid(cfg.alphas)
    if not cfg.ns:
        raise ValueError("sample-size grid is empty")
    ns = [int(n) for n in cfg.ns]
    reps = int(cfg.replications)
    if reps < 1:
        raise ValueError(f"replications must be >= 1, got {reps}")

    def ratio(num, den, a, whose):
        if den == 0.0:
            raise ZeroDivisionError(f"{cfg.dist.label}: zero {cfg.vs} of {whose} at alpha={a:g}")
        return num / den

    order = sorted(range(len(alphas)), key=lambda i: alphas[i])
    rows = []
    for ia in order:
        a = alphas[ia]
        num = expectile(cfg.dist, a)
        den = expected_shortfall(cfg.dist, a) if cfg.vs == "es" else value_at_risk(cfg.dist, a)
        th = ratio(num, den, a, "the model")
        if th == 0.0:
            raise ZeroDivisionError(f"{cfg.dist.label}: zero theoretical ratio at alpha={a:g}: "
                                    "its error percentages are undefined")
        emp_cols = []
        err_cols = []
        for jn, n in enumerate(ns):
            ratios = np.empty(reps)
            for r in range(reps):
                x = cfg.dist._draw(n, cell_seed(cfg.seed, ia, jn, r))
                sel = _select(x, a)
                e, _ = _tail_expectile(x, a, sel)
                ratios[r] = ratio(e, sel.es if cfg.vs == "es" else sel.q, a,
                                  f"the n={n} draw (replication {r})")
            errs = 100.0 * np.abs(ratios - th) / abs(th)
            emp_cols.append(float(np.median(ratios)))
            err_cols.append(float(np.median(errs)))
        rows.append(RatioTableRow(a, th, tuple(emp_cols), tuple(err_cols)))
    return rows


def _n_label(n: int) -> str:
    if n >= 10:
        exp = int(math.floor(math.log10(n)))
        mant = n / 10 ** exp
        if mant == int(mant):
            m = int(mant)
            return f"{m}e{exp}" if m != 1 else f"1e{exp}"
    return str(n)


def render_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Plain CSV text with 12-significant-digit numeric formatting."""
    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return f"{float(v):.12g}"

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def ratio_table_csv(rows: Sequence[RatioTableRow], ns: Sequence[int]) -> str:
    """CSV with one empirical/error column pair per sample size."""
    header = ["alpha", "theo_ratio"]
    for n in ns:
        lab = _n_label(int(n))
        header += [f"emp_ratio_{lab}", f"err_pct_{lab}"]
    out_rows = []
    for row in rows:
        flat = [row.alpha, row.theoretical]
        for emp, err in zip(row.empirical, row.err_pct):
            flat += [emp, err]
        out_rows.append(flat)
    return render_csv(header, out_rows)


_CDF_GRID = 256


def _block_split(vals: np.ndarray, dist: Distribution, edges: np.ndarray) -> np.ndarray:
    """u* = F(x_(k)) clipped into block k, for every k, from few F values.

    With the values sorted and F nondecreasing, F(x_lo) >= edges[hi + 1]
    puts every block lo..hi above the model (u* = (k+1)/n) and
    F(x_hi) <= edges[lo] puts every one below it (u* = k/n).  F is
    evaluated on a grid of every ``_CDF_GRID``-th index and the last one,
    and then at the midpoints of the index ranges between evaluated points
    that neither test decides, one vectorised ``dist.cdf`` call per
    bisection level, until every range left with an interior is decided:
    those ranges are the gaps between consecutive evaluated points.  A
    block inside one clears its edge by at least 1/n, so u* equals
    ``np.clip(dist.cdf(vals), edges[:-1], edges[1:])`` bit for bit unless
    the computed F falls by 1/n along the sorted values.
    """
    n = vals.size
    idx = np.append(np.arange(0, n - 1, _CDF_GRID), n - 1)
    f = dist.cdf(vals[idx])
    got_idx, got_f = [idx], [f]
    lo, hi, flo, fhi = idx[:-1], idx[1:], f[:-1], f[1:]
    while True:
        open_ = (hi - lo > 1) & (flo < edges[hi + 1]) & (fhi > edges[lo])
        if not open_.any():
            break
        lo, hi, flo, fhi = lo[open_], hi[open_], flo[open_], fhi[open_]
        mid = (lo + hi) // 2
        fmid = dist.cdf(vals[mid])
        got_idx.append(mid)
        got_f.append(fmid)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        flo, fhi = np.concatenate((flo, fmid)), np.concatenate((fmid, fhi))
    got_idx = np.concatenate(got_idx)
    evaluated = np.zeros(n, dtype=bool)
    evaluated[got_idx] = True
    k = np.flatnonzero(evaluated)
    fk = np.empty(n)
    fk[got_idx] = np.concatenate(got_f)
    fk = fk[k]
    # each evaluated point, then the gap after it: above when its left end
    # decides so, else below
    gap_above = np.zeros(2 * k.size - 1, dtype=bool)
    gap_above[1::2] = fk[:-1] >= edges[k[1:] + 1]
    length = np.ones(2 * k.size - 1, dtype=np.int64)
    length[1::2] = np.diff(k) - 1
    ustar = np.where(np.repeat(gap_above, length), edges[1:], edges[:-1])
    ustar[k] = np.clip(fk, edges[k], edges[k + 1])
    return ustar


def wasserstein_exact(s: Sample, dist: Distribution) -> float:
    """Exact order-1 distance between an empirical law and a model.

    On each block (a, b] = ((i-1)/n, i/n] the empirical quantile is the
    constant x = x_(i).  With E(u) = (1-u) ES_u = int_u^1 q(v) dv and
    E(1) = 0, |x - q(u)| integrates over the block to
    x (2u* - a - b) - E(a) + 2 E(u*) - E(b), split at u* = F(x) clamped
    into the block.  The block lies *above* the model when F(x) >= b
    (u* = b), *below* it when F(x) <= a (u* = a), and *crosses* it
    otherwise.  Over a run of blocks on one side the E terms telescope,
    so E is needed only at run boundaries, at the edges of crossing
    blocks and at their u*: one vectorised ES call on those few levels.
    F(x) itself is evaluated only where monotonicity along the sorted
    sample does not already decide a block's side (``_block_split``);
    every block it infers gets the u* clamping would give it, so the sum
    is that of evaluating F at every sample point, bit for bit.
    """
    vals = s.values
    n = len(vals)
    edges = np.arange(n + 1) / n
    ustar = _block_split(vals, dist, edges)
    # u* sits on the right edge exactly when F(x) >= b, on the left when
    # F(x) <= a
    above = ustar >= edges[1:]
    below = ustar <= edges[:-1]
    # weight of E(k/n) in the sum of the block areas: -1 from each
    # neighbouring block, +2 from a neighbour whose u* sits on that edge;
    # it is 0 between two blocks on the same side and at E(1) = 0
    edge_weight = np.full(n + 1, -2)
    edge_weight[0] = -1
    edge_weight[1:] += 2 * above
    edge_weight[:-1] += 2 * below
    k = np.flatnonzero(edge_weight[:-1])
    cross = ~(above | below)
    levels = np.concatenate((edges[k], ustar[cross]))
    weight = np.concatenate((edge_weight[k], np.full(np.count_nonzero(cross), 2)))
    big_e = (1.0 - levels) * dist.es(levels)
    # the weighted E terms are O(mean) each and cancel down to O(w):
    # summed exactly, they lose nothing to their count
    total = math.fsum((weight * big_e).tolist()) + float(
        np.sum(vals * (2.0 * ustar - edges[:-1] - edges[1:]))
    )
    return max(total, 0.0)


class TransportBounds(NamedTuple):
    """W1 to the model, |ES_n - ES| <= w1/(1-alpha), |e_n - e| <= alpha w1/(1-alpha)."""

    w1: float
    es_deviation: float
    es_bound: float
    expectile_deviation: float
    expectile_bound: float


def transport_bounds(sample: Sample, dist: Distribution, alpha: float) -> TransportBounds:
    """``wasserstein_exact`` with the ES and expectile deviations at alpha and their bounds."""
    w = wasserstein_exact(sample, dist)
    return TransportBounds(
        w1=w,
        es_deviation=abs(expected_shortfall(sample, alpha) - expected_shortfall(dist, alpha)),
        es_bound=w / (1.0 - alpha),
        expectile_deviation=abs(expectile(sample, alpha) - expectile(dist, alpha)),
        expectile_bound=alpha * w / (1.0 - alpha),
    )
