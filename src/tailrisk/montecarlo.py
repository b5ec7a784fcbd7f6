"""Simulation tables, Wasserstein distances, and figure data series.

The ratio tables compare theoretical expectile/ES and expectile/VaR
ratios against their empirical counterparts on freshly drawn samples,
one draw per (alpha, n) cell.  Empirical error percentages depend on the
draw by nature; theoretical columns never do.  Cell seeds are derived
from the master seed by a documented SplitMix64 chain so any cell can be
reproduced in isolation and adding replications never reshuffles earlier
draws.

The Wasserstein helpers compute the order-1 distance between an
empirical law and a model, w = int_0^1 |q_n(u) - q(u)| du, both by
quadrature (uniform grid plus geometric tail refinement) and exactly
(piecewise integration of the model quantile between the empirical
jumps).  The exact form backs the deviation inequalities
|ES_n - ES| <= w/(1-alpha) and |e_n - e| <= alpha w/(1-alpha), which are
theorems and are asserted as such in the tests.

Figure series emit exact/first-order/second-order curve data as CSV-able
rows so anyone can replot the asymptotic-accuracy pictures.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

from . import risk_core
from .asymptotics import exact_ratio, ratio_expansion
from .distributions import Distribution, PowerBeta, Pareto, Sample, StudentT
from .risk_core import distortion_curves, expected_shortfall, expectile, value_at_risk

__all__ = [
    "splitmix64",
    "cell_seed",
    "SimulationConfig",
    "RatioTableRow",
    "ratio_table",
    "ratio_table_csv",
    "wasserstein_exact",
    "wasserstein_empirical",
    "figure_series",
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


def _empirical_ratio(s: Sample, alpha: float, vs: str) -> float:
    num = expectile(s, alpha)
    den = expected_shortfall(s, alpha) if vs == "es" else value_at_risk(s, alpha)
    return num / den


def ratio_table(cfg: SimulationConfig) -> list:
    """Theoretical vs empirical ratio rows, sorted by level.

    Each (alpha, n, replication) cell draws its own sample with
    ``cell_seed``; rows come out sorted by alpha no matter the evaluation
    order, with the empirical columns following ``cfg.ns`` as given.
    """
    if cfg.vs not in ("es", "var"):
        raise ValueError(f"ratio denominator must be 'es' or 'var', got {cfg.vs!r}")
    if not cfg.alphas:
        raise ValueError("alpha grid is empty")
    if not cfg.ns:
        raise ValueError("sample-size grid is empty")
    alphas = [float(a) for a in cfg.alphas]
    for a in alphas:
        if not (0.5 <= a < 1.0):
            raise ValueError(f"table level alpha must lie in [0.5, 1), got {a}")
    ns = [int(n) for n in cfg.ns]
    for n in ns:
        if n < 1:
            raise ValueError(f"sample size must be >= 1, got {n}")
    reps = int(cfg.replications)
    if reps < 1:
        raise ValueError(f"replications must be >= 1, got {reps}")

    order = sorted(range(len(alphas)), key=lambda i: alphas[i])
    rows = []
    for ia in order:
        a = alphas[ia]
        num = expectile(cfg.dist, a)
        den = (
            expected_shortfall(cfg.dist, a)
            if cfg.vs == "es"
            else value_at_risk(cfg.dist, a)
        )
        th = num / den
        emp_cols = []
        err_cols = []
        for jn, n in enumerate(ns):
            ratios = np.empty(reps)
            for r in range(reps):
                s = cfg.dist.sample(n, seed=cell_seed(cfg.seed, ia, jn, r))
                ratios[r] = _empirical_ratio(s, a, cfg.vs)
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


def wasserstein_exact(s: Sample, dist: Distribution) -> float:
    """Exact order-1 distance between an empirical law and a model.

    On each block ((i-1)/n, i/n] the empirical quantile is the constant
    x_(i), and |x_(i) - q(u)| integrates in closed form by splitting at
    u* = F(x_(i)) (clamped into the block) and using
    int_a^b q(u) du = (1-a) ES_a - (1-b) ES_b.
    """
    vals = s.values
    n = len(vals)
    edges = np.arange(n + 1) / n
    big_e = np.zeros(n + 1)
    big_e[:-1] = (1.0 - edges[:-1]) * dist.es(edges[:-1])
    ustar = np.clip(dist.cdf(vals), edges[:-1], edges[1:])
    estar = np.zeros(n)
    interior = ustar < 1.0
    if interior.any():
        estar[interior] = (1.0 - ustar[interior]) * dist.es(ustar[interior])
    area = (
        vals * (2.0 * ustar - edges[:-1] - edges[1:])
        - big_e[:-1]
        + 2.0 * estar
        - big_e[1:]
    )
    total = float(np.sum(area))
    return max(total, 0.0)


_TAIL_FLOOR = 1.2e-13  # keeps 1 - u strictly below 1 in floats
_TAIL_RATIO = 2.0 ** 0.25  # quarter-octave spacing in the tails


def wasserstein_empirical(
    s: Sample,
    dist: Distribution,
    grid: int = 2000,
    full_output: bool = False,
) -> Union[float, Tuple[float, float]]:
    """Quadrature estimate of the order-1 distance.

    Trapezoid rule on a uniform u-grid, augmented by geometric
    (quarter-octave) refinement in both tails from the uniform node
    spacing down to ~1.2e-13, so the regularly-varying blow-up of heavy-
    tail quantiles never spans a single wide panel.  ``full_output`` adds
    an error estimate combining the resolution difference against a
    half-density grid with closed-form bounds on the truncated tail mass.
    """
    grid = int(grid)
    if grid < 100:
        raise ValueError(f"quadrature grid must have at least 100 points, got {grid}")
    h = 1.0 / (grid + 1)
    steps = int(math.ceil(math.log(h / _TAIL_FLOOR) / math.log(_TAIL_RATIO)))
    tail = h * _TAIL_RATIO ** -np.arange(1.0, steps + 1.0)
    u = np.concatenate([tail[::-1], np.linspace(h, 1.0 - h, grid), 1.0 - tail])
    g = np.abs(s.quantile(u) - dist.quantile(u))
    value = float(_trapezoid(g, u))
    if not full_output:
        return value
    coarse = float(_trapezoid(g[::2], u[::2]))
    resolution = abs(value - coarse)
    u_lo = float(u[0])
    u_hi = float(u[-1])
    mu = dist.mean()
    lower_model = abs(mu - (1.0 - u_lo) * dist.es(u_lo))
    upper_model = abs((1.0 - u_hi) * dist.es(u_hi))
    truncation = (
        lower_model
        + u_lo * abs(s.min())
        + upper_model
        + (1.0 - u_hi) * abs(s.max())
    )
    return value, resolution + truncation


def _alpha_grid(alphas: Sequence[float]) -> list:
    out = [float(a) for a in alphas]
    if not out:
        raise ValueError("alpha grid is empty")
    for a in out:
        if not (0.5 <= a < 1.0):
            raise ValueError(f"figure level alpha must lie in [0.5, 1), got {a}")
    return out


def figure_series(kind: str, **params):
    """Data series behind the figures, as (header, rows).

    Kinds:

    - ``distortion`` (alpha=0.94, points=201): the expectile distortion
      phi and the optimal ES/mean mixture distortion on a t-grid;
    - ``weibull-beta`` (a, alphas): exact (1 - e_alpha)/(1 - ES_alpha)
      for the power law on [0, 1] next to the reciprocal first- and
      second-order gap-ratio expansions;
    - ``frechet-pareto`` (a, alphas): exact e/ES of the *centered* Pareto
      next to its expansions;
    - ``frechet-student`` (nu, alphas): exact e/ES of the Student t
      (already mean-zero) next to its expansions.
    """
    if kind == "distortion":
        alpha = float(params.pop("alpha", 0.94))
        points = int(params.pop("points", 201))
        if params:
            raise ValueError(f"unexpected parameters for kind 'distortion': {sorted(params)}")
        if points < 2:
            raise ValueError(f"need at least 2 grid points, got {points}")
        if not (0.5 < alpha < 1.0):
            raise ValueError(f"distortion level alpha must lie in (0.5, 1), got {alpha}")
        t, phi, mix = distortion_curves(alpha, points)
        return ["t", "phi", "phi_mix"], list(zip(t, phi, mix))

    if kind in ("weibull-beta", "frechet-pareto", "frechet-student"):
        if kind == "frechet-student":
            dist = StudentT(float(params.pop("nu")))
        else:
            dist = (PowerBeta if kind == "weibull-beta" else Pareto)(float(params.pop("a")))
        alphas = _alpha_grid(params.pop("alphas"))
        if params:
            raise ValueError(f"unexpected parameters for kind {kind!r}: {sorted(params)}")
        rows = []
        for al in alphas:
            values = [exact_ratio(dist, al), ratio_expansion(dist, al, order=1).value,
                      ratio_expansion(dist, al, order=2).value]
            if kind == "weibull-beta":
                values = [1.0 / v for v in values]
            rows.append((al, *values))
        return ["alpha", "exact", "first_order", "second_order"], rows

    raise ValueError(
        f"unknown figure kind {kind!r}: expected distortion, weibull-beta, "
        "frechet-pareto, or frechet-student"
    )
