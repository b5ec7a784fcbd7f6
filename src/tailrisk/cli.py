"""Command-line front end.

One subcommand per capability: point risk evaluation, expectile/ES
bounds and the matching tail level, scenario allocations, tail
expansions, sample-size planning, simulation ratio tables, figure data,
and Wasserstein diagnostics.  Human summaries print at 4 decimals; CSV
output carries 12 significant digits.  Exit codes: 0 on success, 2 for
invalid inputs, 1 for computation failures.

The argument parser is built once per process, on the first ``main``
call, so ``main(argv)`` may be called repeatedly in one process (the
tests and ``bench/`` do this) and each call prints what a fresh process
would; importing the module builds nothing.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

import numpy as np

from .allocation import Portfolio, es_euler, expectile_euler
from .asymptotics import (
    ExpansionCurveRow,
    NoSecondOrder,
    beta_star_expansion,
    exact_beta_star_ratio,
    exact_ratio,
    expansion_curve,
    ratio_expansion,
)
from .concentration import (
    SampleSizeReport,
    density_bound,
    parse_tail_class,
    sample_size_report,
    size_ratio_curve,
)
from .distributions import parse_distribution
from .montecarlo import (
    SimulationConfig,
    ratio_table,
    ratio_table_csv,
    render_csv,
    transport_bounds,
)
from .risk_core import (
    _check_expectile_level,
    beta_star,
    distortion_curves,
    expected_shortfall,
    expectile,
    expectile_bounds,
    expectile_from_es,
    value_at_risk,
)


class _ValidationError(Exception):
    """Bad input: reported with exit code 2."""


# the spec flags, each with the parser of its text
_SPECS = {"dist": parse_distribution, "tail": parse_tail_class}


def _spec(args, flag: str):
    try:
        return _SPECS[flag](getattr(args, flag))
    except ValueError as exc:
        raise _ValidationError(f"--{flag}: {exc}") from None


def _level(value: float, flag: str = "alpha") -> float:
    value = float(value)
    if not (0.0 < value < 1.0):
        raise _ValidationError(f"--{flag}: must lie in (0, 1), got {value:g}")
    return value


def _expectile_level(value: float, flag: str = "alpha") -> float:
    try:
        return _check_expectile_level(value)
    except ValueError as exc:
        raise _ValidationError(f"--{flag}: {exc}") from None


def _float_list(text: str, flag: str) -> list:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(float(tok))
        except ValueError:
            raise _ValidationError(f"--{flag}: non-numeric entry {tok!r}") from None
    if not out:
        raise _ValidationError(f"--{flag}: empty list")
    return out


def _int_list(text: str, flag: str) -> list:
    out = []
    for v in _float_list(text, flag):
        n = int(v)
        if n != v or n < 1:
            raise _ValidationError(f"--{flag}: entries must be positive integers, got {v:g}")
        out.append(n)
    return out


def _beta_star_text(dist, alpha: float, bs) -> str:
    return (
        f"expectile[{dist.label}] alpha={alpha:g} = {bs.expectile:.4f}\n"
        f"beta* interval [{bs.lower:.4f}, {bs.upper:.4f}], point {bs.point:.4f}\n"
    )


def _cmd_risk(args) -> str:
    dist = _spec(args, "dist")
    if args.measure == "expectile":
        alpha = _expectile_level(args.alpha)
        return _beta_star_text(dist, alpha, beta_star(dist, alpha))
    alpha = _level(args.alpha)
    if args.measure == "es":
        value = expected_shortfall(dist, alpha, check=args.check)
    else:
        value = value_at_risk(dist, alpha)
    return f"{args.measure}[{dist.label}] alpha={alpha:g} = {value:.4f}\n"


def _cmd_beta_star(args) -> str:
    dist = _spec(args, "dist")
    alpha = _expectile_level(args.alpha)
    bs = beta_star(dist, alpha)
    recon = expectile_from_es(dist, alpha, bs.point)
    return _beta_star_text(dist, alpha, bs) + f"reconstruction at point = {recon:.4f}\n"


def _cmd_bounds(args) -> str:
    dist = _spec(args, "dist")
    alpha = _expectile_level(args.alpha)
    beta = _level(args.beta if args.beta is not None else alpha, flag="beta")
    b = expectile_bounds(dist, alpha, beta)
    e = expectile(dist, alpha)
    return (
        f"lower(beta={beta:g})  = {b.lower:.4f}\n"
        f"expectile          = {e:.4f}\n"
        f"upper              = {b.upper:.4f}\n"
        f"es_cap             = {b.es_cap:.4f}\n"
    )


def _cmd_allocate(args) -> str:
    try:
        p = Portfolio.from_csv(args.csv)
    except (OSError, ValueError) as exc:
        raise _ValidationError(f"--csv: {exc}") from None
    if args.measure == "expectile":
        alpha = _expectile_level(args.alpha)
        contrib, total = expectile_euler(p, alpha, check=not args.no_check, full_output=True)
    else:
        alpha = _level(args.alpha)
        contrib, total = es_euler(p, alpha, full_output=True)
    if args.out:
        rows = [(k + 1, c) for k, c in enumerate(contrib)]
        return render_csv(["component", "contribution"], rows)
    lines = [f"{args.measure} contributions at alpha={alpha:g} over {p.n} scenarios:"]
    for k, c in enumerate(contrib):
        lines.append(f"  component {k + 1}: {c:.4f}")
    lines.append(f"  sum = {contrib.sum():.4f} (portfolio {args.measure} = {total:.4f})")
    return "\n".join(lines) + "\n"


def _cmd_asympt(args) -> str:
    dist = _spec(args, "dist")
    alpha = _expectile_level(args.alpha)
    try:
        cls = dist.mda()
    except ValueError:
        raise _ValidationError(f"--dist: {dist.label} has no tail classification") from None
    if cls.mda == "gumbel":
        return (
            f"{dist.label}: light (Gumbel-type) tail; expectile and ES are "
            f"{cls.relation} as alpha -> 1 (no polynomial expansion)\n"
        )
    # besides a missing second-order term, a ValueError from the expansions
    # comes from the law's parameters, e.g. a tail index so large that the
    # law is degenerate in double precision
    try:
        if args.target == "ratio":
            res = ratio_expansion(dist, alpha, order=args.order)
            exact = exact_ratio(dist, alpha)
            target = ("centered expectile/ES ratio" if cls.mda == "frechet"
                      else "endpoint gap ratio (xhat-ES)/(xhat-e)")
        else:
            res = beta_star_expansion(dist, alpha, order=args.order)
            exact = exact_beta_star_ratio(dist, alpha)
            target = "level ratio (1-beta*)/(1-alpha)"
    except NoSecondOrder:
        raise _ValidationError(
            f"--order: {dist.label} has no second-order tail parametrization; use --order 1"
        ) from None
    except ValueError as exc:
        raise _ValidationError(f"--dist: {exc}") from None
    lines = [f"{dist.label}: {cls.mda}-type tail", f"target: {target} at alpha={alpha:g}"]
    # the Weibull level ratio is known to leading order only
    if args.target == "beta-star" and cls.mda == "weibull":
        lines.append(f"leading-order value {res.value:.4f}")
    else:
        lines.append(
            f"order {res.order}: leading {res.leading:.4f}, correction {res.correction:.4f},"
            f" value {res.value:.4f}"
        )
    lines.append(f"exact {exact:.4f}, |error| {abs(res.value - exact):.2e}")
    return "\n".join(lines) + "\n"


def _cmd_sample_size(args) -> str:
    tc = _spec(args, "tail")
    gamma = _level(args.gamma, flag="gamma")
    eps = float(args.eps)
    if eps <= 0:
        raise _ValidationError(f"--eps: must be positive, got {eps:g}")
    dist = _spec(args, "dist") if args.dist else None
    try:
        if args.alphas:
            if dist is None:
                raise _ValidationError("--alphas: a level grid needs --dist for the density bound")
            alphas = [_level(a, flag="alphas") for a in _float_list(args.alphas, "alphas")]
            rows = size_ratio_curve(dist, tc, gamma, eps, alphas, delta_offset=args.delta_offset)
            return render_csv(SampleSizeReport._fields, rows)
        alpha = _level(args.alpha if args.alpha is not None else 0.95)
        if args.delta_alpha is not None:
            delta, delta_note = float(args.delta_alpha), "given"
            if delta <= 0:
                raise _ValidationError(f"--delta-alpha: must be positive, got {delta:g}")
        elif dist is not None:
            delta = density_bound(dist, alpha, args.delta_offset)
            delta_note = f"{dist.label} density at q+{args.delta_offset:g}"
        else:
            delta, delta_note = 1.0, "default"
        r = sample_size_report(tc, gamma, eps, alpha, delta)
    except ValueError as exc:
        raise _ValidationError(str(exc)) from None
    return (
        f"alpha={r.alpha:g} eps={r.eps:g} gamma={r.gamma:g} (constants C={r.C:g}, c={r.c:g})\n"
        f"n_var       = {r.n_var}   (delta_alpha={r.delta_alpha:g}, {delta_note})\n"
        f"n_es        = {r.n_es}\n"
        f"n_expectile = {r.n_expectile}\n"
        f"n_es/n_var  = {r.ratio_es_var:.4f}\n"
        f"n_expectile/n_var = {r.ratio_expectile_var:.4f}\n"
    )


def _cmd_table(args) -> str:
    dist = _spec(args, "dist")
    alphas = tuple(_expectile_level(a, flag="alphas") for a in _float_list(args.alphas, "alphas"))
    ns = tuple(_int_list(args.ns, "ns"))
    cfg = SimulationConfig(dist, alphas, ns, args.seed, args.vs, args.replications)
    try:
        rows = ratio_table(cfg)
    except ValueError as exc:
        raise _ValidationError(str(exc)) from None
    return ratio_table_csv(rows, ns)


def _cmd_figure(args) -> str:
    if args.points < 2:
        raise _ValidationError(f"--points: need at least 2, got {args.points}")
    if args.kind == "distortion":
        alpha = _expectile_level(args.alpha)
        t, phi, mix = distortion_curves(alpha, args.points)
        return render_csv(["t", "phi", "phi_mix"], list(zip(t, phi, mix)))
    lo = _expectile_level(args.alpha_min, flag="alpha-min")
    hi = _expectile_level(args.alpha_max, flag="alpha-max")
    if not (lo < hi):
        raise _ValidationError(f"--alpha-min: {lo:g} must be below --alpha-max {hi:g}")
    if args.dist is None:
        raise _ValidationError(f"--dist: required for kind {args.kind}")
    dist = _spec(args, "dist")
    try:
        rows = expansion_curve(dist, np.linspace(lo, hi, args.points))
    except NoSecondOrder:
        raise _ValidationError(
            f"--dist: {dist.label} has no second-order tail parametrization") from None
    except ValueError as exc:
        raise _ValidationError(f"--dist: {exc}") from None
    return render_csv(ExpansionCurveRow._fields, rows)


def _cmd_wasserstein(args) -> str:
    dist = _spec(args, "dist")
    n = int(args.n)
    if n < 1:
        raise _ValidationError(f"--n: must be >= 1, got {n}")
    if args.seed < 0:
        raise _ValidationError(f"--seed: must be >= 0, got {args.seed}")
    alpha = _expectile_level(args.alpha)
    b = transport_bounds(dist.sample(n, seed=args.seed), dist, alpha)
    return (
        f"w(sample n={n}, {dist.label}) exact = {b.w1:.6g}\n"
        f"es deviation at alpha={alpha:g}: {b.es_deviation:.6g} <= bound {b.es_bound:.6g}\n"
        f"expectile deviation at alpha={alpha:g}: {b.expectile_deviation:.6g}"
        f" <= bound {b.expectile_bound:.6g}\n"
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailrisk",
        description="Expectile, expected shortfall and value-at-risk toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("risk", help="evaluate one risk measure for a model")
    p.add_argument("--dist", required=True, help="family:k=v,... e.g. pareto:a=2.1")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--measure", choices=("expectile", "es", "var"), default="expectile")
    p.add_argument("--check", action="store_true", help="cross-check ES against quadrature")
    p.set_defaults(func=_cmd_risk)

    p = sub.add_parser("beta-star", help="tail level where an ES/mean mix equals the expectile")
    p.add_argument("--dist", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.set_defaults(func=_cmd_beta_star)

    p = sub.add_parser("bounds", help="expectile bounds from ES at another level")
    p.add_argument("--dist", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=None, help="ES level for the lower bound (default alpha)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("allocate", help="Euler contributions from a scenario CSV")
    p.add_argument("--csv", required=True, help="scenario file: one row per scenario")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--measure", choices=("expectile", "es"), default="expectile")
    p.add_argument("--no-check", action="store_true",
                   help="skip the full-allocation cross-check")
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("asympt", help="tail expansion vs the exact value")
    p.add_argument("--dist", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--order", type=int, choices=(1, 2), default=2)
    p.add_argument("--target", choices=("ratio", "beta-star"), default="ratio")
    p.set_defaults(func=_cmd_asympt)

    p = sub.add_parser("sample-size", help="planning sizes from concentration bounds")
    p.add_argument("--tail", required=True, help="moment class, e.g. poly:q=3,s=2.5")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alphas", default=None, help="comma list: emit a CSV grid (needs --dist)")
    p.add_argument("--dist", default=None, help="model for the density bound delta_alpha")
    p.add_argument("--delta-alpha", type=float, default=None, help="explicit density lower bound")
    p.add_argument("--delta-offset", type=float, default=1.0)
    p.set_defaults(func=_cmd_sample_size)

    p = sub.add_parser("table", help="theoretical vs empirical ratio table (CSV)")
    p.add_argument("--dist", required=True)
    p.add_argument("--alphas", required=True, help="comma list of levels")
    p.add_argument("--ns", required=True, help="comma list of sample sizes, e.g. 1e6,5e5,1e5")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--vs", choices=("es", "var"), default="es")
    p.add_argument("--replications", type=int, default=1)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("figure", help="exact/first/second-order curve data (CSV)")
    p.add_argument("--kind", required=True, choices=("distortion", "expansion"))
    p.add_argument("--alpha", type=float, default=0.94, help="distortion level (kind=distortion)")
    p.add_argument("--dist", default=None, help="model of the tail expansion (kind=expansion)")
    p.add_argument("--alpha-min", type=float, default=0.95)
    p.add_argument("--alpha-max", type=float, default=0.9999)
    p.add_argument("--points", type=int, default=100)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("wasserstein", help="distance of a generated sample to its model")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.99)
    p.set_defaults(func=_cmd_wasserstein)

    for sp in sub.choices.values():
        sp.add_argument("--out", default=None, help="write output to this file instead of stdout")
    return parser


def main(argv: Optional[list] = None) -> int:
    """Run one ``tailrisk`` command line and return its exit code.

    ``argv`` defaults to ``sys.argv[1:]``.  The parser is built on the
    first call and reused after it; parsing keeps no state on it, so
    repeated calls in one process behave like separate processes.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        text = args.func(args)
    except _ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError, AssertionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: --out: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
