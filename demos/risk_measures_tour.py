"""Tour of the point risk measures and the expectile/ES relationship.

Evaluates VaR, ES and the expectile across the built-in families, then
shows the two facts that tie the expectile to ES: the two-sided bound
chain, and the tail level beta* at which a mixture of ES and the mean
reproduces the expectile exactly.
"""

from tailrisk.distributions import Pareto, TwoPoint, parse_distribution
from tailrisk.risk_core import (
    beta_star,
    expectile,
    expectile_bounds,
    expectile_from_es,
    expected_shortfall,
    value_at_risk,
)


def main():
    alpha = 0.99
    print(f"point measures at alpha = {alpha}")
    print(f"{'distribution':<16} {'var':>10} {'es':>10} {'expectile':>10}")
    for text in ("exp", "pareto:a=2.1", "student:nu=2.3", "power:a=2", "uniform"):
        d = parse_distribution(text)
        print(f"{d.label:<16} {value_at_risk(d, alpha):>10.4f} "
              f"{expected_shortfall(d, alpha):>10.4f} {expectile(d, alpha):>10.4f}")

    print()
    d = Pareto(2.1)
    b = expectile_bounds(d, alpha, alpha)
    e = expectile(d, alpha)
    print(f"bound chain for {d.label}:")
    print(f"  lower {b.lower:.4f} <= expectile {e:.4f} <= upper {b.upper:.4f}"
          f" (es cap {b.es_cap:.4f})")

    bs = beta_star(d, alpha)
    recon = expectile_from_es(d, alpha, bs.point)
    print(f"  beta* = {bs.point:.6f}: mixing es at that level with the mean"
          f" gives {recon:.6f}")

    print()
    tp = TwoPoint(0.0, 1.0, 0.5)
    print("atomic example, a fair 0/1 coin flip at alpha = 0.9:")
    print(f"  expectile            = {expectile(tp, 0.9):.6f}")
    print(f"  es at level 4/9      = {expected_shortfall(tp, 4.0 / 9.0):.6f}")
    bs = beta_star(tp, 0.9)
    print(f"  beta* interval       = [{bs.lower:.4f}, {bs.upper:.4f}]"
          " (atoms widen the point to an interval)")
    b = expectile_bounds(tp, 0.9, 0.9)
    print(f"  upper bound 17/18    = {b.upper:.6f} (strictly above the expectile)")


if __name__ == "__main__":
    main()
