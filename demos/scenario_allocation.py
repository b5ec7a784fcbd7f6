"""Euler risk contributions on a scenario matrix.

Expectile contributions are conditional-expectation weights from the
first-order condition and add up to the portfolio expectile exactly; ES
contributions average each component over the portfolio's tail, the
scenario at the quantile with its fractional weight, and add up to the
portfolio ES.
For independent heavy-tailed components, the contribution ratios
approach a constant that depends only on the tail index.
"""

import numpy as np

from tailrisk.allocation import (
    Portfolio,
    es_euler,
    euler_asymptotic_ratio,
    expectile_euler,
)
from tailrisk.distributions import Pareto, Sample
from tailrisk.risk_core import expected_shortfall, expectile


def main():
    rng = np.random.default_rng(7)
    # three desks: lognormal book, a thin-tailed hedge, a heavy-tailed book
    n = 5000
    x = np.column_stack([
        rng.lognormal(0.0, 0.6, n),
        rng.normal(0.0, 0.4, n),
        Pareto(2.5).quantile(np.maximum(rng.random(n), 2.0 ** -53)),
    ])
    p = Portfolio(x)
    alpha = 0.95

    contrib = expectile_euler(p, alpha)
    total = expectile(Sample(p.total), alpha)
    print(f"expectile contributions at alpha={alpha} over {p.n} scenarios:")
    for k, c in enumerate(contrib):
        print(f"  component {k + 1}: {c:9.4f}")
    print(f"  sum {contrib.sum():.6f} = portfolio expectile {total:.6f}")

    es_c = es_euler(p, alpha)
    print(f"es contributions: {np.round(es_c, 4)}")
    print(f"  sum {es_c.sum():.6f} = portfolio es {expected_shortfall(Sample(p.total), alpha):.6f}")

    print()
    print("independent pareto components, contribution ratio e/es per desk:")
    u = np.maximum(rng.random((200_000, 3)), 2.0 ** -53)
    iid = Portfolio(Pareto(2.1).quantile(u))
    for row in euler_asymptotic_ratio(iid, 2.1, [0.99, 0.999]):
        print(f"  alpha={row.alpha}: {np.round(row.ratios, 4)} -> constant {row.constant:.4f}")


if __name__ == "__main__":
    main()
