"""Tail expansions by extreme-value class, against exact values.

Heavy (Frechet-type) tails admit a polynomial expansion of the centered
expectile/ES ratio; bounded (Weibull-type) supports expand the
endpoint-gap ratio; light (Gumbel-type) tails only separate into
equivalence vs log-equivalence.  Also fits the tail index from data and
plugs it into the extreme-expectile estimator.
"""

from tailrisk.asymptotics import (
    exact_ratio,
    expansion_curve,
    extreme_expectile_estimate,
    frechet_first_order_constant,
    hill_estimator,
    ratio_expansion,
)
from tailrisk.distributions import Exponential, Pareto, PowerBeta, StudentT
from tailrisk.risk_core import expectile


def main():
    print("centered expectile/ES for pareto:a=2.1 (exact vs expansions)")
    rows = expansion_curve(Pareto(2.1), (0.95, 0.99, 0.999, 0.9999))
    print(f"{'alpha':>8} {'exact':>10} {'first':>10} {'second':>10}")
    for alpha, exact, first, second in rows:
        print(f"{alpha:>8g} {exact:>10.6f} {first:>10.6f} {second:>10.6f}")
    print(f"limit constant: {frechet_first_order_constant(2.1):.6f}")

    print()
    print("endpoint-gap ratio (1-e)/(1-ES) for the power law on [0, 1], a=1.1")
    rows = expansion_curve(PowerBeta(1.1), (0.95, 0.99, 0.999))
    for alpha, exact, first, second in rows:
        print(f"{alpha:>8g} {exact:>10.4f} {first:>10.4f} {second:>10.4f}")

    print()
    d = StudentT(2.3)
    r2 = ratio_expansion(d, 0.999, order=2)
    exact = exact_ratio(d, 0.999)
    print(f"{d.label} at alpha=0.999: second order {r2.value:.6f}, exact {exact:.6f}")

    print()
    print("light tails have no polynomial rate; the exponential satisfies the")
    print("second-order condition, so expectile and ES are",
          Exponential().mda().relation, "as alpha -> 1")

    print()
    s = Pareto(2.1).sample(100_000, seed=3)
    eta_hat = hill_estimator(s)
    est = extreme_expectile_estimate(s, 0.999)
    true = expectile(Pareto(2.1), 0.999)
    print(f"hill tail index from n=1e5 draws: {eta_hat:.4f} (true 2.1)")
    print(f"plug-in extreme expectile at 0.999: {est:.4f} (exact {true:.4f})")


if __name__ == "__main__":
    main()
