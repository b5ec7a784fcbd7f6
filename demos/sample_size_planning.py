"""How many scenarios does a target accuracy cost?

Plans i.i.d. sample sizes for VaR, ES, and the expectile at a common
accuracy eps, an absolute deviation in loss units, and a common
confidence budget, for losses in each moment class.  Two observations
worth carrying away: the expectile always needs fewer draws than ES at
the same level (its deviation threshold is larger by the factor
1/alpha), and for exponential-moment losses the requirement barely moves
with alpha while for polynomial-moment losses it blows up as alpha -> 1.
"""

from tailrisk.concentration import (
    deviation_bound,
    parse_tail_class,
    sample_size,
    size_ratio_curve,
    var_sample_size,
)
from tailrisk.distributions import parse_distribution


def main():
    gamma, eps, alpha = 0.05, 0.1, 0.99

    print(f"planning at alpha={alpha}, accuracy eps={eps}, budget gamma={gamma}")
    print()
    for spec in ("exp:k=2,r=1", "subexp:k=0.5,r=1,s=0.3", "poly:q=3,s=2.5"):
        tc = parse_tail_class(spec)
        n_es = sample_size(tc, gamma, eps, alpha, "es")
        n_e = sample_size(tc, gamma, eps, alpha, "expectile")
        print(f"{spec!r}")
        print(f"  {tc!r}")
        print(f"  n_es = {n_es:>12,}   n_expectile = {n_e:>12,}"
              f"   (expectile/es = {n_e / n_es:.4f})")
        bound = deviation_bound(tc, n_es, eps, alpha, "es")
        print(f"  bound at the returned n: {bound:.4f} (budget gamma={gamma})")
    print()
    print(f"the expectile/es size ratio is alpha^2 = {alpha ** 2:.4f} on the")
    print("exponential and polynomial branches; the stretched-exponential")
    print("rate s changes it to alpha^(2/s)")
    print()

    n_var = var_sample_size(1.0, gamma, eps)
    print(f"VaR with density bound delta_alpha=1: n_var = {n_var:,}")
    print(f"  halving the density bound: {var_sample_size(0.5, gamma, eps):,} (x4)")
    print()

    print("Pareto(a=2.1) under poly:q=2.05,s=2.01 - the es/var ratio collapses")
    print("as alpha -> 1 because the density below the far quantile shrinks")
    print("much faster than the polynomial bound grows:")
    dist = parse_distribution("pareto:a=2.1")
    tc = parse_tail_class("poly:q=2.05,s=2.01")
    rows = size_ratio_curve(dist, tc, gamma, eps, [0.95, 0.99, 0.999, 0.9999])
    print(f"  {'alpha':>7} {'n_var':>14} {'n_es':>14} {'n_e':>14} {'es/var':>10}")
    for r in rows:
        print(f"  {r.alpha:>7g} {r.n_var:>14,} {r.n_es:>14,} "
              f"{r.n_expectile:>14,} {r.ratio_es_var:>10.4g}")


if __name__ == "__main__":
    main()
