"""Correlation entropies of an equilibrium state, two ways.

The formula side is -T(q)/(q-1); the direct side is the growth rate of
the sums of q-th powers of cylinder measures (on a shift space the
dynamical balls of small radius are exactly the cylinders), the Perron
root of the entrywise q-th power of the measure's transition matrix.
"""

import math

import numpy as np

from ergopress import (
    Potential,
    correlation_entropy,
    equilibrium_markov,
    local_entropy_check,
    make_full_shift,
)


def main():
    full2 = make_full_shift(2)
    phi = Potential.depth_one(full2, [0.0, math.log(2)])
    grid = np.round(np.concatenate([np.arange(-1.0, 0.999, 0.25),
                                    np.arange(1.25, 3.1, 0.25)]), 10)
    ce = correlation_entropy(full2, phi, grid)

    print("Correlation entropies, equilibrium of (0, log 2) "
          "(the (1/3, 2/3) Bernoulli measure):")
    print("  q      formula    direct")
    for q, f, d in zip(ce.q_grid, ce.formula_values, ce.direct_values):
        print(f"  {q:+5.2f}  {f:9.6f}  {d:9.6f}")
    print(f"  largest mismatch: {ce.max_mismatch():.2e}")

    mu = equilibrium_markov(full2, phi)
    print(f"\n  value at q=2: {math.log(9/5):.6f} expected "
          "(power sum (5/9) per step)")
    print(f"  limit at q->1: {ce.limit_at_one:.6f} vs measure entropy "
          f"{mu.entropy:.6f}")

    frac = local_entropy_check(full2, phi, sample_count=200, n=2000,
                               tol=0.05, seed=0)
    print(f"\nSampled local entropies within 0.05 of the entropy: "
          f"{100 * frac:.1f}% of 200 orbits at depth 2000")


if __name__ == "__main__":
    main()
