"""Variational identities around the pressure of a subshift.

The equilibrium state realizes pressure = entropy + potential integral
exactly (a property of the Perron eigendata); every other invariant
measure falls short.  The inverse direction is probed by covering sums
over frequency-typical cylinder families, whose growth rate approaches
entropy + integral as the depth grows.
"""

import math

import numpy as np

from ergopress import (
    MarkovMeasure,
    Potential,
    delta_measure,
    equilibrium_markov,
    inverse_vp_probe,
    make_full_shift,
    perturbed_chains,
    transfer_pressure,
    vp_residual,
)


def main():
    full2 = make_full_shift(2)
    phi = Potential.depth_one(full2, [0.0, math.log(2)])
    mu = equilibrium_markov(full2, phi)
    pressure = transfer_pressure(full2, phi)

    print(f"Pressure of (0, log 2) on the full 2-shift: {pressure:.9f}")
    print(f"Equilibrium state: Bernoulli({mu.stationary[0]:.4f}, "
          f"{mu.stationary[1]:.4f})")
    print(f"  entropy + integral = {mu.entropy:.9f} + "
          f"{mu.potential_integral:.9f} = "
          f"{mu.entropy + mu.potential_integral:.9f}")

    print("\nResiduals pressure - (entropy + integral):")
    uniform = MarkovMeasure(full2, 1, [0.5, 0.5],
                            [[0.5, 0.5], [0.5, 0.5]])
    print(f"  equilibrium measure : {vp_residual(full2, phi, mu):+.2e}")
    print(f"  uniform Bernoulli   : {vp_residual(full2, phi, uniform):+.6f}")
    print(f"  point mass at 111.. : "
          f"{vp_residual(full2, phi, delta_measure(full2, 1)):+.6f}")

    rng = np.random.default_rng(0)
    # one stacked measure of 200 chains: one residual per chain
    worst = vp_residual(full2, phi, perturbed_chains(mu, 200, rng)).min()
    print(f"  minimum over 200 random invariant measures: {worst:+.6f}")

    print("\nCovering sums over frequency-typical cylinder families")
    print("(a biased chain against the zero potential approaches its "
          "entropy from above):")
    p1 = 3 / 4
    biased = MarkovMeasure(full2, 1, [1 - p1, p1],
                           [[1 - p1, p1], [1 - p1, p1]])
    zero = Potential.zero(full2)
    print(f"  chain entropy: {biased.entropy:.6f}")
    for n in (20, 50, 100, 200, 400):
        value = inverse_vp_probe(full2, zero, biased, n, block_depth=1)
        print(f"  depth {n:3d}: probe {value:.6f}")


if __name__ == "__main__":
    main()
