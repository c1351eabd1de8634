"""Three routes to the topological pressure of a subshift.

The same number is computed (1) as the log of the Perron eigenvalue of
the weighted transfer matrix, (2) as the growth rate of fixed-length
string-cover sums, and (3) as the critical exponent at which the
variable-length covering weight flips from divergent to vanishing.
Locally constant potentials make all three exact, so they agree within
the width of their certified brackets.
"""

import math

from ergopress import (
    Potential,
    SubsetSpec,
    capacity_pressures,
    critical_alpha,
    golden_mean_shift,
    make_full_shift,
    transfer_pressure,
)


def show(system, potential, label, reference):
    whole = SubsetSpec.whole(system)
    t = potential.depth  # the coarsest cover on which the sums are exact
    oracle = transfer_pressure(system, potential)
    lo, hi = capacity_pressures(whole, potential, t, 24)
    est = critical_alpha(whole, potential, t, tol=1e-6)
    print(f"\n{label}")
    print(f"  transfer-matrix oracle : {oracle:.9f}  (reference {reference})")
    print(f"  capacity growth rate   : [{lo.value:.9f}, {hi.value:.9f}]")
    print(f"  critical exponent      : {est.value:.9f} "
          f"(bracket width {est.bracket[1] - est.bracket[0]:.1e})")


def main():
    full2 = make_full_shift(2)
    golden = golden_mean_shift()

    show(full2, Potential.zero(full2),
         "Full 2-shift, zero potential (topological entropy)", "log 2")
    show(golden, Potential.zero(golden),
         "Golden-mean shift, zero potential", "log of the golden ratio")
    show(full2, Potential.depth_one(full2, [0.0, math.log(2)]),
         "Full 2-shift, potential (0, log 2)", "log 3")

    print("\nRefining the cover depth leaves the estimate fixed once the")
    print("cover is at least as deep as the potential (the potential is")
    print("constant on every cover element):")
    phi = Potential.depth_one(full2, [0.0, math.log(2)])
    for depth in (1, 2, 3):
        est = critical_alpha(SubsetSpec.whole(full2), phi, depth, tol=1e-5)
        print(f"  depth {depth}: estimate {est.value:.9f}")


if __name__ == "__main__":
    main()
