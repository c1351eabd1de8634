"""Pressure on subsets: cylinders, invariant sub-systems, fixed points.

Cylinder unions inside an irreducible shift carry the full pressure (the
subtree below any admissible word regrows the whole system), invariant
sub-systems carry their own, and a single fixed point carries just its
potential value.  Monotonicity, the finite-union rule and the chain
between the three pressure notions are visible directly in the numbers.
"""

import math

from ergopress import (
    Potential,
    SubsetSpec,
    capacity_pressures,
    critical_alpha,
    make_full_shift,
)


def main():
    full2 = make_full_shift(2)
    phi = Potential.depth_one(full2, [0.0, math.log(2)])
    t = 1
    tol = 1e-5

    def pressure(spec):
        return critical_alpha(spec, phi, t, tol=tol).value

    whole = SubsetSpec.whole(full2)
    cyl = SubsetSpec.cylinders(full2, [(0, 0)])
    nested = SubsetSpec.cylinders(full2, [(0, 0, 1)])
    union = SubsetSpec.cylinders(full2, [(0, 0), (1, 1)])
    golden_inside = SubsetSpec.sub_sft(full2, [[1, 1], [1, 0]])
    fixed0 = SubsetSpec.fixed_point(full2, 0)
    fixed1 = SubsetSpec.fixed_point(full2, 1)

    print("Pressure of subsets of the full 2-shift, potential (0, log 2):")
    rows = [
        ("whole space", whole, "log 3"),
        ("cylinder [00]", cyl, "log 3 (full subtree below)"),
        ("cylinder [001]", nested, "log 3"),
        ("union [00] + [11]", union, "max of the parts"),
        ("golden-mean sub-system", golden_inside, "golden-mean pressure"),
        ("fixed point 000...", fixed0, "potential value 0"),
        ("fixed point 111...", fixed1, "potential value log 2"),
    ]
    for label, spec, note in rows:
        print(f"  {label:24s} {pressure(spec):+.6f}   ({note})")

    print("\nFor the invariant golden-mean subset the three pressures agree:")
    zero = Potential.zero(full2)
    p = critical_alpha(golden_inside, zero, t, tol=tol).value
    lo, hi = capacity_pressures(golden_inside, zero, t, 24)
    print(f"  critical exponent {p:.6f}, capacities [{lo.value:.6f}, "
          f"{hi.value:.6f}], golden-ratio log {math.log((1+5**0.5)/2):.6f}")

    print("\nCapacity diagnostics rows (N, log covering sum, slope):")
    for n, loglam, slope in hi.diagnostics["rows"][:5]:
        print(f"  N={n:2d}  log sum={loglam:9.5f}  slope={slope:.6f}")


if __name__ == "__main__":
    main()
