"""Doubling on the line, compactified to a circle, and its pressure gap.

The map x -> 2x is proper, so it extends to the one-point
compactification (a circle) by fixing the point at infinity.  With the
arccot potential the compactified pressure is pi (all the mass sits at
the attracting pole), while invariant measures on the line itself only
reach pi/2 at the repelling origin: the variational supremum is strictly
below the pressure.  Cover-based estimates reproduce the compactified
value whether or not the cover is admissible for the line.
"""

import math

from ergopress import (
    arccot_potential_line,
    circle_cover_pressure,
    gap_example,
    invariant_measures,
    LineDoublingModel,
)


def main():
    model = LineDoublingModel()
    print("Potential on the line: arccot(x) for x<0, arccot(-x) for x>=0")
    for x in (-100.0, -1.0, 0.0, 1.0, 100.0):
        print(f"  phi({x:+7.1f}) = {float(arccot_potential_line(x)):.6f}")
    print(f"  extension at infinity: {model.phi_at_infinity:.6f} (= pi)")

    print("\nInvariant probability measures:")
    for where, flag in (("line", False), ("compactification", True)):
        inventory = invariant_measures(model, on_compactification=flag)
        names = ", ".join(f"{m.name} (integral {m.phi_integral:.4f})"
                          for m in inventory)
        print(f"  on the {where}: {names}")

    cert = gap_example()
    print("\nGap certificate:")
    print(f"  compactified pressure  : {cert.pressure_compactified:.9f}")
    print(f"  sup over line measures : {cert.sup_over_invariant_measures:.9f}")
    print(f"  gap                    : {cert.gap:.9f} (= pi/2)")
    print(f"  cover-based estimator  : {cert.estimator.value:.9f}")
    print(f"  entropy estimate       : {cert.entropy_estimate:.6f} "
          "(north-south maps have zero entropy)")

    print("\nCover transfer: line-admissible covers (arcs plus one tail")
    print("element with compact complement) against plain circle covers:")
    line_est, circle_est = circle_cover_pressure(
        model, arc_count=64, n_range=(16, 40))
    print(f"  line cover estimate   : {line_est.value:.9f}")
    print(f"  circle cover estimate : {circle_est.value:.9f}")
    print(f"  reference pi          : {math.pi:.9f}")

    _, origin = circle_cover_pressure(model, arc_count=64, n_range=(16, 40),
                                      subset_angle=0.0)
    print(f"\nPressure of the single orbit at the origin: "
          f"{origin.value:.6f} (= phi(0) = pi/2 = {math.pi / 2:.6f})")


if __name__ == "__main__":
    main()
