"""Doubling on the line, its circle compactification, and cover pressure.

The model map is x -> 2x on the real line.  Preimages of compact sets
are compact (the preimage of [a, b] is [a/2, b/2]), so the map extends
to the one-point compactification by fixing the added point.  The
compactification is a circle; we chart it by the angle theta in
[-pi, pi] with x = tan(theta/2), so theta = 0 is the origin and
theta = +/-pi is the point at infinity.  In this chart the map reads

    theta -> 2*atan(2*tan(theta/2)),

a north-south circle homeomorphism: the origin repels, infinity
attracts, and the topological entropy is zero.

The reference potential is arccot(x) for x < 0 and arccot(-x) for
x >= 0, which in the angle chart is simply (pi + |theta|)/2: value
pi/2 at the origin, increasing to pi at infinity, where it extends
continuously.

Cover-based pressure estimates run on arc covers of the circle.  A
string of arcs has as domain an arc of the joint pullback partition,
so the minimal covering sum is a sum over partition cells of
exp(sup of the Birkhoff sum), with suprema evaluated at cell endpoints
(each Birkhoff term is monotone inside a cell away from the poles) and
pinned to N * phi(pole) on the cell containing a fixed pole.  Two cover
styles are available: plain equal arcs of the circle, and covers
admissible for the line, whose elements away from infinity have compact
closure while a single merged tail element has compact complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coverpressure import PressureEstimate, _slope

PI = math.pi


def arccot_potential_line(x):
    """arccot(x) for x < 0, arccot(-x) for x >= 0 (range (pi/2, pi])."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, PI / 2 - np.arctan(x), PI / 2 + np.arctan(x))


def zero_potential_angle(theta):
    """The zero potential in the angle chart (pressure becomes entropy)."""
    return np.zeros_like(np.asarray(theta, dtype=float))


class LineDoublingModel:
    """x -> 2x on the line, seen through the circle chart x = tan(theta/2)."""

    phi_at_infinity = PI

    def angle_from_x(self, x):
        return 2.0 * np.arctan(np.asarray(x, dtype=float))

    def x_from_angle(self, theta):
        return np.tan(np.asarray(theta, dtype=float) / 2.0)

    def map_angle(self, theta):
        """x -> 2x through the chart: exactly +/-pi at +/-pi."""
        return self.angle_from_x(2.0 * self.x_from_angle(theta))

    def inverse_angle(self, theta):
        """x -> x/2 through the chart: exactly +/-pi at +/-pi."""
        return self.angle_from_x(0.5 * self.x_from_angle(theta))

    def phi_angle(self, theta):
        """The arccot potential in the angle chart: (pi + |theta|)/2."""
        return 0.5 * (PI + np.abs(np.asarray(theta, dtype=float)))


# ---------------------------------------------------------------------------
# cover-based pressure on the circle


def _wrap(theta):
    """Map angles into [-pi, pi), leaving in-range values untouched
    (adding and re-subtracting pi would flush sub-epsilon angles near the
    origin, where pullback points accumulate)."""
    th = np.asarray(theta, dtype=float)
    out = (th < -PI) | (th >= PI)
    if not out.any():
        return th
    return np.where(out, (th + PI) % (2 * PI) - PI, th)


def circle_cover_pressure(model: LineDoublingModel, phi=None,
                          arc_count: int = 64, n_range: tuple = (16, 40),
                          style: str = "circle",
                          subset_angle: float | None = None) -> PressureEstimate:
    """Capacity-style pressure estimate from arc covers of the circle.

    ``style`` selects the cover: "circle" uses ``arc_count`` equal arcs;
    "line" merges the two arcs around the pole into a single tail element
    (compact complement), making the cover admissible for the line, and
    leaves the other elements with compact closure.  ``subset_angle``
    restricts the covering sum to the strings whose domain contains that
    angle.  The estimate is the least-squares slope of the log covering
    sum against the string length over the top half of ``n_range``.
    """
    if arc_count < 8 or arc_count % 2:
        raise ValueError("invalid-budget: need an even arc count >= 8")
    n_lo, n_hi = n_range
    if not (2 <= n_lo < n_hi):
        raise ValueError("invalid-budget: need 2 <= n_lo < n_hi")
    if style not in ("circle", "line"):
        raise ValueError(f"unknown cover style {style!r}")
    if phi is None:
        phi = model.phi_angle
    width = 2 * PI / arc_count
    grid = -PI + width * np.arange(arc_count)
    if style == "line":
        # the pole stops being a cover boundary: the two arcs adjacent to
        # it merge into one admissible tail element
        grid = grid[1:]

    zero_phi = phi is zero_potential_angle
    phi_pole = float(np.asarray(phi(PI)).reshape(-1)[0])

    # partition points of every level at once: a point joins the partition
    # for N at the first level (pullback step) it appears, and the
    # partition for N is P[level < N], in sorted order
    points = [grid]
    for _ in range(n_hi - 1):
        points.append(model.inverse_angle(points[-1]))
    P, first = np.unique(_wrap(np.concatenate(points)), return_index=True)
    level = first // len(grid)
    a = None if subset_angle is None else _wrap(np.array([subset_angle]))[0]

    count_only = zero_phi and subset_angle is None
    loglam: dict[int, float] = {}
    sums = np.zeros(len(P))
    th = P.copy()
    for N in range(1, n_hi + 1):
        if not count_only:
            sums += phi(th)
            th = model.map_angle(th)
        if N < n_lo - 1:
            continue
        part = level < N
        if count_only:  # every partition cell counts once
            loglam[N] = math.log(np.count_nonzero(part))
            continue
        left = sums[part]
        right = np.roll(left, -1)
        sup = np.maximum(left, right)
        # the cell wrapping past the last partition point contains the
        # pole whenever the pole is not itself a partition point; either
        # way its supremum is the full orbit sum at the fixed pole
        sup[-1] = max(sup[-1], N * phi_pole)
        if a is not None:
            idx = (np.searchsorted(P[part], a, side="right") - 1) % len(left)
            sup = sup[[idx]]
        m = sup.max()
        loglam[N] = float(m + np.log(np.exp(sup - m).sum()))
    ns = list(range(n_lo, n_hi + 1))
    slopes = {N: loglam[N] - loglam[N - 1] for N in ns}
    rows = [(N, loglam[N], slopes[N]) for N in ns]
    top = ns[len(ns) // 2:]
    value = _slope(top, [loglam[N] for N in top])
    diag = {
        "rows": rows,
        "style": style,
        "arc_count": arc_count,
    }
    return PressureEstimate(value, arc_count, (n_lo, n_hi),
                            (min(slopes[N] for N in top),
                             max(slopes[N] for N in top)),
                            "CP_upper", diag)


def compactification_transfer_check(model: LineDoublingModel, phi=None,
                                    arc_count: int = 64,
                                    n_range: tuple = (16, 40)):
    """Pressure estimated with line-admissible covers and with plain
    circle covers; the two must agree within their combined tolerances."""
    line_est = circle_cover_pressure(model, phi, arc_count, n_range,
                                     style="line")
    circle_est = circle_cover_pressure(model, phi, arc_count, n_range,
                                       style="circle")
    return line_est, circle_est


# ---------------------------------------------------------------------------
# invariant measures and the strict variational gap


@dataclass(frozen=True)
class InvariantMeasureInfo:
    name: str
    entropy: float
    phi_integral: float


def invariant_measures(model: LineDoublingModel,
                       on_compactification: bool) -> list[InvariantMeasureInfo]:
    """Ergodic invariant probability measures of the doubling model.

    On the line the only one is the point mass at the origin: for any
    invariant measure the mass of the annulus [-L, L] minus [-L/2, L/2]
    equals the mass of every halved copy, and those shrink to the empty
    set, so the annuli all carry zero mass and everything sits at 0.  On the
    compactification the fixed point at infinity joins the inventory.
    Both fixed points carry zero entropy.
    """
    phi0 = 0.5 * PI  # potential value at the origin
    inventory = [InvariantMeasureInfo("point mass at 0", 0.0, phi0)]
    if on_compactification:
        inventory.append(InvariantMeasureInfo("point mass at infinity", 0.0,
                                              model.phi_at_infinity))
    return inventory


@dataclass
class GapCertificate:
    """Record of the strict inequality between the compactified pressure
    and the variational supremum over invariant measures on the line."""

    pressure_compactified: float
    sup_over_invariant_measures: float
    gap: float
    line_inventory: list
    compactified_inventory: list
    estimator: PressureEstimate
    entropy_estimate: float

    def holds(self) -> bool:
        return self.gap > 0


def gap_example(arc_count: int = 64, n_range: tuple = (16, 40)) -> GapCertificate:
    """The variational gap of the doubling model with the arccot potential.

    The compactified system has zero topological entropy, so its pressure
    is the largest potential integral over the ergodic inventory: pi, at
    the point mass at infinity.  Invariant measures on the line reach
    only pi/2 (the value at the origin), so the gap is exactly pi/2 on
    the inventory side; the cover-based estimator reproduces the
    compactified pressure within its stated tolerance.
    """
    model = LineDoublingModel()
    line_inv = invariant_measures(model, on_compactification=False)
    comp_inv = invariant_measures(model, on_compactification=True)
    sup_line = max(m.entropy + m.phi_integral for m in line_inv)
    pressure_comp = max(m.entropy + m.phi_integral for m in comp_inv)
    est = circle_cover_pressure(model, arc_count=arc_count, n_range=n_range,
                                style="circle")
    # cell counts grow linearly, so the entropy slope decays like 1/N:
    # read it at the top of a long window (the bracket's lower end)
    ent = circle_cover_pressure(model, phi=zero_potential_angle,
                                arc_count=arc_count, n_range=(64, 128),
                                style="circle")
    return GapCertificate(
        pressure_compactified=pressure_comp,
        sup_over_invariant_measures=sup_line,
        gap=pressure_comp - sup_line,
        line_inventory=line_inv,
        compactified_inventory=comp_inv,
        estimator=est,
        entropy_estimate=ent.bracket[0],
    )
