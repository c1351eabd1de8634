"""Doubling on the line, its circle compactification, and cover pressure.

The model map is x -> 2x on the real line.  Preimages of compact sets
are compact (the preimage of [a, b] is [a/2, b/2]), so the map extends
to the one-point compactification by fixing the added point.  The
compactification is a circle; we chart it by the angle theta in
[-pi, pi] with x = tan(theta/2), so theta = 0 is the origin and
theta = +/-pi is the point at infinity.  In this chart the map reads

    theta -> 2*atan(2*tan(theta/2)),

a north-south circle homeomorphism: the origin repels, infinity
attracts, and the topological entropy is zero.  Orbits advance in the
line chart, where x -> 2x is exact and the pole is x = +/-inf.

The reference potential is arccot(x) for x < 0 and arccot(-x) for
x >= 0, which in the angle chart is simply (pi + |theta|)/2: value
pi/2 at the origin, increasing to pi at infinity, where it extends
continuously.

Cover-based pressure estimates run on arc covers of the circle.  A
string of arcs has as domain an arc of the joint pullback partition,
so the minimal covering sum is a sum over partition cells of
exp(sup of the Birkhoff sum), with suprema evaluated at cell endpoints
(each Birkhoff term is monotone inside a cell away from the poles) and
pinned to N * phi(pole) on the cell containing a fixed pole.  One sweep
gives both cover styles: equal arcs of the circle, and covers admissible
for the line, whose elements away from infinity have compact closure
while one merged tail element has compact complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coverpressure import PressureEstimate

PI = math.pi


def _slope(ns, values) -> float:
    """Least-squares slope of values against ns, in closed form."""
    x = np.asarray(ns, dtype=float)
    x = x - x.mean()
    return float(x @ np.asarray(values, dtype=float) / (x @ x))


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

    def map_line(self, x):
        """The doubling itself, x -> 2x; +/-inf is the fixed pole."""
        return 2.0 * x

    def map_angle(self, theta):
        """x -> 2x through the chart: exactly +/-pi at +/-pi."""
        return self.angle_from_x(self.map_line(self.x_from_angle(theta)))

    def orbit(self, theta, steps: int):
        """theta and its next steps - 1 images: x advances by map_line, and
        near the pole overflows to its image +/-inf, read back as +/-pi."""
        x = self.x_from_angle(theta)
        yield np.asarray(theta, dtype=float)
        for _ in range(steps - 1):
            with np.errstate(over="ignore"):
                x = self.map_line(x)
            yield self.angle_from_x(x)

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
                          subset_angle: float | None = None) -> tuple:
    """Pressure estimates (line, circle) from two arc covers of the circle.

    The circle cover is ``arc_count`` equal arcs; the line cover merges the
    two around the pole into one tail element (compact complement), which
    makes it admissible for the line.  Every pullback of the pole is the
    pole, so the line partition is the circle one less its point -pi, and
    one sweep of pullbacks and orbits serves both.  ``subset_angle``
    restricts the covering sums to the strings whose domain contains that
    angle: the same sweep, read at the one cell holding it.  Each estimate is the least-squares slope of its log covering
    sum against the string length over the top half of ``n_range``.
    """
    if arc_count < 8 or arc_count % 2:
        raise ValueError("invalid-budget: need an even arc count >= 8")
    n_lo, n_hi = n_range
    if not (2 <= n_lo and n_lo + 2 <= n_hi):
        raise ValueError("invalid-budget: need 2 <= n_lo and n_lo + 2 <= n_hi")
    phi = model.phi_angle if phi is None else phi
    grid = -PI + 2 * PI / arc_count * np.arange(arc_count)
    phi_pole = float(np.asarray(phi(PI)).reshape(-1)[0])

    # partition points of every level at once: a point joins the partition
    # for N at the first level (pullback step) it appears, and the
    # partition for N is P[level < N], in sorted order; P[0] = -pi
    points = [grid]
    for _ in range(n_hi - 1):
        points.append(model.inverse_angle(points[-1]))
    P, first = np.unique(_wrap(np.concatenate(points)), return_index=True)
    level = first // arc_count
    if subset_angle is not None:
        # the points at or before the angle: N reads the cell that the last
        # of them of level < N starts
        upto = np.searchsorted(P, _wrap(np.array([subset_angle]))[0], "right")

    loglam = {"line": {}, "circle": {}}
    if phi is zero_potential_angle and subset_angle is None:
        # every partition cell counts once, and N has those of level < N;
        # the line partition lacks the pole
        counts = np.cumsum(np.bincount(level, minlength=n_hi))
        for N in range(n_lo - 1, n_hi + 1):
            loglam["line"][N] = math.log(counts[N - 1] - 1)
            loglam["circle"][N] = math.log(counts[N - 1])
    else:
        sums = np.zeros(len(P))
        for N, th in enumerate(model.orbit(P, n_hi), start=1):
            sums += phi(th)
            if N < n_lo - 1:
                continue
            part = level < N
            left = sums[part]
            sup = np.empty_like(left)
            np.maximum(left[:-1], left[1:], out=sup[:-1])
            # the last cell wraps past the last point to (or over) the pole,
            # so its supremum is the orbit sum at the pole; the line's cells
            # start at left[1], as without -pi the two cells there merge
            for cover, start in (("line", 1), ("circle", 0)):
                sup[-1] = max(left[-1], left[start], N * phi_pole)
                s = sup[start:]
                if subset_angle is None:
                    m = s.max()
                    loglam[cover][N] = float(m + np.log(np.exp(s - m).sum()))
                else:  # the one cell holding the angle
                    cell = np.count_nonzero(part[:upto]) - start - 1
                    loglam[cover][N] = float(s[cell % len(s)])
    ns = list(range(n_lo, n_hi + 1))
    top = ns[len(ns) // 2:]
    estimates = []
    for cover, logs in loglam.items():
        slopes = {N: logs[N] - logs[N - 1] for N in ns}
        top_slopes = [slopes[N] for N in top]
        diag = {"rows": [(N, logs[N], slopes[N]) for N in ns],
                "style": cover, "arc_count": arc_count}
        estimates.append(PressureEstimate(
            _slope(top, [logs[N] for N in top]), (n_lo, n_hi),
            (min(top_slopes), max(top_slopes)), diag))
    return tuple(estimates)


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


def gap_example(arc_count: int = 64, n_range: tuple = (16, 40)) -> GapCertificate:
    """The variational gap of the doubling model with the arccot potential.

    The compactified system has zero topological entropy, so its pressure
    is the largest potential integral over the ergodic inventory: pi, at
    the point mass at infinity.  Invariant measures on the line reach
    only pi/2 (the value at the origin), so the gap is exactly pi/2 on
    the inventory side; the circle-cover estimate reproduces the
    compactified pressure within its stated tolerance (its sweep also
    gives the line-cover estimate, which this certificate does not use).
    """
    model = LineDoublingModel()
    line_inv = invariant_measures(model, on_compactification=False)
    comp_inv = invariant_measures(model, on_compactification=True)
    sup_line = max(m.entropy + m.phi_integral for m in line_inv)
    pressure_comp = max(m.entropy + m.phi_integral for m in comp_inv)
    _, est = circle_cover_pressure(model, arc_count=arc_count,
                                   n_range=n_range)
    # cell counts grow linearly, so the entropy slope decays like 1/N:
    # read it at the top of a long window (the bracket's lower end)
    _, ent = circle_cover_pressure(model, phi=zero_potential_angle,
                                   arc_count=arc_count, n_range=(64, 128))
    return GapCertificate(
        pressure_compactified=pressure_comp,
        sup_over_invariant_measures=sup_line,
        gap=pressure_comp - sup_line,
        line_inventory=line_inv,
        compactified_inventory=comp_inv,
        estimator=est,
        entropy_estimate=ent.bracket[0],
    )
