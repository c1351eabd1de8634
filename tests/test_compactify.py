import math
import warnings

import numpy as np
import pytest

from ergopress import (
    LineDoublingModel,
    arccot_potential_line,
    circle_cover_pressure,
    gap_example,
    invariant_measures,
)
from ergopress.compactify import _slope, _wrap, zero_potential_angle

PI = math.pi


class TestModel:
    def test_chart_round_trip(self):
        model = LineDoublingModel()
        xs = np.array([-10.0, -1.0, 0.0, 0.5, 3.0])
        assert model.x_from_angle(model.angle_from_x(xs)) == pytest.approx(xs)

    def test_map_conjugates_doubling(self):
        model = LineDoublingModel()
        xs = np.array([-4.0, -0.3, 0.2, 7.0])
        via_angle = model.x_from_angle(model.map_angle(model.angle_from_x(xs)))
        assert via_angle == pytest.approx(2 * xs)

    def test_potential_values(self):
        model = LineDoublingModel()
        assert arccot_potential_line(0.0) == pytest.approx(PI / 2)
        assert model.phi_angle(0.0) == pytest.approx(PI / 2)
        assert model.phi_angle(PI) == pytest.approx(PI)
        assert model.phi_angle(-PI) == pytest.approx(PI)
        # arccot potential is even and valued in (pi/2, pi) off the origin
        xs = np.linspace(-50, 50, 401)
        vals = arccot_potential_line(xs)
        assert (vals > PI / 2 - 1e-12).all() and (vals < PI).all()
        assert vals[::-1] == pytest.approx(vals)

    def test_chart_matches_line_potential(self):
        model = LineDoublingModel()
        xs = np.array([-8.0, -1.0, -0.1, 0.0, 0.4, 2.0, 9.0])
        assert model.phi_angle(model.angle_from_x(xs)) == \
            pytest.approx(arccot_potential_line(xs))

    def test_fixed_points(self):
        model = LineDoublingModel()
        assert model.map_angle(0.0) == pytest.approx(0.0)
        assert abs(model.map_angle(PI)) == pytest.approx(PI)

    def test_pole_is_fixed_exactly(self):
        model = LineDoublingModel()
        for f in (model.map_angle, model.inverse_angle):
            assert f(PI) == PI and f(-PI) == -PI
            np.testing.assert_array_equal(f(np.array([-PI, PI])), [-PI, PI])

    def test_near_pole_follows_the_conjugate(self):
        # an angle 1e-5 short of the pole is not the pole: its image
        # under x -> 2x (x -> x/2) is nearer to (farther from) it
        model = LineDoublingModel()
        theta = PI - 1e-5
        x = math.tan(theta / 2)
        assert model.map_angle(theta) == \
            pytest.approx(2 * math.atan(2 * x), abs=1e-12)
        assert model.inverse_angle(theta) == \
            pytest.approx(2 * math.atan(x / 2), abs=1e-12)
        assert model.map_angle(theta) < PI

    def test_orbit_follows_iterated_map_angle(self):
        model = LineDoublingModel()
        rng = np.random.default_rng(5)
        near_pole = PI - rng.uniform(0.0, 1e-5, 50)
        theta = np.concatenate([rng.uniform(-PI, PI, 200), near_pole,
                                -near_pole])
        ref = theta.copy()
        for th in model.orbit(theta, 80):
            np.testing.assert_allclose(th, ref, rtol=0, atol=1e-12)
            ref = model.map_angle(ref)

    def test_orbit_keeps_the_pole_exactly(self):
        # the chart image overflows to +/-inf after about 970 doublings
        model = LineDoublingModel()
        orbit = list(model.orbit(np.array([-PI, PI]), 1100))
        assert len(orbit) == 1100
        for th in orbit:
            np.testing.assert_array_equal(th, [-PI, PI])

    def test_properness_on_intervals(self):
        # the preimage of [a, b] is [a/2, b/2]: compact again, so in the
        # chart it stays off the pole
        model = LineDoublingModel()
        preimage = model.inverse_angle(model.angle_from_x([-3.0, 5.0]))
        assert model.x_from_angle(preimage) == pytest.approx([-1.5, 2.5])
        assert (np.abs(preimage) < PI).all()


class TestCoverPressure:
    def test_arccot_near_pi_both_styles(self):
        model = LineDoublingModel()
        line_est, circle_est = circle_cover_pressure(
            model, arc_count=64, n_range=(16, 40))
        assert abs(line_est.value - PI) <= 0.05
        assert abs(circle_est.value - PI) <= 0.05
        combined = 2 * max(line_est.bracket[1] - line_est.bracket[0],
                           circle_est.bracket[1] - circle_est.bracket[0],
                           1e-3)
        assert abs(line_est.value - circle_est.value) <= combined

    def test_constant_potential(self):
        model = LineDoublingModel()
        for est in circle_cover_pressure(
                model, phi=lambda th: 0.7 * np.ones_like(np.asarray(th, float)),
                arc_count=64, n_range=(16, 40)):
            assert abs(est.value - 0.7) <= 0.05

    def test_smooth_variants_reach_max_fixed_point_value(self):
        # zero-entropy circle maps: pressure is the larger potential value
        # over the two fixed points (angle 0 and the pole)
        model = LineDoublingModel()
        variants = [
            (lambda th: 2.0 - np.abs(np.asarray(th, float)) / 2, 2.0),
            (lambda th: 1.0 + 0.3 * np.sin(np.asarray(th, float) / 2) ** 2,
             1.3),
            (lambda th: np.cos(np.asarray(th, float)) + 1.5, 2.5),
        ]
        for phi, expected in variants:
            line_est, circle_est = circle_cover_pressure(
                model, phi=phi, arc_count=64, n_range=(16, 40))
            assert abs(line_est.value - expected) <= 0.06
            assert abs(circle_est.value - expected) <= 0.06

    def test_origin_subset_pressure(self):
        model = LineDoublingModel()
        _, est = circle_cover_pressure(model, arc_count=64, n_range=(16, 40),
                                       subset_angle=0.0)
        assert abs(est.value - PI / 2) <= 0.01

    def test_entropy_slope_vanishes(self):
        model = LineDoublingModel()
        _, est = circle_cover_pressure(model, phi=zero_potential_angle,
                                       arc_count=64, n_range=(64, 128))
        assert abs(est.bracket[0]) <= 1e-2

    def test_long_window_through_the_overflow(self):
        # orbits at the pole overflow to +/-inf past N ~ 970 without a
        # RuntimeWarning, at the value that stepping through map_angle gave
        model = LineDoublingModel()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, est = circle_cover_pressure(model, arc_count=8,
                                           n_range=(16, 1100))
        assert est.value == pytest.approx(3.1415926535896963, abs=1e-12)

    @pytest.mark.parametrize("cover", ["circle", "line"])
    @pytest.mark.parametrize("arc_count,n_range",
                             [(16, (2, 6)), (256, (16, 80)),
                              (256, (64, 128))])
    def test_count_rows_equal_distinct_point_counts(self, cover, arc_count,
                                                    n_range):
        # the cell count for N is the number of distinct points in the
        # first N pullback levels, counted here level by level
        model = LineDoublingModel()
        grid = -PI + 2 * PI / arc_count * np.arange(arc_count)
        if cover == "line":
            grid = grid[1:]
        points = [grid]
        for _ in range(n_range[1] - 1):
            points.append(model.inverse_angle(points[-1]))
        logs = {N: math.log(len(np.unique(_wrap(np.concatenate(points[:N])))))
                for N in range(n_range[0] - 1, n_range[1] + 1)}
        estimates = dict(zip(("line", "circle"), circle_cover_pressure(
            model, phi=zero_potential_angle, arc_count=arc_count,
            n_range=n_range)))
        assert estimates[cover].diagnostics["rows"] == [
            (N, logs[N], logs[N] - logs[N - 1])
            for N in range(n_range[0], n_range[1] + 1)]

    def test_slope_is_least_squares(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            lo = int(rng.integers(-20, 40))
            ns = list(range(lo, lo + int(rng.integers(2, 30))))
            noise = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=len(ns))
            values = noise + rng.normal() * np.array(ns)
            assert _slope(ns, values) == \
                pytest.approx(np.polyfit(ns, values, 1)[0], rel=1e-12)

    def test_invalid_budget(self):
        model = LineDoublingModel()
        with pytest.raises(ValueError):
            circle_cover_pressure(model, arc_count=6)
        for n_range in ((10, 5), (2, 3)):
            with pytest.raises(ValueError):
                circle_cover_pressure(model, arc_count=64, n_range=n_range)

    def test_covering_sums_match_dense_sampling(self):
        # independent route: same pullback partition, suprema by sampling
        # inside each cell instead of endpoint evaluation
        from ergopress.compactify import _wrap
        model = LineDoublingModel()
        K = 16
        width = 2 * PI / K

        def sampled_log_lambda(phi, N, cover):
            grid = -PI + width * np.arange(K)
            if cover == "line":
                grid = grid[1:]
            pts = [grid]
            b = grid.copy()
            for _ in range(N - 1):
                b = model.inverse_angle(b)
                pts.append(np.asarray(b))
            P = np.sort(np.unique(_wrap(np.concatenate(pts))))
            sups = []
            for i in range(len(P)):
                a, bnd = P[i], P[(i + 1) % len(P)]
                if bnd <= a:
                    bnd += 2 * PI
                th = _wrap(np.linspace(a, bnd, 150))
                S = np.zeros_like(th)
                for _ in range(N):
                    S += phi(th)
                    th = model.map_angle(th)
                sups.append(S.max())
            sups = np.array(sups)
            m = sups.max()
            return float(m + np.log(np.exp(sups - m).sum()))

        for phi in (model.phi_angle,
                    lambda th: 2.0 - np.abs(np.asarray(th, float)) / 2):
            estimates = circle_cover_pressure(model, phi=phi, arc_count=K,
                                              n_range=(3, 7))
            for cover, est in zip(("line", "circle"), estimates):
                mine = {n: ll for n, ll, _ in est.diagnostics["rows"]}
                for N in (4, 7):
                    ref = sampled_log_lambda(phi, N, cover)
                    # sampling can only undershoot the exact supremum
                    assert -1e-9 <= mine[N] - ref <= 0.05

    @staticmethod
    def _rebuilt_log_lambda(model, phi, arc_count, cover, subset_angle, N):
        """The covering sum for one N from its own partition and orbit:
        points of the first N pullback levels, each followed N steps."""
        grid = -PI + 2 * PI / arc_count * np.arange(arc_count)
        if cover == "line":
            grid = grid[1:]
        points = [grid]
        for _ in range(N - 1):
            points.append(model.inverse_angle(points[-1]))
        P = np.sort(np.unique(_wrap(np.concatenate(points))))
        if phi is zero_potential_angle and subset_angle is None:
            return math.log(len(P))
        sums = np.zeros(len(P))
        for th in model.orbit(P, N):
            sums += phi(th)
        sup = np.maximum(sums, np.roll(sums, -1))
        pole = 0.0 if phi is zero_potential_angle else float(phi(PI))
        sup[-1] = max(sup[-1], N * pole)
        if subset_angle is not None:
            a = _wrap(np.array([subset_angle]))[0]
            sup = sup[[int(np.searchsorted(P, a, side="right") - 1) % len(P)]]
        m = sup.max()
        return float(m + np.log(np.exp(sup - m).sum()))

    @pytest.mark.parametrize("cover", ["circle", "line"])
    @pytest.mark.parametrize("subset_angle", [None, 0.3, PI - 1e-3, PI, -PI])
    def test_rows_equal_per_n_rebuild(self, cover, subset_angle):
        # one orbit sweep over all levels gives both covers' covering sums,
        # bit-identical to each cover's own partition and orbit for every N
        # (at +/-pi the line reads its merged pole cell, whose two sides
        # only a potential that is not even tells apart: +/-sin)
        model = LineDoublingModel()
        for phi in (model.phi_angle, zero_potential_angle, np.cos, np.sin,
                    lambda th: -np.sin(th)):
            estimates = dict(zip(("line", "circle"), circle_cover_pressure(
                model, phi=phi, arc_count=16, n_range=(6, 14),
                subset_angle=subset_angle)))
            loglam = {N: self._rebuilt_log_lambda(model, phi, 16, cover,
                                                  subset_angle, N)
                      for N in range(5, 15)}
            assert estimates[cover].diagnostics["rows"] == [
                (N, loglam[N], loglam[N] - loglam[N - 1])
                for N in range(6, 15)]


class TestInvariantMeasures:
    def test_line_inventory(self):
        inv = invariant_measures(LineDoublingModel(), on_compactification=False)
        assert [m.name for m in inv] == ["point mass at 0"]
        assert inv[0].entropy == 0.0
        assert inv[0].phi_integral == pytest.approx(PI / 2)

    def test_compactified_inventory(self):
        inv = invariant_measures(LineDoublingModel(), on_compactification=True)
        assert len(inv) == 2
        assert inv[1].phi_integral == pytest.approx(PI)


@pytest.fixture(scope="module")
def cert():
    return gap_example()


class TestGapExample:
    def test_inventory_side_exact(self, cert):
        assert cert.pressure_compactified == pytest.approx(PI, abs=1e-12)
        assert cert.sup_over_invariant_measures == pytest.approx(PI / 2,
                                                                 abs=1e-12)
        assert cert.gap == pytest.approx(PI / 2, abs=1e-12)

    def test_estimator_side(self, cert):
        assert abs(cert.estimator.value - PI) <= 1e-2

    def test_entropy_estimate(self, cert):
        assert abs(cert.entropy_estimate) <= 1e-2
