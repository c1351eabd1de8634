import math

import numpy as np
import pytest

import oracles
from conftest import random_irreducible_adjacency, random_potential
from ergopress import (
    Potential,
    SubsetSpec,
    correlation_entropy,
    equilibrium_markov,
    legendre_check,
    local_entropy_check,
    log_lambda_n,
    power_iteration,
    spectrum,
    t_curve,
    transfer_pressure,
)
from ergopress.shifts import ShiftSystem

Q_GRID = np.round(np.arange(-5.0, 5.0001, 0.05), 10)


@pytest.fixture(scope="module")
def curve(full2, phi_log2):
    return t_curve(full2, phi_log2, Q_GRID)


class TestTCurve:
    def test_closed_form(self, curve):
        exact = np.log(1 + 2.0 ** curve.q_grid) - curve.q_grid * math.log(3)
        assert np.abs(curve.t_values - exact).max() <= 1e-12

    def test_one_stacked_solve_per_grid(self, full2, phi_log2, perron_solves):
        # one stack for the equilibrium states of the whole grid and of
        # q = 1, which gives the base pressure
        t_curve(full2, phi_log2, np.linspace(-2.0, 2.0, 9))
        assert len(perron_solves) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stack_matches_per_q_equilibrium_states(self, seed):
        rng = np.random.default_rng(seed)
        system = ShiftSystem(random_irreducible_adjacency(
            rng, int(rng.integers(2, 6))))
        phi = random_potential(rng, system, int(rng.integers(1, 3)))
        grid = np.round(np.arange(-5.0, 5.0001, 0.25), 10)
        curve = t_curve(system, phi, grid)
        base = equilibrium_markov(system, phi)
        states = [equilibrium_markov(system, phi.scaled(q)) for q in grid]
        np.testing.assert_allclose(
            curve.t_values, [m.pressure - q * base.pressure
                             for q, m in zip(grid, states)],
            rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            curve.alpha_values, [base.pressure - m.integrate(phi)
                                 for m in states], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("q", [-300.0, -100.0, 100.0, 300.0])
    def test_golden_mean_extreme_q_closed_form(self, golden, q):
        # the weighted matrix [[1, 1], [e^q, 0]] has Perron root
        # (1 + sqrt(1 + 4 e^q)) / 2; at q = 300 its rows differ by e^300
        phi = Potential.depth_one(golden, [0.0, 1.0])
        curve = t_curve(golden, phi, [q])
        pressure = math.log((1 + math.sqrt(1 + 4 * math.e)) / 2)
        exact = math.log((1 + math.sqrt(1 + 4 * math.exp(q))) / 2) \
            - q * pressure
        assert abs(curve.t_at(q) - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_endpoints(self, curve):
        assert abs(curve.t_at(0.0) - math.log(2)) <= 1e-9
        assert abs(curve.t_at(1.0)) <= 1e-9
        assert abs(curve.t_at(2.0) - math.log(5 / 9)) <= 1e-12

    def test_scaled_pressure_vs_covering_sums(self, full2, phi_log2):
        # the transfer value matches the growth of the covering sums
        t = 1
        whole = SubsetSpec.whole(full2)
        for q in (-1.0, 0.5, 2.0):
            scaled = phi_log2.scaled(q)
            d15 = log_lambda_n(whole, scaled, t, 15) \
                - log_lambda_n(whole, scaled, t, 14)
            assert d15 == pytest.approx(transfer_pressure(full2, scaled),
                                        abs=1e-10)

    def test_convexity_and_slope_sign(self, curve):
        assert np.diff(curve.t_values, 2).min() >= -1e-9
        assert np.diff(curve.alpha_values).max() <= 1e-9

    def test_repeated_q_rejected(self, full2, phi_log2):
        with pytest.raises(ValueError, match="distinct"):
            t_curve(full2, phi_log2, [0.0, 1.0, 1.0, 2.0])

    def test_alpha_matches_central_difference(self, full2, phi_log2):
        h = 1e-3
        base = transfer_pressure(full2, phi_log2)
        for q in (-2.0, 0.0, 1.0, 3.0):
            t_plus = transfer_pressure(full2, phi_log2.scaled(q + h)) \
                - (q + h) * base
            t_minus = transfer_pressure(full2, phi_log2.scaled(q - h)) \
                - (q - h) * base
            numeric = -(t_plus - t_minus) / (2 * h)
            mu_q = equilibrium_markov(full2, phi_log2.scaled(q))
            exact = base - mu_q.integrate(phi_log2)
            assert abs(exact - numeric) <= 1e-6

    def test_constant_potential_line(self, full2):
        const = Potential.constant(full2, 0.7)
        cc = t_curve(full2, const, np.round(np.arange(-3, 3.01, 0.25), 10))
        exact = (1 - cc.q_grid) * math.log(2)
        assert np.abs(cc.t_values - exact).max() <= 1e-12
        assert np.abs(cc.alpha_values - math.log(2)).max() <= 1e-12

    def test_alpha_domain_limits(self, full2, phi_log2):
        # ergodic averages of the potential span [0, log 2]; alpha stays
        # inside [P - log 2, P] and approaches the ends monotonically
        wide = t_curve(full2, phi_log2,
                       np.round(np.arange(-30.0, 30.5, 0.5), 10))
        base = wide.pressure
        assert wide.alpha_values.max() <= base + 1e-12
        assert wide.alpha_values.min() >= base - math.log(2) - 1e-12
        assert wide.alpha_values[0] == pytest.approx(base, abs=1e-8)
        assert wide.alpha_values[-1] == pytest.approx(base - math.log(2),
                                                      abs=1e-8)


class TestSpectrum:
    def test_point_at_zero(self, full2, phi_log2):
        pts = dict(zip(Q_GRID.tolist(),
                       spectrum(full2, phi_log2, Q_GRID)))
        alpha0, e0 = pts[0.0]
        assert alpha0 == pytest.approx(math.log(3) - math.log(2) / 2, abs=1e-12)
        assert e0 == pytest.approx(math.log(2), abs=1e-12)

    def test_point_at_one_is_measure_entropy(self, full2, phi_log2, curve):
        mu = equilibrium_markov(full2, phi_log2)
        i1 = curve.index_of(1.0)
        assert curve.spectrum_values[i1] == pytest.approx(mu.entropy,
                                                          abs=1e-9)

    def test_maximum_is_topological_entropy(self, curve):
        imax = int(curve.spectrum_values.argmax())
        assert curve.spectrum_values[imax] == pytest.approx(math.log(2),
                                                            abs=1e-9)
        assert abs(curve.q_grid[imax]) <= 0.05 + 1e-12

    def test_degenerate_potential_single_point(self, full2):
        const = Potential.constant(full2, 0.3)
        pts = spectrum(full2, const, np.round(np.arange(-2, 2.1, 0.5), 10))
        for alpha, e in pts:
            assert alpha == pytest.approx(math.log(2), abs=1e-12)
            assert e == pytest.approx(math.log(2), abs=1e-12)


class TestLegendre:
    def test_defects_small_both_directions(self, curve):
        chk = legendre_check(curve)
        assert not chk.skipped
        assert chk.forward_defect <= 1e-4
        assert chk.reverse_defect <= 1e-4

    def test_reverse_at_zero_is_spectrum_max(self, curve):
        i0 = curve.index_of(0.0)
        sup = float(curve.spectrum_values.max())
        assert sup == pytest.approx(curve.t_values[i0], abs=1e-9)

    def test_defects_match_per_point_loops(self, curve):
        q, t = curve.q_grid, curve.t_values
        alpha, spec = curve.alpha_values, curve.spectrum_values
        forward = max(abs(float((t + q * a).min()) - e)
                      for a, e in zip(alpha, spec))
        reverse = max(abs(float((spec - qs * alpha).max()) - ts)
                      for qs, ts in zip(q, t))
        chk = legendre_check(curve)
        assert (chk.forward_defect, chk.reverse_defect) == (forward, reverse)

    def test_degenerate_skipped(self, full2):
        const = Potential.constant(full2, 1.0)
        cc = t_curve(full2, const, Q_GRID)
        chk = legendre_check(cc)
        assert chk.skipped and math.isnan(chk.forward_defect)


class TestCorrelationEntropy:
    def test_bernoulli_q2_closed_form(self, full2, phi_log2):
        ce = correlation_entropy(full2, phi_log2, [0.5, 2.0, 3.0])
        i = list(ce.q_grid).index(2.0)
        assert ce.formula_values[i] == pytest.approx(math.log(9 / 5),
                                                     abs=1e-12)
        assert ce.direct_values[i] == pytest.approx(math.log(9 / 5), abs=1e-9)

    def test_formula_at_zero_is_entropy(self, full2, phi_log2):
        ce = correlation_entropy(full2, phi_log2, [-1.0, 0.0, 2.0])
        i = list(ce.q_grid).index(0.0)
        assert ce.formula_values[i] == pytest.approx(math.log(2), abs=1e-12)

    def test_limit_at_one(self, full2, phi_log2):
        ce = correlation_entropy(full2, phi_log2, [0.5, 2.0])
        mu = equilibrium_markov(full2, phi_log2)
        assert abs(ce.limit_at_one - mu.entropy) <= 1e-3

    def test_curve_carries_the_measure_entropy(self, golden):
        phi = Potential.depth_one(golden, [0.0, 1.0])
        ce = correlation_entropy(golden, phi, [0.5, 2.0])
        assert ce.entropy == equilibrium_markov(golden, phi).entropy

    def test_grid_excludes_one(self, full2, phi_log2):
        with pytest.raises(ValueError):
            correlation_entropy(full2, phi_log2, [0.5, 1.0])

    def test_direct_side_unbiased_on_a_markov_measure(self, golden):
        # the growth rate of S(n) carries no O(1/n) bias, also at q <= 0,
        # where forbidden transitions must stay forbidden
        phi = Potential.depth_one(golden, [0.0, 1.0])
        ce = correlation_entropy(golden, phi, [-2.0, -1.0, 0.0, 0.5, 2.0, 3.0])
        assert ce.max_mismatch() <= 1e-9

    def test_slowly_mixing_power_chain(self):
        # [P_ij^2] of this chain has |lambda_2| / lambda_1 >= 0.99, so the
        # ratio S(n+1) / S(n) of the power sums has not settled at n = 200
        # and misses by more than 1e-3; the Perron root has no such lag
        system = ShiftSystem([[1, 1, 0], [1, 0, 1], [1, 1, 0]])
        phi = Potential(system, 2, {(0, 0): -1.0, (0, 1): -0.8, (1, 0): 0.25,
                                    (1, 2): -0.2, (2, 0): 0.5, (2, 1): 1.5})
        grid = np.array([0.5, 2.0, 3.0])
        ce = correlation_entropy(system, phi, grid)
        assert ce.max_mismatch() <= 1e-9
        mu = equilibrium_markov(system, phi)
        P = mu.transitions
        moduli = np.sort(np.abs(np.linalg.eigvals(P ** 2)))
        assert moduli[-2] / moduli[-1] >= 0.99
        finite_n = []
        for q in grid:
            power, v = P ** q, mu.stationary ** q
            for _ in range(200 - mu.state_depth):  # S(200), normalized
                v = v @ power
                v /= v.sum()
            finite_n.append(-math.log((v @ power).sum()) / (q - 1))
        assert np.abs(finite_n - ce.formula_values).max() > 1e-3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stack_matches_per_q_reference(self, seed):
        rng = np.random.default_rng(seed)
        system = ShiftSystem(random_irreducible_adjacency(
            rng, int(rng.integers(2, 6))))
        phi = random_potential(rng, system, int(rng.integers(1, 3)))
        grid = np.array([-2.0, -0.5, 0.5, 2.0, 3.0])
        ce = correlation_entropy(system, phi, grid)
        base = equilibrium_markov(system, phi)
        P = base.transitions

        def t_of(q):
            return equilibrium_markov(system, phi.scaled(q)).pressure \
                - q * base.pressure

        np.testing.assert_allclose(
            ce.formula_values, [-t_of(q) / (q - 1) for q in grid],
            rtol=1e-12, atol=1e-12)
        with np.errstate(divide="ignore"):
            np.testing.assert_allclose(
                ce.direct_values,
                [-math.log(power_iteration(np.where(P > 0, P ** q, 0.0))[0])
                 / (q - 1) for q in grid], rtol=1e-12, atol=1e-12)
        offset = 1e-3
        limit = 0.5 * (-t_of(1 + offset) + t_of(1 - offset)) / offset
        assert ce.limit_at_one == pytest.approx(limit, rel=1e-12, abs=1e-12)

    def test_power_sum_matches_enumeration(self, golden):
        # the enumerated sums are S(n) = pi^q A^(n-1) 1 = a rho^(n-1)
        # + b lam^(n-1) for the eigenvalues rho > |lam| of the 2x2 matrix
        # A = [P_ij^q], so S(n+1)/S(n) - rho = (b/a) theta^(n-1) (lam - rho)
        # / (1 + (b/a) theta^(n-1)) with theta = lam / rho: once
        # |b/a| |theta|^(n-1) <= 1/2 it is at most
        # 2 |b/a| |theta|^(n-1) |rho - lam|
        zero = Potential.zero(golden)
        mu = equilibrium_markov(golden, zero)
        grid = np.array([0.5, 2.0, 3.0])
        ce = correlation_entropy(golden, zero, grid)
        rhos = np.exp(-(grid - 1.0) * ce.direct_values)
        P = mu.transitions
        for q, rho in zip(grid, rhos):
            values, right = np.linalg.eig(np.where(P > 0, P ** q, 0.0))
            top = int(values.argmax())
            lam = values[1 - top]
            coef = (mu.stationary ** q @ right) \
                * np.linalg.solve(right, np.ones(2))
            assert values[top] == pytest.approx(rho, rel=1e-12)
            for n in (6, 10):
                brute = [oracles.measure_power_sum_brute(
                    golden.adjacency,
                    lambda w: mu.log_masses(np.array([w]))[0], q, m)
                    for m in (n, n + 1)]
                decay = abs(coef[1 - top] / coef[top]) \
                    * abs(lam / rho) ** (n - 1)
                assert decay <= 0.5
                assert abs(brute[1] / brute[0] - rho) \
                    <= 2 * decay * abs(rho - lam)

    def test_continuity_on_fine_grid(self, full2, phi_log2):
        grid = np.round(np.concatenate([np.arange(-2, 0.999, 0.01),
                                        np.arange(1.01, 3.001, 0.01)]), 10)
        ce = correlation_entropy(full2, phi_log2, grid)
        q = ce.q_grid
        t = np.array([transfer_pressure(full2, phi_log2.scaled(x))
                      - x * math.log(3) for x in q])
        tprime = np.gradient(t, q)
        bound = np.abs((t - (q - 1) * tprime) / (q - 1) ** 2)
        step_bound = np.maximum(bound[1:], bound[:-1]) * np.diff(q) * 1.5
        jumps = np.abs(np.diff(ce.formula_values))
        mask = np.diff(q) < 0.015  # skip the gap across q = 1
        assert (jumps[mask] <= step_bound[mask] + 1e-9).all()


class TestLocalEntropy:
    def test_uniform_measure_exact(self, full2):
        frac = local_entropy_check(full2, Potential.zero(full2), 50, 200,
                                   tol=1e-9, seed=3)
        assert frac == 1.0

    def test_biased_bernoulli(self, full2, phi_log2):
        frac = local_entropy_check(full2, phi_log2, 200, 2000, tol=0.05,
                                   seed=0)
        assert frac >= 0.9

    def test_deterministic_chain_zero(self):
        # every transition is forced: the only deviation from zero is the
        # initial-distribution term log(2)/n
        cycle = ShiftSystem([[0, 1], [1, 0]])
        frac = local_entropy_check(cycle, Potential.zero(cycle), 20, 1000,
                                   tol=1e-3, seed=5)
        assert frac == 1.0

    def test_n_below_state_depth_raises(self, full2):
        # a depth-3 potential has an equilibrium state on 2-blocks
        pot = random_potential(np.random.default_rng(4), full2, 3)
        with pytest.raises(ValueError, match="need n >= 2"):
            local_entropy_check(full2, pot, 10, 1)
        assert 0.0 <= local_entropy_check(full2, pot, 10, 2) <= 1.0

    def test_default_tolerance_is_clt_scaled(self, full2, phi_log2):
        # 3 sigma / sqrt(n): roughly the 99.7% band
        frac = local_entropy_check(full2, phi_log2, 300, 2000, seed=2)
        assert frac >= 0.97
        # deterministic chain: sigma = 0, only the boundary term remains
        cycle = ShiftSystem([[0, 1], [1, 0]])
        assert local_entropy_check(cycle, Potential.zero(cycle), 20, 50,
                                   seed=2) == 1.0
