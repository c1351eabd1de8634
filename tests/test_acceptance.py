"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
with the computed value and its tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Everything is checked against exact oracles (transfer
matrices, closed forms, measure inventories) at the stated tolerances.
"""

import math
import time

import numpy as np
import pytest

from conftest import GOLDEN, random_irreducible_adjacency, random_potential
from ergopress import (
    Potential,
    ShiftSystem,
    SubsetSpec,
    capacity_pressures,
    circle_cover_pressure,
    correlation_entropy,
    critical_alpha,
    equilibrium_markov,
    gap_example,
    legendre_check,
    local_entropy_check,
    perturbed_chains,
    power_pressure_check,
    t_curve,
    transfer_pressure,
    vp_residual,
)
from ergopress.compactify import LineDoublingModel


def report(number, description, passed, value, tolerance, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] acceptance {number:2d}: {description} "
          f"(value={value:.6g}, tol={tolerance:g}, {elapsed:.2f}s)")
    assert passed, f"acceptance {number}: {description}: " \
                   f"value {value} outside tolerance {tolerance}"


def test_01_full_shift_entropy_both_routes(full2):
    started = time.perf_counter()
    zero = Potential.zero(full2)
    whole = SubsetSpec.whole(full2)
    t = 1
    lo, hi = capacity_pressures(whole, zero, t, 16)
    est = critical_alpha(whole, zero, t, tol=1e-6)
    worst = max(abs(lo.value - math.log(2)), abs(hi.value - math.log(2)),
                abs(est.value - math.log(2)))
    report(1, "full 2-shift entropy log 2 by capacity and critical exponent",
           worst <= 1e-6, worst, 1e-6, started)


def test_02_golden_mean_capacity(golden):
    started = time.perf_counter()
    zero = Potential.zero(golden)
    _, hi = capacity_pressures(SubsetSpec.whole(golden), zero, 1, 30)
    err = abs(hi.value - math.log(GOLDEN))
    report(2, "golden-mean upper capacity vs Perron eigenvalue",
           err <= 1e-3, err, 1e-3, started)


def test_03_weighted_pressure_and_t_endpoints(full2, phi_log2):
    started = time.perf_counter()
    est = critical_alpha(SubsetSpec.whole(full2), phi_log2, 1, tol=1e-6)
    curve = t_curve(full2, phi_log2, [0.0, 0.5, 1.0])
    err_p = abs(est.value - math.log(3))
    err_t = max(abs(curve.t_at(0.0) - math.log(2)), abs(curve.t_at(1.0)))
    report(3, "cover pressure log 3; T(0)=h and T(1)=0",
           err_p <= 1e-6 and err_t <= 1e-9, max(err_p, err_t), 1e-6, started)


def test_04_gibbs_identity_random_systems():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        system = ShiftSystem(random_irreducible_adjacency(rng, dim))
        pot = random_potential(rng, system, int(rng.integers(1, 3)))
        mu = equilibrium_markov(system, pot)
        gap = abs(mu.pressure - mu.entropy - mu.potential_integral)
        worst = max(worst, gap)
    report(4, "Gibbs identity on 50 random irreducible systems",
           worst <= 1e-9, worst, 1e-9, started)


def test_05_partial_variational_principle(full2, phi_log2):
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    mu = equilibrium_markov(full2, phi_log2)
    worst = vp_residual(full2, phi_log2, perturbed_chains(mu, 200, rng)).min()
    at_eq = abs(vp_residual(full2, phi_log2, mu))
    report(5, "variational residual nonnegative; zero at equilibrium",
           worst >= -1e-9 and at_eq <= 1e-9, min(worst, -at_eq), 1e-9,
           started)


def test_06_convexity_and_exact_slope(full2, phi_log2):
    started = time.perf_counter()
    grid = np.round(np.arange(-5.0, 5.0001, 0.05), 10)
    curve = t_curve(full2, phi_log2, grid)
    convex_defect = -float(np.diff(curve.t_values, 2).min())
    base = curve.pressure
    h = 1e-3
    worst_slope = 0.0
    for q in (-4.0, -1.0, 0.0, 1.0, 2.5, 5.0):
        t_plus = transfer_pressure(full2, phi_log2.scaled(q + h)) - (q + h) * base
        t_minus = transfer_pressure(full2, phi_log2.scaled(q - h)) - (q - h) * base
        numeric_alpha = -(t_plus - t_minus) / (2 * h)
        worst_slope = max(worst_slope, abs(curve.alpha_at(q) - numeric_alpha))
    slopes_nonpositive = bool((np.diff(curve.t_values)
                               / np.diff(curve.q_grid) <= 1e-9).all())
    report(6, "T convex; exact slope matches central difference, sign <= 0",
           convex_defect <= 1e-9 and worst_slope <= 1e-6 and slopes_nonpositive,
           max(convex_defect, worst_slope), 1e-6, started)


def test_07_legendre_duality(full2, phi_log2):
    started = time.perf_counter()
    grid = np.round(np.arange(-5.0, 5.0001, 0.05), 10)
    chk = legendre_check(t_curve(full2, phi_log2, grid))
    worst = max(chk.forward_defect, chk.reverse_defect)
    report(7, "Legendre duality defect in both directions",
           not chk.skipped and worst <= 1e-4, worst, 1e-4, started)


def test_08_correlation_entropies(full2, phi_log2):
    started = time.perf_counter()
    ce = correlation_entropy(full2, phi_log2, [0.5, 2.0, 3.0])
    mismatch = ce.max_mismatch()
    h_top = -(-math.log(2))  # formula side at q=0 must equal entropy log 2
    ce0 = correlation_entropy(full2, phi_log2, [0.0])
    zero_err = abs(ce0.formula_values[0] - math.log(2))
    mu = equilibrium_markov(full2, phi_log2)
    limit_err = abs(ce.limit_at_one - mu.entropy)
    report(8, "correlation entropies: formula vs direct, q=0 and q->1",
           mismatch <= 1e-3 and zero_err <= 1e-9 and limit_err <= 1e-3,
           max(mismatch, zero_err, limit_err), 1e-3, started)
    assert h_top == math.log(2)


def test_09_lipschitz_in_potential(full2):
    started = time.perf_counter()
    rng = np.random.default_rng(55)
    whole = SubsetSpec.whole(full2)
    t = 1
    tol = 1e-3
    worst_oracle = -math.inf
    worst_cover = -math.inf
    for i in range(100):
        a = Potential.depth_one(full2, rng.normal(size=2))
        b = Potential.depth_one(full2, rng.normal(size=2))
        bound = a.sup_minus(b)
        gap = abs(transfer_pressure(full2, a) - transfer_pressure(full2, b))
        worst_oracle = max(worst_oracle, gap - bound)
        if i < 20:  # cover-based estimates on a subsample
            est_gap = abs(critical_alpha(whole, a, t, tol).value
                          - critical_alpha(whole, b, t, tol).value)
            worst_cover = max(worst_cover, est_gap - bound)
    report(9, "pressure is 1-Lipschitz in the potential",
           worst_oracle <= 1e-9 and worst_cover <= 2 * tol,
           max(worst_oracle, worst_cover), 2 * tol, started)


def test_10_power_corollary(full2, phi_log2):
    started = time.perf_counter()
    worst = 0.0
    for k in (2, 3):
        lhs, rhs = power_pressure_check(full2, phi_log2, k)
        worst = max(worst, abs(lhs - rhs))
    report(10, "pressure of the k-th power system equals k times pressure",
           worst <= 1e-9, worst, 1e-9, started)


def test_11_chain_monotonicity_union(full2, phi_log2):
    started = time.perf_counter()
    tol = 1e-4
    t = 1
    whole = SubsetSpec.whole(full2)
    p = critical_alpha(whole, phi_log2, t, tol).value
    lo, hi = capacity_pressures(whole, phi_log2, t, 20)
    chain_ok = p <= lo.value + 2 * tol and lo.value <= hi.value + 2 * tol
    inner = SubsetSpec.cylinders(full2, [(0, 0, 1)])
    outer = SubsetSpec.cylinders(full2, [(0, 0)])
    mono_ok = critical_alpha(inner, phi_log2, t, tol).value <= \
        critical_alpha(outer, phi_log2, t, tol).value + 2 * tol
    z1 = SubsetSpec.cylinders(full2, [(0, 0)])
    z2 = SubsetSpec.cylinders(full2, [(1, 1)])
    union = SubsetSpec.cylinders(full2, [(0, 0), (1, 1)])
    union_gap = abs(critical_alpha(union, phi_log2, t, tol).value
                    - max(critical_alpha(z1, phi_log2, t, tol).value,
                          critical_alpha(z2, phi_log2, t, tol).value))
    report(11, "chain, subset monotonicity and finite-union pressure",
           chain_ok and mono_ok and union_gap <= 2 * tol, union_gap,
           2 * tol, started)


def test_12_invariant_compact_subset(full2):
    started = time.perf_counter()
    zero = Potential.zero(full2)
    tol = 1e-4
    sub = SubsetSpec.sub_sft(full2, [[1, 1], [1, 0]])
    t = 1
    p = critical_alpha(sub, zero, t, tol).value
    lo, hi = capacity_pressures(sub, zero, t, 24)
    agree = max(abs(p - lo.value), abs(lo.value - hi.value))
    err = max(abs(p - math.log(GOLDEN)), abs(hi.value - math.log(GOLDEN)))
    report(12, "invariant golden-mean subset: three pressures coincide",
           agree <= 2 * tol and err <= 1e-3, max(agree, err), 1e-3, started)


def test_13_compactification_transfer():
    started = time.perf_counter()
    line_est, circle_est = circle_cover_pressure(
        LineDoublingModel(), arc_count=64, n_range=(16, 40))
    combined = 2 * max(line_est.bracket[1] - line_est.bracket[0],
                       circle_est.bracket[1] - circle_est.bracket[0], 1e-3)
    agree = abs(line_est.value - circle_est.value)
    err = max(abs(line_est.value - math.pi), abs(circle_est.value - math.pi))
    report(13, "line-admissible and circle covers agree near pi",
           agree <= combined and err <= 0.05, err, 0.05, started)


def test_14_strict_variational_gap():
    started = time.perf_counter()
    cert = gap_example()
    inventory_exact = abs(cert.gap - math.pi / 2) <= 1e-12 and \
        abs(cert.pressure_compactified - math.pi) <= 1e-12 and \
        abs(cert.sup_over_invariant_measures - math.pi / 2) <= 1e-12
    est_err = abs(cert.estimator.value - math.pi)
    report(14, "strict gap pi/2 on inventory side; estimator near pi",
           inventory_exact and est_err <= 1e-2, est_err, 1e-2, started)


def test_15_local_entropy_sampling(full2, phi_log2):
    started = time.perf_counter()
    fraction = local_entropy_check(full2, phi_log2, 200, 2000, tol=0.05,
                                   seed=0)
    report(15, "local entropies concentrate at the measure entropy",
           fraction >= 0.9, fraction, 0.9, started)
