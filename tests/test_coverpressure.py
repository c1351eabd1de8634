import math

import numpy as np
import pytest

import oracles
from conftest import GOLDEN, random_irreducible_adjacency, random_potential

from ergopress import (
    Cover,
    Potential,
    ShiftSystem,
    SubsetSpec,
    capacity_pressures,
    critical_alpha,
    lambda_n,
    make_full_shift,
    pressure_refined,
    transfer_pressure,
    weight_m,
)
from ergopress.coverpressure import InconclusiveError, _slope, _StringCalculus


class TestCover:
    def test_elements_partition(self, golden):
        cover = Cover(golden, 3)
        # one length-1 string per element: the 5 admissible 3-words
        assert lambda_n(SubsetSpec.whole(golden), Potential.zero(golden),
                        cover, 1) == pytest.approx(5.0)
        assert cover.diameter() == 0.125


class TestLambda:
    def test_full_shift_counts_strings(self, full2):
        zero = Potential.zero(full2)
        assert lambda_n(SubsetSpec.whole(full2), zero, Cover(full2, 1), 5) \
            == pytest.approx(32.0)

    def test_golden_mean_fibonacci(self, golden):
        zero = Potential.zero(golden)
        value = lambda_n(SubsetSpec.whole(golden), zero, Cover(golden, 1), 5)
        brute = oracles.lambda_brute(golden.adjacency, zero.table, 1, 1, 5,
                                     "whole")
        assert value == pytest.approx(brute)
        assert value == pytest.approx(13.0)

    def test_weighted_sum(self, full2, phi_log2):
        value = lambda_n(SubsetSpec.whole(full2), phi_log2, Cover(full2, 1), 3)
        brute = oracles.lambda_brute(full2.adjacency, phi_log2.table, 1, 1, 3,
                                     "whole")
        assert value == pytest.approx(brute)
        assert value == pytest.approx(27.0)

    def test_empty_subset_gives_zero(self, full2):
        zero = Potential.zero(full2)
        empty = SubsetSpec.cylinders(full2, [])
        assert lambda_n(empty, zero, Cover(full2, 1), 4) == 0.0

    def test_monotone_under_subset_shrink(self, full2, phi_log2):
        cover = Cover(full2, 1)
        big = lambda_n(SubsetSpec.whole(full2), phi_log2, cover, 5)
        mid = lambda_n(SubsetSpec.cylinders(full2, [(0,)]), phi_log2, cover, 5)
        small = lambda_n(SubsetSpec.cylinders(full2, [(0, 0)]), phi_log2,
                         cover, 5)
        assert small <= mid <= big

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            dim = int(rng.integers(2, 4))
            system = ShiftSystem(random_irreducible_adjacency(rng, dim))
            depth = int(rng.integers(1, 3))
            pot = random_potential(rng, system, depth)
            t = depth + int(rng.integers(0, 2))
            N = int(rng.integers(1, 5))
            cover = Cover(system, t)
            subsets = [
                (SubsetSpec.whole(system), dict(subset_kind="whole")),
            ]
            sub_adj = system.adjacency * \
                (rng.random(system.adjacency.shape) < 0.8)
            if sub_adj.any():
                subsets.append((SubsetSpec.sub_sft(system, sub_adj),
                                dict(subset_kind="sub_sft",
                                     sub_adjacency=sub_adj)))
            words = oracles.enumerate_words(system.adjacency, 2)
            chosen = [words[i] for i in
                      rng.choice(len(words), size=min(2, len(words)),
                                 replace=False)]
            subsets.append((SubsetSpec.cylinders(system, chosen),
                            dict(subset_kind="cylinders",
                                 cylinder_words=chosen)))
            for spec, kw in subsets:
                got = lambda_n(spec, pot, cover, N)
                brute = oracles.lambda_brute(system.adjacency, pot.table,
                                             depth, t, N, **kw)
                assert got == pytest.approx(brute, rel=1e-10, abs=1e-12)

    def test_listed_words_deeper_than_entry_level(self, full2, phi_log2):
        # cylinder words longer than N + t - 1 enter as explicit prefixes
        words = [(0, 1, 1, 0, 1), (0, 1, 1, 0, 0), (1, 0)]
        spec = SubsetSpec.cylinders(full2, words)
        for N in (2, 3, 4):
            got = lambda_n(spec, phi_log2, Cover(full2, 1), N)
            brute = oracles.lambda_brute(full2.adjacency, phi_log2.table, 1,
                                         1, N, "cylinders",
                                         cylinder_words=words)
            assert got == pytest.approx(brute, rel=1e-12)

    def test_cover_shallower_than_potential_rejected(self, full2):
        pot = Potential(full2, 2, {(a, b): 0.0
                                   for a in range(2) for b in range(2)})
        with pytest.raises(ValueError):
            lambda_n(SubsetSpec.whole(full2), pot, Cover(full2, 1), 3)


class TestCapacity:
    def test_full_shift_exact_log2(self, full2):
        zero = Potential.zero(full2)
        lo, hi = capacity_pressures(SubsetSpec.whole(full2), zero,
                                    Cover(full2, 1), 16)
        assert lo.value == pytest.approx(math.log(2), abs=1e-12)
        assert hi.value == pytest.approx(math.log(2), abs=1e-12)

    def test_golden_mean_vs_perron(self, golden):
        zero = Potential.zero(golden)
        lo, hi = capacity_pressures(SubsetSpec.whole(golden), zero,
                                    Cover(golden, 1), 30)
        assert hi.value == pytest.approx(math.log(GOLDEN), abs=1e-3)
        assert lo.value == pytest.approx(math.log(GOLDEN), abs=1e-3)

    def test_weighted_full_shift_log3(self, full2, phi_log2):
        lo, hi = capacity_pressures(SubsetSpec.whole(full2), phi_log2,
                                    Cover(full2, 1), 16)
        assert lo.value == pytest.approx(math.log(3), abs=1e-12)
        assert hi.value == pytest.approx(math.log(3), abs=1e-12)

    def test_empty_subset_degenerate(self, full2):
        zero = Potential.zero(full2)
        lo, hi = capacity_pressures(SubsetSpec.cylinders(full2, []), zero,
                                    Cover(full2, 1), 12)
        assert lo.value == -math.inf and hi.value == -math.inf
        assert lo.degenerate and hi.degenerate

    def test_diagnostics_rows(self, full2):
        zero = Potential.zero(full2)
        _, hi = capacity_pressures(SubsetSpec.whole(full2), zero,
                                   Cover(full2, 1), 12)
        rows = hi.diagnostics["rows"]
        assert [n for n, _, _ in rows] == list(range(6, 13))
        for n, loglam, slope in rows:
            assert loglam == pytest.approx(n * math.log(2))
            assert slope == pytest.approx(math.log(2))

    def test_n_max_floor(self, full2):
        zero = Potential.zero(full2)
        with pytest.raises(ValueError):
            capacity_pressures(SubsetSpec.whole(full2), zero,
                               Cover(full2, 1), 7)


class TestWeightM:
    def test_uniform_antichain_at_cap(self, full2):
        # with the cap at N the only covering antichain is the full level
        zero = Potential.zero(full2)
        value = weight_m(SubsetSpec.whole(full2), 1.0, zero, Cover(full2, 1),
                         4, depth_cap=4)
        assert value == pytest.approx((2 / math.e) ** 4)

    def test_deeper_antichains_win_above_pressure(self, full2):
        # above the critical exponent the optimum migrates to the cap
        zero = Potential.zero(full2)
        spec = SubsetSpec.whole(full2)
        cover = Cover(full2, 1)
        values = [weight_m(spec, 1.0, zero, cover, 4, depth_cap=c)
                  for c in (4, 6, 8)]
        assert values[0] > values[1] > values[2]
        assert values[2] == pytest.approx(math.exp(8 * (math.log(2) - 1.0)))

    def test_growth_below_pressure(self, full2):
        # below the critical exponent the level-N antichain is optimal:
        # the value is cap-independent and grows without bound in N
        zero = Potential.zero(full2)
        spec = SubsetSpec.whole(full2)
        cover = Cover(full2, 1)
        alpha = 0.4
        by_cap = [weight_m(spec, alpha, zero, cover, 4, depth_cap=c)
                  for c in (4, 6, 10)]
        assert by_cap[0] == pytest.approx(by_cap[1]) == pytest.approx(by_cap[2])
        by_n = [weight_m(spec, alpha, zero, cover, n) for n in (4, 8, 12)]
        assert by_n[0] < by_n[1] < by_n[2]
        assert by_n[2] == pytest.approx(math.exp(12 * (math.log(2) - alpha)))

    def test_fixed_point_single_string(self, full2):
        zero = Potential.zero(full2)
        fp = SubsetSpec.fixed_point(full2, 0)
        cover = Cover(full2, 1)
        # one-string cover at the cap level is optimal for positive alpha
        assert weight_m(fp, 0.7, zero, cover, 5, depth_cap=5) == \
            pytest.approx(math.exp(-0.7 * 5))
        assert weight_m(fp, 0.7, zero, cover, 5, depth_cap=9) == \
            pytest.approx(math.exp(-0.7 * 9))
        _, details = _StringCalculus(fp, zero, cover).log_weight_m(0.7, 5, 9)
        assert details["upper_bound"] and details["cap_mass"] == 1.0

    def test_nonincreasing_in_alpha(self, golden):
        zero = Potential.zero(golden)
        spec = SubsetSpec.whole(golden)
        cover = Cover(golden, 1)
        values = [weight_m(spec, a, zero, cover, 6)
                  for a in np.linspace(-1.0, 2.0, 13)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_matches_recursive_brute_force(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            dim = int(rng.integers(2, 4))
            system = ShiftSystem(random_irreducible_adjacency(rng, dim))
            depth = int(rng.integers(1, 3))
            pot = random_potential(rng, system, depth)
            t = depth
            N = int(rng.integers(1, 4))
            cap = N + int(rng.integers(0, 3))
            alpha = float(rng.normal())
            cover = Cover(system, t)
            cases = [
                (SubsetSpec.whole(system), dict(subset_kind="whole")),
            ]
            sub_adj = system.adjacency * \
                (rng.random(system.adjacency.shape) < 0.8)
            if sub_adj.any():
                cases.append((SubsetSpec.sub_sft(system, sub_adj),
                              dict(subset_kind="sub_sft",
                                   sub_adjacency=sub_adj)))
            words = oracles.enumerate_words(system.adjacency, 2)
            chosen = [words[i] for i in
                      rng.choice(len(words), size=min(2, len(words)),
                                 replace=False)]
            cases.append((SubsetSpec.cylinders(system, chosen),
                          dict(subset_kind="cylinders",
                               cylinder_words=chosen)))
            for spec, kw in cases:
                if spec.is_empty:
                    continue
                got = weight_m(spec, alpha, pot, cover, N, depth_cap=cap)
                brute = oracles.weight_m_brute(system.adjacency, pot.table,
                                               depth, t, alpha, N, cap, **kw)
                assert got == pytest.approx(brute, rel=1e-9, abs=1e-12)

    def test_matches_explicit_antichain_enumeration(self, full2):
        # the fully explicit oracle: materialize every covering antichain
        zero = Potential.zero(full2)
        spec = SubsetSpec.whole(full2)
        for alpha in (0.4, 1.0):
            got = weight_m(spec, alpha, zero, Cover(full2, 1), 2, depth_cap=4)
            costs = [oracles.antichain_cost(full2.adjacency, zero.table, 1, 1,
                                            alpha, family)
                     for family in oracles.covering_antichains(
                         full2.adjacency, 1, 2, 4, "whole")]
            assert got == pytest.approx(min(costs))

    def test_trie_path_long_cylinder_words(self, full2, phi_log2):
        # listed words deeper than the entry level exercise the trie walk
        spec = SubsetSpec.cylinders(full2, [(0, 1, 1, 0, 1), (0, 1, 1, 0, 0),
                                            (1, 0)])
        for alpha, N, cap in [(0.5, 2, 6), (1.2, 2, 6), (0.9, 3, 5)]:
            got = weight_m(spec, alpha, phi_log2, Cover(full2, 1), N,
                           depth_cap=cap)
            brute = oracles.weight_m_brute(
                full2.adjacency, phi_log2.table, 1, 1, alpha, N, cap,
                subset_kind="cylinders",
                cylinder_words=[(0, 1, 1, 0, 1), (0, 1, 1, 0, 0), (1, 0)])
            assert got == pytest.approx(brute, rel=1e-10)

    def test_cap_extends_to_reach_listed_words(self, full2, phi_log2):
        # a cap above the entry level but below the listed words is raised
        # to reach them and reported; the value is exact at that cap
        words = [(0, 1, 1, 0, 1), (0, 1, 1, 0, 0)]
        spec = SubsetSpec.cylinders(full2, words)
        logm, details = _StringCalculus(spec, phi_log2, Cover(full2, 1)) \
            .log_weight_m(0.8, 2, 2)
        assert details["cap"] == 5
        assert weight_m(spec, 0.8, phi_log2, Cover(full2, 1), 2,
                        depth_cap=2) == math.exp(logm)
        brute = oracles.weight_m_brute(full2.adjacency, phi_log2.table, 1, 1,
                                       0.8, 2, details["cap"],
                                       subset_kind="cylinders",
                                       cylinder_words=words)
        assert math.exp(logm) == pytest.approx(brute, rel=1e-10)


class TestSweepCache:
    """One calculator answers every N, in any order, as a fresh one would:
    the forward sweep and the entry vectors are cached across calls."""

    @staticmethod
    def _cases(rng, system):
        adj = system.adjacency
        cases = [(SubsetSpec.whole(system), dict(subset_kind="whole"))]
        sub_adj = adj * (rng.random(adj.shape) < 0.8)
        cases.append((SubsetSpec.sub_sft(system, sub_adj),
                      dict(subset_kind="sub_sft", sub_adjacency=sub_adj)))
        # one word of length 1 (shorter than a state once t >= 3) and
        # words of lengths 2..6 under other first symbols: some enter the
        # sweep, some past N + r - 1 with clipped sums, some in the trie
        first = int(rng.integers(system.alphabet_size))
        words = [(first,)]
        for n in range(2, 7):
            pool = [w for w in oracles.enumerate_words(adj, n) if w[0] != first]
            words.append(pool[int(rng.integers(len(pool)))])
        cases.append((SubsetSpec.cylinders(system, words),
                      dict(subset_kind="cylinders", cylinder_words=words)))
        return cases

    @pytest.mark.parametrize("extra", [0, 1, 2])
    def test_shuffled_n_against_brute_force(self, extra):
        rng = np.random.default_rng(61 + extra)
        for _ in range(3):
            dim = int(rng.integers(2, 4))
            system = ShiftSystem(random_irreducible_adjacency(rng, dim))
            depth = int(rng.integers(1, 3))
            pot = random_potential(rng, system, depth)
            t = depth + extra
            for spec, kw in self._cases(rng, system):
                calc = _StringCalculus(spec, pot, Cover(system, t))
                for N in rng.permutation(np.arange(1, 5)).tolist():
                    brute = oracles.lambda_brute(system.adjacency, pot.table,
                                                 depth, t, N, **kw)
                    assert math.exp(calc.log_lambda(N)) == pytest.approx(
                        brute, rel=1e-10, abs=1e-12)
                    alpha = float(rng.normal())
                    logm, details = calc.log_weight_m(alpha, N, N + 2)
                    brute = oracles.weight_m_brute(
                        system.adjacency, pot.table, depth, t, alpha, N,
                        details["cap"], **kw)
                    assert math.exp(logm) == pytest.approx(brute, rel=1e-9,
                                                           abs=1e-12)


class TestCriticalAlpha:
    def test_full_shift_entropy(self, full2):
        zero = Potential.zero(full2)
        est = critical_alpha(SubsetSpec.whole(full2), zero, Cover(full2, 1),
                             tol=1e-6)
        assert est.value == pytest.approx(math.log(2), abs=1e-6)
        assert est.bracket[1] - est.bracket[0] <= 1e-6
        assert est.bracket[0] <= est.value <= est.bracket[1]

    def test_weighted_full_shift(self, full2, phi_log2):
        est = critical_alpha(SubsetSpec.whole(full2), phi_log2,
                             Cover(full2, 1), tol=1e-6)
        assert est.value == pytest.approx(math.log(3), abs=1e-6)

    def test_fixed_point_zero_pressure(self, full2):
        zero = Potential.zero(full2)
        est = critical_alpha(SubsetSpec.fixed_point(full2, 0), zero,
                             Cover(full2, 1), tol=1e-5)
        assert est.value == pytest.approx(0.0, abs=1e-5)

    def test_empty_subset_degenerate(self, full2):
        zero = Potential.zero(full2)
        est = critical_alpha(SubsetSpec.cylinders(full2, []), zero,
                             Cover(full2, 1), tol=1e-4)
        assert est.value == -math.inf and est.degenerate

    def test_trace_recorded(self, full2):
        zero = Potential.zero(full2)
        est = critical_alpha(SubsetSpec.whole(full2), zero, Cover(full2, 1),
                             tol=1e-3)
        assert est.diagnostics["classification_threshold"] > 0
        assert len(est.diagnostics["trace"]) >= 10

    def test_preconditions(self, full2):
        zero = Potential.zero(full2)
        whole = SubsetSpec.whole(full2)
        with pytest.raises(ValueError):
            critical_alpha(whole, zero, Cover(full2, 1), tol=0.0)
        with pytest.raises(ValueError):
            weight_m(whole, 1.0, zero, Cover(full2, 1), 4, depth_cap=3)
        with pytest.raises(ValueError):
            lambda_n(whole, zero, Cover(full2, 1), 0)

    def test_slope_is_least_squares(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            lo = int(rng.integers(-20, 40))
            ns = list(range(lo, lo + int(rng.integers(2, 30))))
            noise = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=len(ns))
            values = noise + rng.normal() * np.array(ns)
            assert _slope(ns, values) == \
                pytest.approx(np.polyfit(ns, values, 1)[0], rel=1e-12)

    def test_overflowing_rates_are_inconclusive(self, full2):
        # exp(800 - alpha) overflows on the initial bracket's low end
        phi = Potential.depth_one(full2, [0.0, 800.0])
        with pytest.raises(InconclusiveError, match="alpha -1.69315"):
            critical_alpha(SubsetSpec.whole(full2), phi, Cover(full2, 1),
                           tol=1e-4)


class TestPressureRefined:
    def test_exact_at_every_depth(self, full2, phi_log2):
        # a depth-1 potential is constant on every cover element of depth
        # t >= 1, so each depth gives the exact pressure
        whole = SubsetSpec.whole(full2)
        for t in (1, 2, 3):
            est = critical_alpha(whole, phi_log2, Cover(full2, t), 1e-5,
                                 n_range=(8, 16))
            assert est.value == pytest.approx(math.log(3), abs=1e-5)

    def test_golden_mean(self, golden):
        zero = Potential.zero(golden)
        est = pressure_refined(SubsetSpec.whole(golden), zero, [1, 2],
                               N_max=16, tol=1e-4)
        assert est.value == pytest.approx(math.log(GOLDEN), abs=1e-4)

    def test_bracket_respects_tolerance(self, full2):
        # the refined estimate carries the final bisection bracket
        sub = SubsetSpec.sub_sft(full2, [[1, 1], [1, 0]])
        est = pressure_refined(sub, Potential.zero(full2), [1], N_max=20,
                               tol=1e-4)
        assert est.bracket[1] - est.bracket[0] <= 1e-4
        assert est.bracket[0] <= est.value <= est.bracket[1]

    def test_depths_must_increase(self, full2, phi_log2):
        with pytest.raises(ValueError):
            pressure_refined(SubsetSpec.whole(full2), phi_log2, [3, 1],
                             N_max=16, tol=1e-4)

    def test_agrees_with_transfer_oracle_random_systems(self):
        # the central cross-validation: cover-based pressure against the
        # transfer-matrix value on oracle systems
        rng = np.random.default_rng(97)
        tol = 1e-4
        for _ in range(4):
            system = ShiftSystem(random_irreducible_adjacency(rng, 3))
            pot = random_potential(rng, system, int(rng.integers(1, 3)))
            est = pressure_refined(SubsetSpec.whole(system), pot,
                                   [pot.depth, pot.depth + 1], N_max=16,
                                   tol=tol)
            oracle = transfer_pressure(system, pot)
            assert abs(est.value - oracle) <= 2 * tol


class TestStructuralProperties:
    TOL = 1e-4

    def _p(self, spec, pot, depth=1, tol=TOL):
        return critical_alpha(spec, pot, Cover(spec.system, depth), tol).value

    def test_chain_inequality(self, full2, phi_log2):
        spec = SubsetSpec.whole(full2)
        p = self._p(spec, phi_log2)
        lo, hi = capacity_pressures(spec, phi_log2, Cover(full2, 1), 20)
        assert p <= lo.value + 2 * self.TOL
        assert lo.value <= hi.value + 2 * self.TOL

    def test_monotonicity_random_nested(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            system = ShiftSystem(random_irreducible_adjacency(rng, 2))
            pot = random_potential(rng, system, 1)
            words = oracles.enumerate_words(system.adjacency, 3)
            inner_word = words[int(rng.integers(len(words)))]
            inner = SubsetSpec.cylinders(system, [inner_word])
            outer = SubsetSpec.cylinders(system, [inner_word[:2]])
            assert self._p(inner, pot) <= self._p(outer, pot) + 2 * self.TOL
            cover = Cover(system, 1)
            # covering sums are monotone pointwise (exactly); capacity
            # values inherit it up to the slope brackets' own widths
            from ergopress import log_lambda_n
            for N in (4, 8, 12):
                assert log_lambda_n(inner, pot, cover, N) <= \
                    log_lambda_n(outer, pot, cover, N) + 1e-12
            lo_in, hi_in = capacity_pressures(inner, pot, cover, 24)
            lo_out, hi_out = capacity_pressures(outer, pot, cover, 24)
            slack = (hi_in.bracket[1] - hi_in.bracket[0]) + \
                (hi_out.bracket[1] - hi_out.bracket[0]) + 2 * self.TOL
            assert lo_in.value <= lo_out.value + slack
            assert hi_in.value <= hi_out.value + slack

    def test_capacity_stable_under_cover_refinement(self, golden):
        # deeper cylinder covers leave the capacity limit unchanged
        zero = Potential.zero(golden)
        whole = SubsetSpec.whole(golden)
        for t in (1, 2, 3):
            _, hi = capacity_pressures(whole, zero, Cover(golden, t), 24)
            assert hi.value == pytest.approx(math.log(GOLDEN), abs=1e-4)

    def test_union_equals_max(self, full2, phi_log2):
        z1 = SubsetSpec.cylinders(full2, [(0, 0)])
        z2 = SubsetSpec.cylinders(full2, [(1, 0)])
        union = SubsetSpec.cylinders(full2, [(0, 0), (1, 0)])
        p_union = self._p(union, phi_log2)
        p_max = max(self._p(z1, phi_log2), self._p(z2, phi_log2))
        assert abs(p_union - p_max) <= 2 * self.TOL

    def test_lipschitz_in_potential(self, full2):
        rng = np.random.default_rng(13)
        for _ in range(5):
            a = Potential.depth_one(full2, rng.normal(size=2))
            b = Potential.depth_one(full2, rng.normal(size=2))
            gap = abs(self._p(SubsetSpec.whole(full2), a, tol=1e-5)
                      - self._p(SubsetSpec.whole(full2), b, tol=1e-5))
            assert gap <= a.sup_minus(b) + 2 * 1e-5

    def test_invariant_subset_pressures_coincide(self, full2):
        zero = Potential.zero(full2)
        sub = SubsetSpec.sub_sft(full2, [[1, 1], [1, 0]])
        p = self._p(sub, zero)
        lo, hi = capacity_pressures(sub, zero, Cover(full2, 1), 24)
        assert abs(p - lo.value) <= 2 * self.TOL
        assert abs(lo.value - hi.value) <= 2 * self.TOL
        assert p == pytest.approx(math.log(GOLDEN), abs=1e-3)

    def test_shift_invariance_two_sided(self):
        # the two-sided cylinder fixing 01 at coordinates start, start + 1
        # has as future trace these one-sided cylinder unions; shifting it
        # relabels covering strings bijectively, so estimated pressures
        # agree across start indices
        full2 = make_full_shift(2)
        phi = Potential.depth_one(full2, [0.0, math.log(2.0)])
        traces = {-1: [(1,)], 0: [(0, 1)], 1: [(a, 0, 1) for a in range(2)],
                  2: [(a, b, 0, 1) for a in range(2) for b in range(2)]}
        values = []
        for words in traces.values():
            trace = SubsetSpec.cylinders(full2, words)
            lo, hi = capacity_pressures(trace, phi, Cover(full2, 1), 16)
            values.append(hi.value)
        for v in values:
            assert v == pytest.approx(values[0], abs=1e-9)
