import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import (GOLDEN, random_irreducible_adjacency, random_potential,
                      random_support)

from ergopress import (
    Potential,
    ShiftSystem,
    SubsetSpec,
    capacity_pressures,
    critical_alpha,
    log_lambda_n,
    make_full_shift,
    pressure_refined,
    transfer_pressure,
    weight_m,
)
from ergopress import coverpressure
from ergopress.coverpressure import InconclusiveError, _StringCalculus


def _least_n(spec, t):
    """The least N whose entry words, of length N + t - 1, are at least as
    long as every listed cylinder word."""
    return max(1, max(map(len, spec.words), default=0) - t + 1)


class TestCover:
    def test_elements_partition(self, golden):
        # one length-1 string per element: the 5 admissible 3-words
        assert math.exp(log_lambda_n(SubsetSpec.whole(golden),
                                     Potential.zero(golden), 3, 1)) \
            == pytest.approx(5.0)

    def test_non_integral_depth_rejected(self, golden):
        zero = Potential.zero(golden)
        # the empty subset too, whose sum vanishes at every valid depth
        for spec in (SubsetSpec.whole(golden),
                     SubsetSpec.cylinders(golden, [])):
            for depth in (1.5, 0, -2):
                with pytest.raises(ValueError, match="an integer >= 1"):
                    log_lambda_n(spec, zero, depth, 4)
        assert log_lambda_n(SubsetSpec.whole(golden), zero, 2.0, 4) == \
            log_lambda_n(SubsetSpec.whole(golden), zero, 2, 4)


class TestLambda:
    def test_full_shift_counts_strings(self, full2):
        zero = Potential.zero(full2)
        assert math.exp(log_lambda_n(SubsetSpec.whole(full2), zero, 1, 5)) \
            == pytest.approx(32.0)

    def test_golden_mean_fibonacci(self, golden):
        zero = Potential.zero(golden)
        value = math.exp(log_lambda_n(SubsetSpec.whole(golden), zero, 1, 5))
        brute = oracles.lambda_brute(golden.adjacency, zero.table, 1, 1, 5,
                                     "whole")
        assert value == pytest.approx(brute)
        assert value == pytest.approx(13.0)

    def test_weighted_sum(self, full2, phi_log2):
        value = math.exp(log_lambda_n(SubsetSpec.whole(full2), phi_log2, 1, 3))
        brute = oracles.lambda_brute(full2.adjacency, phi_log2.table, 1, 1, 3,
                                     "whole")
        assert value == pytest.approx(brute)
        assert value == pytest.approx(27.0)

    def test_empty_subset_gives_zero(self, full2):
        zero = Potential.zero(full2)
        empty = SubsetSpec.cylinders(full2, [])
        assert math.exp(log_lambda_n(empty, zero, 1, 4)) == 0.0

    def test_monotone_under_subset_shrink(self, full2, phi_log2):
        t = 1
        big = math.exp(log_lambda_n(SubsetSpec.whole(full2), phi_log2, t, 5))
        mid = math.exp(log_lambda_n(SubsetSpec.cylinders(full2, [(0,)]),
                                    phi_log2, t, 5))
        small = math.exp(log_lambda_n(SubsetSpec.cylinders(full2, [(0, 0)]),
                                      phi_log2, t, 5))
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
                if N < _least_n(spec, t):
                    with pytest.raises(ValueError, match="least_n"):
                        log_lambda_n(spec, pot, t, N)
                    continue
                got = math.exp(log_lambda_n(spec, pot, t, N))
                brute = oracles.lambda_brute(system.adjacency, pot.table,
                                             depth, t, N, **kw)
                assert got == pytest.approx(brute, rel=1e-10, abs=1e-12)

    def test_listed_words_deeper_than_entry_level(self, full2, phi_log2):
        # cylinder words longer than N + t - 1: such an N is refused by
        # name, and from least_n = 5 on the sum is the brute-force one
        words = [(0, 1, 1, 0, 1), (0, 1, 1, 0, 0), (1, 0)]
        spec = SubsetSpec.cylinders(full2, words)
        for N in (2, 3, 4):
            with pytest.raises(ValueError, match="below least_n = 5"):
                log_lambda_n(spec, phi_log2, 1, N)
        for N in (5, 6, 7):
            got = math.exp(log_lambda_n(spec, phi_log2, 1, N))
            brute = oracles.lambda_brute(full2.adjacency, phi_log2.table, 1,
                                         1, N, "cylinders",
                                         cylinder_words=words)
            assert got == pytest.approx(brute, rel=1e-12)

    def test_cover_shallower_than_potential_rejected(self, full2):
        pot = Potential(full2, 2, {(a, b): 0.0
                                   for a in range(2) for b in range(2)})
        with pytest.raises(ValueError):
            log_lambda_n(SubsetSpec.whole(full2), pot, 1, 3)


class TestCapacity:
    def test_full_shift_exact_log2(self, full2):
        zero = Potential.zero(full2)
        lo, hi = capacity_pressures(SubsetSpec.whole(full2), zero, 1, 16)
        assert lo.value == pytest.approx(math.log(2), abs=1e-12)
        assert hi.value == pytest.approx(math.log(2), abs=1e-12)

    def test_golden_mean_vs_perron(self, golden):
        zero = Potential.zero(golden)
        lo, hi = capacity_pressures(SubsetSpec.whole(golden), zero, 1, 30)
        assert hi.value == pytest.approx(math.log(GOLDEN), abs=1e-3)
        assert lo.value == pytest.approx(math.log(GOLDEN), abs=1e-3)

    def test_weighted_full_shift_log3(self, full2, phi_log2):
        lo, hi = capacity_pressures(SubsetSpec.whole(full2), phi_log2, 1, 16)
        assert lo.value == pytest.approx(math.log(3), abs=1e-12)
        assert hi.value == pytest.approx(math.log(3), abs=1e-12)

    def test_empty_subset_degenerate(self, full2):
        zero = Potential.zero(full2)
        lo, hi = capacity_pressures(SubsetSpec.cylinders(full2, []), zero,
                                    1, 12)
        assert lo.value == -math.inf and hi.value == -math.inf
        assert lo.degenerate and hi.degenerate

    def test_diagnostics_rows(self, full2):
        zero = Potential.zero(full2)
        _, hi = capacity_pressures(SubsetSpec.whole(full2), zero, 1, 12)
        rows = hi.diagnostics["rows"]
        assert [n for n, _, _ in rows] == list(range(6, 13))
        for n, loglam, slope in rows:
            assert loglam == pytest.approx(n * math.log(2))
            assert slope == pytest.approx(math.log(2))

    def test_n_max_floor(self, full2):
        zero = Potential.zero(full2)
        with pytest.raises(ValueError):
            capacity_pressures(SubsetSpec.whole(full2), zero, 1, 7)


class TestWeightM:
    def test_uniform_antichain_at_cap(self, full2):
        # with the cap at N the only covering antichain is the full level
        zero = Potential.zero(full2)
        value = weight_m(SubsetSpec.whole(full2), 1.0, zero, 1, 4, depth_cap=4)
        assert value == pytest.approx((2 / math.e) ** 4)

    def test_deeper_antichains_win_above_pressure(self, full2):
        # above the critical exponent the optimum migrates to the cap
        zero = Potential.zero(full2)
        spec = SubsetSpec.whole(full2)
        t = 1
        values = [weight_m(spec, 1.0, zero, t, 4, depth_cap=c)
                  for c in (4, 6, 8)]
        assert values[0] > values[1] > values[2]
        assert values[2] == pytest.approx(math.exp(8 * (math.log(2) - 1.0)))

    def test_growth_below_pressure(self, full2):
        # below the critical exponent the level-N antichain is optimal:
        # the value is cap-independent and grows without bound in N
        zero = Potential.zero(full2)
        spec = SubsetSpec.whole(full2)
        t = 1
        alpha = 0.4
        by_cap = [weight_m(spec, alpha, zero, t, 4, depth_cap=c)
                  for c in (4, 6, 10)]
        assert by_cap[0] == pytest.approx(by_cap[1]) == pytest.approx(by_cap[2])
        by_n = [weight_m(spec, alpha, zero, t, n) for n in (4, 8, 12)]
        assert by_n[0] < by_n[1] < by_n[2]
        assert by_n[2] == pytest.approx(math.exp(12 * (math.log(2) - alpha)))

    def test_fixed_point_single_string(self, full2):
        zero = Potential.zero(full2)
        fp = SubsetSpec.fixed_point(full2, 0)
        t = 1
        # one-string cover at the cap level is optimal for positive alpha
        assert weight_m(fp, 0.7, zero, t, 5, depth_cap=5) == \
            pytest.approx(math.exp(-0.7 * 5))
        assert weight_m(fp, 0.7, zero, t, 5, depth_cap=9) == \
            pytest.approx(math.exp(-0.7 * 9))
        _, cap_mass = _StringCalculus(fp, zero, t).log_weight(0.7, 5, 4)
        assert cap_mass == 1.0

    def test_nonincreasing_in_alpha(self, golden):
        zero = Potential.zero(golden)
        spec = SubsetSpec.whole(golden)
        t = 1
        values = [weight_m(spec, a, zero, t, 6)
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
                got = weight_m(spec, alpha, pot, t, N, depth_cap=cap)
                brute = oracles.weight_m_brute(system.adjacency, pot.table,
                                               depth, t, alpha, N, cap, **kw)
                assert got == pytest.approx(brute, rel=1e-9, abs=1e-12)

    def test_matches_explicit_antichain_enumeration(self, full2):
        # the fully explicit oracle: materialize every covering antichain
        zero = Potential.zero(full2)
        spec = SubsetSpec.whole(full2)
        for alpha in (0.4, 1.0):
            got = weight_m(spec, alpha, zero, 1, 2, depth_cap=4)
            costs = [oracles.antichain_cost(full2.adjacency, zero.table, 1, 1,
                                            alpha, family)
                     for family in oracles.covering_antichains(
                         full2.adjacency, 1, 2, 4, "whole")]
            assert got == pytest.approx(min(costs))

    def test_trie_path_long_cylinder_words(self, full2, phi_log2):
        # listed words deeper than the entry level: N below least_n = 5 is
        # refused by name, and from there on the weight is the brute one
        spec = SubsetSpec.cylinders(full2, [(0, 1, 1, 0, 1), (0, 1, 1, 0, 0),
                                            (1, 0)])
        for N, cap in [(2, 6), (3, 5), (4, 4)]:
            with pytest.raises(ValueError, match="below least_n = 5"):
                weight_m(spec, 0.9, phi_log2, 1, N,
                         depth_cap=cap)
        for alpha, N, cap in [(0.5, 5, 9), (1.2, 5, 9), (0.9, 6, 8)]:
            got = weight_m(spec, alpha, phi_log2, 1, N,
                           depth_cap=cap)
            brute = oracles.weight_m_brute(
                full2.adjacency, phi_log2.table, 1, 1, alpha, N, cap,
                subset_kind="cylinders",
                cylinder_words=[(0, 1, 1, 0, 1), (0, 1, 1, 0, 0), (1, 0)])
            assert got == pytest.approx(brute, rel=1e-10)

    def test_cap_extends_to_reach_listed_words(self, full2, phi_log2):
        # no cap reaches down to the listed words: an N whose entry words
        # are shorter than them is refused by name, at every cap; from
        # least_n on the cap is N + margin and the value is exact there
        words = [(0, 1, 1, 0, 1), (0, 1, 1, 0, 0)]
        spec = SubsetSpec.cylinders(full2, words)
        calc = _StringCalculus(spec, phi_log2, 1)
        assert calc.least_n == 5
        for margin in (0, 3):
            with pytest.raises(ValueError, match="below least_n = 5"):
                calc.log_weight(0.8, 2, margin)
        for margin in (0, 2):
            logm, _ = calc.log_weight(0.8, 5, margin)
            assert weight_m(spec, 0.8, phi_log2, 1, 5,
                            depth_cap=5 + margin) == math.exp(logm)
            brute = oracles.weight_m_brute(full2.adjacency, phi_log2.table, 1,
                                           1, 0.8, 5, 5 + margin,
                                           subset_kind="cylinders",
                                           cylinder_words=words)
            assert math.exp(logm) == pytest.approx(brute, rel=1e-10)


    def test_single_calls_match_brute_force(self):
        # the whole space, a sub-SFT and a union holding a listed word of
        # t + 4 symbols: least_n = 5, so the union is refused below it by
        # name and weighed from there on
        rng = np.random.default_rng(71)
        unions = 0
        for _ in range(6):
            dim = int(rng.integers(2, 4))
            system = ShiftSystem(random_irreducible_adjacency(rng, dim))
            depth = int(rng.integers(1, 3))
            pot = random_potential(rng, system, depth)
            t = depth + int(rng.integers(0, 2))
            margin = 1
            alphas = rng.normal(size=5).tolist()
            for spec, kw in _random_subsets(rng, system, t + 4):
                low = _least_n(spec, t)
                calc = _StringCalculus(spec, pot, t)
                if low > 1:
                    with pytest.raises(ValueError, match="below least_n = 5"):
                        calc.log_weight(alphas[0], 1, margin)
                    unions += 1
                for alpha, N in itertools.product(alphas, range(low, low + 3)):
                    logm, _ = calc.log_weight(alpha, N, margin)
                    brute = oracles.weight_m_brute(
                        system.adjacency, pot.table, depth, t, alpha, N,
                        N + margin, **kw)
                    assert math.exp(logm) == pytest.approx(
                        brute, rel=1e-9, abs=1e-12)
        assert unions == 6

    def test_empty_subset_vanishes(self, full2):
        empty = SubsetSpec.cylinders(full2, [])
        calc = _StringCalculus(empty, Potential.zero(full2), 1)
        assert calc.log_weight(0.1, 3, 2) == (-math.inf, 0.0)
        assert weight_m(empty, 0.5, Potential.zero(full2), 1, 4) == 0.0

    def test_overflow_names_the_exponent(self, full2):
        phi = Potential.depth_one(full2, [0.0, 800.0])
        calc = _StringCalculus(SubsetSpec.whole(full2), phi, 1)
        with pytest.raises(InconclusiveError, match="at alpha 80,"):
            calc.log_weight(80.0, 2, 1)
        assert math.isfinite(calc.log_weight(95.0, 2, 1)[0])


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
        # words of lengths 2..6 under other first symbols: from least_n
        # on, some seed the sweep before N + t - 1 and the longest at it
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
                calc = _StringCalculus(spec, pot, t)
                # four Ns from least_n - 1 (when that is >= 1): the one
                # below least_n is refused by name
                low = max(1, _least_n(spec, t) - 1)
                for N in rng.permutation(np.arange(low, low + 4)).tolist():
                    alpha = float(rng.normal())
                    if N < _least_n(spec, t):
                        with pytest.raises(ValueError, match="least_n"):
                            calc.log_lambda(N)
                        with pytest.raises(ValueError, match="least_n"):
                            calc.log_weight(alpha, N, 2)
                        continue
                    brute = oracles.lambda_brute(system.adjacency, pot.table,
                                                 depth, t, N, **kw)
                    assert math.exp(calc.log_lambda(N)) == pytest.approx(
                        brute, rel=1e-10, abs=1e-12)
                    logm, _ = calc.log_weight(alpha, N, 2)
                    brute = oracles.weight_m_brute(
                        system.adjacency, pot.table, depth, t, alpha, N,
                        N + 2, **kw)
                    assert math.exp(logm) == pytest.approx(
                        brute, rel=1e-9, abs=1e-12)


def _random_walk(rng, adjacency, length):
    """A uniformly stepped admissible word of the given length."""
    word = [int(rng.integers(len(adjacency)))]
    while len(word) < length:
        word.append(int(rng.choice(np.flatnonzero(adjacency[word[-1]]))))
    return tuple(word)


def _random_subsets(rng, system, deep_length):
    """(spec, brute-force subset kwargs) for the whole space, a random
    sub-SFT and a union of a short cylinder with a deep one, whose word
    has ``deep_length`` symbols."""
    adj = system.adjacency
    cases = [(SubsetSpec.whole(system), dict(subset_kind="whole"))]
    sub_adj = adj * (rng.random(adj.shape) < 0.8)
    if SubsetSpec.sub_sft(system, sub_adj).is_empty:
        sub_adj = adj
    cases.append((SubsetSpec.sub_sft(system, sub_adj),
                  dict(subset_kind="sub_sft", sub_adjacency=sub_adj)))
    deep = _random_walk(rng, adj, deep_length)
    short = next(w for w in oracles.enumerate_words(adj, 2) if w[0] != deep[0])
    words = [short, deep]
    cases.append((SubsetSpec.cylinders(system, words),
                  dict(subset_kind="cylinders", cylinder_words=words)))
    return cases


def _deep_union_systems():
    """Twelve seeded trials (system, potential, cover depth, union): the
    union of ``_random_subsets`` holds a word t + 9 or t + 17 symbols
    long, alternating by pairs of trials."""
    rng = np.random.default_rng(83)
    for trial in range(12):
        dim = int(rng.integers(2, 5))
        system = ShiftSystem(random_irreducible_adjacency(rng, dim))
        depth = int(rng.integers(1, 3))
        pot = random_potential(rng, system, depth)
        t = depth + trial % 2
        deep = t + (9, 17)[trial // 2 % 2]
        yield system, pot, t, _random_subsets(rng, system, deep)[-1][0]


class TestCriticalAlpha:
    def test_deep_cylinder_unions_match_oracle(self):
        # a listed word far deeper than the cover: the classes are seeded
        # from the entry words at least_n, which hold it, so every union
        # is at the pressure of its system
        for system, pot, t, spec in _deep_union_systems():
            est = critical_alpha(spec, pot, t, 1e-4)
            assert est.n_range == (_least_n(spec, t),) * 2
            assert abs(est.value - transfer_pressure(system, pot)) <= 5e-4

    def test_full_shift_entropy(self, full2):
        zero = Potential.zero(full2)
        est = critical_alpha(SubsetSpec.whole(full2), zero, 1, tol=1e-6)
        assert est.value == pytest.approx(math.log(2), abs=1e-6)
        assert est.bracket[1] - est.bracket[0] <= 1e-6
        assert est.bracket[0] <= est.value <= est.bracket[1]

    def test_weighted_full_shift(self, full2, phi_log2):
        est = critical_alpha(SubsetSpec.whole(full2), phi_log2, 1, tol=1e-6)
        assert est.value == pytest.approx(math.log(3), abs=1e-6)

    def test_fixed_point_zero_pressure(self, full2):
        zero = Potential.zero(full2)
        est = critical_alpha(SubsetSpec.fixed_point(full2, 0), zero,
                             1, tol=1e-5)
        assert est.value == pytest.approx(0.0, abs=1e-5)

    def test_empty_subset_degenerate(self, full2):
        zero = Potential.zero(full2)
        est = critical_alpha(SubsetSpec.cylinders(full2, []), zero,
                             1, tol=1e-4)
        assert est.value == -math.inf and est.degenerate

    def test_preconditions(self, full2):
        zero = Potential.zero(full2)
        whole = SubsetSpec.whole(full2)
        with pytest.raises(ValueError):
            critical_alpha(whole, zero, 1, tol=0.0)
        with pytest.raises(ValueError):
            weight_m(whole, 1.0, zero, 1, 4, depth_cap=3)
        with pytest.raises(ValueError):
            log_lambda_n(whole, zero, 1, 0)

    def test_overflowing_rates_are_inconclusive(self, full2):
        # exp(0 - 800) underflows past the normal float range
        phi = Potential.depth_one(full2, [0.0, 800.0])
        with pytest.raises(InconclusiveError, match="spread over 800,"):
            critical_alpha(SubsetSpec.whole(full2), phi, 1, tol=1e-4)

    def test_open_bracket_raises_naming_its_width(self, golden,
                                                  monkeypatch):
        # x = 1 gives the ratios 2 and 1 on the golden mean: the bracket
        # [0, log 2] is open at step 0, the whole budget here
        monkeypatch.setattr(coverpressure, "MAX_CW_STEPS", 0)
        with pytest.raises(InconclusiveError,
                           match="still 0.693 wide after 0 steps"):
            critical_alpha(SubsetSpec.whole(golden), Potential.zero(golden),
                           1, 1e-6)

    def test_equal_classes_in_series(self, full2):
        # the sub-SFT [[1, 1], [0, 1]]: two fixed points, each a class of
        # weight 1, joined by one arc, so P_Z = 0, while the covering sums
        # grow polynomially in N
        tol = 1e-6
        sub = SubsetSpec.sub_sft(full2, [[1, 1], [0, 1]])
        est = critical_alpha(sub, Potential.zero(full2), 1, tol)
        assert abs(est.value) <= tol
        assert est.bracket[0] <= 0.0 <= est.bracket[1]
        assert est.diagnostics["classes"] == 2

    def test_periodic_class(self, full2):
        # the two-cycle 0 -> 1 -> 0 with phi = (0.3, -0.5): P_Z = -0.1, the
        # mean of the potential along the cycle
        tol = 1e-6
        sub = SubsetSpec.sub_sft(full2, [[0, 1], [1, 0]])
        phi = Potential.depth_one(full2, [0.3, -0.5])
        est = critical_alpha(sub, phi, 1, tol)
        assert abs(est.value + 0.1) <= tol
        assert est.bracket[0] <= -0.1 <= est.bracket[1]
        lo, hi = capacity_pressures(sub, phi, 1, 20)
        assert lo.value <= -0.1 <= hi.value

    @pytest.mark.parametrize("spread", [20.0, 300.0, 700.0])
    @pytest.mark.parametrize("period", [2, 3])
    def test_periodic_class_of_small_rho(self, period, spread):
        # the whole p-cycle with phi = (0, -s, 0, ...): rho = e^(-s / p)
        # on the scale of the largest arc weight, 1, where a shift I in
        # (I + R) x swamps R; e^-700 is still a normal float
        cycle = np.roll(np.eye(period, dtype=int), 1, axis=1)
        system = ShiftSystem(cycle)
        phi = Potential.depth_one(system, [0.0, -spread, 0.0][:period])
        tol = 1e-6
        est = critical_alpha(SubsetSpec.whole(system), phi, 1, tol)
        assert abs(est.value + spread / period) <= tol * spread
        assert est.bracket[0] <= -spread / period <= est.bracket[1]


class TestCertifiedBrackets:
    """Both estimators' brackets hold log rho of the cover's block matrix
    on the reached states, with references from ``tests/oracles.py``."""

    KINDS = ("aperiodic", "cycle", "bipartite", "reducible")

    def test_brackets_hold_reached_log_rho_randomized(self):
        # 48 systems of 2-5 symbols, every support kind, each with the
        # whole space, a random sub-SFT (often reducible) and a union of
        # three random cylinders of 1-6 symbols; N(0, 1) potential values
        rng = np.random.default_rng(103)
        tol = 1e-6
        answered, several, raised = 0, 0, 0
        for trial in range(48):
            k = int(rng.integers(2, 6))
            system = ShiftSystem(random_support(rng, self.KINDS[trial % 4], k))
            depth = int(rng.integers(1, 3))
            pot = random_potential(rng, system, depth)
            t = depth + int(rng.integers(0, 2))
            adj = system.adjacency
            sub_adj = adj * (rng.random(adj.shape) < 0.7)
            words = [_random_walk(rng, adj, int(rng.integers(1, 7)))
                     for _ in range(3)]
            cases = [(SubsetSpec.whole(system), dict(subset_kind="whole")),
                     (SubsetSpec.sub_sft(system, sub_adj),
                      dict(subset_kind="sub_sft", sub_adjacency=sub_adj)),
                     (SubsetSpec.cylinders(system, words),
                      dict(subset_kind="cylinders", cylinder_words=words))]
            for spec, kw in cases:
                if spec.is_empty:
                    continue
                rhos = oracles.reached_class_log_rhos(adj, pot.table, depth,
                                                      t, **kw)
                ref = max(rhos)
                several += len(rhos) > 1
                # the reference's own eigenvalue rounding
                slack = 1e-12 * max(1.0, abs(ref))
                try:
                    est = critical_alpha(spec, pot, t, tol)
                except InconclusiveError:
                    raised += 1
                    continue
                lo, hi = est.bracket
                assert lo - slack <= ref <= hi + slack
                assert hi - lo <= tol
                cap_lo, cap_hi = capacity_pressures(spec, pot, t, 24)
                assert cap_lo.value - slack <= ref <= cap_hi.value + slack
                answered += 1
        assert answered >= 120 and raised == 0 and several >= 20

    def test_wide_potentials_randomized(self):
        # 24 systems with N(0, s^2) potential values, s up to 200: the
        # arc weights of a class span up to e^800 (then the call raises by
        # name), and most classes' rho lies far below the largest weight
        rng = np.random.default_rng(107)
        answered = 0
        for trial in range(24):
            k = int(rng.integers(2, 6))
            system = ShiftSystem(random_support(rng, self.KINDS[trial % 4], k))
            spread = float(rng.choice([10.0, 50.0, 200.0]))
            pot = Potential.depth_one(system, spread * rng.normal(size=k))
            sub_adj = system.adjacency * (rng.random((k, k)) < 0.7)
            for spec, kw in [(SubsetSpec.whole(system),
                              dict(subset_kind="whole")),
                             (SubsetSpec.sub_sft(system, sub_adj),
                              dict(subset_kind="sub_sft",
                                   sub_adjacency=sub_adj))]:
                if spec.is_empty:
                    continue
                ref = max(oracles.reached_class_log_rhos(
                    system.adjacency, pot.table, 1, 1, **kw))
                try:
                    est = critical_alpha(spec, pot, 1, 1e-6)
                except InconclusiveError as exc:
                    assert "past the normal float range" in str(exc)
                    continue
                slack = 1e-12 * max(1.0, abs(ref))
                assert est.bracket[0] - slack <= ref <= est.bracket[1] + slack
                assert est.bracket[1] - est.bracket[0] <= 1e-6
                answered += 1
        assert answered >= 30

    def test_transient_cylinder_root(self):
        # the cylinder [1] enters the fixed point 9 only after the path
        # 1 -> 2 -> ... -> 8, longer than the sweep at N_max = 8: the
        # capacities stay (-inf, +inf) there, not a crash; P_Z = phi(9)
        adj = np.zeros((10, 10), dtype=int)
        adj[0, 0] = adj[0, 1] = adj[9, 9] = 1
        adj[np.arange(1, 9), np.arange(2, 10)] = 1
        system = ShiftSystem(adj)
        pot = Potential.depth_one(system, np.linspace(-1.0, 0.5, 10))
        spec = SubsetSpec.cylinders(system, [[1]])
        lo, hi = capacity_pressures(spec, pot, 1, 8)
        assert (lo.value, hi.value) == (-math.inf, math.inf)
        lo, hi = capacity_pressures(spec, pot, 1, 16)
        assert lo.value <= 0.5 <= hi.value
        assert abs(critical_alpha(spec, pot, 1, 1e-6).value - 0.5) <= 1e-6

    def test_brackets_hold_exact_bracket_rational_weights(self):
        # 120 whole-space systems of 2-6 symbols with rational weights w,
        # 12 of them with one weight 2^(+-1154) (about e^(+-800)): each
        # bracket holds the exact bracket of the float potential fl(log w)
        # on its cover of depth r or r + 1, or the call raises by name
        # where the weights span more than the float range.  The exact
        # matrix is built here from the adjacency and the weights.
        rng = np.random.default_rng(107)
        answered = 0
        for trial in range(120):
            kind = self.KINDS[trial % 4]
            k, depth = int(rng.integers(2, 7)), int(rng.integers(1, 3))
            adj = random_support(rng, kind, k)
            src, dst = np.nonzero(adj)
            windows = [(a,) for a in range(k)] if depth == 1 \
                else list(zip(src.tolist(), dst.tolist()))
            w = {u: Fraction(int(rng.integers(1, 41)),
                             int(rng.integers(1, 41))) for u in windows}
            extreme = (1154 if trial // 10 % 2 else -1154) \
                if trial % 10 == 9 else 0
            if extreme:
                w[windows[int(rng.integers(len(windows)))]] = \
                    Fraction(2) ** extreme
            M = [[Fraction(0)] * k for _ in range(k)]
            for a, b in zip(src.tolist(), dst.tolist()):
                M[a][b] = w[(a, b)[:depth]]
            table = {u: oracles.float_log(x) for u, x in w.items()}
            system = ShiftSystem(adj)
            pot = Potential(system, depth, table)
            spec = SubsetSpec.whole(system)
            t = depth + trial // 4 % 2
            try:
                est = critical_alpha(spec, pot, t, 1e-6)
                cap_lo, cap_hi = capacity_pressures(spec, pot, t, 24)
            except InconclusiveError as err:
                assert extreme and "spread over" in str(err)
                continue
            lo, hi = oracles.float_pressure_bracket(
                M, [(table[u], x) for u, x in w.items()])
            assert est.bracket[0] <= lo <= hi <= est.bracket[1]
            assert cap_lo.value <= lo <= hi <= cap_hi.value
            answered += 1
        assert answered >= 100


class TestDeepCylinderWords:
    """Listed cylinder words longer than the entry words of small N: the
    sums are read from least_n on, and the pressure is that of the full
    2-shift, log(1 + e^0.7), not a growth rate along their prefixes."""

    P = math.log(1.0 + math.exp(0.7))

    @staticmethod
    def _phi(full2):
        return Potential.depth_one(full2, [0.0, 0.7])

    @pytest.mark.parametrize("length", [16, 20, 24, 30])
    def test_critical_alpha_answers_past_the_window(self, full2, length):
        rng = np.random.default_rng(length)
        spec = SubsetSpec.cylinders(
            full2, [rng.integers(0, 2, length).tolist() for _ in range(20)])
        tol = 1e-6
        est = critical_alpha(spec, self._phi(full2), 1, tol)
        # on the depth-1 cover, least_n is the length
        assert est.n_range == (length, length)
        assert abs(est.value - self.P) <= 2 * tol

    def test_capacities_answer_past_the_window(self, full2):
        rng = np.random.default_rng(1)
        spec = SubsetSpec.cylinders(
            full2, [rng.integers(0, 2, 22).tolist() for _ in range(10)])
        lo, hi = capacity_pressures(spec, self._phi(full2), 1, 20)
        # the first N read, n_half - 1, is raised from 9 to least_n = 22
        assert lo.n_range == hi.n_range == (23, 33)
        assert abs(lo.value - self.P) <= 1e-6
        assert abs(hi.value - self.P) <= 1e-6


class TestManyBlockStates:
    """The cover route steps along the arcs of its block graph, so a deep
    cover costs time and memory per arc, not per pair of states."""

    @staticmethod
    def _depth_two():
        rng = np.random.default_rng(5)
        words = [(0, 0), (0, 1), (1, 0), (1, 1)]
        return {w: float(v) for w, v in zip(words, rng.normal(size=4))}

    def test_depth_13_cover_matches_two_state_oracles(self, full2, golden):
        # 4,096 block states; the oracles run on 2 states
        table = self._depth_two()
        pot = Potential(full2, 2, table)
        t, tol = 13, 1e-6
        assert len(_StringCalculus(SubsetSpec.whole(full2), pot,
                                   t).graph.words) == 4096
        oracle = transfer_pressure(full2, pot)
        for spec in (SubsetSpec.whole(full2),
                     SubsetSpec.cylinders(full2, [(0, 1, 1), (1, 0)])):
            est = critical_alpha(spec, pot, t, tol)
            assert abs(est.value - oracle) <= 2 * tol
        sub = SubsetSpec.sub_sft(full2, golden.adjacency)
        golden_pot = Potential(golden, 2, {w: v for w, v in table.items()
                                           if w != (1, 1)})
        est = critical_alpha(sub, pot, t, tol)
        assert abs(est.value - transfer_pressure(golden, golden_pot)) \
            <= 2 * tol

    def test_memory_follows_the_arcs(self, full2):
        # 1,024 block states; a dense (states, states) weight matrix alone
        # takes 8 MiB here
        pot = Potential(full2, 2, self._depth_two())
        tracemalloc.start()
        try:
            critical_alpha(SubsetSpec.whole(full2), pot, 11, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestPressureRefined:
    def test_exact_at_every_depth(self, full2, phi_log2):
        # a depth-1 potential is constant on every cover element of depth
        # t >= 1, so each depth gives the exact pressure
        whole = SubsetSpec.whole(full2)
        for t in (1, 2, 3):
            est = critical_alpha(whole, phi_log2, t, 1e-5)
            assert est.value == pytest.approx(math.log(3), abs=1e-5)

    def test_golden_mean(self, golden):
        zero = Potential.zero(golden)
        est = pressure_refined(SubsetSpec.whole(golden), zero, [1, 2],
                               tol=1e-4)
        assert est.value == pytest.approx(math.log(GOLDEN), abs=1e-4)

    def test_bracket_respects_tolerance(self, full2):
        # the refined estimate carries the certified bracket
        sub = SubsetSpec.sub_sft(full2, [[1, 1], [1, 0]])
        est = pressure_refined(sub, Potential.zero(full2), [1], tol=1e-4)
        assert est.bracket[1] - est.bracket[0] <= 1e-4
        assert est.bracket[0] <= est.value <= est.bracket[1]

    def test_depths_must_increase(self, full2, phi_log2):
        with pytest.raises(ValueError):
            pressure_refined(SubsetSpec.whole(full2), phi_log2, [3, 1],
                             tol=1e-4)

    def test_empty_depths_refused(self, full2, phi_log2):
        with pytest.raises(ValueError, match="depths"):
            pressure_refined(SubsetSpec.whole(full2), phi_log2, [], tol=1e-4)

    def test_agrees_with_transfer_oracle_random_systems(self):
        # the central cross-validation: cover-based pressure against the
        # transfer-matrix value on oracle systems
        rng = np.random.default_rng(97)
        tol = 1e-4
        for _ in range(4):
            system = ShiftSystem(random_irreducible_adjacency(rng, 3))
            pot = random_potential(rng, system, int(rng.integers(1, 3)))
            est = pressure_refined(SubsetSpec.whole(system), pot,
                                   [pot.depth, pot.depth + 1], tol=tol)
            oracle = transfer_pressure(system, pot)
            assert abs(est.value - oracle) <= 2 * tol


class TestStructuralProperties:
    TOL = 1e-4

    def _p(self, spec, pot, depth=1, tol=TOL):
        return critical_alpha(spec, pot, depth, tol).value

    def test_chain_inequality(self, full2, phi_log2):
        spec = SubsetSpec.whole(full2)
        p = self._p(spec, phi_log2)
        lo, hi = capacity_pressures(spec, phi_log2, 1, 20)
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
            t = 1
            # covering sums are monotone pointwise (exactly); capacity
            # values inherit it up to the slope brackets' own widths
            from ergopress import log_lambda_n
            for N in (4, 8, 12):
                assert log_lambda_n(inner, pot, t, N) <= \
                    log_lambda_n(outer, pot, t, N) + 1e-12
            lo_in, hi_in = capacity_pressures(inner, pot, t, 24)
            lo_out, hi_out = capacity_pressures(outer, pot, t, 24)
            slack = (hi_in.bracket[1] - hi_in.bracket[0]) + \
                (hi_out.bracket[1] - hi_out.bracket[0]) + 2 * self.TOL
            assert lo_in.value <= lo_out.value + slack
            assert hi_in.value <= hi_out.value + slack

    def test_capacity_stable_under_cover_refinement(self, golden):
        # deeper cylinder covers leave the capacity limit unchanged
        zero = Potential.zero(golden)
        whole = SubsetSpec.whole(golden)
        for t in (1, 2, 3):
            _, hi = capacity_pressures(whole, zero, t, 24)
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
        lo, hi = capacity_pressures(sub, zero, 1, 24)
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
            lo, hi = capacity_pressures(trace, phi, 1, 16)
            values.append(hi.value)
        for v in values:
            assert v == pytest.approx(values[0], abs=1e-9)
