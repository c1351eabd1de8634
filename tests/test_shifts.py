import math

import numpy as np
import pytest

import oracles
from conftest import random_irreducible_adjacency, random_potential
from ergopress import (
    Cover,
    Potential,
    ShiftSystem,
    SubsetSpec,
    lambda_n,
    make_full_shift,
)
from ergopress.shifts import (
    BlockGraph,
    iter_admissible_tuples,
    strongly_connected,
)


def _rows(array):
    return [tuple(row) for row in array.tolist()]


class TestShiftSystem:
    def test_full_shift_adjacency(self):
        assert (make_full_shift(2).adjacency == np.ones((2, 2))).all()
        assert (make_full_shift(3).adjacency == np.ones((3, 3))).all()

    def test_full_shift_irreducible_flag(self):
        assert make_full_shift(2).irreducible

    def test_single_symbol_rejected(self):
        with pytest.raises(ValueError):
            make_full_shift(1)

    def test_dead_symbol_rejected(self):
        with pytest.raises(ValueError):
            ShiftSystem([[1, 1], [0, 0]])

    def test_reducible_flagged(self):
        sys_r = ShiftSystem([[1, 1], [0, 1]])
        assert not sys_r.irreducible

    def test_strongly_connected_matches_graph_search(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            dim = int(rng.integers(1, 9))
            M = (rng.random((dim, dim)) < 0.3).astype(np.int64)
            reached = []
            for start in range(dim):
                seen, todo = {start}, [start]
                while todo:
                    a = todo.pop()
                    for b in np.flatnonzero(M[a]):
                        if int(b) not in seen:
                            seen.add(int(b))
                            todo.append(int(b))
                reached.append(len(seen) == dim)
            assert strongly_connected(M) == all(reached)

    def test_long_cycle_irreducible(self):
        # 100 states: the entries of (I + A)^k overflow int64 long before
        # k reaches the dimension, so reachability must not count paths
        adj = np.roll(np.eye(100, dtype=np.int64), 1, axis=1)
        adj[0, 0] = 1
        assert ShiftSystem(adj.copy()).irreducible
        adj[99, 0] = 0
        adj[99, 99] = 1
        assert not ShiftSystem(adj).irreducible

    def test_non_01_rejected(self):
        with pytest.raises(ValueError):
            ShiftSystem([[1, 2], [1, 0]])


def _words(system, n):
    return list(iter_admissible_tuples(system.adjacency, n))


class TestAdmissibleWords:
    def test_full_2_shift_count(self, full2):
        assert len(_words(full2, 3)) == 8

    def test_golden_mean_counts(self, golden):
        words3 = _words(golden, 3)
        assert len(words3) == 5
        assert words3 == oracles.enumerate_words(golden.adjacency, 3)
        assert len(_words(golden, 10)) == 144
        assert len(oracles.enumerate_words(golden.adjacency, 10)) == 144

    def test_counts_match_adjacency_powers(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            dim = int(rng.integers(2, 4))
            system = ShiftSystem(random_irreducible_adjacency(rng, dim))
            for n in range(1, 13):
                count = system.word_count(n)
                if n <= 8:  # enumeration oracle at small n
                    assert count == len(oracles.enumerate_words(
                        system.adjacency, n))
                power = np.linalg.matrix_power(
                    system.adjacency.astype(object), n - 1).sum()
                assert count == power

    def test_words_are_admissible(self, golden):
        for w in _words(golden, 6):
            assert golden.is_admissible(w)
            assert (1, 1) not in tuple(zip(w, w[1:]))


class TestWordAndCylinder:
    def test_inadmissible_word_rejected(self, golden):
        assert not golden.is_admissible((1, 1))
        with pytest.raises(ValueError):
            SubsetSpec.cylinders(golden, [(1, 1)])

    def test_out_of_alphabet_rejected(self, full2):
        assert not full2.is_admissible((0, 2))
        with pytest.raises(ValueError):
            SubsetSpec.cylinders(full2, [(0, 2)])

    def test_diameter_halves_per_depth(self, full2):
        diams = [Cover(full2, m).diameter() for m in range(1, 8)]
        for a, b in zip(diams, diams[1:]):
            assert b == a / 2


class TestBlockGraph:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_words_match_oracle(self, k):
        rng = np.random.default_rng(k)
        for _ in range(4):
            adj = random_irreducible_adjacency(rng, k)
            for d in range(1, 5):
                graph = BlockGraph(adj, d)
                assert _rows(graph.words) == oracles.enumerate_words(adj, d)
                assert (graph.index(graph.words) == np.arange(len(
                    graph.words))).all()

    @staticmethod
    def _reduced_cases():
        rng = np.random.default_rng(11)
        yield [[0, 1], [0, 0]]  # reduces to the empty sub-SFT
        yield [[0, 1], [0, 1]]  # 0 has no predecessor but continues
        for k in (2, 3, 4, 5):
            for _ in range(6):
                yield (random_irreducible_adjacency(rng, k)
                       * (rng.random((k, k)) < 0.5)).tolist()

    def test_reduced_sub_sft_words_are_the_live_words(self):
        for sub in self._reduced_cases():
            k = len(sub)
            reduced = SubsetSpec.sub_sft(make_full_shift(k), sub).sub_adjacency
            live = oracles.forward_live_symbols(sub)
            for d in range(1, 4):
                expected = [w for w in oracles.enumerate_words(sub, d)
                            if set(w) <= live]
                assert _rows(BlockGraph(reduced, d).words) == expected

    def test_arcs_are_the_one_symbol_extensions(self):
        rng = np.random.default_rng(5)
        adjs = [random_irreducible_adjacency(rng, k) for k in (2, 3, 4)]
        adjs += [SubsetSpec.sub_sft(make_full_shift(len(sub)),
                                    sub).sub_adjacency
                 for sub in self._reduced_cases()]
        for adj in adjs:
            A = np.asarray(adj)
            for d in (1, 2, 3):
                graph = BlockGraph(A, d)
                src, dst, arc_words = graph.arcs
                words = _rows(graph.words)
                found = [(words[i], words[j], w) for i, j, w in
                         zip(src, dst, _rows(arc_words))]
                brute = [(w, w[1:] + (a,), w + (a,)) for w in words
                         for a in range(len(A)) if A[w[-1], a]]
                assert found == brute  # sorted by source, then symbol

    def test_potential_values_are_table_lookups(self):
        rng = np.random.default_rng(9)
        for k in (2, 3, 4):
            system = ShiftSystem(random_irreducible_adjacency(rng, k))
            for r in (1, 2, 3):
                pot = random_potential(rng, system, r)
                words = BlockGraph(system.adjacency, r + 3).words
                windows = np.stack([words[:, p:p + r] for p in range(4)],
                                   axis=1)
                expected = [[pot.table[w] for w in _rows(row)]
                            for row in windows]
                assert pot.values(windows).tolist() == expected

    def test_lengths_below_one_raise(self, full2):
        with pytest.raises(ValueError):
            iter_admissible_tuples(full2.adjacency, 0)
        with pytest.raises(ValueError):
            BlockGraph(full2.adjacency, 0)

    def test_codes_that_overflow_int64_are_refused(self):
        cycle = np.roll(np.eye(3, dtype=np.int64), 1, axis=1)
        assert len(BlockGraph(cycle, 39).words) == 3
        with pytest.raises(ValueError, match="overflow"):
            BlockGraph(cycle, 40)


class TestPotential:
    def test_table_must_cover_admissible_words(self, golden):
        with pytest.raises(ValueError):
            Potential(golden, 2, {(0, 0): 1.0, (0, 1): 2.0})  # misses (1, 0)

    def test_inadmissible_key_rejected(self, golden):
        with pytest.raises(ValueError):
            Potential(golden, 2, {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0,
                                  (1, 1): 4.0})

    def test_nonfinite_rejected(self, full2):
        with pytest.raises(ValueError):
            Potential.depth_one(full2, [0.0, math.inf])

    def test_sup_norm_and_distance(self, full2, phi_log2):
        zero = Potential.zero(full2)
        assert phi_log2.sup_minus(zero) == math.log(2)  # the sup norm
        assert phi_log2.sup_minus(Potential.constant(full2, 1.0)) == 1.0

    def test_graph_is_cached_per_system_and_depth(self, golden):
        pot = random_potential(np.random.default_rng(2), golden, 3)
        assert pot.graph is golden.block_graph(3)
        assert Potential.zero(golden).graph is golden.block_graph(1)
        assert golden.block_graph(2) is not golden.block_graph(3)
        with pytest.raises(ValueError):
            golden.block_graph(3).words[0, 0] = 1  # shared, so read-only

    def test_scaled_shares_graph_and_scales_values(self, golden):
        pot = random_potential(np.random.default_rng(3), golden, 2)
        for q in (-2.5, 0.0, 0.75, 3.0):
            scaled = pot.scaled(q)
            assert scaled.graph is pot.graph
            assert scaled.depth == pot.depth and scaled.system is golden
            assert scaled.table.keys() == pot.table.keys()
            assert all(scaled.table[w] == q * v for w, v in pot.table.items())
            words = pot.graph.words
            np.testing.assert_array_equal(
                scaled.values(words),
                [q * pot.table[w] for w in _rows(words)])


class TestBirkhoffSup:
    """On a word of length >= n + r - 1 every summand of the n-term
    Birkhoff sum is fixed, so its sup over the cylinder is the plain
    window sum ``Potential.word_sum``."""

    def test_exact_regime_plain_sum(self, full2, phi_log2):
        assert phi_log2.word_sum((1, 0, 1), 3) == pytest.approx(2 * math.log(2))

    def test_zero_potential(self, full2):
        assert Potential.zero(full2).word_sum((0, 1, 1), 3) == 0.0

    def test_invalid_n(self, full2, phi_log2):
        # n summands of a depth-r potential need n + r - 1 symbols
        with pytest.raises(ValueError):
            phi_log2.word_sum((0, 1), 3)
        pot = Potential(full2, 2, {(0, 0): 0.0, (0, 1): 1.0,
                                   (1, 0): 0.25, (1, 1): 0.5})
        with pytest.raises(ValueError):
            pot.word_sum((1, 0), 2)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            dim = int(rng.integers(2, 4))
            system = ShiftSystem(random_irreducible_adjacency(rng, dim))
            depth = int(rng.integers(1, 4))
            pot = random_potential(rng, system, depth)
            words = _words(system, depth + int(rng.integers(0, 4)))
            w = words[int(rng.integers(len(words)))]
            n = int(rng.integers(1, len(w) - depth + 2))
            expected = oracles.window_sum(pot.table, depth, w, n)
            assert pot.word_sum(w, n) == pytest.approx(expected)


class TestSubsetSpec:
    def test_cylinder_antichain_reduction(self, full2):
        spec = SubsetSpec.cylinders(full2, [(0,), (0, 1), (1, 0)])
        assert set(spec.words) == {(0,), (1, 0)}

    def test_meets_matches_brute(self, golden):
        # the covering sum adds exactly the words whose cylinders meet the
        # union
        words = [(0, 0), (1, 0, 1)]
        spec = SubsetSpec.cylinders(golden, words)
        pot = Potential.depth_one(golden, [0.3, -0.7])
        for t in (1, 2):
            for N in range(1, 5):
                brute = oracles.lambda_brute(golden.adjacency, pot.table, 1, t,
                                             N, "cylinders",
                                             cylinder_words=words)
                assert lambda_n(spec, pot, Cover(golden, t), N) == \
                    pytest.approx(brute, rel=1e-10)

    def test_sub_sft_requires_dominated_matrix(self, golden):
        with pytest.raises(ValueError):
            SubsetSpec.sub_sft(golden, [[1, 1], [1, 1]])

    def test_fixed_point_meets(self, full2, phi_log2):
        spec = SubsetSpec.fixed_point(full2, 0)
        np.testing.assert_array_equal(spec.sub_adjacency, [[1, 0], [0, 0]])
        zero = Potential.zero(full2)
        for N in range(1, 5):  # only 0^N meets the fixed point
            assert lambda_n(spec, zero, Cover(full2, 1), N) == \
                pytest.approx(1.0)
        self._check_lambda(spec, phi_log2, [[1, 0], [0, 0]])

    def test_forward_liveness(self, full2, phi_log2):
        # symbol 0 has no predecessor inside the sub-SFT but can start a word
        sub = [[0, 1], [0, 1]]
        spec = SubsetSpec.sub_sft(full2, sub)
        np.testing.assert_array_equal(spec.sub_adjacency, sub)
        zero = Potential.zero(full2)
        for N in range(2, 6):  # 1^N and 0 1^(N-1)
            assert lambda_n(spec, zero, Cover(full2, 1), N) == \
                pytest.approx(2.0)
        self._check_lambda(spec, phi_log2, sub)

    @staticmethod
    def _check_lambda(spec, pot, sub):
        system = spec.system
        for t in (1, 2):
            for N in range(1, 6):
                brute = oracles.lambda_brute(system.adjacency, pot.table,
                                             pot.depth, t, N, "sub_sft",
                                             sub_adjacency=sub)
                assert lambda_n(spec, pot, Cover(system, t), N) == \
                    pytest.approx(brute, rel=1e-10)

    def test_empty_specs(self, full2):
        assert SubsetSpec.cylinders(full2, []).is_empty
        assert not SubsetSpec.whole(full2).is_empty
