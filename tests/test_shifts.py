import math

import numpy as np
import pytest

import oracles
from conftest import random_irreducible_adjacency, random_potential
from ergopress import (
    CylinderSet,
    Potential,
    ShiftSystem,
    SubsetSpec,
    Word,
    admissible_words,
    birkhoff_sup,
    make_full_shift,
)
from ergopress.shifts import (
    BlockGraph,
    iter_admissible_tuples,
    strongly_connected,
    two_sided_cylinder_trace,
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


class TestAdmissibleWords:
    def test_full_2_shift_count(self, full2):
        assert len(admissible_words(full2, 3)) == 8

    def test_golden_mean_counts(self, golden):
        words3 = admissible_words(golden, 3)
        assert len(words3) == 5
        assert len(words3) == len(oracles.enumerate_words(golden.adjacency, 3))
        assert len(admissible_words(golden, 10)) == 144
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
        for w in admissible_words(golden, 6):
            assert golden.is_admissible(w.symbols)
            assert (1, 1) not in tuple(zip(w.symbols, w.symbols[1:]))


class TestWordAndCylinder:
    def test_inadmissible_word_rejected(self, golden):
        with pytest.raises(ValueError):
            Word((1, 1), golden)

    def test_out_of_alphabet_rejected(self, full2):
        with pytest.raises(ValueError):
            Word((0, 2), full2)

    def test_diameter_halves_per_depth(self, full2):
        diams = [CylinderSet(Word((0,) * m, full2)).diameter()
                 for m in range(1, 8)]
        for a, b in zip(diams, diams[1:]):
            assert b == a / 2

    def test_two_sided_diameter(self):
        sys2 = make_full_shift(2, sidedness="two-sided")
        w = Word((0, 1, 0), sys2)
        # centered block: nearest unconstrained coordinate decides
        assert CylinderSet(w, start_index=-1).diameter() == 2.0 ** (-2)
        assert CylinderSet(w, start_index=0).diameter() == 2.0 ** (-1)
        # block strictly in the past: coordinate 0 free
        assert CylinderSet(w, start_index=-5).diameter() == 1.0


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
        assert phi_log2.sup_norm() == math.log(2)
        zero = Potential.zero(full2)
        assert phi_log2.sup_minus(zero) == math.log(2)

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
    def test_exact_regime_plain_sum(self, full2, phi_log2):
        w = Word((1, 0, 1), full2)
        assert birkhoff_sup(phi_log2, w, 3) == pytest.approx(2 * math.log(2))

    def test_extension_regime(self, full2, phi_log2):
        # depth-2 potential forces the supremum over one extra symbol
        pot = Potential(full2, 2, {(0, 0): 0.0, (0, 1): 1.0,
                                   (1, 0): 0.25, (1, 1): 0.5})
        w = Word((1, 0), full2)
        expected = oracles.birkhoff_sup_brute(full2.adjacency, pot.table, 2,
                                              (1, 0), 2)
        assert birkhoff_sup(pot, w, 2) == pytest.approx(expected)
        assert birkhoff_sup(pot, w, 2) == pytest.approx(0.25 + 1.0)

    def test_zero_potential(self, full2):
        zero = Potential.zero(full2)
        assert birkhoff_sup(zero, Word((0, 1, 1), full2), 3) == 0.0

    def test_short_word_sup_over_extensions(self, full2, phi_log2):
        # word shorter than n: the free summand is maximized over the two
        # one-symbol extensions
        value = birkhoff_sup(phi_log2, Word((1, 0), full2), 3)
        assert value == pytest.approx(2 * math.log(2))
        brute = oracles.birkhoff_sup_brute(full2.adjacency, phi_log2.table,
                                           1, (1, 0), 3)
        assert value == pytest.approx(brute)

    def test_invalid_n(self, full2, phi_log2):
        with pytest.raises(ValueError):
            birkhoff_sup(phi_log2, Word((0, 1), full2), 0)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            dim = int(rng.integers(2, 4))
            system = ShiftSystem(random_irreducible_adjacency(rng, dim))
            depth = int(rng.integers(1, 4))
            pot = random_potential(rng, system, depth)
            words = admissible_words(system, int(rng.integers(2, 5)))
            w = words[int(rng.integers(len(words)))]
            n = int(rng.integers(1, len(w) + 1))
            expected = oracles.birkhoff_sup_brute(
                system.adjacency, pot.table, depth, w.symbols, n)
            assert birkhoff_sup(pot, w, n) == pytest.approx(expected)


class TestSubsetSpec:
    def test_cylinder_antichain_reduction(self, full2):
        spec = SubsetSpec.cylinders(full2, [(0,), (0, 1), (1, 0)])
        assert set(spec.words) == {(0,), (1, 0)}

    def test_meets_matches_brute(self, golden):
        spec = SubsetSpec.cylinders(golden, [(0, 0), (1, 0, 1)])
        for w in admissible_words(golden, 4):
            assert spec.meets_word(w.symbols) == oracles.meets(
                "cylinders", w.symbols, cylinder_words=[(0, 0), (1, 0, 1)])

    def test_sub_sft_requires_dominated_matrix(self, golden):
        with pytest.raises(ValueError):
            SubsetSpec.sub_sft(golden, [[1, 1], [1, 1]])

    def test_fixed_point_meets(self, full2):
        spec = SubsetSpec.fixed_point(full2, 0)
        assert spec.meets_word((0, 0, 0))
        assert not spec.meets_word((0, 1))

    def test_forward_liveness(self, full2):
        # symbol 0 has no predecessor inside the sub-SFT but can start a word
        spec = SubsetSpec.sub_sft(full2, [[0, 1], [0, 1]])
        assert spec.meets_word((0, 1, 1))
        assert not spec.meets_word((1, 0))
        for w in oracles.enumerate_words(full2.adjacency, 3):
            assert spec.meets_word(w) == oracles.meets(
                "sub_sft", w, sub_adjacency=[[0, 1], [0, 1]])

    def test_empty_specs(self, full2):
        assert SubsetSpec.cylinders(full2, []).is_empty
        assert not SubsetSpec.whole(full2).is_empty


class TestTwoSidedTrace:
    def test_trace_kinds(self):
        sys2 = make_full_shift(2, sidedness="two-sided")
        w = Word((0, 1), sys2)
        assert two_sided_cylinder_trace(CylinderSet(w, 0)).words == ((0, 1),)
        assert two_sided_cylinder_trace(CylinderSet(w, -1)).words == ((1,),)
        trace2 = two_sided_cylinder_trace(CylinderSet(w, 2))
        assert set(trace2.words) == {(a, b, 0, 1)
                                     for a in range(2) for b in range(2)}
        whole = two_sided_cylinder_trace(CylinderSet(w, -2))
        assert whole.kind == SubsetSpec.WHOLE

    def test_one_sided_rejected(self, full2):
        with pytest.raises(ValueError):
            two_sided_cylinder_trace(CylinderSet(Word((0, 1), full2)))
