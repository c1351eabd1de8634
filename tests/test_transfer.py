import math

import numpy as np
import pytest

import oracles
from conftest import GOLDEN, random_irreducible_adjacency, random_potential
from ergopress import (
    MarkovMeasure,
    NoUniquePerronError,
    Potential,
    ShiftSystem,
    TransferMatrix,
    block_recode,
    delta_measure,
    equilibrium_markov,
    inverse_vp_probe,
    perturbed_invariant_measures,
    power_iteration,
    power_pressure_check,
    topological_entropy,
    transfer_pressure,
    vp_residual,
)
from ergopress.transfer import ConvergenceError, IncreaseDepthError, power_system


class TestPowerIteration:
    def test_all_ones(self):
        lam, v, u = power_iteration(np.ones((2, 2)))
        assert lam == pytest.approx(2.0, abs=1e-12)
        assert np.all(v > 0) and np.all(u > 0)
        assert u @ v == pytest.approx(1.0)

    def test_golden_matrix(self):
        lam, _, _ = power_iteration(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert lam == pytest.approx(GOLDEN, abs=1e-12)

    def test_symmetric_weighted(self):
        lam, _, _ = power_iteration(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert lam == pytest.approx(3.0, abs=1e-12)

    def test_residual_bound(self):
        M = np.array([[1.0, 1.0], [2.0, 2.0]])
        lam, v, u = power_iteration(M, tol=1e-13)
        assert np.abs(M @ v - lam * v).max() <= 1e-12 * lam
        assert np.abs(u @ M - lam * u).max() <= 1e-10 * lam

    def test_reducible_rejected(self):
        with pytest.raises(NoUniquePerronError):
            power_iteration(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_periodic_irreducible_converges(self):
        lam, _, _ = power_iteration(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_against_numpy_eig(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            M = random_irreducible_adjacency(rng, dim) * \
                np.exp(rng.normal(size=(dim, dim)))
            lam, _, _ = power_iteration(M)
            expected = max(np.linalg.eigvals(M).real)
            assert lam == pytest.approx(expected, rel=1e-10)

    @staticmethod
    def _hard_supports(rng):
        """Irreducible 0/1 supports: random ones of dimension 2-8 (with
        and without self-loops) and permuted cycles of dimension 3-7,
        which are periodic."""
        for _ in range(60):
            dim = int(rng.integers(2, 9))
            yield random_irreducible_adjacency(rng, dim)
            adj = (rng.random((dim, dim)) < 0.3).astype(np.int64)
            np.fill_diagonal(adj, 0)
            adj[np.arange(dim), (np.arange(dim) + 1) % dim] = 1
            yield adj
            dim = int(rng.integers(3, 8))
            perm = rng.permutation(dim)
            yield np.roll(np.eye(dim, dtype=np.int64), 1, axis=1)[perm][:, perm]

    def test_hard_inputs_converge_or_raise_convergence_error(self):
        rng = np.random.default_rng(11)
        converged = 0
        for adj in self._hard_supports(rng):
            dim = adj.shape[0]
            M = adj * np.exp(4.0 * rng.normal(size=(dim, dim)))
            try:
                lam, v, u = power_iteration(M)
            except ConvergenceError:
                continue
            converged += 1
            assert np.all(v > 0) and np.all(u > 0)
            assert v.sum() == pytest.approx(1.0, abs=1e-14)
            assert u @ v == pytest.approx(1.0, abs=1e-12)
            assert np.abs(M @ v - lam * v).max() <= 1e-12 * lam
            un = u / u.sum()
            assert np.abs(un @ M - lam * un).max() <= 1e-10 * lam
            assert lam == pytest.approx(max(np.linalg.eigvals(M).real),
                                        rel=1e-10)
        # of the 180 inputs, 143 converge; the others miss the final
        # residual bound in floating point
        assert converged >= 120

    def test_hard_reducible_inputs_rejected(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            cut = int(rng.integers(1, dim))
            M = np.exp(4.0 * rng.normal(size=(dim, dim)))
            M[cut:, :cut] = 0.0  # block triangular
            with pytest.raises(NoUniquePerronError):
                power_iteration(M)

    def test_eigensolver_failure_is_convergence_error(self, monkeypatch):
        def failing_eig(mat):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", failing_eig)
        with pytest.raises(ConvergenceError):
            power_iteration(np.ones((2, 2)))


class TestTransferMatrix:
    def test_depth_one_dimension(self, full2, phi_log2):
        tm = TransferMatrix(full2, phi_log2)
        assert tm.dimension == 2
        assert tm.matrix == pytest.approx(np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_depth_two_uses_transition_blocks(self, golden):
        pot = Potential(golden, 2, {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3})
        tm = TransferMatrix(golden, pot)
        assert tm.dimension == 2  # (r-1)-blocks: the alphabet itself
        expected = np.array([[math.exp(0.1), math.exp(0.2)],
                             [math.exp(0.3), 0.0]])
        assert tm.matrix == pytest.approx(expected)

    def test_zero_where_forbidden(self, golden):
        tm = TransferMatrix(golden, Potential.zero(golden))
        assert tm.matrix[1, 1] == 0.0


class TestTransferPressure:
    def test_full_shift_entropy(self, full2):
        assert transfer_pressure(full2, Potential.zero(full2)) == \
            pytest.approx(math.log(2), abs=1e-12)

    def test_weighted(self, full2, phi_log2):
        assert transfer_pressure(full2, phi_log2) == \
            pytest.approx(math.log(3), abs=1e-12)

    def test_golden_mean(self, golden):
        assert transfer_pressure(golden, Potential.zero(golden)) == \
            pytest.approx(math.log(GOLDEN), abs=1e-12)

    def test_reducible_rejected(self):
        sys_r = ShiftSystem([[1, 1], [0, 1]])
        with pytest.raises(NoUniquePerronError):
            transfer_pressure(sys_r, Potential.zero(sys_r))


class TestBlockRecode:
    def test_depth_one_identity(self, full2, phi_log2):
        system, pot = block_recode(full2, phi_log2)
        assert system is full2 and pot is phi_log2

    def test_full_shift_depth_two(self, full2):
        pot = Potential(full2, 2, {(a, b): 0.1 * a + 0.2 * b
                                   for a in range(2) for b in range(2)})
        recoded, rpot = block_recode(full2, pot)
        assert recoded.alphabet_size == 4
        assert rpot.depth == 1

    def test_golden_mean_blocks(self, golden):
        pot = Potential(golden, 2, {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0})
        recoded, _ = block_recode(golden, pot)
        assert recoded.alphabet_size == 3  # blocks 00, 01, 10

    def test_word_counts_preserved(self, full2, golden):
        rng = np.random.default_rng(9)
        for system in (full2, golden):
            pot = random_potential(rng, system, 2)
            recoded, _ = block_recode(system, pot)
            for n in range(2, 11):
                # length-n words of the original match length-(n-1) block words
                assert system.word_count(n) == recoded.word_count(n - 1)

    def test_deep_recode_irreducible(self, full2):
        # 64 recoded states: counting paths in (I + A)^64 overflows int64
        rng = np.random.default_rng(29)
        pot = random_potential(rng, full2, 6)
        recoded, rpot = block_recode(full2, pot)
        assert recoded.alphabet_size == 64
        assert recoded.irreducible
        assert transfer_pressure(recoded, rpot) == pytest.approx(
            transfer_pressure(full2, pot), abs=1e-9)

    def test_pressure_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            system = ShiftSystem(random_irreducible_adjacency(rng, 3))
            pot = random_potential(rng, system, int(rng.integers(2, 4)))
            recoded, rpot = block_recode(system, pot)
            assert transfer_pressure(recoded, rpot) == pytest.approx(
                transfer_pressure(system, pot), abs=1e-9)


class TestEquilibriumMarkov:
    def test_maximal_entropy_bernoulli(self, full2):
        mu = equilibrium_markov(full2, Potential.zero(full2))
        assert mu.stationary == pytest.approx([0.5, 0.5], abs=1e-12)
        assert mu.entropy == pytest.approx(math.log(2), abs=1e-12)

    def test_weighted_bernoulli(self, full2, phi_log2):
        mu = equilibrium_markov(full2, phi_log2)
        assert mu.stationary == pytest.approx([1 / 3, 2 / 3], abs=1e-12)
        assert mu.entropy == pytest.approx(math.log(3) - (2 / 3) * math.log(2),
                                           abs=1e-12)
        assert mu.potential_integral == pytest.approx((2 / 3) * math.log(2),
                                                      abs=1e-12)
        assert math.log(mu.eigenvalue) == pytest.approx(math.log(3), abs=1e-12)

    def test_parry_measure(self, golden):
        mu = equilibrium_markov(golden, Potential.zero(golden))
        assert mu.transitions[0, 1] == pytest.approx(1 / GOLDEN ** 2, abs=1e-12)
        assert mu.transitions[1, 0] == pytest.approx(1.0, abs=1e-12)
        assert mu.entropy == pytest.approx(math.log(GOLDEN), abs=1e-12)

    def test_gibbs_identity_random(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            system = ShiftSystem(random_irreducible_adjacency(rng, dim))
            pot = random_potential(rng, system, int(rng.integers(1, 3)))
            mu = equilibrium_markov(system, pot)
            gap = math.log(mu.eigenvalue) - mu.entropy - mu.potential_integral
            assert abs(gap) <= 1e-9

    def test_cylinder_measure_brute(self, golden):
        mu = equilibrium_markov(golden, Potential.zero(golden))
        total = sum(math.exp(mu.log_cylinder_measure(w))
                    for w in oracles.enumerate_words(golden.adjacency, 5))
        assert total == pytest.approx(1.0, abs=1e-12)
        assert mu.log_cylinder_measure((1, 1)) == -math.inf

    def test_sampled_words_consistent(self, full2, phi_log2):
        mu = equilibrium_markov(full2, phi_log2)
        rng = np.random.default_rng(1)
        words, logm = mu.sample_words(12, 50, rng)
        for w, lm in zip(words, logm):
            assert mu.log_cylinder_measure(tuple(w)) == pytest.approx(lm)

    def test_sampled_words_match_per_state_search(self):
        # six states, one forbidden transition: a zero in the chain
        adj = np.ones((6, 6), dtype=np.int64)
        adj[2, 4] = 0
        system = ShiftSystem(adj)
        rng = np.random.default_rng(5)
        mu = equilibrium_markov(system, Potential.depth_one(
            system, rng.normal(size=6)))
        assert mu.transitions[2, 4] == 0.0
        words, logm = mu.sample_words(30, 400, np.random.default_rng(9))

        ref_rng = np.random.default_rng(9)
        cum_P = np.cumsum(mu.transitions, axis=1)
        state = np.searchsorted(np.cumsum(mu.stationary),
                                ref_rng.random(400)).clip(0, 5)
        ref_logm = np.log(mu.stationary[state])
        path = [state]
        for _ in range(29):
            draws = ref_rng.random(400)
            nxt = np.array([min(np.searchsorted(cum_P[s], x, side="left"), 5)
                            for s, x in zip(state, draws)])
            ref_logm += np.log(mu.transitions[state, nxt])
            state = nxt
            path.append(state)
        np.testing.assert_array_equal(words, np.stack(path, axis=1))
        np.testing.assert_array_equal(logm, ref_logm)


class TestMarkovMeasure:
    def test_validation(self, full2):
        with pytest.raises(ValueError):
            MarkovMeasure(full2, [(0,), (1,)], [0.7, 0.3],
                          [[0.5, 0.5], [0.5, 0.5]])  # not stationary
        with pytest.raises(ValueError):
            MarkovMeasure(full2, [(0,), (1,)], [0.5, 0.5],
                          [[0.9, 0.2], [0.5, 0.5]])  # rows do not sum to 1

    def test_delta_measure(self, full2):
        d = delta_measure(full2, 1)
        assert d.entropy == 0.0
        assert d.integrate(Potential.depth_one(full2, [0.0, 2.5])) == \
            pytest.approx(2.5)


class TestVariationalResiduals:
    def test_zero_at_equilibrium(self, full2, phi_log2):
        mu = equilibrium_markov(full2, phi_log2)
        assert abs(vp_residual(full2, phi_log2, mu)) <= 1e-9

    def test_uniform_measure_value(self, full2, phi_log2):
        uniform = MarkovMeasure(full2, [(0,), (1,)], [0.5, 0.5],
                                [[0.5, 0.5], [0.5, 0.5]])
        expected = math.log(3) - (math.log(2) + 0.5 * math.log(2))
        assert vp_residual(full2, phi_log2, uniform) == \
            pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.0589, abs=1e-4)

    def test_point_mass_value(self, full2, phi_log2):
        residual = vp_residual(full2, phi_log2, delta_measure(full2, 1))
        assert residual == pytest.approx(math.log(3) - math.log(2), abs=1e-12)

    def test_nonnegative_over_random_measures(self, full2, phi_log2):
        rng = np.random.default_rng(41)
        mu = equilibrium_markov(full2, phi_log2)
        for measure in perturbed_invariant_measures(mu, 40, rng):
            assert vp_residual(full2, phi_log2, measure) >= -1e-9


class TestPowerPressure:
    def test_identity_at_one(self, full2, phi_log2):
        lhs, rhs = power_pressure_check(full2, phi_log2, 1)
        assert lhs == rhs

    def test_cube_of_full_shift(self, full2):
        lhs, rhs = power_pressure_check(full2, Potential.zero(full2), 3)
        assert lhs == pytest.approx(3 * math.log(2), abs=1e-9)
        assert rhs == pytest.approx(3 * math.log(2), abs=1e-9)

    def test_square_weighted(self, full2, phi_log2):
        lhs, rhs = power_pressure_check(full2, phi_log2, 2)
        assert lhs == pytest.approx(2 * math.log(3), abs=1e-9)
        assert abs(lhs - rhs) <= 1e-9

    def test_block_matrix_eigenvalue_is_nine(self, full2, phi_log2):
        power, blocks = power_system(full2, 2)
        assert power.alphabet_size == 4
        from ergopress.transfer import power_sum_potential
        lifted = power_sum_potential(full2, phi_log2, 2, power, blocks)
        lam = max(np.linalg.eigvals(
            TransferMatrix(power, lifted).matrix).real)
        assert lam == pytest.approx(9.0, abs=1e-9)

    def test_golden_mean_power(self, golden):
        zero = Potential.zero(golden)
        for k in (2, 3):
            lhs, rhs = power_pressure_check(golden, zero, k)
            assert abs(lhs - rhs) <= 1e-9


class TestInverseVpProbe:
    def test_uniform_counts_match_oracle(self, full2):
        zero = Potential.zero(full2)
        mu = equilibrium_markov(full2, zero)
        n = 12
        value = inverse_vp_probe(full2, zero, mu, n, block_depth=1)
        total, count = oracles.typical_cylinder_sum(
            full2.adjacency, zero.table, 1, 1,
            {(0,): 0.5, (1,): 0.5}, 1 / math.sqrt(n), n)
        assert value == pytest.approx(math.log(total) / n)
        assert value == pytest.approx(math.log(2), abs=0.05)

    def test_biased_bernoulli_binomial_oracle(self, full2):
        # symbol frequencies only: the typical family is a binomial slice
        zero = Potential.zero(full2)
        p1 = 3 / 4
        mu = MarkovMeasure(full2, [(0,), (1,)], [1 - p1, p1],
                           [[1 - p1, p1], [1 - p1, p1]])
        n = 16
        value = inverse_vp_probe(full2, zero, mu, n, block_depth=1)
        tol = 1 / math.sqrt(n)
        count = sum(math.comb(n, k) for k in range(n + 1)
                    if abs(k / n - p1) <= tol)
        assert value == pytest.approx(math.log(count) / n)
        h = mu.entropy
        assert h <= value <= math.log(2) + 1e-12

    def test_sandwich_and_trend(self, full2, phi_log2):
        mu = equilibrium_markov(full2, phi_log2)
        target = mu.entropy + mu.integrate(phi_log2)
        ceiling = transfer_pressure(full2, phi_log2)
        values = [inverse_vp_probe(full2, phi_log2, mu, n)
                  for n in (8, 12, 16)]
        for n, v in zip((8, 12, 16), values):
            assert target - 3 / math.sqrt(n) <= v <= ceiling + 3 / math.sqrt(n)

    def test_nonequilibrium_pair_approaches_entropy(self, full2):
        # probing the zero potential against a biased chain approaches the
        # chain's entropy from above as the depth grows
        zero = Potential.zero(full2)
        p1 = 3 / 4
        mu = MarkovMeasure(full2, [(0,), (1,)], [1 - p1, p1],
                           [[1 - p1, p1], [1 - p1, p1]])
        values = [inverse_vp_probe(full2, zero, mu, n, block_depth=1)
                  for n in (16, 20)]
        assert values[1] < values[0]
        assert values[1] >= mu.entropy - 1e-9

    def test_empty_family_raises(self, full2):
        # 9 pair windows cannot all hit frequency 1/4 exactly
        zero = Potential.zero(full2)
        mu = equilibrium_markov(full2, zero)
        with pytest.raises(IncreaseDepthError):
            inverse_vp_probe(full2, zero, mu, 10, freq_tol=1e-9)

    def test_routes_through_cover_machinery(self, golden):
        # the probe value is a covering sum over the typical family
        zero = Potential.zero(golden)
        mu = equilibrium_markov(golden, zero)
        n = 10
        value = inverse_vp_probe(golden, zero, mu, n)
        blocks = {}
        for w in oracles.enumerate_words(golden.adjacency, 2):
            blocks[w] = math.exp(mu.log_cylinder_measure(w))
        total, count = oracles.typical_cylinder_sum(
            golden.adjacency, zero.table, 1, 2, blocks, 1 / math.sqrt(n), n)
        assert count > 0
        assert value == pytest.approx(math.log(total) / n)


class TestTopologicalEntropy:
    def test_matches_word_growth(self, golden):
        assert topological_entropy(golden) == pytest.approx(math.log(GOLDEN),
                                                            abs=1e-12)
