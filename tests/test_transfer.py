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
    make_full_shift,
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
        lam, v, u = power_iteration(M)
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
        # all 180 inputs close the Collatz-Wielandt bracket
        assert converged >= 120

    def test_row_sums_far_above_the_perron_root(self):
        # the largest row sum is 46,344 times the Perron root
        M = np.array([[0.0, 1e4, 0.0], [0.0, 0.0, 1e-6], [1.0, 0.0, 1e-3]])
        lam, v, u = power_iteration(M)
        assert M.sum(axis=1).max() > 1e4 * lam
        assert np.all(v > 0) and np.all(u > 0)
        assert np.abs(M @ v - lam * v).max() <= 1e-12 * lam
        un = u / u.sum()
        assert np.abs(un @ M - lam * un).max() <= 1e-10 * lam
        assert lam == pytest.approx(max(np.linalg.eigvals(M).real), rel=1e-10)

    def test_converges_from_a_flat_start(self, monkeypatch):
        # with the LAPACK vectors replaced by constants the shifted
        # iteration alone must close the bracket, periodic inputs included
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda mat: (
            eig(mat)[0], np.ones(mat.shape, dtype=complex)))
        rng = np.random.default_rng(13)
        for adj in self._hard_supports(rng):
            dim = adj.shape[0]
            M = adj * np.exp(rng.normal(size=(dim, dim)))
            lam, v, u = power_iteration(M)
            for x, image in ((v, M @ v), (u, u @ M)):
                assert (image / x).min() <= lam <= (image / x).max()
            assert lam == pytest.approx(max(eig(M)[0].real), rel=1e-12)

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

    def test_entries_are_exp_of_table_values(self):
        rng = np.random.default_rng(4)
        for k in (2, 3, 4):
            system = ShiftSystem(random_irreducible_adjacency(rng, k))
            for r in (1, 2, 3):
                pot = random_potential(rng, system, r)
                tm = TransferMatrix(system, pot)
                expected = np.zeros((tm.dimension,) * 2)
                for i, s in enumerate(tm.states):
                    for j, u in enumerate(tm.states):
                        if s[1:] == u[:-1] and system.allows(s[-1], u[-1]):
                            window = (s + u[-1:])[:r]
                            expected[i, j] = math.exp(pot.table[window])
                assert (tm.matrix == expected).all()


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
    def test_reducible_rejected(self):
        # the support check in power_iteration is the only gate
        sys_r = ShiftSystem([[1, 1], [0, 1]])
        with pytest.raises(NoUniquePerronError):
            equilibrium_markov(sys_r, Potential.zero(sys_r))

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

    def test_periodic_systems_stationary_and_gibbs(self):
        rng = np.random.default_rng(31)
        for dim in range(3, 8):
            perm = rng.permutation(dim)
            cycle = np.roll(np.eye(dim, dtype=np.int64), 1, axis=1)[perm][:, perm]
            system = ShiftSystem(cycle)
            for _ in range(4):
                mu = equilibrium_markov(system, random_potential(rng, system, 1))
                pi, P = mu.stationary, mu.transitions
                assert np.abs(pi @ P - pi).max() <= 1e-12
                gap = math.log(mu.eigenvalue) - mu.entropy - mu.potential_integral
                assert abs(gap) <= 1e-12

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
        ref_words, ref_logm = _per_state_sample(mu, 30, 400, 9)
        np.testing.assert_array_equal(words, ref_words)
        np.testing.assert_array_equal(logm, ref_logm)


def _per_state_sample(mu, length, count, seed):
    """Depth-1 reference sampler: each next state by its own search of
    its row's cumulative transition probabilities."""
    n = len(mu.transitions)
    ref_rng = np.random.default_rng(seed)
    cum_P = np.cumsum(mu.transitions, axis=1)
    state = np.searchsorted(np.cumsum(mu.stationary),
                            ref_rng.random(count)).clip(0, n - 1)
    ref_logm = np.log(mu.stationary[state])
    path = [state]
    for _ in range(length - 1):
        draws = ref_rng.random(count)
        nxt = np.array([min(np.searchsorted(cum_P[s], x, side="left"), n - 1)
                        for s, x in zip(state, draws)])
        ref_logm += np.log(mu.transitions[state, nxt])
        state = nxt
        path.append(state)
    return np.stack(path, axis=1), ref_logm


class TestArrayMeasure:
    """The array-backed cylinder masses, integrals, perturbed stacks and
    sampler against plain per-word and per-measure references."""

    @staticmethod
    def _random_measure(seed, d):
        # an equilibrium state of a random depth-(d + 1) potential lives
        # on the d-blocks of a random system
        rng = np.random.default_rng(seed)
        system = ShiftSystem(random_irreducible_adjacency(
            rng, int(rng.integers(2, 4))))
        mu = equilibrium_markov(system, random_potential(rng, system, d + 1))
        assert mu.state_depth == d
        return rng, system, mu

    @staticmethod
    def _brute(mu, word):
        return oracles.markov_log_mass([tuple(s) for s in mu.states.tolist()],
                                       mu.stationary, mu.transitions, word)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_masses_and_integrals_against_enumeration(self, seed):
        d = 2
        rng, system, mu = self._random_measure(seed, d)
        for r in (d - 1, d, d + 1, d + 3):
            words = oracles.enumerate_words(system.adjacency, r)
            brute = np.array([self._brute(mu, w) for w in words])
            got = mu.log_masses(np.array(words))
            np.testing.assert_array_equal(np.isinf(got), np.isinf(brute))
            live = np.isfinite(brute)
            np.testing.assert_allclose(got[live], brute[live], rtol=1e-12)
            assert [mu.log_cylinder_measure(w) for w in words] == \
                pytest.approx(got.tolist(), rel=1e-12)
            pot = random_potential(rng, system, r)
            expected = sum(math.exp(mu.log_cylinder_measure(w)) * pot.table[w]
                           for w in words)
            assert mu.integrate(pot) == pytest.approx(expected, rel=1e-12)

    def test_words_off_the_support(self, golden):
        mu = equilibrium_markov(golden, random_potential(
            np.random.default_rng(6), golden, 3))
        got = mu.log_masses(np.array([[1, 1, 0], [0, 1, 1], [0, 1, 0]]))
        assert got[0] == got[1] == -math.inf and got[2] > -math.inf
        assert mu.log_masses(np.array([[1]]))[0] == pytest.approx(
            math.log(mu.stationary[mu.states[:, 0] == 1].sum()), rel=1e-12)
        assert mu.log_cylinder_measure((2, 0)) == -math.inf  # no symbol 2
        assert mu.log_cylinder_measure(()) == pytest.approx(0.0, abs=1e-15)

    def test_states_in_permuted_order(self):
        rng, system, mu = self._random_measure(7, 2)
        perm = rng.permutation(len(mu.states))
        shuffled = MarkovMeasure(system, mu.states[perm], mu.stationary[perm],
                                 mu.transitions[np.ix_(perm, perm)])
        for r in (1, 2, 3, 5):
            words = np.array(oracles.enumerate_words(system.adjacency, r))
            np.testing.assert_allclose(shuffled.log_masses(words),
                                       mu.log_masses(words), rtol=1e-12)
            pot = random_potential(rng, system, r)
            assert shuffled.integrate(pot) == pytest.approx(mu.integrate(pot),
                                                            rel=1e-12)
        assert shuffled.entropy == pytest.approx(mu.entropy, rel=1e-12)

    def test_malformed_states_rejected(self, full2):
        chain = ([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        for states in ([(0,), (0,)], [(0,), (2,)], [(0,), (-1,)], [0, 1]):
            with pytest.raises(ValueError, match="states"):
                MarkovMeasure(full2, states, *chain)

    def test_delta_measure_masses(self, full2, golden):
        delta = delta_measure(full2, 1)
        got = delta.log_masses(np.array([[1, 1, 1], [1, 0, 1], [0, 0, 0]]))
        np.testing.assert_array_equal(got, [0.0, -math.inf, -math.inf])
        pot = random_potential(np.random.default_rng(8), full2, 3)
        assert delta.integrate(pot) == pot.table[(1, 1, 1)]
        with pytest.raises(ValueError, match="does not match"):
            delta.integrate(Potential.zero(golden))

    def test_perturbed_stack_matches_one_at_a_time(self):
        _, system, mu = self._random_measure(9, 1)
        stack = list(perturbed_invariant_measures(
            mu, 40, np.random.default_rng(11), scale=0.5))
        rng = np.random.default_rng(11)
        for got in stack:
            # the chain drawn, normalized and solved as one matrix
            noise = rng.normal(0.0, 0.5, size=mu.transitions.shape)
            P = np.where(mu.transitions > 0, mu.transitions * np.exp(noise), 0)
            P = P / P.sum(axis=1, keepdims=True)
            dim = len(P)
            pi, *_ = np.linalg.lstsq(np.vstack([P.T - np.eye(dim),
                                                np.ones(dim)]),
                                     np.eye(dim + 1)[-1], rcond=None)
            one = MarkovMeasure(system, mu.states, pi, P)
            np.testing.assert_allclose(got.transitions, one.transitions,
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(got.stationary, one.stationary,
                                       rtol=1e-12, atol=1e-15)
            assert got.entropy == pytest.approx(one.entropy, rel=1e-12)
            pi, P = got.stationary, got.transitions
            assert np.abs(pi @ P - pi).max() <= 1e-12
            assert got.states is mu.states

    def test_perturbed_delta_base_is_accepted(self, full2):
        # P = I is reducible: the minimum-norm solution is uniform
        for m in perturbed_invariant_measures(delta_measure(full2, 1), 5,
                                              np.random.default_rng(12)):
            np.testing.assert_array_equal(m.transitions, np.eye(2))
            np.testing.assert_allclose(m.stationary, [0.5, 0.5], rtol=1e-12)
            assert m.entropy == 0.0

    def test_sampler_matches_per_state_search_on_40_states(self):
        rng = np.random.default_rng(13)
        adj = random_irreducible_adjacency(rng, 40)
        system = ShiftSystem(adj)
        mu = equilibrium_markov(system, Potential.depth_one(
            system, rng.normal(size=40)))
        assert (mu.transitions == 0).any()
        words, logm = mu.sample_words(25, 300, np.random.default_rng(14))
        ref_words, ref_logm = _per_state_sample(mu, 25, 300, 14)
        np.testing.assert_array_equal(words, ref_words)
        np.testing.assert_array_equal(logm, ref_logm)

    def test_sampling_shorter_than_the_states_raises(self, full2):
        mu = equilibrium_markov(full2, random_potential(
            np.random.default_rng(15), full2, 3))
        with pytest.raises(ValueError, match="need length >= 2"):
            mu.sample_words(1, 10, np.random.default_rng(0))
        words, logm = mu.sample_words(2, 10, np.random.default_rng(0))
        assert words.shape == (10, 2)
        np.testing.assert_allclose(logm, mu.log_masses(words), rtol=1e-12)


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

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_random_systems_match_oracle(self, r):
        # block depths below and above the potential depth, three
        # tolerances; for r >= 2 the last windows run into the tails
        rng = np.random.default_rng(40 + r)
        for b in sorted({max(r - 1, 1), r + 1}):
            for tol in (None, 0.1, 0.5):
                k = int(rng.integers(2, 5))
                n = 8 if k < 4 else 7
                system = ShiftSystem(random_irreducible_adjacency(rng, k))
                phi = random_potential(rng, system, r)
                mu = next(iter(perturbed_invariant_measures(
                    equilibrium_markov(system, phi), 1, rng)))
                words = oracles.enumerate_words(system.adjacency, b)
                blocks = {w: math.exp(mu.log_cylinder_measure(w))
                          for w in words}
                total, count = oracles.typical_cylinder_sum(
                    system.adjacency, phi.table, r, b, blocks,
                    tol if tol is not None else 1 / math.sqrt(n), n,
                    tails="sum")
                if count == 0:
                    with pytest.raises(IncreaseDepthError):
                        inverse_vp_probe(system, phi, mu, n, block_depth=b,
                                         freq_tol=tol)
                    continue
                value = inverse_vp_probe(system, phi, mu, n, block_depth=b,
                                         freq_tol=tol)
                assert value == pytest.approx(math.log(total) / n, rel=1e-12)

    @staticmethod
    def _coin(full2, p1=3 / 4):
        return MarkovMeasure(full2, [(0,), (1,)], [1 - p1, p1],
                             [[1 - p1, p1], [1 - p1, p1]])

    def test_binomial_reference_at_n_200(self, full2):
        n, p1 = 200, 3 / 4
        tol = 1 / math.sqrt(n)
        count = sum(math.comb(n, k) for k in range(n + 1)
                    if abs(k / n - p1) <= tol
                    and abs((n - k) / n - (1 - p1)) <= tol)
        value = inverse_vp_probe(full2, Potential.zero(full2),
                                 self._coin(full2), n, block_depth=1)
        assert value == pytest.approx(math.log(count) / n, rel=1e-12)

    @pytest.mark.parametrize("n", [16, 50])
    def test_extreme_potential_stays_finite(self, full2, n):
        phi = Potential.depth_one(full2, [0.0, 800.0])
        tol = 1 / math.sqrt(n)
        logs = [math.log(math.comb(n, k)) + 800.0 * k for k in range(n + 1)
                if abs(k / n - 3 / 4) <= tol
                and abs((n - k) / n - 1 / 4) <= tol]
        top = max(logs)
        expected = top + math.log(sum(math.exp(v - top) for v in logs))
        value = inverse_vp_probe(full2, phi, self._coin(full2), n,
                                 block_depth=1)
        assert math.isfinite(value)
        assert value == pytest.approx(expected / n, rel=1e-12)

    def test_family_empties_partway(self, golden, monkeypatch):
        # a full-shift measure puts 1/4 on each golden-mean pair block, so
        # with tol 0.05 each of the three counts must stay <= 29 of 99, so
        # no word of length 89 (88 blocks) is left in the family
        merges = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort",
                            lambda keys: merges.append(0) or lexsort(keys))
        mu = MarkovMeasure(make_full_shift(2), [(0,), (1,)], [0.5, 0.5],
                           [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(IncreaseDepthError, match="at depth 100"):
            inverse_vp_probe(golden, Potential.zero(golden), mu, 100,
                             block_depth=2, freq_tol=0.05)
        assert len(merges) == 87  # word lengths 2..88 of 100

    def test_biased_coin_decays_towards_entropy(self, full2):
        mu = self._coin(full2)
        zero = Potential.zero(full2)
        values = [inverse_vp_probe(full2, zero, mu, n, block_depth=1)
                  for n in (50, 100, 200)]
        assert values[0] > values[1] > values[2] >= mu.entropy

    def test_equilibrium_state_approaches_from_below(self, full2, phi_log2):
        mu = equilibrium_markov(full2, phi_log2)
        pressure = transfer_pressure(full2, phi_log2)
        values = [inverse_vp_probe(full2, phi_log2, mu, n)
                  for n in (50, 100, 200)]
        assert values[0] < values[1] < values[2] < pressure


class TestTopologicalEntropy:
    def test_matches_word_growth(self, golden):
        assert topological_entropy(golden) == pytest.approx(math.log(GOLDEN),
                                                            abs=1e-12)
