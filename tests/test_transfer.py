import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import (GOLDEN, random_irreducible_adjacency, random_potential,
                      random_support)
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
    perturbed_chains,
    power_iteration,
    power_pressure_check,
    topological_entropy,
    transfer_pressure,
    vp_residual,
)
from ergopress.multifractal import t_curve
from ergopress.transfer import (ConvergenceError, IncreaseDepthError,
                                _stationary_vector, equilibrium_states,
                                power_sum_potential, power_system)


class TestPowerIteration:
    def test_all_ones(self):
        lam, v = power_iteration(np.ones((2, 2)))
        _, u = power_iteration(np.ones((2, 2)).T)
        assert lam == pytest.approx(2.0, abs=1e-12)
        assert np.all(v > 0) and np.all(u > 0)
        assert u.sum() == pytest.approx(1.0)

    def test_golden_matrix(self):
        lam, _ = power_iteration(np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert lam == pytest.approx(GOLDEN, abs=1e-12)

    def test_symmetric_weighted(self):
        lam, _ = power_iteration(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert lam == pytest.approx(3.0, abs=1e-12)

    def test_residual_bound(self):
        M = np.array([[1.0, 1.0], [2.0, 2.0]])
        lam, v = power_iteration(M)
        _, u = power_iteration(M.T)
        assert np.abs(M @ v - lam * v).max() <= 1e-12 * lam
        assert np.abs(u @ M - lam * u).max() <= 1e-10 * lam

    def test_reducible_rejected(self):
        with pytest.raises(NoUniquePerronError):
            power_iteration(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_periodic_irreducible_converges(self):
        lam, _ = power_iteration(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_against_numpy_eig(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            M = random_irreducible_adjacency(rng, dim) * \
                np.exp(rng.normal(size=(dim, dim)))
            lam, _ = power_iteration(M)
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
                lam, v = power_iteration(M)
                _, u = power_iteration(M.T)
            except ConvergenceError:
                continue
            converged += 1
            assert np.all(v > 0) and np.all(u > 0)
            assert v.sum() == pytest.approx(1.0, abs=1e-14)
            assert u.sum() == pytest.approx(1.0, abs=1e-14)
            assert np.abs(M @ v - lam * v).max() <= 1e-12 * lam
            assert np.abs(u @ M - lam * u).max() <= 1e-10 * lam
            assert lam == pytest.approx(max(np.linalg.eigvals(M).real),
                                        rel=1e-10)
        # all 180 inputs close the Collatz-Wielandt bracket
        assert converged >= 120

    def test_row_sums_far_above_the_perron_root(self):
        # the largest row sum is 46,344 times the Perron root
        M = np.array([[0.0, 1e4, 0.0], [0.0, 0.0, 1e-6], [1.0, 0.0, 1e-3]])
        lam, v = power_iteration(M)
        _, u = power_iteration(M.T)
        assert M.sum(axis=1).max() > 1e4 * lam
        assert np.all(v > 0) and np.all(u > 0)
        assert np.abs(M @ v - lam * v).max() <= 1e-12 * lam
        assert np.abs(u @ M - lam * u).max() <= 1e-10 * lam
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
            lam, v = power_iteration(M)
            lam_t, u = power_iteration(M.T)
            for root, x, image in ((lam, v, M @ v), (lam_t, u, u @ M)):
                assert (image / x).min() <= root <= (image / x).max()
                assert root == pytest.approx(max(eig(M)[0].real), rel=1e-12)

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

    @staticmethod
    def _assert_members_match(stack, singles):
        lam, v = power_iteration(stack)
        assert lam.shape == (len(stack),) and v.shape == stack.shape[:2]
        for i, (lam1, v1) in enumerate(singles):
            assert lam[i] == pytest.approx(lam1, rel=1e-12)
            np.testing.assert_allclose(v[i], v1, rtol=1e-12)

    def test_stack_members_match_single_calls(self):
        # three weightings of each hard support, solved as one stack,
        # which raises when one of its members does; the transposed
        # stack gives the left vectors
        rng = np.random.default_rng(21)
        for adj in self._hard_supports(rng):
            dim = adj.shape[0]
            stack = adj * np.exp(4.0 * rng.normal(size=(3, dim, dim)))
            for mats in (stack, np.swapaxes(stack, -1, -2)):
                try:
                    singles = [power_iteration(M) for M in mats]
                except ConvergenceError:
                    with pytest.raises(ConvergenceError):
                        power_iteration(mats)
                    continue
                self._assert_members_match(mats, singles)

    def test_stack_of_extreme_golden_mean_weights(self, golden):
        # rows differing by up to e^300 next to ones differing by e^-300
        phi = Potential.depth_one(golden, [0.0, 1.0])
        scales = np.array([-300.0, -100.0, 100.0, 300.0])
        stack = TransferMatrix(golden, phi, scales).matrix
        singles = [TransferMatrix(golden, phi.scaled(q)).matrix
                   for q in scales]
        self._assert_members_match(stack, [power_iteration(M) for M in singles])
        self._assert_members_match(np.swapaxes(stack, -1, -2),
                                   [power_iteration(M.T) for M in singles])
        exact = (1 + np.sqrt(1 + 4 * np.exp(scales))) / 2
        np.testing.assert_allclose(power_iteration(stack)[0], exact,
                                   rtol=1e-12)

    def test_stack_with_a_reducible_member_rejected(self):
        stack = np.array([np.ones((2, 2)), [[1.0, 1.0], [0.0, 1.0]]])
        with pytest.raises(NoUniquePerronError):
            power_iteration(stack)

    def test_member_whose_bracket_cannot_close(self, monkeypatch):
        # from a flat start the all-ones member closes at once; the other
        # needs more steps than allowed, and the stack raises
        from ergopress import transfer

        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda mat: (
            eig(mat)[0], np.ones(mat.shape, dtype=complex)))
        monkeypatch.setattr(transfer, "MAX_POWER_STEPS", 3)
        power_iteration(np.ones((3, 3)))
        stack = np.array([np.ones((3, 3)),
                          [[1.0, 5.0, 0.0], [0.0, 0.1, 1.0], [2.0, 0.0, 0.0]]])
        with pytest.raises(ConvergenceError):
            power_iteration(stack)

    def test_stack_keeps_leading_axes(self):
        stack = np.ones((2, 3, 4, 4)) * np.arange(1.0, 4.0)[:, None, None]
        lam, v = power_iteration(stack)
        _, u = power_iteration(np.swapaxes(stack, -1, -2))
        assert lam.shape == (2, 3) and v.shape == u.shape == (2, 3, 4)
        np.testing.assert_allclose(lam, 4.0 * np.arange(1.0, 4.0)[None, :]
                                   + np.zeros((2, 1)), rtol=1e-14)


class TestExactReferences:
    """The Perron root and the stationary vectors against exact rational
    references (``oracles``), which share no algorithm with the library."""

    @staticmethod
    def _dyadic(rng, shape, lowest):
        """Weights k * 2**e, k in 1..15 and e in lowest..0: exact floats."""
        return np.ldexp(rng.integers(1, 16, shape).astype(float),
                        rng.integers(lowest, 1, shape))

    def test_stationary_vector_of_tiny_masses(self):
        # a cycle plus random arcs, weights down to 2^-300: every entry of
        # pi to 1e-13 relative, the smallest far below float eps
        rng = np.random.default_rng(41)
        for _ in range(60):
            dim = int(rng.integers(3, 7))
            arcs = rng.random((dim, dim)) < 0.4
            arcs[np.arange(dim), (np.arange(dim) + 1) % dim] = True
            W = np.where(arcs, self._dyadic(rng, (dim, dim), -300), 0.0)
            exact_P = [[Fraction(w) / sum(map(Fraction, row)) for w in row]
                       for row in W]
            exact = oracles.exact_stationary(exact_P)
            pi = _stationary_vector(np.array(exact_P, dtype=float))
            for got, want in zip(pi, exact):
                assert abs(Fraction(got) - want) <= Fraction(1e-13) * want

    def test_perron_root_within_its_bracket(self):
        # irreducible dyadic matrices and one periodic permuted cycle: the
        # one-sided lambda lies within 1e-13 lambda of the exact root
        rng = np.random.default_rng(42)
        mats = []
        for _ in range(39):
            dim = int(rng.integers(2, 7))
            adj = random_irreducible_adjacency(rng, dim)
            mats.append(adj * np.ldexp(self._dyadic(rng, (dim, dim), -20),
                                       rng.integers(0, 21, (dim, dim))))
        perm = rng.permutation(5)
        cycle = np.roll(np.eye(5), 1, axis=1)[perm][:, perm]
        mats.append(cycle * self._dyadic(rng, (5, 5), -10))
        for M in mats:
            lam, _ = power_iteration(M)
            lo, hi = oracles.perron_root_bracket(M, Fraction(1, 10 ** 15))
            slack = Fraction(1e-13) * Fraction(lam)
            assert lo - slack <= Fraction(lam) <= hi + slack

    def test_pressure_of_float_log_weights_within_exact_bracket(self):
        # 120 systems of 2-8 symbols with rational weights w, 24 of them
        # with one weight 2^(+-1154) (about e^(+-800)): transfer_pressure
        # of fl(log w) lies in the exact bracket of the float potential,
        # widened by 1e-13 (the Collatz-Wielandt closing width) and a few
        # ulps, or raises by name; it never returns NaN or inf.  The exact
        # matrix is built here from the adjacency and the weights.
        rng = np.random.default_rng(44)
        kinds = ("aperiodic", "cycle", "bipartite", "reducible")
        answered = dict.fromkeys(kinds, 0)
        tiny_answered = 0
        for trial in range(120):
            kind = kinds[trial % 4]
            k, depth = int(rng.integers(2, 9)), int(rng.integers(1, 3))
            adj = random_support(rng, kind, k)
            src, dst = np.nonzero(adj)
            windows = [(a,) for a in range(k)] if depth == 1 \
                else list(zip(src.tolist(), dst.tolist()))
            w = {u: Fraction(int(rng.integers(1, 41)),
                             int(rng.integers(1, 41))) for u in windows}
            extreme = (1154 if trial // 10 % 2 else -1154) \
                if trial % 10 >= 8 else 0
            if extreme:
                w[windows[int(rng.integers(len(windows)))]] = \
                    Fraction(2) ** extreme
            M = [[Fraction(0)] * k for _ in range(k)]
            for a, b in zip(src.tolist(), dst.tolist()):
                M[a][b] = w[(a, b)[:depth]]
            table = {u: oracles.float_log(x) for u, x in w.items()}
            system = ShiftSystem(adj)
            if kind == "reducible":  # e^800 overflows before the check
                with pytest.raises(OverflowError if extreme > 0
                                   else NoUniquePerronError):
                    transfer_pressure(system, Potential(system, depth, table))
                continue
            try:
                got = float(transfer_pressure(
                    system, Potential(system, depth, table)))
            except (NoUniquePerronError, ConvergenceError, OverflowError):
                continue
            answered[kind] += 1
            tiny_answered += extreme < 0
            assert math.isfinite(got)
            lo, hi = oracles.float_pressure_bracket(
                M, [(table[u], x) for u, x in w.items()])
            slack = 1e-13 + 4 * math.ulp(max(abs(lo), abs(hi)))
            assert lo - slack <= got <= hi + slack
        assert min(answered[kind] for kind in kinds[:3]) >= 20
        assert tiny_answered >= 4

    def test_chains_without_a_unique_stationary_vector_raise(self):
        two_classes = np.array([[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
                                [0.0, 0.0, 0.2, 0.8], [0.0, 0.0, 1.0, 0.0]])
        nan = np.full((3, 3), 1 / 3)
        nan[2, 0] = np.nan
        for P in (two_classes, np.eye(3), nan, np.stack([np.ones((4, 4)) / 4,
                                                         two_classes])):
            with pytest.raises(NoUniquePerronError,
                               match="no unique stationary vector"):
                _stationary_vector(P)

    def test_equilibrium_pi_matches_left_times_right_vector(self):
        # pi is proportional to u * v, u the left Perron vector
        rng = np.random.default_rng(43)
        scales = np.linspace(-24.0, 24.0, 33)
        for _ in range(300):
            system = ShiftSystem(random_irreducible_adjacency(
                rng, int(rng.integers(2, 6))))
            pot = random_potential(rng, system, int(rng.integers(1, 3)))
            tm = TransferMatrix(system, pot, scales)
            _, v = power_iteration(tm.matrix)
            _, u = power_iteration(np.swapaxes(tm.matrix, -1, -2))
            np.testing.assert_allclose(
                equilibrium_states(system, pot, scales).stationary,
                u * v / (u * v).sum(axis=-1, keepdims=True), rtol=1e-10, atol=0)


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

    def test_scaled_stack_overflow_and_underflow(self, golden):
        # phi = (0, 1): at q = 720 the weight e^720 overflows and the one
        # matrix raises OverflowError; at q = -800 e^-800 underflows to 0,
        # the support turns reducible, and the solve raises
        # NoUniquePerronError.  The stack does the same, with no warning.
        phi = Potential.depth_one(golden, [0.0, 1.0])
        with pytest.raises(OverflowError):
            TransferMatrix(golden, phi.scaled(720.0))
        with pytest.raises(NoUniquePerronError):
            equilibrium_markov(golden, phi.scaled(-800.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                TransferMatrix(golden, phi, np.array([1.0, 720.0]))
            for grid in ([720.0], [-1.0, 720.0]):
                with pytest.raises(OverflowError):
                    t_curve(golden, phi, grid)
            stack = TransferMatrix(golden, phi, np.array([-800.0, 1.0]))
            one = TransferMatrix(golden, phi.scaled(-800.0))
            assert np.isfinite(stack.matrix).all()
            np.testing.assert_array_equal(stack.matrix[0], one.matrix)
            for grid in ([-800.0], [-800.0, 1.0, 2.0]):
                with pytest.raises(NoUniquePerronError):
                    t_curve(golden, phi, grid)

    def test_entries_are_exp_of_table_values(self):
        rng = np.random.default_rng(4)
        for k in (2, 3, 4):
            system = ShiftSystem(random_irreducible_adjacency(rng, k))
            for r in (1, 2, 3):
                pot = random_potential(rng, system, r)
                tm = TransferMatrix(system, pot)
                expected = np.zeros((tm.dimension,) * 2)
                states = list(map(tuple, tm.graph.words.tolist()))
                for i, s in enumerate(states):
                    for j, u in enumerate(states):
                        if s[1:] == u[:-1] and system.allows(s[-1], u[-1]):
                            window = (s + u[-1:])[:r]
                            expected[i, j] = np.exp(pot.table[window])
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
        assert mu.pressure == pytest.approx(math.log(3), abs=1e-12)

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
            gap = mu.pressure - mu.entropy - mu.potential_integral
            assert abs(gap) <= 1e-9

    def test_gibbs_identity_is_enforced_for_every_member(self, golden,
                                                        monkeypatch):
        # the builder's one raise guards the single state and each member
        # of a q-stack (t_curve, correlation_entropy)
        from ergopress import transfer

        phi = Potential.depth_one(golden, [0.0, 1.0])
        monkeypatch.setattr(transfer, "GIBBS_TOL", -1.0)
        for build in (lambda: equilibrium_markov(golden, phi),
                      lambda: t_curve(golden, phi, [-1.0, 2.0])):
            with pytest.raises(RuntimeError, match="Gibbs identity"):
                build()

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
                gap = mu.pressure - mu.entropy - mu.potential_integral
                assert abs(gap) <= 1e-12

    def test_cylinder_measure_brute(self, golden):
        mu = equilibrium_markov(golden, Potential.zero(golden))
        total = sum(math.exp(mu.log_masses(np.array([w]))[0])
                    for w in oracles.enumerate_words(golden.adjacency, 5))
        assert total == pytest.approx(1.0, abs=1e-12)
        assert mu.log_masses(np.array([(1, 1)]))[0] == -math.inf

    def test_sampled_words_consistent(self, full2, phi_log2):
        mu = equilibrium_markov(full2, phi_log2)
        rng = np.random.default_rng(1)
        words, logm = mu.sample_words(12, 50, rng)
        for w, lm in zip(words, logm):
            assert mu.log_masses(np.array([w]))[0] == pytest.approx(lm)

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
                        for s, x in zip(state, draws)], dtype=np.intp)
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
        return oracles.markov_log_mass(list(map(tuple, mu.graph.words.tolist())),
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
            assert [mu.log_masses(np.array([w]))[0] for w in words] == \
                pytest.approx(got.tolist(), rel=1e-12)
            pot = random_potential(rng, system, r)
            expected = sum(math.exp(mu.log_masses(np.array([w]))[0])
                           * pot.table[w] for w in words)
            assert mu.integrate(pot) == pytest.approx(expected, rel=1e-12)

    def test_words_off_the_support(self, golden):
        mu = equilibrium_markov(golden, random_potential(
            np.random.default_rng(6), golden, 3))
        got = mu.log_masses(np.array([[1, 1, 0], [0, 1, 1], [0, 1, 0]]))
        assert got[0] == got[1] == -math.inf and got[2] > -math.inf
        # symbols outside range(2), whose block codes are those of (1, 0)
        # and (0, 1) on the state graph
        for words in ([[0, 2], [1, -1]], [[0, 0, 2], [2, 0, 1]]):
            assert (mu.log_masses(np.array(words)) == -math.inf).all()
        assert mu.log_masses(np.array([[1]]))[0] == pytest.approx(
            math.log(mu.stationary[mu.graph.words[:, 0] == 1].sum()), rel=1e-12)

    def test_malformed_states_rejected(self, full2):
        # the states are the graph's depth-blocks: depth 0 has none, and
        # the chain data must match the states' count
        half = [0.5, 0.5]
        for depth, pi, P, match in (
                (0, half, [half, half], "n must be >= 1"),
                (2, half, [half, half], "shape mismatch"),
                (1, half, [half], "shape mismatch"),
                (1, [half], [half, half], "shape mismatch")):
            with pytest.raises(ValueError, match=match):
                MarkovMeasure(full2, depth, pi, P)

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
        stack = perturbed_chains(mu, 40, np.random.default_rng(11), scale=0.5)
        assert stack.graph is mu.graph and stack.entropy.shape == (40,)
        rng = np.random.default_rng(11)
        for pi_got, P_got, h_got in zip(stack.stationary, stack.transitions,
                                        stack.entropy):
            # the chain drawn, normalized and solved as one matrix
            noise = rng.normal(0.0, 0.5, size=mu.transitions.shape)
            P = np.where(mu.transitions > 0, mu.transitions * np.exp(noise), 0)
            P = P / P.sum(axis=1, keepdims=True)
            dim = len(P)
            pi, *_ = np.linalg.lstsq(np.vstack([P.T - np.eye(dim),
                                                np.ones(dim)]),
                                     np.eye(dim + 1)[-1], rcond=None)
            one = MarkovMeasure(system, 1, pi, P)
            np.testing.assert_allclose(P_got, one.transitions,
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(pi_got, one.stationary,
                                       rtol=1e-12, atol=1e-15)
            assert h_got == pytest.approx(one.entropy, rel=1e-12)
            assert np.abs(pi_got @ P_got - pi_got).max() <= 1e-12

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_stacked_integrals_match_one_at_a_time(self, depth):
        # states are 2-blocks: depth 1 sums pi over prefixes, deeper
        # potentials chain transitions
        rng, system, mu = self._random_measure(16, 2)
        pot = random_potential(rng, system, depth)
        stack = perturbed_chains(mu, 30, np.random.default_rng(17))
        got = stack.integrate(pot)
        # each member from the stack's own solve, before its renormalisation
        P = stack.transitions
        members = [MarkovMeasure(system, 2, pi, one_P)
                   for pi, one_P in zip(_stationary_vector(P), P)]
        assert got.shape == (30,)
        np.testing.assert_array_equal(stack.stationary,
                                      [m.stationary for m in members])
        np.testing.assert_allclose(got, [m.integrate(pot) for m in members],
                                   rtol=1e-14, atol=1e-15)
        np.testing.assert_array_equal(stack.entropy,
                                      [m.entropy for m in members])

    def test_irreducible_perturbed_stack_is_solved_square(self, monkeypatch):
        # the state reduction needs no LAPACK solve and no pseudo-inverse
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK solve reached by a chain solve")

        for name in ("solve", "pinv", "lstsq"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for seed, d in ((9, 1), (16, 2)):
            _, _, mu = self._random_measure(seed, d)
            stack = perturbed_chains(mu, 50, np.random.default_rng(seed))
            pi, P = stack.stationary, stack.transitions
            assert np.abs((pi[:, None, :] @ P)[:, 0] - pi).max() <= 1e-12

    def test_perturbed_delta_base_raises(self, full2):
        # P = I has two closed classes: any mix of the two point masses is
        # stationary, so the chain has no unique stationary vector
        with pytest.raises(NoUniquePerronError,
                           match="no unique stationary vector"):
            perturbed_chains(delta_measure(full2, 1), 5,
                             np.random.default_rng(12))

    def test_sampler_matches_per_state_search_on_40_states(self):
        rng = np.random.default_rng(13)
        adj = random_irreducible_adjacency(rng, 40)
        system = ShiftSystem(adj)
        mu = equilibrium_markov(system, Potential.depth_one(
            system, rng.normal(size=40)))
        assert (mu.transitions == 0).any()
        # blocks of 8192 draws: one sample, one step per block, a last
        # block cut short (2048 samples take 4 steps a block), none
        for length, count in ((25, 300), (25, 1), (6, 9000), (11, 2048),
                              (25, 0)):
            words, logm = mu.sample_words(length, count,
                                          np.random.default_rng(14))
            ref_words, ref_logm = _per_state_sample(mu, length, count, 14)
            assert words.shape == (count, length)
            np.testing.assert_array_equal(words, ref_words)
            np.testing.assert_array_equal(logm, ref_logm)

    def test_sampler_matches_per_state_search_on_clustered_cuts(self):
        # ten cuts 1e-3 apart share guide buckets, so draws there are
        # ranked by the search
        row = np.array([0.5] + [1e-3] * 9 + [0.491])
        P = np.tile(row, (11, 1))
        system = ShiftSystem(np.ones((11, 11), dtype=np.int64))
        mu = MarkovMeasure(system, 1, row, P)
        words, logm = mu.sample_words(40, 500, np.random.default_rng(18))
        ref_words, ref_logm = _per_state_sample(mu, 40, 500, 18)
        np.testing.assert_array_equal(words, ref_words)
        np.testing.assert_array_equal(logm, ref_logm)
        assert np.isin(words, np.arange(1, 10)).any()
        # rows ending one ulp below 1 and at 1: the last of 64 buckets
        # holds the cuts 127/128, 255/256 and 1 - 2**-53, and every step
        # into symbol 2 is drawn there
        cum = np.array([[0.375, 127 / 128, 1 - 2 ** -53],
                        [0.25, 255 / 256, 1.0],
                        [0.5, 127 / 128, 1.0]])
        P = np.diff(cum, prepend=0.0)
        np.testing.assert_array_equal(np.cumsum(P, axis=1), cum)
        pi, *_ = np.linalg.lstsq(np.vstack([P.T - np.eye(3), np.ones(3)]),
                                 np.eye(4)[-1], rcond=None)
        system = ShiftSystem(np.ones((3, 3), dtype=np.int64))
        mu = MarkovMeasure(system, 1, pi, P)
        words, logm = mu.sample_words(40, 500, np.random.default_rng(19))
        ref_words, ref_logm = _per_state_sample(mu, 40, 500, 19)
        np.testing.assert_array_equal(words, ref_words)
        np.testing.assert_array_equal(logm, ref_logm)
        assert (words[:, 1:] == 2).any()

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
            MarkovMeasure(full2, 1, [0.7, 0.3],
                          [[0.5, 0.5], [0.5, 0.5]])  # not stationary
        with pytest.raises(ValueError):
            MarkovMeasure(full2, 1, [0.5, 0.5],
                          [[0.9, 0.2], [0.5, 0.5]])  # rows do not sum to 1
        with pytest.raises(ValueError):
            MarkovMeasure(full2, 1, [math.nan, math.nan],
                          [[0.5, 0.5], [0.5, 0.5]])  # NaN stationary vector
        with pytest.raises(ValueError):
            MarkovMeasure(full2, 1, [0.5, 0.5],
                          [[0.5, 0.5], [math.nan, math.nan]])  # NaN row

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
        uniform = MarkovMeasure(full2, 1, [0.5, 0.5],
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
        stack = perturbed_chains(mu, 40, rng)
        residuals = vp_residual(full2, phi_log2, stack)
        assert residuals.shape == (40,) and (residuals >= -1e-9).all()
        # one residual per chain: each member alone gives its own
        for pi, P, residual in zip(stack.stationary, stack.transitions,
                                   residuals):
            one = MarkovMeasure(full2, 1, pi, P)
            assert vp_residual(full2, phi_log2, one) == \
                pytest.approx(residual, rel=1e-12, abs=1e-15)


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
        power = power_system(full2, 2)
        assert power.alphabet_size == 4
        lifted = power_sum_potential(phi_log2, 2, power)
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
        mu = MarkovMeasure(full2, 1, [1 - p1, p1],
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
        mu = MarkovMeasure(full2, 1, [1 - p1, p1],
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
            blocks[w] = math.exp(mu.log_masses(np.array([w]))[0])
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
                chain = perturbed_chains(equilibrium_markov(system, phi), 1,
                                         rng)
                mu = MarkovMeasure(system, chain.state_depth,
                                   chain.stationary[0], chain.transitions[0])
                words = oracles.enumerate_words(system.adjacency, b)
                blocks = {w: math.exp(mu.log_masses(np.array([w]))[0])
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
        return MarkovMeasure(full2, 1, [1 - p1, p1],
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
        mu = MarkovMeasure(make_full_shift(2), 1, [0.5, 0.5],
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
