"""Exact thermodynamic machinery for subshifts of finite type.

For a locally constant potential of depth r the weighted transfer matrix
acts on admissible (r-1)-blocks (plain symbols when r = 1), with entry
exp(potential value on the transition window) wherever the adjacency
allows the transition.  Its Perron eigenvalue lambda gives the classical
pressure log(lambda), and the Perron eigenvectors give the unique Gibbs
Markov measure with

    log(lambda) = entropy + integral of the potential,

an identity that holds exactly for the constructed chain and is checked
at construction.  These closed-form quantities are the oracles against
which every cover-based estimate in this package is validated.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .shifts import (
    Potential,
    ShiftSystem,
    strongly_connected,
)


class NoUniquePerronError(RuntimeError):
    """Raised when the matrix is reducible (no simple positive eigendata)."""


class ConvergenceError(RuntimeError):
    """Raised when the Perron data cannot be certified."""


class IncreaseDepthError(RuntimeError):
    """Raised when a frequency-typical cylinder family is empty."""


GIBBS_TOL = 1e-9
MAX_POWER_STEPS = 100_000


class TransferMatrix:
    """Weighted adjacency matrix of a shift system and potential.

    States are admissible (r-1)-blocks for a depth-r potential (the
    alphabet itself when r = 1); the entry for an allowed transition is
    exp(potential on the transition window).  With ``scales`` (exponents
    q) ``matrix`` is the stack (Q, n, n) for q * potential, built in one
    step; an overflowing weight raises OverflowError, as math.exp does.
    """

    def __init__(self, system: ShiftSystem, potential: Potential, scales=None):
        if potential.system is not system and \
                not np.array_equal(potential.system.adjacency, system.adjacency):
            raise ValueError("potential does not match the system")
        self.system = system
        self.potential = potential
        r = potential.depth
        self.graph = system.block_graph(max(r - 1, 1))
        src, dst, arc_words = self.graph.arcs
        self.values = potential.values(arc_words[:, :r])  # one per arc
        if scales is None:
            weights = [math.exp(v) for v in self.values]
        else:
            with np.errstate(over="ignore"):
                weights = np.exp(np.multiply.outer(scales, self.values))
            if np.isinf(weights).any():
                raise OverflowError("math range error")
        M = np.zeros(np.shape(scales) + (len(self.graph.words),) * 2)
        M[..., src, dst] = weights
        self.matrix = M
        self.matrix.setflags(write=False)

    @cached_property
    def states(self) -> tuple:
        return tuple(map(tuple, self.graph.words.tolist()))

    @property
    def dimension(self) -> int:
        return len(self.graph.words)


def power_iteration(matrix):
    """Perron eigenvalue and positive left/right eigenvectors of a matrix,
    or of each member of a stack (..., n, n).

    Each of v (on M) and u (on its transpose) starts from the LAPACK
    eigenvector (one batched ``np.linalg.eig``) of the largest real
    eigenvalue lam0, taken in absolute value, and iterates x <- Mx + lam0 x
    (lam0 clipped at 0, so periodic matrices converge too), normalized to
    unit 1-norm.  A member's x is frozen once x > 0 and the Collatz-Wielandt
    bracket [lo, hi] = [min, max] of (Mx)_i / x_i, which holds rho(M) for
    every positive x (Seneta, Non-negative Matrices and Markov Chains,
    ch. 1), has hi - lo <= 1e-13 * hi.  Raises NoUniquePerronError when a
    support is reducible, ConvergenceError when LAPACK fails or a bracket
    does not close in MAX_POWER_STEPS steps.

    Returns (lam, v, u) with the stack's leading axes: lam is the midpoint
    of the intersection of the two brackets, v > 0 has unit 1-norm, u > 0
    is scaled so u . v = 1.
    """
    M = matrix.matrix if isinstance(matrix, TransferMatrix) else np.asarray(matrix, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("need a square matrix or a stack of them")
    if (M < 0).any():
        raise ValueError("need a nonnegative matrix")
    if not strongly_connected(M).all():
        raise NoUniquePerronError("no-unique-perron: matrix support is reducible")

    def bracket(mats):
        try:
            values, vectors = np.linalg.eig(mats)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"no-convergence: eigensolver failed: {exc}") from exc
        top = values.real.argmax(axis=-1)[..., None, None]
        shift = np.maximum(values.real.max(axis=-1, keepdims=True), 0.0)
        x = np.abs(np.take_along_axis(vectors, top, -1)[..., 0])
        x = x / x.sum(axis=-1, keepdims=True)
        for _ in range(MAX_POWER_STEPS):
            img = (mats @ x[..., None])[..., 0]
            positive = x > 0
            ratio = img / np.where(positive, x, np.inf)
            lo, hi = ratio.min(axis=-1), ratio.max(axis=-1)
            closed = positive.all(axis=-1) & (hi - lo <= 1e-13 * hi)
            if closed.all():
                return lo, hi, x
            x_next = img + shift * x
            x = np.where(closed[..., None], x,
                         x_next / x_next.sum(axis=-1, keepdims=True))
        raise ConvergenceError("no-convergence: Perron bracket did not close")

    lo, hi, v = bracket(M)
    lo_left, hi_left, u = bracket(np.swapaxes(M, -1, -2))
    lam = 0.5 * (np.maximum(lo, lo_left) + np.minimum(hi, hi_left))
    return lam[()], v, u / (u * v).sum(axis=-1, keepdims=True)


def transfer_pressure(system: ShiftSystem, potential: Potential, scales=None):
    """Classical pressure log(Perron eigenvalue) of the weighted matrix, or
    the array of those of q * potential over ``scales`` (one stacked solve);
    ``power_iteration`` raises NoUniquePerronError on a reducible system."""
    lam, _, _ = power_iteration(TransferMatrix(system, potential, scales))
    return math.log(lam) if scales is None else np.log(lam)


def topological_entropy(system: ShiftSystem) -> float:
    return transfer_pressure(system, Potential.zero(system))


def block_recode(system: ShiftSystem, potential: Potential):
    """Recode so the potential becomes depth-1.

    The new alphabet is the set of admissible depth-r blocks (identity
    when r = 1); block U may be followed by block V iff they overlap in
    r-1 symbols.  Word counts, pressures and entropies are invariant.
    """
    r = potential.depth
    if r == 1:
        return system, potential
    graph = system.block_graph(r)
    src, dst, _ = graph.arcs
    B = np.zeros((len(graph.words),) * 2, dtype=np.int64)
    B[src, dst] = 1
    recoded = ShiftSystem(B)
    values = potential.values(graph.words).tolist()
    return recoded, Potential.depth_one(recoded, values,
                                        name=f"recode[{potential.name}]")


class MarkovMeasure:
    """Shift-invariant Markov measure presented on block states.

    ``states`` is an integer array whose rows are admissible d-blocks of
    the underlying system, ``stationary`` the stationary probability
    vector and ``transitions`` the row-stochastic transition matrix on
    those states.  The states are found by their sorted base-k codes.
    """

    def __init__(self, system: ShiftSystem, states, stationary, transitions):
        self.system = system
        self.states = np.asarray(states)
        k = system.alphabet_size
        if self.states.ndim != 2 or not self.states.size or \
                self.states.min() < 0 or self.states.max() >= k:
            raise ValueError("states must be a nonempty array of blocks")
        self.state_depth = d = self.states.shape[1]
        if k ** d >= 1 << 63:
            raise ValueError(f"{d}-block codes overflow int64")
        codes = self.states.astype(np.int64) @ _place(k, d)
        self._rows = np.argsort(codes, kind="stable")
        self._codes = codes[self._rows]
        if (np.diff(self._codes) == 0).any():
            raise ValueError("states must be distinct")
        n = len(self.states)
        pi = np.asarray(stationary, dtype=float)
        P = np.asarray(transitions, dtype=float)
        if pi.shape != (n,) or P.shape != (n, n):
            raise ValueError("shape mismatch between states and chain data")
        stationary, entropy = _checked_chains(pi, P)
        self.stationary, self.transitions = stationary, P
        self.entropy = float(entropy)

    def _with_chains(self, stationary, transitions,
                     entropy) -> Iterable["MarkovMeasure"]:
        """Measures on these states for stacks of checked chains."""
        shared = {name: self.__dict__[name] for name in
                  ("system", "states", "state_depth", "_rows", "_codes")}
        for pi, P, h in zip(stationary, transitions, entropy.tolist()):
            measure = MarkovMeasure.__new__(MarkovMeasure)
            measure.__dict__.update(shared, stationary=pi, transitions=P,
                                    entropy=h)
            yield measure

    def log_masses(self, words, chains=None) -> np.ndarray:
        """log of the measure of the cylinder of each row of an (m, L)
        array of symbols (each in range(k)), -inf off the support.

        For L >= d it is log pi of the first d-block plus the log
        transition probabilities between consecutive d-blocks; for L < d
        it is the log of the summed pi of the states with that prefix.
        ``chains`` (stationary (..., n), transitions (..., n, n)) replaces
        the own chain: one word lookup serves the stack, whose axes lead.
        """
        pi, P = (self.stationary, self.transitions) if chains is None else chains
        words = np.asarray(words, dtype=np.int64)
        k, d = self.system.alphabet_size, self.state_depth
        length = words.shape[1]
        if length < d:  # the codes are sorted, so each prefix is a run
            prefixes, first = np.unique(self._codes // k ** (d - length),
                                        return_index=True)
            mass = np.add.reduceat(pi[..., self._rows], first, axis=-1)
            with np.errstate(divide="ignore"):
                log_mass = np.log(mass)
            codes = words @ _place(k, length)
            at = np.minimum(np.searchsorted(prefixes, codes), len(prefixes) - 1)
            return np.where(prefixes[at] == codes, log_mass[..., at], -np.inf)
        steps = length - d + 1  # d-blocks in each word
        codes = words[:, :steps] * k ** (d - 1)
        for j in range(1, d):
            codes += words[:, j:j + steps] * k ** (d - 1 - j)
        at = np.minimum(np.searchsorted(self._codes, codes), len(self._codes) - 1)
        found = (self._codes[at] == codes).all(axis=1)
        rows = self._rows[at]
        with np.errstate(divide="ignore"):
            log_pi, log_P = np.log(pi), np.log(P)
        total = log_pi[..., rows[:, 0]] \
            + log_P[..., rows[:, :-1], rows[:, 1:]].sum(axis=-1)
        return np.where(found, total, -np.inf)

    def log_cylinder_measure(self, symbols) -> float:
        """log of the measure of the cylinder of a symbol word."""
        word = [int(a) for a in symbols]
        if not all(0 <= a < self.system.alphabet_size for a in word):
            return -math.inf
        return float(self.log_masses(np.array(word, dtype=np.int64)[None, :])[0])

    def integrate(self, potential: Potential, chains=None):
        """Integral of a locally constant potential against the measure:
        the cylinder masses of the potential's admissible r-words dotted
        with its values (an array of them with ``chains``, as in
        ``log_masses``)."""
        if potential.system is not self.system and not np.array_equal(
                potential.system.adjacency, self.system.adjacency):
            raise ValueError("potential does not match the system")
        return np.exp(self.log_masses(potential.graph.words, chains)) \
            @ potential.vector

    def sample_words(self, length: int, count: int, rng) -> tuple:
        """Sample symbol words of the given length; also return the
        per-sample log cylinder measures.

        Vectorized over samples: one uniform draw u per sample and time
        step, the next state being the first whose cumulative transition
        probability reaches u.  With cuts the distinct cumulative
        probabilities, cum_P[s, c] < u iff rank(cum_P[s, c]) < rank(u)
        (rank = number of cuts below), so tables indexed by (s, rank(u))
        give the next state, its log transition probability and its own
        table row.  rank(u) comes from a guide table of G buckets over
        [0, 1), G a power of two above twice the number of cuts: bucket
        floor(u G) (exact) holds the rank of its left end, and a short
        loop raises it while the next cut lies below u.  The words are
        written by time step, so memory follows them, and returned as the
        transpose of that array.  Raises ValueError when the length is
        below the state depth d.
        """
        d = self.state_depth
        if length < d:
            raise ValueError(f"need length >= {d} for this measure")
        n_states = len(self.states)
        with np.errstate(divide="ignore"):
            log_pi, log_P = np.log(self.stationary), np.log(self.transitions)
        cum_P = np.cumsum(self.transitions, axis=1)
        cuts = np.unique(cum_P)
        stride = len(cuts) + 1  # a table row: one entry per rank
        rows = np.arange(n_states)[:, None] * stride
        nxt = np.bincount((rows + np.searchsorted(cuts, cum_P) + 1).ravel(),
                          minlength=n_states * stride)
        nxt = np.minimum(nxt.reshape(n_states, stride).cumsum(axis=1),
                         n_states - 1)
        next_symbol, next_row = self.states[nxt, -1].ravel(), (nxt * stride).ravel()
        next_log = np.take_along_axis(log_P, nxt, axis=1).ravel()
        buckets = 2 << len(cuts).bit_length()
        guide = np.searchsorted(cuts, np.arange(buckets) / buckets)
        cuts = np.append(cuts, np.inf)  # rank len(cuts) is never passed
        state = np.minimum(np.searchsorted(np.cumsum(self.stationary),
                                           rng.random(count)), n_states - 1)
        logm = log_pi[state]
        words = np.empty((length, count), dtype=self.states.dtype)
        words[:d] = self.states[state].T
        row = state * stride
        for t in range(d, length):
            u = rng.random(count)
            rank = guide.take((u * buckets).astype(np.intp))
            while (behind := cuts.take(rank) < u).any():
                rank += behind
            at = row + rank
            logm += next_log.take(at)
            words[t] = next_symbol.take(at)
            row = next_row.take(at)
        return words.T, logm


def _place(k: int, d: int) -> np.ndarray:
    """Base-k place values of d-symbol words, most significant first."""
    return k ** np.arange(d - 1, -1, -1, dtype=np.int64)


def _checked_chains(stationary, transitions) -> tuple:
    """Validate one chain (pi, P), or a stack of them along leading axes,
    and return (pi clipped at 0 and renormalized, entropy rate)."""
    pi, P = stationary, transitions
    if (pi < -1e-12).any() or (np.abs(pi.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValueError("stationary vector must be a probability vector")
    if (np.abs(P.sum(axis=-1) - 1.0) > 1e-9).any():
        raise ValueError("transition rows must sum to 1")
    if (np.abs((pi[..., None, :] @ P)[..., 0, :] - pi) > 1e-9).any():
        raise ValueError("vector is not stationary for the transitions")
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(np.where(P > 0, P, 1.0)), 0.0)
    entropy = -(pi[..., None, :] @ plogp.sum(axis=-1)[..., :, None])[..., 0, 0]
    return pi, entropy


class EquilibriumState(MarkovMeasure):
    """Gibbs Markov measure built from Perron data of a transfer matrix."""

    def __init__(self, system, states, stationary, transitions,
                 eigenvalue: float, potential: Potential):
        super().__init__(system, states, stationary, transitions)
        self.eigenvalue = float(eigenvalue)
        self.potential = potential
        self.potential_integral = self.integrate(potential)
        gap = math.log(self.eigenvalue) - (self.entropy + self.potential_integral)
        if abs(gap) > GIBBS_TOL:
            raise RuntimeError(
                f"Gibbs identity violated by {gap:.3e} at construction")

    @property
    def pressure(self) -> float:
        return math.log(self.eigenvalue)


def _gibbs_chains(M, lam, v, u) -> tuple:
    """(stationary, transitions) of the equilibrium chain(s), from Perron data."""
    P = M * v[..., None, :] / (np.asarray(lam)[..., None, None] * v[..., :, None])
    P = P / P.sum(axis=-1, keepdims=True)
    pi = u * v
    return pi / pi.sum(axis=-1, keepdims=True), P


def equilibrium_markov(system: ShiftSystem, potential: Potential) -> EquilibriumState:
    """Equilibrium state of a locally constant potential.

    Transition probabilities are M[a,b] v[b] / (lambda v[a]) and the
    stationary vector is proportional to u*v, for right/left Perron
    vectors v, u.  Rows are renormalized, which makes them sum to 1 to
    rounding; the stationary identity |pi P - pi| is of the order of the
    Perron bracket's relative width (at most 1e-13), far inside the 1e-9
    that ``MarkovMeasure`` checks.  A reducible system has a reducible
    matrix support, on which ``power_iteration`` raises NoUniquePerronError.
    """
    tm = TransferMatrix(system, potential)
    lam, v, u = power_iteration(tm)
    pi, P = _gibbs_chains(tm.matrix, lam, v, u)
    return EquilibriumState(system, tm.graph.words, pi, P, lam, potential)


def scaled_equilibria(system: ShiftSystem, potential: Potential, scales):
    """Pressures of q * potential for the exponents q of ``scales`` and the
    potential's integrals against their equilibrium states (the chains of
    ``equilibrium_markov``, checked as one stack with each Gibbs identity):
    one solve, and sums of pi_s P_st times the value on the arc s -> t."""
    tm = TransferMatrix(system, potential, scales)
    lam, v, u = power_iteration(tm)
    pi, P = _gibbs_chains(tm.matrix, lam, v, u)
    pi, entropy = _checked_chains(pi, P)
    src, dst, _ = tm.graph.arcs
    integral = (pi[:, src] * P[:, src, dst]) @ tm.values
    gap = np.abs(np.log(lam) - (entropy + scales * integral)).max()
    if gap > GIBBS_TOL:
        raise RuntimeError(f"Gibbs identity violated by {gap:.3e} at construction")
    return np.log(lam), integral


def vp_residual(system: ShiftSystem, potential: Potential,
                measure: MarkovMeasure) -> float:
    """Pressure minus (entropy + potential integral) of an invariant measure.

    Nonnegative by the variational principle; zero exactly at the
    equilibrium state.
    """
    return transfer_pressure(system, potential) - \
        (measure.entropy + measure.integrate(potential))


def perturbed_chains(base: MarkovMeasure, count: int, rng,
                     scale: float = 0.8) -> tuple:
    """Random invariant Markov chains near a base chain, as stacks
    (stationary, transitions, entropy) on the base's states.

    Rows of the transition matrix are reweighted by exp of Gaussian noise
    (support preserved) and renormalized, and the stationary vectors are
    re-solved, so every sample is genuinely shift-invariant; the stack is
    drawn (as ``count`` draws of one matrix), solved and checked at once.
    """
    P0 = base.transitions
    noise = rng.normal(0.0, scale, size=(count,) + P0.shape)
    P = np.where(P0 > 0, P0 * np.exp(noise), 0.0)
    P = P / P.sum(axis=-1, keepdims=True)
    stationary, entropy = _checked_chains(_stationary_vector(P), P)
    return stationary, P, entropy


def perturbed_invariant_measures(base: MarkovMeasure, count: int, rng,
                                 scale: float = 0.8) -> Iterable[MarkovMeasure]:
    """The chains of ``perturbed_chains`` as measures sharing its states."""
    return base._with_chains(*perturbed_chains(base, count, rng, scale))


def _stationary_vector(P: np.ndarray) -> np.ndarray:
    """Stationary vectors of a row-stochastic matrix, or of a stack of
    them along leading axes: the minimum-norm least-squares solutions of
    pi (P - I) = 0, sum(pi) = 1, by one batched pseudo-inverse with
    ``lstsq``'s cutoff (a reducible chain, such as ``delta_measure``'s
    identity, yields the uniform vector), clipped at 0 and renormalized.
    """
    dim = P.shape[-1]
    lhs = np.concatenate([np.swapaxes(P, -1, -2) - np.eye(dim),
                          np.ones(P.shape[:-2] + (1, dim))], axis=-2)
    pi = np.linalg.pinv(lhs, (dim + 1) * np.finfo(float).eps)[..., -1]
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum(axis=-1, keepdims=True)


def delta_measure(system: ShiftSystem, symbol: int) -> MarkovMeasure:
    """Point mass on the fixed point symbol^infinity (needs a self-loop)."""
    if not system.allows(symbol, symbol):
        raise ValueError(f"symbol {symbol} has no self-loop")
    k = system.alphabet_size
    pi = np.zeros(k)
    pi[symbol] = 1.0
    P = np.eye(k)
    return MarkovMeasure(system, [(a,) for a in range(k)], pi, P)


def power_system(system: ShiftSystem, k: int) -> tuple:
    """The k-th power shift presented on the alphabet of admissible k-blocks.

    Returns (power system, list of blocks).  Block u may be followed by
    block w iff the last symbol of u may precede the first symbol of w.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    words = system.block_graph(k).words
    B = system.adjacency[np.ix_(words[:, -1], words[:, 0])]
    blocks = list(map(tuple, words.tolist()))
    return ShiftSystem(B), blocks


def power_sum_potential(system: ShiftSystem, potential: Potential, k: int,
                        power: ShiftSystem, blocks: list) -> Potential:
    """The k-step Birkhoff sum of the potential, as a potential on the
    k-block power system (depth 2 there: windows may spill into the next
    block when the original depth exceeds 1)."""
    r = potential.depth
    if r > k + 1:
        raise ValueError("potential depth too large for this power")
    src, dst = np.nonzero(power.adjacency)
    words = np.array(blocks, dtype=np.int64).reshape(len(blocks), k)
    joined = np.hstack([words[src], words[dst]])
    windows = potential.values(sliding_window_view(joined, r, axis=1)[:, :k])
    sums = np.zeros(len(src))
    for p in range(k):  # in window order, as the Birkhoff sum runs
        sums += windows[:, p]
    table = dict(zip(zip(src.tolist(), dst.tolist()), sums.tolist()))
    return Potential(power, 2, table, name=f"S_{k}[{potential.name}]")


def power_pressure_check(system: ShiftSystem, potential: Potential, k: int):
    """Pressure of the k-th power system under the k-step Birkhoff sum,
    against k times the base pressure.  Returns (lhs, rhs)."""
    rhs = k * transfer_pressure(system, potential)
    if k == 1:
        return transfer_pressure(system, potential), rhs
    power, blocks = power_system(system, k)
    lifted = power_sum_potential(system, potential, k, power, blocks)
    lhs = transfer_pressure(power, lifted)
    return lhs, rhs


def inverse_vp_probe(system: ShiftSystem, potential: Potential,
                     measure: MarkovMeasure, n: int,
                     block_depth: int | None = None,
                     freq_tol: float | None = None) -> float:
    """Pressure-at-scale-n of the frequency-typical cylinder family.

    The family holds the admissible depth-n cylinders whose empirical
    b-block frequencies (b = ``block_depth``) are within ``freq_tol``
    (default 1/sqrt(n)) of the measure's.  The value is (1/n) log of the
    string-cover sum over that family at string length n with cover depth
    r = potential depth: each kept word contributes exp of the sum of its
    n depth-r windows, summed over every admissible tail of r - 1
    symbols the last windows run into.

    Nothing is listed word by word (the method of types).  One forward
    sweep grows the words a symbol at a time, keeping per (trailing
    state, b-block count vector) pair the log-sum of exp(window sums)
    over the words that reach it.  States are the admissible words of
    length max(b, r, 2) - 1, seeded with the blocks and windows inside
    them; each appended symbol completes one block and one window.
    Equal pairs are merged, and a pair is dropped as soon as no
    continuation can pass the final frequency test (a count already too
    high, or too low to catch up).  Work and memory therefore follow the
    number of count classes, polynomial in n, instead of the number of
    words: n = 200 on the full 2-shift takes well under a second.

    By the inverse variational principle the value tends to
    entropy + potential integral of the measure.  For a measure other
    than the equilibrium state it tends there from above, though not
    monotonically at small n (on a 3/4-biased coin with the zero
    potential it reads 0.637, 0.652, 0.661, 0.649 at n = 8, 12, 16, 20
    against an entropy of 0.562); at the equilibrium state the two ends
    of the sandwich

        entropy + potential integral  <=  value + o(1)  <=  pressure

    coincide, and the value approaches them from below (1.0956, 1.0969,
    1.0979 at n = 50, 100, 200 for the potential (0, log 2) on the full
    2-shift, against log 3 = 1.0986).
    """
    if n < 4:
        raise ValueError("n must be >= 4")
    b = block_depth if block_depth is not None \
        else max(potential.depth, measure.state_depth + 1)
    if b >= n:
        raise ValueError("block depth must be smaller than n")
    tol = freq_tol if freq_tol is not None else 1.0 / math.sqrt(n)
    if potential.system is not system and \
            not np.array_equal(potential.system.adjacency, system.adjacency):
        raise ValueError("potential does not match the system")

    r = potential.depth
    blocks = system.block_graph(b)
    target = np.exp(measure.log_masses(blocks.words))
    m = n - b + 1  # block positions in an n-word

    sd = max(b, r, 2) - 1
    states = system.block_graph(sd)
    src, dst, arc_words = states.arcs
    blk = blocks.index(arc_words[:, -b:])
    val = potential.values(arc_words[:, -r:])
    degree = np.bincount(src, minlength=len(states.words))
    first = np.cumsum(degree) - degree

    # the keep test |count/m - target| <= tol as integer bounds per block:
    # the expression grows with the count, so the passing counts are a range
    grid = np.arange(m + 1)[:, None] / m - target
    hi = (grid <= tol).sum(axis=0) - 1
    lo = (grid < -tol).sum(axis=0)
    # count rows are grouped by a few int64 keys, each packing as many
    # counts (all <= n) as fit in 63 bits
    bits = n.bit_length()
    per_key = 63 // bits
    weights = np.int64(1) << (bits * np.arange(per_key, dtype=np.int64))

    def merged(state, counts, logs):
        """One row per distinct (state, counts), log-sum-exp of their logs."""
        keys = [state]
        for j in range(0, len(target), per_key):
            chunk = counts[:, j:j + per_key].astype(np.int64)
            keys.append(chunk @ weights[:chunk.shape[1]])
        order = np.lexsort(keys)
        new = np.arange(len(order)) == 0
        for key in keys:
            key = key[order]
            new[1:] |= key[1:] != key[:-1]
        starts = np.flatnonzero(new)
        logs = logs[order]
        top = np.maximum.reduceat(logs, starts)
        total = np.add.reduceat(np.exp(logs - top[np.cumsum(new) - 1]), starts)
        first_rows = order[starts]
        return state[first_rows], counts[first_rows], np.log(total) + top

    # seeds: each state with the blocks and windows lying inside it
    # (blocks inside the first n symbols, windows starting before n)
    counted = min(sd, n)
    words = states.words
    state = np.arange(len(words))
    counts = np.zeros((len(words), len(target)), dtype=np.min_scalar_type(n))
    logs = np.zeros(len(words))
    for p in range(counted - b + 1):
        counts[state, blocks.index(words[:, p:p + b])] += 1
    for p in range(min(sd - r, n - 1) + 1):
        logs += potential.values(words[:, p:p + r])
    keep = (counts <= hi).all(axis=1)
    for length in range(counted, n + 1):
        if length > counted:  # append one symbol along every arc
            reps = degree[state]
            parent = np.repeat(np.arange(len(state)), reps)
            # a child's arc: its state's first arc plus its rank among siblings
            arc = np.repeat(first[state] - (np.cumsum(reps) - reps), reps) \
                + np.arange(len(parent))
            state, logs = dst[arc], logs[parent] + val[arc]
            counts = counts[parent]
            rows = np.arange(len(arc))
            counts[rows, blk[arc]] += 1
            keep = counts[rows, blk[arc]] <= hi[blk[arc]]
        # drop rows that can no longer pass: a count above its range, or
        # too low to reach it in the blocks still to come
        short = lo > n - length
        keep &= (counts[:, short] >= lo[short] - (n - length)).all(axis=1)
        state, counts, logs = state[keep], counts[keep], logs[keep]
        if not len(state):
            break
        if length > counted:
            state, counts, logs = merged(state, counts, logs)

    keep = np.abs(counts / m - target).max(axis=1) <= tol
    if not keep.any():
        raise IncreaseDepthError("increase-n: no frequency-typical cylinder "
                                 f"at depth {n}")
    per_state = np.full(len(words), -np.inf)
    np.logaddexp.at(per_state, state[keep], logs[keep])
    # the last windows run past the word into every admissible tail
    step = np.full((len(words),) * 2, -np.inf)
    step[src, dst] = val
    for _ in range(n + r - 1 - max(sd, n)):
        per_state = np.logaddexp.reduce(per_state[:, None] + step, axis=0)
    return float(np.logaddexp.reduce(per_state)) / n
