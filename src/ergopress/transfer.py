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
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .shifts import (
    BlockGraph,
    Potential,
    ShiftSystem,
    iter_admissible_tuples,
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
    exp(potential on the transition window).
    """

    def __init__(self, system: ShiftSystem, potential: Potential):
        if potential.system is not system and \
                not np.array_equal(potential.system.adjacency, system.adjacency):
            raise ValueError("potential does not match the system")
        self.system = system
        self.potential = potential
        r = potential.depth
        graph = BlockGraph(system.adjacency, max(r - 1, 1))
        src, dst, arc_words = graph.arcs
        M = np.zeros((len(graph.words),) * 2)
        M[src, dst] = [math.exp(v) for v in potential.values(arc_words[:, :r])]
        self.states = tuple(map(tuple, graph.words.tolist()))
        self.matrix = M
        self.matrix.setflags(write=False)

    @property
    def dimension(self) -> int:
        return len(self.states)


def power_iteration(matrix, tol: float = 1e-14):
    """Perron eigenvalue and positive left/right eigenvectors.

    Each of v (on M) and u (on its transpose) starts from the LAPACK
    eigenvector (``np.linalg.eig``) of the largest real eigenvalue lam0,
    taken in absolute value, and iterates x <- Mx + lam0 x (lam0 clipped
    at 0, so periodic matrices converge too), normalized to unit 1-norm.
    It accepts once x > 0 and the Collatz-Wielandt bracket
    [lo, hi] = [min, max] of (Mx)_i / x_i, which holds rho(M) for every
    positive x (Seneta, Non-negative Matrices and Markov Chains, ch. 1),
    has hi - lo <= max(tol, 1e-13) * hi.  Raises ConvergenceError when
    LAPACK fails or no bracket closes in MAX_POWER_STEPS steps.

    Returns (lam, v, u): lam is the midpoint of the intersection of the
    two brackets, v > 0 has unit 1-norm, u > 0 is scaled so u . v = 1.
    """
    M = matrix.matrix if isinstance(matrix, TransferMatrix) else np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("need a square matrix")
    if (M < 0).any():
        raise ValueError("need a nonnegative matrix")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not strongly_connected(M):
        raise NoUniquePerronError("no-unique-perron: matrix support is reducible")
    width = max(tol, 1e-13)

    def bracket(mat):
        try:
            values, vectors = np.linalg.eig(mat)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"no-convergence: eigensolver failed: {exc}") from exc
        top = values.real.argmax()
        shift = max(float(values.real[top]), 0.0)
        x = np.abs(vectors[:, top])
        x = x / x.sum()
        for _ in range(MAX_POWER_STEPS):
            img = mat @ x
            if (x > 0).all():
                ratio = img / x
                lo, hi = ratio.min(), ratio.max()
                if hi - lo <= width * hi:
                    return lo, hi, x
            x = img + shift * x
            x = x / x.sum()
        raise ConvergenceError("no-convergence: Perron bracket did not close")

    lo, hi, v = bracket(M)
    lo_left, hi_left, u = bracket(M.T)
    lam = 0.5 * (max(lo, lo_left) + min(hi, hi_left))
    return float(lam), v, u / float(u @ v)


def transfer_pressure(system: ShiftSystem, potential: Potential) -> float:
    """Classical pressure log(Perron eigenvalue) of the weighted matrix."""
    if not system.irreducible:
        raise NoUniquePerronError("no-unique-perron: system is reducible")
    lam, _, _ = power_iteration(TransferMatrix(system, potential))
    return math.log(lam)


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
    graph = BlockGraph(system.adjacency, r)
    src, dst, _ = graph.arcs
    B = np.zeros((len(graph.words),) * 2, dtype=np.int64)
    B[src, dst] = 1
    recoded = ShiftSystem(B, system.sidedness)
    values = potential.values(graph.words).tolist()
    return recoded, Potential.depth_one(recoded, values,
                                        name=f"recode[{potential.name}]")


class MarkovMeasure:
    """Shift-invariant Markov measure presented on block states.

    ``states`` are admissible d-blocks of the underlying system,
    ``stationary`` is the stationary probability vector and
    ``transitions`` the row-stochastic transition matrix on those states.
    """

    def __init__(self, system: ShiftSystem, states, stationary, transitions):
        self.system = system
        self.states = tuple(tuple(s) for s in states)
        self.state_depth = len(self.states[0])
        self._index = {s: i for i, s in enumerate(self.states)}
        pi = np.asarray(stationary, dtype=float)
        P = np.asarray(transitions, dtype=float)
        if pi.shape != (len(self.states),) or P.shape != (len(self.states),) * 2:
            raise ValueError("shape mismatch between states and chain data")
        if (pi < -1e-12).any() or abs(pi.sum() - 1.0) > 1e-9:
            raise ValueError("stationary vector must be a probability vector")
        if np.abs(P.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("transition rows must sum to 1")
        if np.abs(pi @ P - pi).max() > 1e-9:
            raise ValueError("vector is not stationary for the transitions")
        self.stationary = np.clip(pi, 0.0, None)
        self.stationary = self.stationary / self.stationary.sum()
        self.transitions = P
        self.entropy = self._entropy()

    def _entropy(self) -> float:
        P = self.transitions
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(P > 0, P * np.log(np.where(P > 0, P, 1.0)), 0.0)
        return float(-(self.stationary @ plogp.sum(axis=1)))

    def log_cylinder_measure(self, symbols) -> float:
        """log of the measure of the cylinder of a symbol word."""
        w = tuple(int(a) for a in symbols)
        d = self.state_depth
        if len(w) < d:
            mass = sum(self.stationary[self._index[s]]
                       for s in self._index if s[:len(w)] == w)
            return math.log(mass) if mass > 0 else -math.inf
        total = 0.0
        s = w[:d]
        if s not in self._index:
            return -math.inf
        total += math.log(self.stationary[self._index[s]]) \
            if self.stationary[self._index[s]] > 0 else -math.inf
        for i in range(len(w) - d):
            t = w[i + 1:i + 1 + d]
            p = self.transitions[self._index[s], self._index[t]] \
                if t in self._index else 0.0
            if p <= 0:
                return -math.inf
            total += math.log(p)
            s = t
        return total

    def integrate(self, potential: Potential) -> float:
        """Integral of a locally constant potential against the measure."""
        r = potential.depth
        total = 0.0
        for w in iter_admissible_tuples(self.system.adjacency, r):
            logm = self.log_cylinder_measure(w)
            if logm > -math.inf:
                total += math.exp(logm) * potential.value(w)
        return total

    def sample_words(self, length: int, count: int, rng) -> tuple:
        """Sample symbol words of the given length; also return the
        per-sample log cylinder measures.

        Vectorized over samples: one categorical draw per time step, the
        next state being the first whose cumulative transition
        probability reaches the draw.
        """
        d = self.state_depth
        n_states = len(self.states)
        cum_pi = np.cumsum(self.stationary)
        cum_P = np.cumsum(self.transitions, axis=1)
        state = np.searchsorted(cum_pi, rng.random(count)).clip(0, n_states - 1)
        logm = np.log(self.stationary[state])
        steps = length - d
        path = np.empty((count, steps + 1), dtype=np.int64)
        path[:, 0] = state
        for t in range(steps):
            draws = rng.random(count)
            nxt = (cum_P[state] < draws[:, None]).sum(axis=1).clip(0, n_states - 1)
            logm += np.log(self.transitions[state, nxt])
            state = nxt
            path[:, t + 1] = state
        state_arr = np.asarray(self.states, dtype=np.int64)
        words = np.empty((count, length), dtype=np.int64)
        words[:, :d] = state_arr[path[:, 0]]
        if steps > 0:
            words[:, d:] = state_arr[path[:, 1:], -1]
        return words, logm


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


def equilibrium_markov(system: ShiftSystem, potential: Potential) -> EquilibriumState:
    """Equilibrium state of a locally constant potential.

    Transition probabilities are M[a,b] v[b] / (lambda v[a]) and the
    stationary vector is proportional to u*v, for right/left Perron
    vectors v, u.  Rows are renormalized, which makes them sum to 1 to
    rounding; the stationary identity |pi P - pi| is of the order of the
    Perron bracket's relative width (at most 1e-13), far inside the 1e-9
    that ``MarkovMeasure`` checks.
    """
    if not system.irreducible:
        raise NoUniquePerronError("no-unique-perron: system is reducible")
    tm = TransferMatrix(system, potential)
    lam, v, u = power_iteration(tm)
    P = tm.matrix * v[None, :] / (lam * v[:, None])
    P = P / P.sum(axis=1, keepdims=True)
    pi = u * v
    pi = pi / pi.sum()
    return EquilibriumState(system, tm.states, pi, P, lam, potential)


def vp_residual(system: ShiftSystem, potential: Potential,
                measure: MarkovMeasure) -> float:
    """Pressure minus (entropy + potential integral) of an invariant measure.

    Nonnegative by the variational principle; zero exactly at the
    equilibrium state.
    """
    return transfer_pressure(system, potential) - \
        (measure.entropy + measure.integrate(potential))


def perturbed_invariant_measures(base: MarkovMeasure, count: int, rng,
                                 scale: float = 0.8) -> Iterable[MarkovMeasure]:
    """Random invariant Markov measures near a base chain.

    Rows of the transition matrix are reweighted by exp of Gaussian noise
    (support preserved), renormalized, and the stationary vector re-solved,
    so every sample is genuinely shift-invariant.
    """
    P0 = base.transitions
    for _ in range(count):
        noise = rng.normal(0.0, scale, size=P0.shape)
        P = np.where(P0 > 0, P0 * np.exp(noise), 0.0)
        P = P / P.sum(axis=1, keepdims=True)
        pi = _stationary_vector(P)
        yield MarkovMeasure(base.system, base.states, pi, P)


def _stationary_vector(P: np.ndarray) -> np.ndarray:
    dim = P.shape[0]
    lhs = np.vstack([P.T - np.eye(dim), np.ones(dim)])
    rhs = np.zeros(dim + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


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
    words = BlockGraph(system.adjacency, k).words
    B = system.adjacency[np.ix_(words[:, -1], words[:, 0])]
    blocks = list(map(tuple, words.tolist()))
    return ShiftSystem(B, system.sidedness), blocks


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
    blocks = BlockGraph(system.adjacency, b)
    target = np.array([math.exp(measure.log_cylinder_measure(w))
                       for w in blocks.words.tolist()])
    m = n - b + 1  # block positions in an n-word

    sd = max(b, r, 2) - 1
    states = BlockGraph(system.adjacency, sd)
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
