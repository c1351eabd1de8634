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

import numpy as np

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
    exp(q * potential on the transition window).  ``matrix`` is the stack
    (..., n, n) of these matrices over the exponents q of ``scales``,
    built in one step; the default q = 1.0 gives the one matrix (n, n) of
    the potential itself.  An overflowing weight raises OverflowError.
    """

    def __init__(self, system: ShiftSystem, potential: Potential, scales=1.0):
        if not system.same_as(potential.system):
            raise ValueError("potential does not match the system")
        r = potential.depth
        self.graph = system.block_graph(max(r - 1, 1))
        src, dst, arc_words = self.graph.arcs
        self.values = potential.values(arc_words[:, :r])  # one per arc
        with np.errstate(over="ignore"):
            weights = np.exp(np.multiply.outer(scales, self.values))
        if np.isinf(weights).any():
            raise OverflowError("overflow: a transfer weight exp(q * value) "
                                "exceeds the float range")
        M = np.zeros(np.shape(scales) + (len(self.graph.words),) * 2)
        M[..., src, dst] = weights
        self.matrix = M
        self.matrix.setflags(write=False)

    @property
    def dimension(self) -> int:
        return len(self.graph.words)


def power_iteration(matrix):
    """Perron eigenvalue and positive right eigenvector of a matrix, or of
    each member of a stack (..., n, n).

    v starts from the LAPACK eigenvector (one batched ``np.linalg.eig``)
    of the largest real eigenvalue lam0, taken in absolute value, and
    iterates v <- Mv + lam0 v (lam0 clipped at 0, so periodic matrices
    converge too), normalized to unit 1-norm.  A member's v is frozen once
    v > 0 and the Collatz-Wielandt bracket [lo, hi] = [min, max] of
    (Mv)_i / v_i, which holds rho(M) for every positive v (Seneta,
    Non-negative Matrices and Markov Chains, ch. 1), has hi - lo <= 1e-13
    * hi.  The left vector is the right one of the transpose.  Raises
    NoUniquePerronError when a support is reducible, ConvergenceError when
    LAPACK fails or a bracket does not close in MAX_POWER_STEPS steps.

    Returns (lam, v) with the stack's leading axes: lam is the midpoint
    of the bracket and v > 0 has unit 1-norm.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError("need a square matrix or a stack of them")
    if (M < 0).any():
        raise ValueError("need a nonnegative matrix")
    if not strongly_connected(M).all():
        raise NoUniquePerronError("no-unique-perron: matrix support is reducible")
    try:
        values, vectors = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"no-convergence: eigensolver failed: {exc}") from exc
    top = values.real.argmax(axis=-1)[..., None] == np.arange(M.shape[-1])
    v = np.abs((vectors @ top[..., None])[..., 0])  # the top column
    v = v / v.sum(axis=-1, keepdims=True)
    shift = np.maximum(values.real.max(axis=-1, keepdims=True), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_POWER_STEPS):
            img = (M @ v[..., None])[..., 0]
            ratio = img / v  # inf or nan where v has a zero: not closed
            lo, hi = ratio.min(axis=-1), ratio.max(axis=-1)
            closed = (hi - lo <= 1e-13 * hi) & (hi < np.inf)
            if closed.all():
                return (0.5 * (lo + hi))[()], v
            v_next = img + shift * v
            v = np.where(closed[..., None], v,
                         v_next / v_next.sum(axis=-1, keepdims=True))
    raise ConvergenceError("no-convergence: Perron bracket did not close")


def transfer_pressure(system: ShiftSystem, potential: Potential, scales=1.0):
    """Classical pressure log(Perron eigenvalue) of q * potential for the
    exponents q of ``scales`` (default the potential itself), from one
    stacked one-sided solve; ``power_iteration`` raises
    NoUniquePerronError on a reducible system."""
    lam, _ = power_iteration(TransferMatrix(system, potential, scales).matrix)
    return np.log(lam)


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
    return recoded, Potential.depth_one(recoded, potential.vector.tolist())


class MarkovMeasure:
    """Shift-invariant Markov measure presented on block states.

    The states are the admissible ``depth``-blocks of the system, the rows
    of ``graph = system.block_graph(depth)`` in the graph's order.
    ``stationary`` is the stationary probability vector and
    ``transitions`` the row-stochastic transition matrix on those states,
    or stacks of them (..., n) and (..., n, n) with an entropy per chain,
    as ``equilibrium_states`` and ``perturbed_chains`` build them.
    Cylinder masses and integrals of a stack are stacks too, while
    sampling needs one chain.
    """

    def __init__(self, system: ShiftSystem, depth: int, stationary,
                 transitions):
        self.system = system
        self.graph = system.block_graph(depth)
        self.state_depth = depth
        n = len(self.graph.words)
        pi = np.asarray(stationary, dtype=float)
        P = np.asarray(transitions, dtype=float)
        if pi.shape[-1:] != (n,) or P.shape != pi.shape + (n,):
            raise ValueError("shape mismatch between states and chain data")
        self.stationary, self.entropy = _checked_chains(pi, P)
        self.transitions = P

    def log_masses(self, words) -> np.ndarray:
        """log of the measure of the cylinder of each row of an (m, L)
        array of symbols, L >= 1, -inf off the support; for a stack of
        chains, the stack's axes lead.

        For L >= d it is log pi of the first d-block plus the log
        transition probabilities between consecutive d-blocks, each found
        by ``graph.find``; for L < d it is the log of the summed pi of the
        states with that prefix, the admissible L-blocks.
        """
        pi, P = self.stationary, self.transitions
        words = np.asarray(words, dtype=np.int64)
        d, length = self.state_depth, words.shape[1]
        if length < d:  # the states are sorted, so each prefix is a run
            prefixes = self.system.block_graph(length)
            prefix = prefixes.index(self.graph.words[:, :length])
            starts = np.flatnonzero(np.diff(prefix, prepend=-1))
            mass = np.add.reduceat(pi, starts, axis=-1)
            with np.errstate(divide="ignore"):
                log_mass = np.log(mass)
            at = prefixes.find(words)
            return np.where(at >= 0, log_mass[..., at], -np.inf)
        steps = np.arange(length - d + 1)[:, None]  # d-blocks in each word
        rows = self.graph.find(words[:, steps + np.arange(d)])
        with np.errstate(divide="ignore"):
            log_pi, log_P = np.log(pi), np.log(P)
        total = log_pi[..., rows[:, 0]] \
            + log_P[..., rows[:, :-1], rows[:, 1:]].sum(axis=-1)
        return np.where((rows >= 0).all(axis=1), total, -np.inf)

    def integrate(self, potential: Potential):
        """Integral of a locally constant potential against the measure:
        the cylinder masses of the potential's admissible r-words dotted
        with its values (one integral per chain of a stack)."""
        if not self.system.same_as(potential.system):
            raise ValueError("potential does not match the system")
        return np.exp(self.log_masses(potential.graph.words)) @ potential.vector

    def sample_words(self, length: int, count: int, rng) -> tuple:
        """Sample symbol words of the given length; also return the
        per-sample log cylinder measures.

        Vectorized over samples: one uniform draw u per sample and time
        step, the next state being the first whose cumulative transition
        probability reaches u.  With cuts the distinct cumulative
        probabilities, cum_P[s, c] < u iff rank(cum_P[s, c]) < rank(u)
        (rank = number of cuts below), so tables indexed by (s, rank(u))
        give the next state, its log transition probability and its own
        table row.  One ``rng.random`` call draws a block of time steps
        (at most 8192 draws, at least one step) in the order of one call
        per step, and ranks them at once by a guide table of G buckets
        over [0, 1), G a power of two at least eight times the number of
        cuts: bucket floor(u G) (exact) holds the rank of its left end and
        its first cut c, and rank(u) is that rank plus (c < u); only the
        draws in a bucket holding several cuts are ranked by a search.
        Each step then follows one table row per sample, and the block's
        symbols and log probabilities are gathered afterwards, the logs
        added step by step.  The words are written by time step, so
        memory follows them, and returned as the transpose of that array.
        Raises ValueError when the length is below the state depth d.
        """
        d = self.state_depth
        if length < d:
            raise ValueError(f"need length >= {d} for this measure")
        states = self.graph.words
        n_states = len(states)
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
        next_symbol, next_row = states[nxt, -1].ravel(), (nxt * stride).ravel()
        next_log = np.take_along_axis(log_P, nxt, axis=1).ravel()
        buckets = 8 << len(cuts).bit_length()
        first = np.searchsorted(cuts, np.arange(buckets + 1) / buckets)
        guide, split = first[:-1], np.append(cuts, np.inf)[first[:-1]]
        crowded = np.diff(first) > 1  # rank -1 sends a draw to the search
        guide[crowded], split[crowded] = -1, np.inf
        state = np.minimum(np.searchsorted(np.cumsum(self.stationary),
                                           rng.random(count)), n_states - 1)
        logm = log_pi[state]
        words = np.empty((length, count), dtype=states.dtype)
        words[:d] = states[state].T
        row = state * stride
        steps = max(8192 // max(count, 1), 1)
        for t in range(d, length, steps):
            u = rng.random((min(steps, length - t), count))
            bucket = (u * buckets).astype(np.intp)
            rank = guide.take(bucket) + (split.take(bucket) < u)
            if (search := rank < 0).any():
                rank[search] = np.searchsorted(cuts, u[search])
            for at in rank:  # rank becomes the table index, row by row
                at += row
                row = next_row.take(at)
            words[t:t + len(rank)] = next_symbol.take(rank)
            for logs in next_log.take(rank):
                logm += logs
        return words.T, logm


def _checked_chains(stationary, transitions) -> tuple:
    """Validate one chain (pi, P), or a stack of them along leading axes,
    and return (pi clipped at 0 and renormalized, entropy rate)."""
    pi, P = stationary, transitions
    # each test is written so that NaN fails it
    if not (pi.min() >= -1e-12 and np.abs(pi.sum(-1) - 1.0).max() <= 1e-9):
        raise ValueError("stationary vector must be a probability vector")
    if not np.abs(P.sum(axis=-1) - 1.0).max() <= 1e-9:
        raise ValueError("transition rows must sum to 1")
    if not np.abs((pi[..., None, :] @ P)[..., 0, :] - pi).max() <= 1e-9:
        raise ValueError("vector is not stationary for the transitions")
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(P > 0, P * np.log(np.where(P > 0, P, 1.0)), 0.0)
    entropy = -(pi[..., None, :] @ plogp.sum(axis=-1)[..., :, None])[..., 0, 0]
    return pi, entropy


class EquilibriumState(MarkovMeasure):
    """Gibbs Markov measure of q * potential, or a stack of them, as
    ``equilibrium_states`` builds and checks it: ``pressure`` is
    log(lambda) and ``potential_integral`` the integral of the potential
    itself, with pressure = entropy + q * potential_integral."""

    def __init__(self, system, depth, stationary, transitions, pressure,
                 potential_integral):
        super().__init__(system, depth, stationary, transitions)
        self.pressure = pressure
        self.potential_integral = potential_integral


def equilibrium_states(system: ShiftSystem, potential: Potential,
                       scales) -> EquilibriumState:
    """Equilibrium states of q * potential for the exponents q of
    ``scales``, from one Perron solve, as one EquilibriumState stacked
    along the axes of ``scales`` (a 0-d ``scales`` gives one measure).

    For the right Perron vector v, transition probabilities are
    M[a,b] v[b] / (Mv)[a], which is M[a,b] v[b] / (lambda v[a]) to
    within the Perron bracket's relative width (at most 1e-13), and the
    stationary vectors come from ``_stationary_vector``.  Rows sum to 1
    to rounding, and the stationary identity |pi P - pi| is of the order
    of rounding, far inside the 1e-9 that ``MarkovMeasure`` checks.  The
    integral of the potential is the sum of pi_s P_st times its value on
    each arc s -> t, and the Gibbs identity log(lambda) = entropy + q *
    integral is checked for every member.  A reducible system has a
    reducible matrix support, on which ``power_iteration`` raises
    NoUniquePerronError.
    """
    tm = TransferMatrix(system, potential, scales)
    lam, v = power_iteration(tm.matrix)
    P = tm.matrix * v[..., None, :]
    P = P / P.sum(axis=-1, keepdims=True)
    pi = _stationary_vector(P)
    src, dst, _ = tm.graph.arcs
    depth = tm.graph.words.shape[1]
    state = EquilibriumState(system, depth, pi, P, np.log(lam),
                             (pi[..., src] * P[..., src, dst]) @ tm.values)
    gap = np.abs(state.pressure - (state.entropy
                                   + scales * state.potential_integral)).max()
    if gap > GIBBS_TOL:
        raise RuntimeError(f"Gibbs identity violated by {gap:.3e} at construction")
    return state


def equilibrium_markov(system: ShiftSystem, potential: Potential) -> EquilibriumState:
    """Equilibrium state of a locally constant potential: the
    ``equilibrium_states`` of the one exponent q = 1."""
    return equilibrium_states(system, potential, 1.0)


def vp_residual(system: ShiftSystem, potential: Potential,
                measure: MarkovMeasure) -> float:
    """Pressure minus (entropy + potential integral) of an invariant
    measure, one residual per chain of a stack.

    Nonnegative by the variational principle; zero exactly at the
    equilibrium state.
    """
    return transfer_pressure(system, potential) - \
        (measure.entropy + measure.integrate(potential))


def perturbed_chains(base: MarkovMeasure, count: int, rng,
                     scale: float = 0.8) -> MarkovMeasure:
    """Random invariant Markov chains near a base chain, as one measure
    stacking ``count`` chains on the base's states.

    Rows of the transition matrix are reweighted by exp of Gaussian noise
    (support preserved) and renormalized, and the stationary vectors are
    re-solved by ``_stationary_vector``, so every sample is genuinely
    shift-invariant; the stack is drawn (as ``count`` draws of one
    matrix), solved and checked at once.  ``delta_measure``'s identity
    chain has no unique stationary vector: NoUniquePerronError.
    """
    P0 = base.transitions
    noise = rng.normal(0.0, scale, size=(count,) + P0.shape)
    P = np.where(P0 > 0, P0 * np.exp(noise), 0.0)
    P = P / P.sum(axis=-1, keepdims=True)
    return MarkovMeasure(base.system, base.state_depth, _stationary_vector(P),
                         P)


def _stationary_vector(P: np.ndarray) -> np.ndarray:
    """Stationary vectors of a row-stochastic matrix, or of a stack of
    them along leading axes, by the GTH state reduction (Grassmann, Taksar
    and Heyman, Oper. Res. 33, 1985): states n-1, ..., 1 are censored out
    in turn, column k above the diagonal divided by the exit mass s = sum
    of P[k, :k] and P[i, j] += P[i, k] P[k, j] for i, j < k; back
    substitution gives pi_0 = 1, pi_k = sum over i < k of pi_i P[i, k].
    Nothing is subtracted and the diagonal is never read, so every entry
    keeps its relative accuracy (O'Cinneide, Numer. Math. 65, 1993).
    Raises NoUniquePerronError when an exit mass is not positive (0,
    underflow or NaN), as it is for every chain with two closed classes.
    """
    A = np.array(P, dtype=float)
    n = A.shape[-1]
    for k in range(n - 1, 0, -1):
        exit_mass = A[..., k, :k].sum(axis=-1, keepdims=True)
        if not (exit_mass > 0).all():
            raise NoUniquePerronError("no-unique-perron: the chain has no "
                                      "unique stationary vector")
        A[..., :k, k] /= exit_mass
        A[..., :k, :k] += A[..., :k, k, None] * A[..., None, k, :k]
    pi = np.ones(A.shape[:-1])
    for k in range(1, n):
        pi[..., k] = (pi[..., :k] * A[..., :k, k]).sum(axis=-1)
    return pi / pi.sum(axis=-1, keepdims=True)


def delta_measure(system: ShiftSystem, symbol: int) -> MarkovMeasure:
    """Point mass on the fixed point symbol^infinity (needs a self-loop)."""
    if not system.allows(symbol, symbol):
        raise ValueError(f"symbol {symbol} has no self-loop")
    k = system.alphabet_size
    pi = np.zeros(k)
    pi[symbol] = 1.0
    P = np.eye(k)
    return MarkovMeasure(system, 1, pi, P)


def power_system(system: ShiftSystem, k: int) -> ShiftSystem:
    """The k-th power shift presented on the alphabet of admissible k-blocks,
    symbol i being row i of ``system.block_graph(k).words``.  Block u may
    be followed by block w iff the last symbol of u may precede the first
    symbol of w.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    words = system.block_graph(k).words
    return ShiftSystem(system.adjacency[np.ix_(words[:, -1], words[:, 0])])


def power_sum_potential(potential: Potential, k: int,
                        power: ShiftSystem) -> Potential:
    """The k-step Birkhoff sum of the potential, as a potential on its
    system's k-block ``power_system`` (depth 2 there: windows may spill
    into the next block when the original depth exceeds 1)."""
    if potential.depth > k + 1:
        raise ValueError("potential depth too large for this power")
    words = potential.system.block_graph(k).words
    src, dst = np.nonzero(power.adjacency)
    sums = potential.window_sums(np.hstack([words[src], words[dst]]), k)
    return Potential(power, 2, dict(zip(zip(src.tolist(), dst.tolist()),
                                        sums.tolist())))


def power_pressure_check(system: ShiftSystem, potential: Potential, k: int):
    """Pressure of the k-th power system under the k-step Birkhoff sum,
    against k times the base pressure.  Returns (lhs, rhs)."""
    rhs = k * transfer_pressure(system, potential)
    power = power_system(system, k)
    lifted = power_sum_potential(potential, k, power)
    return transfer_pressure(power, lifted), rhs


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
    if not system.same_as(potential.system):
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
    for p in range(counted - b + 1):
        counts[state, blocks.index(words[:, p:p + b])] += 1
    logs = potential.window_sums(words, min(sd - r, n - 1) + 1)
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
    for _ in range(n + r - 1 - max(sd, n)):
        prev, per_state = per_state, np.full(len(words), -np.inf)
        np.logaddexp.at(per_state, dst, prev[src] + val)
    return float(np.logaddexp.reduce(per_state)) / n
