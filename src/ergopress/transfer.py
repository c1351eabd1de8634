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

from .shifts import (
    Potential,
    ShiftSystem,
    SubsetSpec,
    admissible_word_array,
    iter_admissible_tuples,
    strongly_connected,
)


class NoUniquePerronError(RuntimeError):
    """Raised when the matrix is reducible (no simple positive eigendata)."""


class ConvergenceError(RuntimeError):
    """Raised when the iteration budget is exhausted."""


class IncreaseDepthError(RuntimeError):
    """Raised when a frequency-typical cylinder family is empty."""


GIBBS_TOL = 1e-9


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
        if r == 1:
            states = [(a,) for a in range(system.alphabet_size)]
        else:
            states = list(iter_admissible_tuples(system.adjacency, r - 1))
        index = {s: i for i, s in enumerate(states)}
        dim = len(states)
        M = np.zeros((dim, dim))
        A = system.adjacency
        for s in states:
            for b in np.flatnonzero(A[s[-1]]):
                window = s + (int(b),) if r > 1 else s
                target = s[1:] + (int(b),) if r > 1 else (int(b),)
                M[index[s], index[target]] = math.exp(potential.value(window[:r]))
        self.states = tuple(states)
        self.matrix = M
        self.matrix.setflags(write=False)

    @property
    def dimension(self) -> int:
        return len(self.states)


def power_iteration(matrix, tol: float = 1e-14, budget: int = 100_000):
    """Perron eigenvalue and positive left/right eigenvectors.

    Iterates the diagonally shifted matrix M + cI (same eigenvectors,
    eigenvalues shifted by c) so that periodic irreducible matrices
    converge too.  The iterations for v (on M + cI) and for u (on its
    transpose) each start from the LAPACK eigenvector (``np.linalg.eig``)
    of the largest real eigenvalue, taken in absolute value, so they
    usually accept after the 10 steady steps; the start changes nothing
    in what is accepted.  An iteration accepts once the relative
    eigenvalue change has stayed below tol for 10 consecutive steps and
    its eigen-residual is below max(tol, 1e-13) times its eigenvalue.
    Raises ConvergenceError after ``budget`` steps, when the final
    residual |Mv - lam v| exceeds max(tol, 1e-12) * lam, or when LAPACK
    fails.

    Returns (lam, v, u) with Mv = lam v, uM = lam u, everything positive,
    v normalized to unit 1-norm and u scaled so that u . v = 1.
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

    shift = 0.5 * float(M.sum(axis=1).max())
    shifted = M + shift * np.eye(M.shape[0])

    def dominant(mat):
        try:
            values, vectors = np.linalg.eig(mat)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"no-convergence: eigensolver failed: {exc}") from exc
        vec = np.abs(vectors[:, values.real.argmax()])
        vec = vec / vec.sum()
        lam_prev = np.inf
        steady = 0
        for _ in range(budget):
            img = mat @ vec
            lam = img.sum()  # positive vector: 1-norm of the image
            vec = img / lam
            if lam_prev < np.inf and abs(lam - lam_prev) <= tol * lam:
                steady += 1
                # the eigenvalue estimate can stabilize before the vector
                # does (equal column sums make it constant outright), so
                # only accept once the eigen-residual is small too
                if steady >= 10:
                    if np.abs(mat @ vec - lam * vec).max() <= \
                            max(tol, 1e-13) * lam:
                        return lam - shift, vec
                    steady = 0
            else:
                steady = 0
            lam_prev = lam
        raise ConvergenceError("no-convergence: power iteration budget exceeded")

    lam, v = dominant(shifted)
    lam_left, u = dominant(shifted.T)
    lam = 0.5 * (lam + lam_left)
    residual = np.abs(M @ v - lam * v).max()
    if residual > max(tol * lam, 1e-12 * lam):
        raise ConvergenceError("no-convergence: residual above tolerance")
    u = u / float(u @ v)
    return float(lam), v, u


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
    blocks = list(iter_admissible_tuples(system.adjacency, r))
    index = {b: i for i, b in enumerate(blocks)}
    B = np.zeros((len(blocks), len(blocks)), dtype=np.int64)
    for b in blocks:
        for a in np.flatnonzero(system.adjacency[b[-1]]):
            target = b[1:] + (int(a),)
            B[index[b], index[target]] = 1
    recoded = ShiftSystem(B, system.sidedness)
    values = [potential.value(b) for b in blocks]
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
    vectors v, u.  Rows are renormalized and the stationary vector is
    polished by damped iteration so the chain identities hold to machine
    precision rather than to power-iteration tolerance.
    """
    if not system.irreducible:
        raise NoUniquePerronError("no-unique-perron: system is reducible")
    tm = TransferMatrix(system, potential)
    lam, v, u = power_iteration(tm, tol=1e-15)
    P = tm.matrix * v[None, :] / (lam * v[:, None])
    P = P / P.sum(axis=1, keepdims=True)
    pi = u * v
    pi = pi / pi.sum()
    for _ in range(10_000):
        nxt = 0.5 * (pi @ P + pi)  # damped so periodic chains settle too
        if np.abs(nxt - pi).max() < 1e-16:
            pi = nxt
            break
        pi = nxt
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
    blocks = list(iter_admissible_tuples(system.adjacency, k))
    B = np.zeros((len(blocks), len(blocks)), dtype=np.int64)
    for i, u in enumerate(blocks):
        for j, w in enumerate(blocks):
            B[i, j] = system.adjacency[u[-1], w[0]]
    return ShiftSystem(B, system.sidedness), blocks


def power_sum_potential(system: ShiftSystem, potential: Potential, k: int,
                        power: ShiftSystem, blocks: list) -> Potential:
    """The k-step Birkhoff sum of the potential, as a potential on the
    k-block power system (depth 2 there: windows may spill into the next
    block when the original depth exceeds 1)."""
    r = potential.depth
    if r > k + 1:
        raise ValueError("potential depth too large for this power")
    table = {}
    for i, u in enumerate(blocks):
        for j in np.flatnonzero(power.adjacency[i]):
            w = u + blocks[int(j)]
            table[(i, int(j))] = sum(potential.value(w[p:p + r]) for p in range(k))
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

    Collects the admissible depth-n cylinders whose empirical block
    frequencies are within 1/sqrt(n) of the measure's, and evaluates the
    string-cover sum over that family at string length n, returning
    (1/n) log of it.  The value always sits in the sandwich

        entropy + potential integral  <=  value + o(1)  <=  pressure,

    and approaches the left end from above as n grows, because the block
    frequencies pin both the word count and the Birkhoff sums.
    """
    from .coverpressure import Cover, log_lambda_n

    if n < 4:
        raise ValueError("n must be >= 4")
    b = block_depth if block_depth is not None \
        else max(potential.depth, measure.state_depth + 1)
    if b >= n:
        raise ValueError("block depth must be smaller than n")
    tol = freq_tol if freq_tol is not None else 1.0 / math.sqrt(n)

    blocks = list(iter_admissible_tuples(system.adjacency, b))
    target = np.array([math.exp(measure.log_cylinder_measure(w)) for w in blocks])
    block_id = {w: i for i, w in enumerate(blocks)}

    words = admissible_word_array(system, n).astype(np.int64)
    windows = np.stack([words[:, i:i + b] for i in range(n - b + 1)], axis=1)
    codes = np.zeros(windows.shape[:2], dtype=np.int64)
    base = system.alphabet_size
    for p in range(b):
        codes = codes * base + windows[:, :, p]
    code_of_block = {sum(a * base ** (b - 1 - p) for p, a in enumerate(w)): i
                     for w, i in block_id.items()}
    freq = np.zeros((len(words), len(blocks)))
    for code, idx in code_of_block.items():
        freq[:, idx] = (codes == code).sum(axis=1)
    freq /= (n - b + 1)
    keep = np.abs(freq - target[None, :]).max(axis=1) <= tol
    kept = [tuple(w) for w in words[keep]]
    if not kept:
        raise IncreaseDepthError("increase-n: no frequency-typical cylinder "
                                 f"at depth {n}")
    subset = SubsetSpec.cylinders(system, kept)
    cover = Cover(system, potential.depth)
    return log_lambda_n(subset, potential, cover, n) / n
