"""String-cover weight functions and critical-exponent pressures.

The cover of reference is always the partition of a shift space into the
cylinders of a fixed depth t, balls of diameter 2**(-t), so it is given by
t alone: every function here takes that depth, an integer >= 1, and
reads the system from the subset.  A string of N cover elements has
nonempty domain exactly when the overlapping windows assemble into one
admissible word of length N + t - 1, so string combinatorics reduce to
word combinatorics and the two covering sums of interest become exact:

* the fixed-length sum ("capacity" side) is the sum, over admissible
  words of length N + t - 1 whose cylinder meets the target subset, of
  exp(sup of the N-term Birkhoff sum over the cylinder);

* the variable-length sum ("critical exponent" side) is the infimum over
  prefix-free families of words of length >= N + t - 1 covering the
  subset of exp(-alpha * string length + Birkhoff sup).  Any covering
  family dominates such an antichain of no greater weight, so the
  infimum is a minimum over antichains and is computed by dynamic
  programming on the cylinder tree, truncated at a reported depth cap.

Both computations run on the states of max(t - 1, 1) trailing symbols a
word needs to extend.  Each arc carries the window that a string-length
step completes, and both sums step along the arcs with it, one term per
arc, with no state-by-state matrix.  The word sums come from one forward
sweep over word lengths, a log-space sum into each arc's target per
step, cached and extended on demand: N up to N_max costs O(N_max) steps.

The pressure of a subset, where the variable-length sum switches from
growing to vanishing, and its capacities, the growth rates of the
fixed-length sum, are all log rho(R) for the arc weights R = exp(v_string)
over the irreducible classes that the subset reaches (the calculator's
own split, cached with it).  ``critical_alpha`` brackets it with right
Collatz-Wielandt vectors and ``capacity_pressures`` with the sweep's left
ones: two vectors and two code paths for one matrix, so that the chain
check P <= upper capacity can fail on a bug in either.  One calculator
per subset, potential and cover depth serves all of these (``_calculus``).

Both estimators read the sums only from N = ``least_n`` on, where every
entry word, of length N + t - 1, is at least as long as the longest
listed cylinder word; below it, prefixes of the listed words cover the
union and the sums follow the potential along them, not the pressure.
Each estimate reports the Ns it read (``PressureEstimate.n_range``), and
the sums refuse a smaller N by name.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .shifts import BlockGraph, Potential, SubsetSpec


MAX_CW_STEPS = 20_000  # (I + R) steps before a bracket is inconclusive


class InconclusiveError(RuntimeError):
    """A cover-route value left uncertified: a Collatz-Wielandt bracket
    open after MAX_CW_STEPS steps, arc weights of a class spanning more
    than the normal float range, or an overflowing exp(window - alpha)."""


@dataclass
class PressureEstimate:
    """A pressure value with the diagnostics of how it was obtained."""

    value: float
    n_range: tuple
    bracket: tuple
    diagnostics: dict = field(default_factory=dict)

    @property
    def degenerate(self) -> bool:
        return bool(self.diagnostics.get("degenerate", False))


class _StringCalculus:
    """Shared state-space machinery for both covering sums.

    States are the sdepth-blocks of ``graph``, a ``BlockGraph`` of the
    reduced sub-adjacency for a sub-SFT, of the parent adjacency otherwise.
    ``v_string[e]`` is the window that one string-length step completes
    along arc e of ``graph.arcs``, at position len - t of the word the step
    grows to: the sweep adds it in log space into each arc's target, and
    the c-factor recursion sums its exponentials over out-arcs.
    """

    def __init__(self, subset: SubsetSpec, potential: Potential, depth: int):
        system = subset.system
        if not system.same_as(potential.system):
            raise ValueError("potential does not match the subset's system")
        r, t = potential.depth, int(depth)
        if t < r:
            raise ValueError("cover depth must be >= potential depth "
                             "(exactness regime)")
        # the subset keeps this calculator (``_calculus``), so only the
        # parts read here are kept: no reference cycle holds the arrays
        self.empty = subset.is_empty
        self.potential = potential
        self.t = t
        # the least N whose entry words, of length N + t - 1, are at
        # least as long as every listed cylinder word
        self.least_n = max(1, max(map(len, subset.words), default=0) - t + 1)
        self.sdepth = sd = max(t - 1, 1)
        working = subset.sub_adjacency if subset.kind == SubsetSpec.SUB_SFT \
            else system.adjacency
        self.graph = BlockGraph(working, sd)
        st = self.graph.words
        _, _, arc_words = self.graph.arcs
        lo = sd + 1 - t
        self.v_string = potential.values(arc_words[:, lo:lo + r])

        # seed words: the states themselves, or the listed cylinder words
        # (those shorter than a state extended to every state below them)
        self._seeds: dict[int, np.ndarray] = {}
        if subset.kind != SubsetSpec.CYLINDERS:
            self._fold_seeds(st)
        for length, group in itertools.groupby(subset.words, key=len):
            if length < sd:
                self._fold_seeds(np.concatenate(
                    [st[(st[:, :length] == u).all(axis=1)] for u in group]))
            else:
                self._fold_seeds(np.array(list(group), dtype=np.int64))
        # every seed and every entry length is at least sd
        self._forward = [self._seeds.get(sd, np.full(len(st), -np.inf))]

    def _fold_seeds(self, words: np.ndarray):
        """Fold equal-length seed words into ``_seeds[length]``: per end
        state, the log-sum of exp(window sum) over the words, each word
        with its windows 0..length - t (a word of length N + t - 1 holds
        the N windows of a string of length N)."""
        length, n = words.shape[1], len(self.graph.words)
        end = self.graph.index(words[:, -self.sdepth:])
        v = self.potential.window_sums(words, length - self.t + 1)
        top = np.full(n, -np.inf)
        np.maximum.at(top, end, v)
        total = np.bincount(end, np.exp(v - top[end]), minlength=n)
        with np.errstate(divide="ignore"):
            row = np.log(total) + top
        old = self._seeds.get(length)
        self._seeds[length] = row if old is None else np.logaddexp(old, row)

    # -- entry families at word length L0 = N + t - 1 -----------------------

    def _sweep(self, length: int) -> np.ndarray:
        """Per-state log-sums of the seed words of length <= ``length``,
        grown to that length along the arcs (in-arcs folded in source
        order), each word with its windows 0..length - t.  One forward
        sweep, cached and extended on demand, serves every N."""
        forward = self._forward
        src, dst, _ = self.graph.arcs
        while self.sdepth + len(forward) <= length:
            grown = np.full(len(self.graph.words), -np.inf)
            np.logaddexp.at(grown, dst, forward[-1][src] + self.v_string)
            seeds = self._seeds.get(self.sdepth + len(forward))
            forward.append(grown if seeds is None
                           else np.logaddexp(grown, seeds))
        return forward[length - self.sdepth]

    def _entry_logs(self, N: int) -> np.ndarray:
        """Per-state log-sums of the meeting words of length N + t - 1,
        each word with its windows 0..N - 1, the ones a string of length N
        counts and the c-factor recursion continues from.  Every listed
        cylinder word is at most that long, so each meeting word's subtree
        lies inside the subset; N below ``least_n`` raises ValueError."""
        if N < self.least_n:
            raise ValueError(
                f"N = {N} is below least_n = {self.least_n}: entry words of "
                f"length N + t - 1 = {N + self.t - 1} are shorter than the "
                "longest listed cylinder word")
        return self._sweep(N + self.t - 1)

    @cached_property
    def classes(self) -> tuple:
        """The irreducible classes reached from the states whose entry logs
        at ``least_n`` are finite (an iterative Tarjan search along the
        arcs), as (order, starts, src, dst, v): their states, class c being
        order[starts[c]:starts[c + 1]], and the arcs inside them, src and
        dst as positions in ``order`` and v their windows.  A class has an
        arc inside it."""
        src, dst, _ = self.graph.arcs
        n = len(self.graph.words)
        first = np.searchsorted(src, np.arange(n + 1)).tolist()
        succ = dst.tolist()
        index, low, label = [-1] * n, [0] * n, [-1] * n
        stack, path, found, ticket = [], [], 0, itertools.count()

        def visit(w):
            index[w] = low[w] = next(ticket)
            stack.append(w)
            path.append([w, first[w]])  # a state and its next out-arc

        roots = np.flatnonzero(np.isfinite(self._entry_logs(self.least_n)))
        for root in roots.tolist():
            if index[root] < 0:
                visit(root)
            while path:
                top = path[-1]
                v, e = top
                if e < first[v + 1]:
                    top[1] = e + 1
                    w = succ[e]
                    if index[w] < 0:
                        visit(w)
                    elif label[w] < 0:  # still on the stack
                        low[v] = min(low[v], index[w])
                    continue
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:  # v roots a component: pop it
                    while label[v] < 0:
                        label[stack.pop()] = found
                    found += 1
        label = np.array(label)
        inside = (label[src] >= 0) & (label[src] == label[dst])
        order = np.flatnonzero(np.bincount(src[inside], minlength=n))
        order = order[np.argsort(label[order], kind="stable")]
        where = np.empty(n, dtype=np.int64)
        where[order] = np.arange(len(order))
        starts = np.flatnonzero(np.diff(label[order], prepend=-1))
        return (order, starts, where[src[inside]], where[dst[inside]],
                self.v_string[inside])

    # -- fixed-length covering sum ------------------------------------------

    def log_lambda(self, N: int) -> float:
        if N < 1:
            raise ValueError("N must be >= 1")
        if self.empty:
            return -math.inf
        return float(np.logaddexp.reduce(self._entry_logs(N),
                                         initial=-math.inf))

    # -- variable-length covering infimum ------------------------------------

    def _cfactors(self, alpha: float, depth: int) -> tuple:
        """Cost of the optimal antichain at most ``depth`` levels below a
        node, per unit of its own weight, and the part of it at the depth
        cap: (c, g) per state, c = g = 1 at depth 0, then c_d = min(1,
        R c_{d-1}) and g_d = R g_{d-1} where R c_{d-1} < 1, else 0, with
        (R x)[i] the sum of exp(v_string - alpha) x[dst] over the out-arcs
        of i.  Raises InconclusiveError, naming alpha, when R overflows."""
        with np.errstate(over="ignore"):
            rates = np.exp(self.v_string - alpha)
        if np.isinf(rates).any():
            raise InconclusiveError(
                f"inconclusive: exp(window - alpha) overflows at alpha "
                f"{alpha:.6g}, windows up to {self.v_string.max():.6g}")
        src, dst, _ = self.graph.arcs
        n = len(self.graph.words)
        c, g = np.ones(n), np.ones(n)
        for _ in range(depth):
            c = np.bincount(src, rates * c[dst], n)
            g = np.bincount(src, rates * g[dst], n) * (c < 1.0)
            np.minimum(c, 1.0, out=c)
        return c, g

    def log_weight(self, alpha: float, N: int, margin: int) -> tuple:
        """(log, -inf when it vanishes, of the optimal covering weight at
        ``alpha`` with string lengths in [N, N + margin]; the fraction of it
        at that cap), for N >= ``least_n`` (see ``_entry_logs``)."""
        if N < 1:
            raise ValueError("N must be >= 1")
        if margin < 0:
            raise ValueError("depth cap must be >= N")
        if self.empty:
            return -math.inf, 0.0
        logw = self._entry_logs(N)
        shift = logw.max()
        c, g = self._cfactors(alpha, margin)
        weights = np.exp(logw - shift)  # entry weights over the largest
        total = float(weights @ c)
        if total == 0.0:
            return -math.inf, 0.0
        return (math.log(total) + shift - alpha * N,
                float(weights @ g) / total)


def _calculus(subset: SubsetSpec, potential: Potential,
              depth: int) -> _StringCalculus:
    """The ``_StringCalculus`` of the subset for this potential and cover
    depth (an integer >= 1, else ValueError), built once and kept on the
    subset, so that the covering sums of one job share one forward sweep."""
    if not float(depth).is_integer() or depth < 1:
        raise ValueError("cover depth must be an integer >= 1")
    key = (potential, int(depth))
    calc = subset.calculators.get(key)
    if calc is None:
        calc = subset.calculators[key] = _StringCalculus(subset, potential,
                                                         depth)
    return calc


def _allowance(terms: int, scale: float) -> float:
    """Rounding allowance of a log Collatz-Wielandt ratio summed over up to
    ``terms`` arcs from log-space numbers of magnitude up to ``scale``:
    2**-50 (four units in the last place) per summand and three per unit
    of magnitude bound the rounding of the exps, sum, division and logs."""
    return 2.0 ** -50 * (terms + 2 + 3 * float(scale))


def _class_bracket(ratio, starts, allowance: float) -> tuple:
    """Per-class min and max (lo, hi) of log Collatz-Wielandt ratios in
    class order, +inf at a state without weight (lo = -inf on a class with
    none), and the bracket [max_C lo_C, max_C hi_C] of log rho that they
    certify, each end widened by ``allowance``."""
    lo = np.minimum.reduceat(ratio, starts)
    lo[lo == math.inf] = -math.inf
    hi = np.maximum.reduceat(ratio, starts)
    return lo, hi, (float(lo.max()) - allowance, float(hi.max()) + allowance)


def log_lambda_n(subset: SubsetSpec, potential: Potential, depth: int,
                 N: int) -> float:
    """log of the minimal fixed-length covering sum (see module docstring).

    N must be at least ``least_n``, where the words of length N + t - 1
    reach the longest listed cylinder word; a smaller N raises ValueError
    naming it."""
    return _calculus(subset, potential, depth).log_lambda(N)


def weight_m(subset: SubsetSpec, alpha: float, potential: Potential,
             depth: int, N: int, depth_cap: int | None = None) -> float:
    """Optimal covering weight over strings of length >= N: the cheapest
    prefix-free antichain in the cylinder tree with string lengths in
    [N, depth_cap] (default N + 8), an upper bound for the unbounded-depth
    infimum.  N must be at least ``least_n`` (see ``log_lambda_n``);
    ``_StringCalculus.log_weight`` also gives the fraction at the cap."""
    cap = N + 8 if depth_cap is None else depth_cap
    log, _ = _calculus(subset, potential, depth).log_weight(alpha, N, cap - N)
    return math.exp(log)


def capacity_pressures(subset: SubsetSpec, potential: Potential, depth: int,
                       N_max: int) -> tuple[PressureEstimate, PressureEstimate]:
    """Lower/upper capacity pressures: the ends of a certified bracket of
    the growth rate of Lambda_N, from the sweep's left vectors.

    W_{N+1} = W_N R, R with arc weights exp(v_string), so Lambda_N grows
    at log rho(R) over the reached classes.  ``_class_bracket`` reads the
    left Collatz-Wielandt ratios of W_{N_max}: per state j, the logsumexp
    over its in-arcs of log W_i + v, less log W_j, +inf where W_j = 0, so
    the bracket is (-inf, +inf) until the sweep reaches a class; it
    narrows with N_max, but stays open on a periodic class.  Diagnostics:
    the (N, log Lambda, difference) rows over [N_max/2, N_max], a window
    moved up until it reads no N below ``least_n``, and ``n_range`` is it.
    """
    if N_max < 8:
        raise ValueError("N_max must be >= 8")
    calc = _calculus(subset, potential, depth)
    n_half = max(2, N_max // 2)
    lift = max(0, calc.least_n - (n_half - 1))
    n_half, N_max = n_half + lift, N_max + lift
    ns = list(range(n_half - 1, N_max + 1))
    loglam = [calc.log_lambda(N) for N in ns]
    if calc.empty:
        ends, diag = (-math.inf, -math.inf), {"degenerate": True, "rows": []}
    else:
        diag = {"rows": [(N, b, b - a)
                         for N, a, b in zip(ns[1:], loglam, loglam[1:])]}
        order, starts, src, dst, v = calc.classes
        logw = calc._entry_logs(N_max)[order]
        into = np.full(len(order), -math.inf)
        np.logaddexp.at(into, dst, logw[src] + v)
        seen = np.isfinite(logw)  # none where the roots reach no class yet
        ratio = np.where(seen, into - np.where(seen, logw, 0.0), math.inf)
        scale = np.abs(logw[seen]).max(initial=0.0) + np.abs(v).max()
        *_, ends = _class_bracket(
            ratio, starts, _allowance(int(np.bincount(dst).max()), scale))
    return (PressureEstimate(ends[0], (n_half, N_max), ends, dict(diag)),
            PressureEstimate(ends[1], (n_half, N_max), ends, dict(diag)))


def critical_alpha(subset: SubsetSpec, potential: Potential, depth: int,
                   tol: float) -> PressureEstimate:
    """Topological pressure of the subset: the midpoint of a certified
    Collatz-Wielandt bracket of log rho(R_0) over the reached classes, at
    most max(tol, its rounding floor) wide.

    R_alpha, with arc weights exp(v_string - alpha), is the operator of
    the c-factor recursion c_d = min(1, R_alpha c_{d-1}), and the covering
    weight is M(alpha, N) = e^(-alpha N) sum_s W_N(s) c(s), W_N the sweep.
    Upper end: if rho(R_alpha) < 1 on the reached states, c_d <= R_alpha^d
    1 -> 0, so M = 0 for every N and alpha >= P_Z.  Lower end: if x > 0 on
    a reached class C has R_alpha x >= theta x there, theta > 1, then
    c_d >= x / max x on C for every d, so M(alpha, N) >= (min x / max x)
    e^(-alpha N) sum_C W_N grows like theta^N (W_{N+1} >= W_N R_0), and
    alpha <= P_Z.  As R_alpha = e^(-alpha) R_0, one bracket of R_0 per
    class decides every alpha: rho(R_C) lies between the min and max over
    C of (R x)_i / x_i for any x > 0 (Horn and Johnson, Matrix Analysis,
    8.1; Seneta, Non-negative Matrices and Markov Chains, ch. 1).

    x <- s_C x + R x from x = 1, R = exp(v_string - max v_string) on the
    arcs inside the classes and s_C half the geometric midpoint of C's last
    ratios, about rho_C / 2 (periodic classes then converge at any scale of
    rho_C), is normalised per class every step and read every 10 steps.  The
    bracket is [max_C lo_C, max_C hi_C] in log, plus max v_string, each end
    widened by ``_allowance``; the floor is four allowances.  Raises
    InconclusiveError naming the spread where a class's arc weight falls
    below the smallest normal float, or the width when the bracket is open
    after MAX_CW_STEPS steps.  ``n_range`` is (least_n, least_n), whose
    entry words seed the classes; diagnostics: steps taken and classes.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    calc = _calculus(subset, potential, depth)
    n_range = (calc.least_n, calc.least_n)
    if calc.empty:
        return PressureEstimate(-math.inf, n_range, (-math.inf, -math.inf),
                                {"degenerate": True})
    order, starts, src, dst, v = calc.classes
    top, sizes = float(v.max()), np.diff(starts, append=len(order))
    rates = np.exp(v - top)
    if rates.min() < np.finfo(float).tiny:
        raise InconclusiveError(
            f"inconclusive: the arc windows of a class spread over "
            f"{top - float(v.min()):.6g}, past the normal float range")
    allowance = _allowance(int(np.bincount(src).max()),
                           2.0 * float(np.abs(v).max()))
    x = np.ones(len(order))
    for step in range(MAX_CW_STEPS + 1):
        rx = np.bincount(src, rates * x[dst], len(x))
        if step % 10 == 0:
            los, his, (lo, hi) = _class_bracket(np.log(rx / x) + top, starts,
                                                allowance)
            if hi - lo <= max(tol, 4 * allowance):
                return PressureEstimate(0.5 * (lo + hi), n_range, (lo, hi),
                                        {"steps": step, "classes": len(sizes)})
            shift = np.repeat(0.5 * np.exp(0.5 * (los + his) - top), sizes)
        x = shift * x + rx
        x /= np.repeat(np.maximum.reduceat(x, starts), sizes)
    raise InconclusiveError(
        f"inconclusive: the Collatz-Wielandt bracket is still {hi - lo:.3g} "
        f"wide after {MAX_CW_STEPS} steps, above tol {tol:.3g}")


def pressure_refined(subset: SubsetSpec, potential: Potential, depths,
                     tol: float) -> PressureEstimate:
    """Pressure on the cover of the deepest of the increasing ``depths``.

    For locally constant potentials every cover depth t >= r is already
    exact (the potential does not vary inside a cover element), so one
    ``critical_alpha`` at the deepest depth gives the value and bracket
    that every such depth would; a refinement with error envelopes for
    potentials that are not locally constant is not implemented.
    """
    depths = list(depths)
    if not depths:
        raise ValueError("depths must list at least one cover depth")
    if depths != sorted(depths):
        raise ValueError("depths must be increasing")
    return critical_alpha(subset, potential, depths[-1], tol)
