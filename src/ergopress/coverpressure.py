"""String-cover weight functions and critical-exponent pressures.

The cover of reference is always the partition of a shift space into the
cylinders of a fixed depth t.  A string of N cover elements has nonempty
domain exactly when the overlapping windows assemble into one admissible
word of length N + t - 1, so string combinatorics reduce to word
combinatorics and the two covering sums of interest become exact:

* the fixed-length sum ("capacity" side) is the sum, over admissible
  words of length N + t - 1 whose cylinder meets the target subset, of
  exp(sup of the N-term Birkhoff sum over the cylinder);

* the variable-length sum ("critical exponent" side) is the infimum over
  prefix-free families of words of length >= N + t - 1 covering the
  subset of exp(-alpha * string length + Birkhoff sup).  Any covering
  family dominates such an antichain of no greater weight, so the
  infimum is a minimum over antichains and is computed by dynamic
  programming on the cylinder tree, truncated at a reported depth cap.

Both computations run on a small state space (the trailing symbols a
word needs to extend: max(t, potential depth) - 1 of them, at least 1),
so costs are linear in the word length instead of exponential.  The
word sums come from one forward sweep over word lengths, a log-space
matrix-vector product per step, cached and extended on demand: every N
reads the same sweep, so a whole N-window up to N_max costs O(N_max)
steps rather than a fresh dynamic program per N.

The topological pressure of a subset is the critical alpha at which the
variable-length sum switches from growing to vanishing with N; it is
located by bisection, classifying each alpha by the least-squares slope
of log(sum) against N over the top half of the N-window.  Lower/upper
capacity pressures come from the successive differences of log(sum)
against N (which converge to the same limit as (1/N) log(sum), but
geometrically fast on these systems, instead of at rate 1/N).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .shifts import BlockGraph, Potential, ShiftSystem, SubsetSpec


DEPTH_MARGIN = 8  # string lengths a bisection weight may add beyond N


class InconclusiveError(RuntimeError):
    """Growth classification failed within the computational budget."""


class Cover:
    """Partition of the shift space into all cylinders of one depth.

    Depth-t cylinders are clopen balls of diameter 2**(-t), so these
    covers realize arbitrarily small diameters as t grows.
    """

    def __init__(self, system: ShiftSystem, depth: int):
        if depth < 1:
            raise ValueError("cover depth must be >= 1")
        self.system = system
        self.depth = int(depth)

    def diameter(self) -> float:
        return 2.0 ** (-self.depth)


@dataclass
class PressureEstimate:
    """A pressure value with the diagnostics of how it was obtained."""

    value: float
    cover_depth: int
    n_range: tuple
    bracket: tuple
    mode: str  # "P" | "CP_lower" | "CP_upper"
    diagnostics: dict = field(default_factory=dict)

    @property
    def degenerate(self) -> bool:
        return bool(self.diagnostics.get("degenerate", False))


def _log_matvec(logv: np.ndarray, logm: np.ndarray) -> np.ndarray:
    """log(exp(logv) @ exp(logm)), computed in log space."""
    return np.logaddexp.reduce(logv[:, None] + logm, axis=0)


class _StringCalculus:
    """Shared state-space machinery for both covering sums.

    States are the sdepth-blocks of ``graph``, a ``BlockGraph`` of the
    reduced sub-adjacency for a sub-SFT, of the parent adjacency otherwise.
    Two dense matrices over the states hold window values on its arcs,
    -inf elsewhere: ``v_append[i, j]`` is the window a word ending in i
    completes when it grows into j (the arc word's last r symbols),
    ``v_string[i, j]`` the window one string-length increment completes.
    """

    def __init__(self, subset: SubsetSpec, potential: Potential, cover: Cover):
        system = cover.system
        if potential.system is not system and \
                not np.array_equal(potential.system.adjacency, system.adjacency):
            raise ValueError("potential does not match the cover's system")
        if subset.system is not system and \
                not np.array_equal(subset.system.adjacency, system.adjacency):
            raise ValueError("subset does not match the cover's system")
        r, t = potential.depth, cover.depth
        if t < r:
            raise ValueError("cover depth must be >= potential depth "
                             "(exactness regime)")
        self.subset = subset
        self.potential = potential
        self.r, self.t = r, t
        self.sdepth = sd = max(t - 1, 1)
        working = subset.sub_adjacency if subset.kind == SubsetSpec.SUB_SFT \
            else system.adjacency
        self.graph = BlockGraph(working, sd)
        st = self.graph.words
        n = len(st)
        src, dst, arc_words = self.graph.arcs
        self.v_append = np.full((n, n), -np.inf)
        self.v_string = np.full((n, n), -np.inf)
        lo = sd + 1 - t
        self.v_append[src, dst] = potential.values(arc_words[:, -r:])
        self.v_string[src, dst] = potential.values(arc_words[:, lo:lo + r])
        self._zero = np.where(self.v_append > -np.inf, 0.0, -np.inf)

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
        self._lmin = min(self._seeds, default=sd)
        self._forward: list[np.ndarray] = []
        self._entry_cache: dict = {}
        self._cfactor_cache: tuple = (None,)

    def _seed_log(self, word: tuple, n_target: int) -> float:
        """Sum of the complete Birkhoff windows of a seed word, clipped to
        window positions < n_target."""
        return self.potential.word_sum(word, min(len(word) - self.r + 1,
                                                 n_target))

    def _fold_seeds(self, words: np.ndarray):
        """Fold equal-length seed words into ``_seeds[length]``: row j holds,
        per end state, the log-sum of exp(window sum of a word without its
        last j windows), 0 <= j <= t - r (the windows a string of length N
        still counts when the word enters j steps past N + r - 1)."""
        if not len(words):
            return
        length, n = words.shape[1], len(self.graph.words)
        end = self.graph.index(words[:, -self.sdepth:])
        count = max(length - self.r + 1, 0)
        sums = np.zeros((len(words), count + 1))
        if count:
            windows = sliding_window_view(words, self.r, axis=1)
            np.cumsum(self.potential.values(windows), axis=1, out=sums[:, 1:])
        rows = np.empty((self.t - self.r + 1, n))
        for j in range(len(rows)):
            v = sums[:, count - j]
            top = np.full(n, -np.inf)
            np.maximum.at(top, end, v)
            total = np.bincount(end, np.exp(v - top[end]), minlength=n)
            with np.errstate(divide="ignore"):
                rows[j] = np.log(total) + top
        old = self._seeds.get(length)
        self._seeds[length] = rows if old is None else np.logaddexp(old, rows)

    # -- entry families at word length L0 = N + t - 1 -----------------------

    def _sweep(self, length: int) -> np.ndarray:
        """Per-state log-sums of the seed words of length <= ``length``,
        grown to that length, with every complete window counted.  One
        forward sweep, cached and extended on demand, serves every N."""
        forward = self._forward
        if not forward:
            forward.append(self._seeds[self._lmin][0])
        while self._lmin + len(forward) <= length:
            grown = _log_matvec(forward[-1], self.v_append)
            seeds = self._seeds.get(self._lmin + len(forward))
            forward.append(grown if seeds is None
                           else np.logaddexp(grown, seeds[0]))
        return forward[length - self._lmin]

    def _entry_logs(self, N: int) -> tuple[np.ndarray, list]:
        """Log-weights of the meeting words of length N + t - 1.

        Returns (per-state log-sums for words whose subtree continues
        homogeneously, list of (word, deeper listed words) for explicit
        trie roots coming from listed cylinders deeper than the entry
        level).  Windows at positions >= N do not count, so the sweep is
        read at N + r - 1 and then grown t - r steps at zero weight, while
        seed words of those lengths enter with their sums clipped.  Cached
        per N: the sums do not depend on the exponent.
        """
        if N in self._entry_cache:
            return self._entry_cache[N]
        m, L0 = N + self.r - 1, N + self.t - 1
        logW = self._sweep(m) if m >= self._lmin \
            else np.full(len(self.graph.words), -np.inf)
        for length in range(m + 1, L0 + 1):
            logW = _log_matvec(logW, self._zero)
            if length in self._seeds:
                logW = np.logaddexp(logW, self._seeds[length][length - m])
        roots: dict = {}
        for u in self.subset.words:
            if len(u) > L0:
                roots.setdefault(u[:L0], []).append(u)
        result = (logW, list(roots.items()))
        self._entry_cache[N] = result
        return result

    # -- fixed-length covering sum ------------------------------------------

    def log_lambda(self, N: int) -> float:
        if N < 1:
            raise ValueError("N must be >= 1")
        if self.subset.is_empty:
            return -math.inf
        logW, trie = self._entry_logs(N)
        parts = np.concatenate([logW, [self._seed_log(v, N) for v, _ in trie]])
        if not parts.size:
            return -math.inf
        return float(np.logaddexp.reduce(parts))

    # -- variable-length covering infimum ------------------------------------

    def _cfactors(self, alpha: float, depth: int):
        """Per-remaining-depth cost of the optimal capped antichain below
        a node, per unit of the node's own weight, with the fraction of
        that cost carried by nodes sitting at the depth cap.

        Returns (c, f): lists indexed by remaining depth 0..depth, each a
        vector over states.  Cached for the latest alpha (callers sweep the
        N-window at one alpha before moving on) and extended on demand:
        c[0] = 1 and c[d] = min(1, R c[d-1]) with R = exp(v_string - alpha).
        Raises InconclusiveError when R overflows.
        """
        if self._cfactor_cache[0] != alpha:
            try:
                with np.errstate(over="raise"):
                    rates = np.exp(self.v_string - alpha)
            except FloatingPointError:
                raise InconclusiveError(
                    f"inconclusive: exp(window - alpha) overflows at alpha "
                    f"{alpha:.6g}, windows up to {self.v_string.max():.6g}") \
                    from None
            ones = np.ones(len(self.graph.words))
            self._cfactor_cache = (alpha, rates, [ones], [ones])
        _, rates, cs, fs = self._cfactor_cache
        while len(cs) <= depth:
            total = rates @ cs[-1]
            capped = rates @ (cs[-1] * fs[-1])
            cs.append(np.minimum(total, 1.0))
            fs.append(np.divide(capped, total, out=np.zeros_like(total),
                                where=(0.0 < total) & (total < 1.0)))
        return cs, fs

    def log_weight_m(self, alpha: float, N: int, cap: int) -> tuple[float, dict]:
        """Optimal covering weight for strings of length in [N, cap].

        The returned value is an upper bound on the true infimum over all
        covering families (which allows unbounded lengths); the details
        report how much of the optimum sits at the cap.
        """
        if N < 1:
            raise ValueError("N must be >= 1")
        if cap < N:
            raise ValueError("depth cap must be >= N")
        details = {"cap": cap, "upper_bound": True, "cap_mass": 0.0}
        if self.subset.is_empty:
            return -math.inf, details
        logW, trie = self._entry_logs(N)
        if trie:
            deepest = max((len(u) - self.t + 1) for _, us in trie for u in us)
            if cap < deepest:
                cap = deepest
                details["cap"] = cap
        cs, fs = self._cfactors(alpha, cap - N)
        shift = max([logW.max(initial=-math.inf)]
                    + [self._seed_log(v, N) for v, _ in trie])
        if shift == -math.inf:
            return -math.inf, details
        weights = np.exp(logW - shift) * cs[cap - N]
        total = float(weights.sum())
        capped = float(weights @ fs[cap - N])
        for v, us in trie:
            cost, fcap = self._trie_cost(v, tuple(sorted(us)), alpha, N, cap,
                                         cs, fs, shift)
            total += cost
            capped += cost * fcap
        if total <= 0.0:
            return -math.inf, details
        details["cap_mass"] = capped / total
        return math.log(total) + shift - alpha * N, details

    def _trie_cost(self, v: tuple, us: tuple, alpha: float, N: int, cap: int,
                   cs, fs, shift: float) -> tuple[float, float]:
        """Explicit tree walk above listed cylinder words deeper than the
        entry level.  Costs are in units of exp(shift - alpha*N), matching
        the caller's normalization."""
        m = len(v) - self.t + 1
        own = math.exp(self._seed_log(v, m) - shift - alpha * (m - N))
        if any(len(u) == len(v) for u in us):
            # v is itself a listed word (antichain: then the only one
            # here); the subtree below it lies inside the subset
            idx = self.graph.index(v[-self.sdepth:])
            cvec, fvec = cs[cap - m], fs[cap - m]
            return own * cvec[idx], (fvec[idx] if cvec[idx] < 1.0 else 0.0)
        children: dict[int, list] = {}
        for u in us:
            children.setdefault(u[len(v)], []).append(u)
        child_cost = 0.0
        child_cap = 0.0
        for a, subus in children.items():
            cc, cf = self._trie_cost(v + (a,), tuple(subus), alpha, N, cap,
                                     cs, fs, shift)
            child_cost += cc
            child_cap += cc * cf
        if own <= child_cost:
            return own, 0.0
        return child_cost, (child_cap / child_cost if child_cost > 0 else 0.0)


def log_lambda_n(subset: SubsetSpec, potential: Potential, cover: Cover,
                 N: int) -> float:
    """log of the minimal fixed-length covering sum (see module docstring)."""
    return _StringCalculus(subset, potential, cover).log_lambda(N)


def lambda_n(subset: SubsetSpec, potential: Potential, cover: Cover,
             N: int) -> float:
    """Minimal covering sum over strings of length exactly N.

    Monotone under shrinking the subset; 0 for an empty subset.
    """
    return math.exp(log_lambda_n(subset, potential, cover, N))


def weight_m(subset: SubsetSpec, alpha: float, potential: Potential,
             cover: Cover, N: int, depth_cap: int | None = None) -> float:
    """Optimal covering weight over strings of length >= N.

    Computed exactly as the cheapest prefix-free antichain in the
    cylinder tree with string lengths in [N, depth_cap] (default N + 8).
    Always an upper bound for the unbounded-depth infimum.  When the
    subset lists cylinder words deeper than the cap, the cap is raised to
    reach them, since the covering structure below the entry level is
    pinned by those words anyway; ``_StringCalculus.log_weight_m`` reports
    the cap used and the fraction of the optimum sitting at it.
    """
    cap = depth_cap if depth_cap is not None else N + DEPTH_MARGIN
    logm, _ = _StringCalculus(subset, potential, cover).log_weight_m(
        alpha, N, cap)
    return math.exp(logm)


def capacity_pressures(subset: SubsetSpec, potential: Potential, cover: Cover,
                       N_max: int) -> tuple[PressureEstimate, PressureEstimate]:
    """Lower/upper capacity pressure estimates from the covering sums.

    The limit values are bracketed by the extremes of the successive
    differences of log Lambda over the window [N_max/2, N_max] (the raw
    sequence (1/N) log Lambda converges only at rate 1/N, which is why
    the differenced estimator is the reported value); the diagnostics
    keep the (N, log Lambda, difference) rows.
    """
    if N_max < 8:
        raise ValueError("N_max must be >= 8")
    calc = _StringCalculus(subset, potential, cover)
    n_half = max(2, N_max // 2)
    ns = list(range(n_half - 1, N_max + 1))
    loglam = {N: calc.log_lambda(N) for N in ns}
    if all(v == -math.inf for v in loglam.values()):
        svals = [-math.inf]
        diag = {"degenerate": True, "rows": []}
    else:
        slopes = {N: loglam[N] - loglam[N - 1] for N in ns[1:]}
        window = [N for N in slopes if N >= n_half]
        svals = [slopes[N] for N in window]
        diag = {"rows": [(N, loglam[N], slopes[N]) for N in window]}
    lo = PressureEstimate(min(svals), cover.depth, (n_half, N_max),
                          (min(svals), max(svals)), "CP_lower", dict(diag))
    hi = PressureEstimate(max(svals), cover.depth, (n_half, N_max),
                          (min(svals), max(svals)), "CP_upper", dict(diag))
    return lo, hi


def _slope(ns, values) -> float:
    """Least-squares slope of values against ns, in closed form."""
    x = np.asarray(ns, dtype=float)
    x = x - x.mean()
    return float(x @ np.asarray(values, dtype=float) / (x @ x))


def critical_alpha(subset: SubsetSpec, potential: Potential, cover: Cover,
                   tol: float, n_range: tuple = (8, 20)) -> PressureEstimate:
    """Topological pressure of the subset: bisection on the exponent.

    For each candidate alpha the covering weight (depth cap N +
    DEPTH_MARGIN) is computed over the top half of the N-window and
    classified by the ``_slope`` of its log: positive slope means the
    weight diverges (alpha below the critical value), negative means it
    vanishes.  The bracket is narrowed until its width is at most tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if subset.is_empty:
        return PressureEstimate(-math.inf, cover.depth, n_range,
                                (-math.inf, -math.inf), "P",
                                {"degenerate": True})
    calc = _StringCalculus(subset, potential, cover)
    n_lo, n_hi = n_range
    ns = list(range(n_lo, n_hi + 1))
    top = ns[len(ns) // 2:]

    gvals = list(potential.table.values())
    k = cover.system.alphabet_size
    alpha_lo = min(gvals) - math.log(k) - 1.0
    alpha_hi = max(gvals) + math.log(k) + 1.0

    trace = []

    def classify(alpha: float) -> float:
        logs = []
        for N in top:
            lm, _ = calc.log_weight_m(alpha, N, N + DEPTH_MARGIN)
            if lm == -math.inf:
                raise InconclusiveError("inconclusive-at-depth: covering "
                                        "weight vanished identically")
            logs.append(lm)
        s = _slope(top, logs)
        trace.append((alpha, s))
        return s

    slope_lo = classify(alpha_lo)
    slope_hi = classify(alpha_hi)
    if not (slope_lo > 0 > slope_hi):
        raise InconclusiveError(
            "inconclusive: growth classification is not monotone across "
            f"the initial bracket (slopes {slope_lo:.3g}, {slope_hi:.3g})")
    threshold = 1e-3 * max(1.0, abs(slope_lo), abs(slope_hi))
    weak = 0
    steps = math.ceil(math.log2((alpha_hi - alpha_lo) / tol)) + 1
    for _ in range(steps):
        if alpha_hi - alpha_lo <= tol:
            break
        mid = 0.5 * (alpha_lo + alpha_hi)
        s = classify(mid)
        if abs(s) < threshold:
            weak += 1
        if s > 0:
            alpha_lo = mid
        else:
            alpha_hi = mid
    value = 0.5 * (alpha_lo + alpha_hi)
    diag = {
        "classification_threshold": threshold,
        "weak_classifications": weak,
        "trace": trace,
    }
    return PressureEstimate(value, cover.depth, (n_lo, n_hi),
                            (alpha_lo, alpha_hi), "P", diag)


def pressure_refined(subset: SubsetSpec, potential: Potential, depths,
                     N_max: int, tol: float) -> PressureEstimate:
    """Pressure on the cover of the deepest of the increasing ``depths``.

    For locally constant potentials every cover depth t >= r is already
    exact (the potential does not vary inside a cover element), so one
    bisection at the deepest depth gives the value and bracket that every
    such depth would; a refinement with error envelopes for potentials
    that are not locally constant is not implemented.
    """
    depths = list(depths)
    if depths != sorted(depths):
        raise ValueError("depths must be increasing")
    return critical_alpha(subset, potential, Cover(subset.system, depths[-1]),
                          tol, n_range=(max(4, N_max // 2), N_max))
