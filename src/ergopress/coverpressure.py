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

Both computations run on a small state space (the trailing symbols a
word needs to extend: max(t, potential depth) - 1 of them, at least 1),
so costs are linear in the word length instead of exponential.  Each
arc carries one window, the one a string-length step completes, and
both sums step along the arcs with it, so a step costs one term per arc
and no state-by-state matrix is built.  The word sums come from one
forward sweep over word lengths, a log-space sum into each arc's target
per step, cached and extended on demand: every N reads the same sweep,
so a whole N-window up to N_max costs O(N_max) steps rather than a fresh
dynamic program per N.

The topological pressure of a subset is the critical alpha at which the
variable-length sum switches from growing to vanishing with N; it is
located by bisection, classifying each alpha by the least-squares slope
of log(sum) against N over the top half of the N-window.  The weights
come in stacks: one call runs the c-factor recursion for many exponents
at once (one sum over the arcs of all exponents per depth level) and
reads the whole N-window's entry vectors from the cached sweep, so each
call weighs the bisection path predicted from the bracket's regula-falsi
point.  Lower/upper capacity pressures come from the successive
differences of log(sum) against N (which converge to the same limit as
(1/N) log(sum), but geometrically fast on these systems, instead of at
rate 1/N).  One calculator per subset, potential and cover depth serves
all of these sums (see ``_calculus``).

Both estimators read their sums only where every entry word, of length
N + t - 1, is at least as long as the longest listed cylinder word, that
is from N = ``least_n`` on.  Below it, prefixes of the listed words
already cover the union, and the sums follow the potential along those
prefixes, not the pressure.  Each estimator moves its window up until
the first N it reads is at least ``least_n`` and reports the window it
used (``PressureEstimate.n_range``); the sums refuse a smaller N by name.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .shifts import BlockGraph, Potential, SubsetSpec


DEPTH_MARGIN = 8  # string lengths a bisection weight may add beyond N


class InconclusiveError(RuntimeError):
    """Growth classification failed within the computational budget."""


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
    Each arc carries one window: ``v_string[e]`` is the window that one
    string-length step completes along arc e of ``graph.arcs``, the one
    at position len - t of the word the step grows to.  Both covering
    sums step along the arcs with it, the sweep adding ``v_string`` in
    log space into each arc's target, and the c-factor recursion summing
    its exponentials over each state's out-arcs.
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
        self.r, self.t = r, t
        # the least N whose entry words, of length N + t - 1, are at
        # least as long as every listed cylinder word
        self.least_n = max(1, max(map(len, subset.words), default=0) - t + 1)
        self.sdepth = sd = max(t - 1, 1)
        working = subset.sub_adjacency if subset.kind == SubsetSpec.SUB_SFT \
            else system.adjacency
        self.graph = BlockGraph(working, sd)
        st = self.graph.words
        n = len(st)
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
        self._forward = [self._seeds.get(sd, np.full(n, -np.inf))]

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

    # -- fixed-length covering sum ------------------------------------------

    def log_lambda(self, N: int) -> float:
        if N < 1:
            raise ValueError("N must be >= 1")
        if self.empty:
            return -math.inf
        return float(np.logaddexp.reduce(self._entry_logs(N),
                                         initial=-math.inf))

    # -- variable-length covering infimum ------------------------------------

    def _cfactors(self, alphas: np.ndarray, depth: int) -> np.ndarray:
        """Cost of the optimal antichain at most ``depth`` levels below a
        node, per unit of the node's own weight, and the part of that cost
        carried by nodes sitting at the depth cap.

        Returns cg of shape (2, alphas, states): the cost c = cg[0] and the
        capped part g = cg[1] at ``depth``, where c = g = 1 at depth 0 and
        each level d >= 1 gives c_d = min(1, R c_{d-1}) and g_d = R g_{d-1}
        where R c_{d-1} < 1, else 0.  (R x)[i] sums exp(v_string - alpha)
        x[dst] over the out-arcs of state i.  Each depth level is one sum
        over the arcs of all exponents, in which each exponent's row is the
        one it gets alone.  Raises InconclusiveError when R overflows,
        naming the least exponent at which it does.
        """
        arc_rates = self.v_string - alphas[:, None]
        with np.errstate(over="ignore"):
            np.exp(arc_rates, out=arc_rates)
        over = np.isinf(arc_rates).any(axis=1)
        if over.any():
            raise InconclusiveError(
                f"inconclusive: exp(window - alpha) overflows at alpha "
                f"{float(alphas[over].min()):.6g}, windows up to "
                f"{self.v_string.max():.6g}")
        src, dst, _ = self.graph.arcs
        n = len(self.graph.words)
        cg = np.ones((2, len(alphas), n))
        # one flat bincount per level: bin row * n + i for (c|g, alpha) row
        bins = (np.arange(2 * len(alphas))[:, None] * n + src).ravel()
        for _ in range(depth):
            cg = np.bincount(bins, (arc_rates * cg[..., dst]).ravel(),
                             cg.size).reshape(cg.shape)
            total, capped = cg
            np.multiply(capped, total < 1.0, out=capped)
            np.minimum(total, 1.0, out=total)
        return cg

    def log_weights(self, alphas, ns, margin: int):
        """Optimal covering weights for every exponent in ``alphas`` and
        every N in ``ns``, with string lengths in [N, N + margin].

        Returns (logs, cap_mass): logs[a, i] is the log-weight at alphas[a]
        and ns[i] (-inf when it vanishes), and cap_mass[a, i] the fraction
        of the optimum sitting at the depth cap ns[i] + margin.  Every N
        must be at least ``least_n`` (see ``_entry_logs``).  One c-factor
        recursion serves every exponent and N, and each value equals the
        one a call with that exponent and N alone gives.
        """
        alphas = np.asarray(alphas, dtype=float).reshape(-1)
        ns = tuple(int(N) for N in ns)
        if ns and min(ns) < 1:
            raise ValueError("N must be >= 1")
        if margin < 0:
            raise ValueError("depth cap must be >= N")
        logs = np.full((len(alphas), len(ns)), -math.inf)
        cap_mass = np.zeros_like(logs)
        if self.empty:
            return logs, cap_mass
        # the entry weights as one stack, exp(logW - shift) per N and state,
        # each N shifted by its largest entry log (0 when all vanish)
        logWs = np.array([self._entry_logs(N) for N in ns]).reshape(
            len(ns), len(self.graph.words))
        shift = logWs.max(axis=1, initial=-math.inf)
        shift[shift == -math.inf] = 0.0
        weights = np.exp(logWs - shift[:, None])
        at_cap = self._cfactors(alphas, margin)
        total = (weights[:, None] * at_cap[0]).sum(axis=-1).T
        capped = (weights[:, None] * at_cap[1]).sum(axis=-1).T
        logs[:] = [[math.log(x) if x > 0.0 else -math.inf for x in row]
                   for row in total.tolist()]
        logs += shift
        logs -= alphas[:, None] * np.array(ns)
        np.divide(capped, total, out=cap_mass, where=total > 0.0)
        return logs, cap_mass


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


def log_lambda_n(subset: SubsetSpec, potential: Potential, depth: int,
                 N: int) -> float:
    """log of the minimal fixed-length covering sum (see module docstring).

    N must be at least ``least_n``, where the words of length N + t - 1
    reach the longest listed cylinder word; a smaller N raises ValueError
    naming it."""
    return _calculus(subset, potential, depth).log_lambda(N)


def weight_m(subset: SubsetSpec, alpha: float, potential: Potential,
             depth: int, N: int, depth_cap: int | None = None) -> float:
    """Optimal covering weight over strings of length >= N.

    Computed exactly as the cheapest prefix-free antichain in the
    cylinder tree with string lengths in [N, depth_cap] (default N + 8).
    Always an upper bound for the unbounded-depth infimum.  N must be at
    least the calculator's ``least_n``, where the entry words of length
    N + t - 1 reach the longest listed cylinder word; a smaller N raises
    ValueError naming it.  ``_StringCalculus.log_weights`` also reports
    the fraction of the optimum sitting at the cap.  The entry words
    carry the windows of one string-length step per arc, the same ones
    that the fixed-length sum counts.
    """
    cap = depth_cap if depth_cap is not None else N + DEPTH_MARGIN
    logs, _ = _calculus(subset, potential, depth).log_weights(
        [alpha], [N], cap - N)
    return math.exp(logs[0, 0])


def capacity_pressures(subset: SubsetSpec, potential: Potential, depth: int,
                       N_max: int) -> tuple[PressureEstimate, PressureEstimate]:
    """Lower/upper capacity pressure estimates from the covering sums.

    The limit values are bracketed by the extremes of the successive
    differences of log Lambda over the window [N_max/2, N_max] (the raw
    sequence (1/N) log Lambda converges only at rate 1/N, which is why
    the differenced estimator is the reported value); the diagnostics
    keep the (N, log Lambda, difference) rows.  The window moves up until
    its first difference reads no N below ``least_n`` (listed cylinder
    words longer than the entry words), and ``n_range`` is the window
    used.
    """
    if N_max < 8:
        raise ValueError("N_max must be >= 8")
    calc = _calculus(subset, potential, depth)
    n_half = max(2, N_max // 2)
    lift = max(0, calc.least_n - (n_half - 1))
    n_half, N_max = n_half + lift, N_max + lift
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
    lo = PressureEstimate(min(svals), (n_half, N_max),
                          (min(svals), max(svals)), dict(diag))
    hi = PressureEstimate(max(svals), (n_half, N_max),
                          (min(svals), max(svals)), dict(diag))
    return lo, hi


def _centred(ns) -> tuple[np.ndarray, float]:
    """x = ns less their mean, and x @ x: a slope is x @ values / (x @ x)."""
    x = np.asarray(ns, dtype=float)
    x = x - x.mean()
    return x, x @ x


def _slope(ns, values) -> float:
    """Least-squares slope of values against ns, in closed form."""
    x, xx = _centred(ns)
    return float(x @ np.asarray(values, dtype=float) / xx)


def _bisection_path(lo: float, hi: float, guess: float, tol: float,
                    count: int) -> list[float]:
    """The midpoints that up to ``count`` bisection steps from [lo, hi]
    compute while wider than tol, each keeping the half holding ``guess``."""
    points = []
    while len(points) < count and hi - lo > tol:
        mid = 0.5 * (lo + hi)
        points.append(mid)
        lo, hi = (mid, hi) if mid < guess else (lo, mid)
    return points


def critical_alpha(subset: SubsetSpec, potential: Potential, depth: int,
                   tol: float, n_range: tuple = (8, 20)) -> PressureEstimate:
    """Topological pressure of the subset: bisection on the exponent.

    For each candidate alpha the covering weight (depth cap N +
    DEPTH_MARGIN) is computed over the top half of the N-window and
    classified by the ``_slope`` of its log: positive slope means the
    weight diverges (alpha below the critical value), negative means it
    vanishes.  The bracket is narrowed until its width is at most tol.
    The window moves up until its top half starts at ``least_n`` or
    later, so that every listed cylinder word fits in the entry words,
    and the estimate's ``n_range`` is the window used.

    Each ``log_weights`` call after the first (the two bracket ends)
    weighs the path the remaining steps take if each keeps the half that
    holds the bracket's regula-falsi point; a step reads its row there
    when its midpoint is on the path, else predicts a new path.  A
    stacked row is the one its exponent gets alone, and only visited
    points are classified, traced, counted weak or raise, so value,
    bracket and diagnostics are plain bisection's, bit for bit.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n_lo, n_hi = n_range
    if not (1 <= n_lo and n_lo + 2 <= n_hi):
        raise ValueError("n_range must have 1 <= lo and lo + 2 <= hi")
    calc = _calculus(subset, potential, depth)
    if calc.empty:
        return PressureEstimate(-math.inf, n_range, (-math.inf, -math.inf),
                                {"degenerate": True})
    lift = max(0, calc.least_n - (n_lo + (n_hi - n_lo + 1) // 2))
    n_lo, n_hi = n_lo + lift, n_hi + lift
    ns = list(range(n_lo, n_hi + 1))
    top = ns[len(ns) // 2:]

    gvals = potential.vector.tolist()
    k = subset.system.alphabet_size
    alpha_lo = min(gvals) - math.log(k) - 1.0
    alpha_hi = max(gvals) + math.log(k) + 1.0

    trace = []
    x, xx = _centred(top)

    def classify(alpha: float, logs: np.ndarray) -> float:
        if (logs == -math.inf).any():
            raise InconclusiveError("inconclusive-at-depth: covering "
                                    "weight vanished identically")
        s = float(x @ logs / xx)
        trace.append((alpha, s))
        return s

    logs, _ = calc.log_weights([alpha_lo, alpha_hi], top, DEPTH_MARGIN)
    slope_lo = classify(alpha_lo, logs[0])
    slope_hi = classify(alpha_hi, logs[1])
    if not (slope_lo > 0 > slope_hi):
        raise InconclusiveError(
            "inconclusive: growth classification is not monotone across "
            f"the initial bracket (slopes {slope_lo:.3g}, {slope_hi:.3g})")
    threshold = 1e-3 * max(1.0, abs(slope_lo), abs(slope_hi))
    steps = math.ceil(math.log2(alpha_hi - alpha_lo) - math.log2(tol)) + 1
    weak = done = 0
    rows = {}
    while done < steps and alpha_hi - alpha_lo > tol:
        mid = 0.5 * (alpha_lo + alpha_hi)
        if mid not in rows:
            root = alpha_lo + slope_lo * (alpha_hi - alpha_lo) \
                / (slope_lo - slope_hi)
            path = _bisection_path(alpha_lo, alpha_hi, root, tol, steps - done)
            logs, _ = calc.log_weights(path, top, DEPTH_MARGIN)
            rows = dict(zip(path, logs))
        s = classify(mid, rows[mid])
        done += 1
        weak += abs(s) < threshold
        if s > 0:
            alpha_lo, slope_lo = mid, s
        else:
            alpha_hi, slope_hi = mid, s
    value = 0.5 * (alpha_lo + alpha_hi)
    diag = {
        "classification_threshold": threshold,
        "weak_classifications": weak,
        "trace": trace,
    }
    return PressureEstimate(value, (n_lo, n_hi), (alpha_lo, alpha_hi), diag)


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
    return critical_alpha(subset, potential, depths[-1], tol,
                          n_range=(max(4, N_max // 2), N_max))
