"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities from first principles with plain
enumeration (itertools over raw symbol tuples), deliberately avoiding the
package's own state-space machinery, so that an implementation bug cannot
hide on both sides of an assertion.  Usable only at tiny sizes.  The
Perron and stationary references work in exact rational arithmetic
(``fractions``), with no float and no numpy in the loop.
"""

import decimal
import itertools
import math
from fractions import Fraction

import numpy as np


def enumerate_words(adjacency, n):
    """All admissible length-n tuples by filtering the full product."""
    A = np.asarray(adjacency)
    k = A.shape[0]
    out = []
    for w in itertools.product(range(k), repeat=n):
        if all(A[w[i], w[i + 1]] for i in range(n - 1)):
            out.append(w)
    return out


def window_sum(table, depth, word, n):
    return sum(table[word[j:j + depth]] for j in range(n))


def birkhoff_sup_brute(adjacency, table, depth, word, n):
    """Max over all admissible completions of the n-term window sum."""
    word = tuple(word)
    need = n + depth - 1
    if len(word) >= need:
        return window_sum(table, depth, word, n)
    A = np.asarray(adjacency)
    k = A.shape[0]
    best = -math.inf
    for tail in itertools.product(range(k), repeat=need - len(word)):
        full = word + tail
        if all(A[full[i], full[i + 1]] for i in range(len(full) - 1)):
            best = max(best, window_sum(table, depth, full, n))
    return best


def forward_live_symbols(sub_adjacency):
    B = np.asarray(sub_adjacency)
    live = set(range(B.shape[0]))
    changed = True
    while changed:
        changed = False
        for a in list(live):
            if not any(B[a, b] and b in live for b in range(B.shape[0])):
                live.discard(a)
                changed = True
    return live


def meets(subset_kind, word, *, sub_adjacency=None, cylinder_words=None):
    """Does the cylinder of ``word`` intersect the subset?  First-principles
    version of the three subset kinds."""
    word = tuple(word)
    if subset_kind == "whole":
        return True
    if subset_kind == "sub_sft":
        B = np.asarray(sub_adjacency)
        live = forward_live_symbols(B)
        return all(B[word[i], word[i + 1]] for i in range(len(word) - 1)) \
            and word[-1] in live
    return any(u[:len(word)] == word or word[:len(u)] == u
               for u in cylinder_words)


def lambda_brute(adjacency, table, depth, t, N, subset_kind, **subset_kw):
    """Fixed-length covering sum by full enumeration."""
    total = 0.0
    for w in enumerate_words(adjacency, N + t - 1):
        if meets(subset_kind, w, **subset_kw):
            total += math.exp(window_sum(table, depth, w, N))
    return total


def weight_m_brute(adjacency, table, depth, t, alpha, N, cap,
                   subset_kind, **subset_kw):
    """Minimal covering weight over explicit antichains of meeting words
    with string lengths in [N, cap].

    Walks the meeting tree: the cost below a word is the cheaper of its
    own weight and the total of its meeting children's costs (children
    are only available above the cap).  This mirrors the defining
    infimum directly on enumerated words.
    """
    A = np.asarray(adjacency)
    k = A.shape[0]

    def weight(word, m):
        sup = birkhoff_sup_brute(A, table, depth, word, m)
        return math.exp(-alpha * m + sup)

    def cost(word):
        m = len(word) - t + 1
        own = weight(word, m)
        if m >= cap:
            return own
        children = 0.0
        any_child = False
        for a in range(k):
            child = word + (a,)
            if not A[word[-1], a]:
                continue
            if not meets(subset_kind, child, **subset_kw):
                continue
            any_child = True
            children += cost(child)
        if not any_child:
            return own
        return min(own, children)

    total = 0.0
    for w in enumerate_words(A, N + t - 1):
        if meets(subset_kind, w, **subset_kw):
            total += cost(w)
    return total


def reached_class_log_rhos(adjacency, table, depth, t, subset_kind,
                           **subset_kw):
    """log spectral radius of each irreducible class of the depth-t
    cover's block matrix that the subset's entry words reach.

    A string of N cover elements is an admissible word of length
    N + t - 1 whose N windows start at 0..N - 1; one more element appends
    a symbol and the window that starts t symbols before the new end.  So
    the states are the words of length s = max(t - 1, 1), and each
    admissible (s + 1)-word u is an arc u[:s] -> u[1:] of weight
    exp(table value of the window of u at s + 1 - t); a sub-SFT's words
    are those of its own matrix.  The entry words are the words of length
    n0 + t - 1 that meet the subset, n0 the least N at which they are at
    least as long as every listed cylinder word.  The states they end in,
    and the states reachable from those, are the reached states; a class
    is a set of mutually reachable states with a path from each to
    itself (boolean transitive closure), and each gets the largest
    |eigenvalue| of its block.
    """
    A = np.asarray(subset_kw["sub_adjacency"] if subset_kind == "sub_sft"
                   else adjacency)
    s = max(t - 1, 1)
    states = enumerate_words(A, s)
    pos = {u: i for i, u in enumerate(states)}
    n = len(states)
    W = np.zeros((n, n))
    at = s + 1 - t
    for u in enumerate_words(A, s + 1):
        W[pos[u[:s]], pos[u[1:]]] += math.exp(table[u[at:at + depth]])
    words = subset_kw.get("cylinder_words", ())
    n0 = max(1, max(map(len, words), default=0) - t + 1)
    seeds = np.zeros(n, dtype=bool)
    for w in enumerate_words(A, n0 + t - 1):
        if meets(subset_kind, w, **subset_kw):
            seeds[pos[w[-s:]]] = True
    path = W > 0  # path[i, j]: a path of length >= 1 from i to j
    for m in range(n):
        path |= path[:, m, None] & path[None, m, :]
    reached = seeds | (seeds[:, None] & path).any(axis=0)
    rhos, done = [], np.zeros(n, dtype=bool)
    for i in np.flatnonzero(reached & np.diag(path)):
        if not done[i]:
            members = path[i] & path[:, i]
            done |= members
            block = W[np.ix_(members, members)]
            rhos.append(math.log(max(abs(np.linalg.eigvals(block)))))
    return rhos


def covering_antichains(adjacency, t, N, cap, subset_kind, **subset_kw):
    """Yield every covering antichain (frozenset of words) of the meeting
    tree with string lengths in [N, cap].  Exponential; tiny cases only."""
    A = np.asarray(adjacency)
    k = A.shape[0]

    def families(word):
        m = len(word) - t + 1
        options = [frozenset([word])]
        if m < cap:
            children = [word + (a,) for a in range(k)
                        if A[word[-1], a] and meets(subset_kind, word + (a,),
                                                    **subset_kw)]
            if children:
                sub = [list(families(c)) for c in children]
                for combo in itertools.product(*sub):
                    options.append(frozenset().union(*combo))
        return options

    roots = [w for w in enumerate_words(A, N + t - 1)
             if meets(subset_kind, w, **subset_kw)]
    for combo in itertools.product(*[families(r) for r in roots]):
        yield frozenset().union(*combo)


def antichain_cost(adjacency, table, depth, t, alpha, antichain):
    total = 0.0
    for w in antichain:
        m = len(w) - t + 1
        sup = birkhoff_sup_brute(adjacency, table, depth, w, m)
        total += math.exp(-alpha * m + sup)
    return total


def markov_log_mass(states, stationary, transitions, word):
    """log of the cylinder measure of ``word`` under a Markov chain on the
    block ``states`` (tuples of one length d), by walking the word block by
    block; shorter words add up the stationary mass of the states they
    begin.  -inf off the support."""
    index = {tuple(s): i for i, s in enumerate(states)}
    d = len(states[0])
    word = tuple(word)
    if len(word) < d:
        mass = sum(stationary[i] for s, i in index.items()
                   if s[:len(word)] == word)
        return math.log(mass) if mass > 0 else -math.inf
    blocks = [word[i:i + d] for i in range(len(word) - d + 1)]
    if any(b not in index for b in blocks):
        return -math.inf
    mass = stationary[index[blocks[0]]]
    for a, b in zip(blocks, blocks[1:]):
        mass *= transitions[index[a], index[b]]
    return math.log(mass) if mass > 0 else -math.inf


def measure_power_sum_brute(adjacency, log_measure, q, n):
    """Sum over admissible n-words of (cylinder measure)**q via explicit
    enumeration; ``log_measure`` maps a word tuple to its log measure."""
    total = 0.0
    for w in enumerate_words(adjacency, n):
        lm = log_measure(w)
        if lm > -math.inf:
            total += math.exp(q * lm)
    return total


def typical_cylinder_sum(adjacency, table, depth, block_depth, target_freq,
                         tol, n, tails="sup"):
    """Covering sum over frequency-typical depth-n cylinders: enumerate,
    filter by empirical block frequencies, add exp of Birkhoff sups.

    With ``tails="sum"`` each cylinder adds exp of the n-term window sum
    over every admissible completion to length n + depth - 1 instead of
    the largest one: one term per string of depth-``depth`` cover
    elements whose domain lies in the cylinder.
    """
    A = np.asarray(adjacency)
    total = 0.0
    count = 0
    for w in enumerate_words(A, n):
        windows = [w[i:i + block_depth] for i in range(n - block_depth + 1)]
        ok = True
        for block, freq in target_freq.items():
            emp = sum(1 for win in windows if win == block) / len(windows)
            if abs(emp - freq) > tol:
                ok = False
                break
        if ok:
            count += 1
            if tails == "sup":
                total += math.exp(birkhoff_sup_brute(A, table, depth, w, n))
                continue
            for tail in itertools.product(range(A.shape[0]), repeat=depth - 1):
                full = w + tail
                if all(A[full[i], full[i + 1]] for i in range(len(full) - 1)):
                    total += math.exp(window_sum(table, depth, full, n))
    return total, count


def exact_stationary(P):
    """Exact stationary vector (Fractions) of a row-stochastic matrix of
    rationals: pi (P - I) = 0 with sum(pi) = 1, by Gaussian elimination
    on the transposed balance equations with the last one replaced by the
    normalisation.  Raises ValueError when the solution is not unique."""
    P = [[Fraction(x) for x in row] for row in P]
    n = len(P)
    rows = [[P[j][i] - (i == j) for j in range(n)] + [Fraction(0)]
            for i in range(n - 1)]
    rows.append([Fraction(1)] * n + [Fraction(1)])
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError("no unique stationary vector")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def _trim(p):
    """Drop zero leading coefficients (coefficients lowest degree first)."""
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def _primitive(p):
    """p over the gcd of its integer coefficients: a positive multiple of
    p, so every sign is kept."""
    g = math.gcd(*p)
    return [c // g for c in p]


def _rem(a, b):
    """A positive multiple of the remainder of the integer polynomial a
    divided by b, primitive (pseudo-division by |lead(b)|, no fractions)."""
    a, lead, sign = list(a), abs(b[-1]), 1 if b[-1] > 0 else -1
    while len(a) >= len(b):
        f, shift = sign * a[-1], len(a) - len(b)
        a = [c * lead for c in a]
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = _trim(a[:-1])
    return _primitive(a) if a else a


def _quotient(a, b):
    """A nonzero multiple of the exact quotient of a by a divisor b, as a
    primitive integer polynomial."""
    a, q = [Fraction(c) for c in a], [Fraction(0)] * (len(a) - len(b) + 1)
    for shift in range(len(q) - 1, -1, -1):
        q[shift] = f = a[shift + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            a[shift + i] -= f * c
    scale = math.lcm(*(c.denominator for c in q))
    return _primitive([int(c * scale) for c in q])


def _sign_changes(chain, x):
    """Sign changes along the chain evaluated at the rational x = m/q,
    zeros dropped: each p(x) q**deg(p) in integers, whose sign is p(x)'s."""
    m, q = x.numerator, x.denominator
    powers = [q ** j for j in range(len(chain[0]))]
    signs = []
    for p in chain:
        value, d = 0, len(p) - 1
        for i in range(d, -1, -1):
            value = value * m + p[i] * powers[d - i]
        if value:
            signs.append(value > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def perron_root_bracket(M, rel):
    """Exact rational bracket (lo, hi] of the Perron root of a
    nonnegative matrix, irreducible or not, with hi - lo <= rel * lo;
    ValueError when rho = 0 (no root in (0, largest row sum]).

    The entries are scaled by D, the lcm of their denominators, to an
    integer matrix B with root D * rho.  B's characteristic polynomial
    comes from the Faddeev-LeVerrier recursion (its divisions are exact
    in integers), its square-free part from one gcd, and the Perron root
    is its largest real root (every real eigenvalue is at most rho).  A
    Sturm chain counts the distinct roots above a point, so
    bisection from (0, largest row sum] keeps one root above lo and none
    above hi.  The chain is kept in primitive integer polynomials, each
    a positive multiple of the Sturm remainder, so no sign changes.
    """
    A = [[Fraction(x) for x in row] for row in M]
    n = len(A)
    D = math.lcm(*(x.denominator for row in A for x in row))
    B = [[int(x * D) for x in row] for row in A]
    coeffs = [0] * n + [1]  # lowest degree first
    Mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            Mk[i][i] += coeffs[n - k + 1]
        Mk = [[sum(B[i][m] * Mk[m][j] for m in range(n)) for j in range(n)]
              for i in range(n)]
        coeffs[n - k] = -sum(Mk[i][i] for i in range(n)) // k
    a, b = coeffs, _primitive(_derivative(coeffs))
    while b:
        a, b = b, _rem(a, b)
    p = _quotient(coeffs, a)  # square-free: every root simple
    chain = [p, _primitive(_derivative(p))]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _rem(chain[-2], chain[-1])])
    lo, hi = Fraction(0), Fraction(max(sum(row) for row in B))
    if _sign_changes(chain, lo) == _sign_changes(chain, hi):
        raise ValueError("the Perron root is 0: no bracket relative to it")
    while hi - lo > rel * lo:
        mid = (lo + hi) / 2
        if _sign_changes(chain, mid) > _sign_changes(chain, hi):
            lo = mid
        else:
            hi = mid
    return lo / D, hi / D


_LN = decimal.Context(prec=50)


def _ln(x):
    """ln of a positive rational as a 50-digit Decimal: the two logs are
    correctly rounded, so the error is below 1e-40 while numerator and
    denominator stay below 10**1000."""
    x = Fraction(x)
    return _LN.subtract(_LN.ln(x.numerator), _LN.ln(x.denominator))


def float_log(w):
    """fl(log w): the float nearest log of the positive rational w."""
    return float(_ln(w))


def float_pressure_bracket(M, windows, rel=Fraction(1, 10 ** 20)):
    """Floats lo <= hi that hold the pressure of a float potential f.

    M is the exact transfer matrix of rational weights w, one per window
    (its entries are the w of the transitions the adjacency allows), and
    ``windows`` lists the pairs (f, w) of every window.  log rho(M) is
    the pressure P(log w) of the potential log w, on every support with
    rho > 0.  Pressure is 1-Lipschitz in the sup norm, |P(f) - P(g)| <=
    max |f - g| (Walters, An Introduction to Ergodic Theory, Thm 9.7), so
    P(f) lies within d = max |f - log w| of log rho(M), and therefore in
    [log lo - d, log hi + d] for the exact root bracket (lo, hi] of
    ``perron_root_bracket``.  The logs and d are taken in 50-digit
    decimal arithmetic, widened by their 1e-40 error bound, and the ends
    rounded outward to floats, so the bracket holds P(f) itself: only
    the side under test carries float rounding.
    """
    lo, hi = perron_root_bracket(M, rel)
    d = max(abs(_LN.subtract(decimal.Decimal(f), _ln(w)))
            for f, w in windows) + decimal.Decimal("3e-40")
    lo, hi = _LN.subtract(_ln(lo), d), _LN.add(_ln(hi), d)
    out = [float(lo), float(hi)]
    if decimal.Decimal(out[0]) > lo:
        out[0] = math.nextafter(out[0], -math.inf)
    if decimal.Decimal(out[1]) < hi:
        out[1] = math.nextafter(out[1], math.inf)
    return tuple(out)
