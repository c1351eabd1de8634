"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities from first principles with plain
enumeration (itertools over raw symbol tuples), deliberately avoiding the
package's own state-space machinery, so that an implementation bug cannot
hide on both sides of an assertion.  Usable only at tiny sizes.
"""

import itertools
import math

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
