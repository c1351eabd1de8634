"""Shift spaces, their block graphs and locally constant potentials.

A subshift of finite type is described by a 0/1 adjacency matrix over a
finite alphabet.  Points are one-sided symbol sequences whose
consecutive pairs are allowed by the matrix.  The metric is the standard
one: d(x, y) = 2**(-j) where j is the first index at which x and y differ.
Cylinder sets are then balls of dyadic diameter, which is what makes
cover refinement exact.

Potentials are locally constant of finite depth r: the value at a point
depends only on its first r coordinates, so Birkhoff sums over cylinders
have exact suprema (plain table sums once the word is long enough).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping

import numpy as np


class ShiftSystem:
    """Finite-alphabet subshift of finite type.

    Parameters
    ----------
    adjacency : array-like of 0/1, square
        adjacency[a, b] == 1 iff the symbol b may follow a.
    """

    def __init__(self, adjacency):
        A = np.asarray(adjacency, dtype=np.int64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if not np.isin(A, (0, 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        k = A.shape[0]
        if k < 2:
            raise ValueError("invalid-system: alphabet size must be >= 2")
        if (A.sum(axis=1) == 0).any() or (A.sum(axis=0) == 0).any():
            raise ValueError("invalid-system: adjacency has a dead symbol "
                             "(zero row or column)")
        self.adjacency = A
        self.adjacency.setflags(write=False)
        self.alphabet_size = k
        self.irreducible = bool(strongly_connected(A))
        self._graphs: dict[int, BlockGraph] = {}

    def block_graph(self, depth: int) -> "BlockGraph":
        """The ``BlockGraph`` of the admissible depth-blocks, built once per
        depth (the adjacency and the graph's arrays are read-only)."""
        graph = self._graphs.get(depth)
        if graph is None:
            graph = self._graphs[depth] = BlockGraph(self.adjacency, depth)
        return graph

    def allows(self, a: int, b: int) -> bool:
        return bool(self.adjacency[a, b])

    def is_admissible(self, symbols) -> bool:
        """True iff every consecutive pair of symbols is adjacency-allowed."""
        s = tuple(symbols)
        if any(not (0 <= a < self.alphabet_size) for a in s):
            return False
        A = self.adjacency
        return all(A[s[i], s[i + 1]] for i in range(len(s) - 1))

    def word_count(self, n: int) -> int:
        """Number of admissible words of length n (sum of entries of A^(n-1))."""
        if n < 1:
            raise ValueError("n must be >= 1")
        power = np.linalg.matrix_power(self.adjacency.astype(object), n - 1)
        return int(power.sum())

    def __repr__(self):
        return (f"ShiftSystem(k={self.alphabet_size}, "
                f"irreducible={self.irreducible})")


def strongly_connected(M):
    """True iff every index reaches every index along nonzero entries of M;
    for a stack (..., n, n), one such verdict per member.

    Squares the 0/1 reachability matrix of I + M, clipped back to 0/1
    after each product so that no entry can grow (counting paths in
    (I + M)^k overflows int64), until it covers every path of length
    below the dimension.
    """
    M = np.asarray(M)
    n = M.shape[-1]
    reach = ((M != 0) | np.eye(n, dtype=bool)).astype(float)
    for _ in range((n - 1).bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    return reach.all(axis=(-2, -1))


def make_full_shift(k: int) -> ShiftSystem:
    """Full shift on k >= 2 symbols (all transitions allowed)."""
    if k < 2:
        raise ValueError("invalid-system: full shift needs k >= 2")
    return ShiftSystem(np.ones((k, k), dtype=np.int64))


def golden_mean_shift() -> ShiftSystem:
    """Two symbols, the word 11 forbidden."""
    return ShiftSystem([[1, 1], [1, 0]])


# No library code calls iter_admissible_tuples or admissible_word_array
# (nor, but for the latter's guard, ShiftSystem.word_count): the
# benchmark's tracer in perfbench/spans.py wraps them by name and is their
# only reader.  They go once a benchmark change drops those SPANS and
# COUNTED entries.
def iter_admissible_tuples(adjacency: np.ndarray, n: int) -> Iterable[tuple]:
    """Raw symbol tuples of the admissible n-words of the 0/1 matrix, in
    lexicographic order, over the symbols that have a successor (all of a
    ``ShiftSystem``'s); built as one array, so n < 1 raises at the call."""
    return map(tuple, _grow_words(adjacency, n).tolist())


def admissible_word_array(system: ShiftSystem, n: int,
                          max_words: int = 5_000_000) -> np.ndarray:
    """All admissible words of length n as one integer array (rows in
    lexicographic order); raises when the count would exceed
    ``max_words``."""
    if system.word_count(n) > max_words:
        raise ValueError(f"more than {max_words} admissible words at depth {n}")
    return _grow_words(system.adjacency, n)


def _grow_words(adjacency, n: int) -> np.ndarray:
    """Admissible n-words of a 0/1 matrix over the symbols that have a
    successor (on a ``_reduce_to_live`` matrix: that continue forever), as
    rows in lexicographic order: appending each row's successors in symbol
    order keeps the rows sorted."""
    if n < 1:
        raise ValueError("n must be >= 1")
    A = np.asarray(adjacency) != 0
    live = A.any(axis=1)
    dtype = np.int8 if len(A) < 128 else np.int16
    words = np.flatnonzero(live).astype(dtype)[:, None]
    for _ in range(n - 1):
        rows, symbols = np.nonzero(A[words[:, -1]] & live)
        words = np.column_stack([words[rows], symbols.astype(dtype)])
    return words


class BlockGraph:
    """The admissible d-blocks of a 0/1 matrix, one arc per appended symbol.

    ``words`` are the blocks (``_grow_words``), ``codes`` their base-k
    codes, which ``index`` searches.  ``arcs`` is (src, dst, arc_words),
    sorted by source and then appended symbol: block src plus one symbol
    is the (d+1)-word in arc_words, whose last d symbols are block dst.
    """

    def __init__(self, adjacency, depth: int):
        A = np.asarray(adjacency) != 0
        if len(A) ** depth >= 1 << 63:
            raise ValueError(f"{depth}-block codes overflow int64")
        self.adjacency = A
        self.words = _grow_words(A, depth)
        self._place = len(A) ** np.arange(depth - 1, -1, -1, dtype=np.int64)
        self.codes = self.words @ self._place
        for array in (A, self.words, self.codes):
            array.setflags(write=False)

    def index(self, blocks) -> np.ndarray:
        """Rows of ``words`` holding the given blocks (along the last axis)."""
        return np.searchsorted(self.codes, np.asarray(blocks) @ self._place)

    @cached_property
    def arcs(self) -> tuple:
        A, words = self.adjacency, self.words
        src, symbols = np.nonzero(A[words[:, -1]] & A.any(axis=1))
        arc_words = np.column_stack([words[src], symbols.astype(words.dtype)])
        return src, self.index(arc_words[:, 1:]), arc_words


class Potential:
    """Locally constant potential of depth r >= 1.

    ``table`` maps every admissible r-word (tuple of symbols) to a real
    value; evaluation at a point only reads coordinates 0..r-1.  ``vector``
    holds the same values aligned with ``graph.words`` (the system's cached
    r-block graph), and ``values`` looks arrays of r-blocks up in it.
    """

    def __init__(self, system: ShiftSystem, depth: int,
                 table: Mapping[tuple, float], name: str = ""):
        if depth < 1:
            raise ValueError("potential depth must be >= 1")
        self.system = system
        self.depth = int(depth)
        self.name = name
        tab = {}
        for key, val in table.items():
            key = tuple(int(a) for a in key)
            if len(key) != depth:
                raise ValueError(f"table key {key} has wrong length")
            if not system.is_admissible(key):
                raise ValueError(f"table key {key} is not admissible")
            val = float(val)
            if not np.isfinite(val):
                raise ValueError("potential values must be finite")
            tab[key] = val
        self.graph = system.block_graph(self.depth)
        try:
            vector = [tab[s] for s in map(tuple, self.graph.words.tolist())]
        except KeyError as exc:
            raise ValueError(f"table misses admissible word {exc.args[0]}") \
                from None
        self.table = tab
        self.vector = np.array(vector)

    @classmethod
    def zero(cls, system: ShiftSystem) -> "Potential":
        return cls.depth_one(system, [0.0] * system.alphabet_size, name="zero")

    @classmethod
    def constant(cls, system: ShiftSystem, c: float) -> "Potential":
        return cls.depth_one(system, [c] * system.alphabet_size,
                             name=f"const({c})")

    @classmethod
    def depth_one(cls, system: ShiftSystem, values, name: str = "") -> "Potential":
        values = list(values)
        if len(values) != system.alphabet_size:
            raise ValueError("need one value per symbol")
        return cls(system, 1, {(a,): v for a, v in enumerate(values)}, name)

    def values(self, blocks) -> np.ndarray:
        """Values of an array of admissible r-blocks (along the last axis)."""
        return self.vector[self.graph.index(blocks)]

    def sup_minus(self, other: "Potential") -> float:
        """sup |self - other| over the space (tables must share the system)."""
        if other.system is not self.system and \
                not np.array_equal(other.system.adjacency, self.system.adjacency):
            raise ValueError("potentials live on different systems")
        words = self.system.block_graph(max(self.depth, other.depth)).words
        gaps = np.abs(self.values(words[:, :self.depth])
                      - other.values(words[:, :other.depth]))
        return float(gaps.max(initial=0.0))

    def scaled(self, q: float) -> "Potential":
        """q times the potential, on the same graph; the table is built
        from the vector only when read."""
        scaled = Potential.__new__(Potential)
        scaled.system, scaled.depth, scaled.graph = \
            self.system, self.depth, self.graph
        scaled.name = f"{q}*{self.name}" if self.name else ""
        scaled.vector = q * self.vector
        return scaled

    @cached_property
    def table(self) -> dict:
        return dict(zip(map(tuple, self.graph.words.tolist()),
                        self.vector.tolist()))

    def word_sum(self, symbols, n: int) -> float:
        """Sum of the first n depth-r windows of ``symbols`` (needs len >= n+r-1)."""
        s = tuple(symbols)
        r = self.depth
        if len(s) < n + r - 1:
            raise ValueError("word too short for an exact Birkhoff sum")
        return sum(self.table[s[j:j + r]] for j in range(n))


class SubsetSpec:
    """Subset of the shift space: everything, a sub-SFT, or a cylinder union.

    Sub-SFT specs are reduced at construction: transitions into symbols
    whose rows die out are stripped until every symbol that can be
    entered has a successor, so that a word meets the subset exactly when
    it is admissible for the reduced matrix and ends in a symbol with a
    successor.  Cylinder unions are
    reduced to an antichain (no listed word extends another).
    """

    WHOLE = "whole-space"
    SUB_SFT = "sub-SFT"
    CYLINDERS = "cylinder-union"

    def __init__(self, kind: str, system: ShiftSystem, *,
                 sub_adjacency=None, words=None):
        self.kind = kind
        self.system = system
        self.sub_adjacency = None
        self.words: tuple = ()
        if kind == self.WHOLE:
            pass
        elif kind == self.SUB_SFT:
            B = np.asarray(sub_adjacency, dtype=np.int64)
            if B.shape != system.adjacency.shape:
                raise ValueError("sub-adjacency shape mismatch")
            if (B > system.adjacency).any():
                raise ValueError("sub-adjacency must be entrywise <= parent")
            self.sub_adjacency = _reduce_to_live(B)
        elif kind == self.CYLINDERS:
            ws = [tuple(int(a) for a in w) for w in (words or [])]
            for w in ws:
                if not system.is_admissible(w):
                    raise ValueError(f"cylinder word {w} not admissible in parent")
            self.words = _prefix_antichain(ws)
        else:
            raise ValueError(f"unknown subset kind {kind!r}")

    @classmethod
    def whole(cls, system: ShiftSystem) -> "SubsetSpec":
        return cls(cls.WHOLE, system)

    @classmethod
    def sub_sft(cls, system: ShiftSystem, sub_adjacency) -> "SubsetSpec":
        return cls(cls.SUB_SFT, system, sub_adjacency=sub_adjacency)

    @classmethod
    def cylinders(cls, system: ShiftSystem, words) -> "SubsetSpec":
        return cls(cls.CYLINDERS, system, words=words)

    @classmethod
    def fixed_point(cls, system: ShiftSystem, symbol: int) -> "SubsetSpec":
        """The single periodic point symbol^infinity, as an invariant sub-SFT."""
        if not system.allows(symbol, symbol):
            raise ValueError(f"symbol {symbol} has no self-loop")
        B = np.zeros_like(system.adjacency)
        B[symbol, symbol] = 1
        return cls.sub_sft(system, B)

    @property
    def is_empty(self) -> bool:
        if self.kind == self.SUB_SFT:
            return not self.sub_adjacency.any()
        if self.kind == self.CYLINDERS:
            return len(self.words) == 0
        return False

    def __repr__(self):
        if self.kind == self.CYLINDERS:
            return f"SubsetSpec(cylinders x{len(self.words)})"
        return f"SubsetSpec({self.kind})"


def _reduce_to_live(B: np.ndarray) -> np.ndarray:
    """Drop transitions into symbols that cannot continue forever.

    One-sided semantics: a word meets the sub-SFT iff its transitions are
    allowed and its last symbol still has an infinite continuation; a
    missing predecessor does not matter at position 0.
    """
    B = B.copy()
    while True:
        live = B.sum(axis=1) > 0
        trimmed = B * live[None, :]
        if (trimmed == B).all():
            B.setflags(write=False)
            return B
        B = trimmed


def _prefix_antichain(words: list[tuple]) -> tuple:
    """Drop words that extend a shorter listed word (their cylinders are
    contained in the shorter word's cylinder)."""
    keep = []
    kept_by_len: dict[int, set] = {}
    for w in sorted(set(words), key=len):
        if any(w[:length] in kept for length, kept in kept_by_len.items()):
            continue
        keep.append(w)
        kept_by_len.setdefault(len(w), set()).add(w)
    return tuple(keep)
