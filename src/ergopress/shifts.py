"""Shift spaces, their block graphs and locally constant potentials.

A subshift of finite type is described by a 0/1 adjacency matrix over a
finite alphabet.  Points are one-sided symbol sequences whose
consecutive pairs are allowed by the matrix.  The metric is the standard
one: d(x, y) = 2**(-j) where j is the first index at which x and y differ.
Cylinder sets are then balls of dyadic diameter, which is what makes
cover refinement exact.

Potentials are locally constant of finite depth r: the value at a point
depends only on its first r coordinates, so Birkhoff sums over cylinders
have exact suprema (plain window sums once the word is long enough).
"""

from __future__ import annotations

import contextlib
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
        A = _zero_one(adjacency, "adjacency")
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("adjacency must be a square matrix")
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

    def same_as(self, other: "ShiftSystem") -> bool:
        """True iff ``other`` is this system or has the same adjacency."""
        return other is self or np.array_equal(other.adjacency, self.adjacency)

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


def _zero_one(entries, name: str) -> np.ndarray:
    """The entries as an int64 array, checked to be 0 or 1 (booleans
    included) before the cast, which would truncate a fraction."""
    A = np.asarray(entries)
    if not np.isin(A, (0, 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")
    return A.astype(np.int64)


def _symbols(word) -> tuple:
    """A word's symbols as ints, refused unless each equals its cast,
    which would truncate a fraction, parse a string or overflow on inf."""
    word = tuple(word)
    with contextlib.suppress(OverflowError):
        ints = tuple(map(int, word))
        if ints == word:
            return ints
    raise ValueError(f"cylinder word {list(word)} must hold integer symbols")


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


def block_codes_fit(k: int, depth: int) -> bool:
    """True iff base-k codes of depth-blocks stay below 2**63 (int64).  The
    exponent stops at 64, enough for k >= 2, so a huge depth costs no huge
    power."""
    return k ** min(depth, 64) < 1 << 63


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
    codes, which ``index`` and ``find`` search.  ``arcs`` is (src, dst,
    arc_words), sorted by source and then appended symbol: block src plus
    one symbol is the (d+1)-word in arc_words, whose last d symbols are
    block dst.
    """

    def __init__(self, adjacency, depth: int):
        A = np.asarray(adjacency) != 0
        if not block_codes_fit(len(A), depth):
            raise ValueError(f"{depth}-block codes overflow int64")
        self.adjacency = A
        self.words = _grow_words(A, depth)
        self._place = len(A) ** np.arange(depth - 1, -1, -1, dtype=np.int64)
        self.codes = self.words @ self._place
        for array in (A, self.words, self.codes):
            array.setflags(write=False)

    def index(self, blocks) -> np.ndarray:
        """Rows of ``words`` holding the given blocks (along the last axis),
        each of which must be one of them."""
        return np.searchsorted(self.codes, np.asarray(blocks) @ self._place)

    def find(self, blocks) -> np.ndarray:
        """Rows of ``words`` holding the given blocks (along the last
        axis), -1 for a block that is not one of them, such as one with a
        symbol outside range(k), whose code may equal a block's."""
        blocks = np.asarray(blocks)
        codes = blocks @ self._place
        at = np.minimum(np.searchsorted(self.codes, codes), len(self.codes) - 1)
        inside = ((blocks >= 0) & (blocks < len(self.adjacency))).all(axis=-1)
        return np.where((self.codes[at] == codes) & inside, at, -1)

    @cached_property
    def arcs(self) -> tuple:
        A, words = self.adjacency, self.words
        src, symbols = np.nonzero(A[words[:, -1]] & A.any(axis=1))
        arc_words = np.column_stack([words[src], symbols.astype(words.dtype)])
        return src, self.index(arc_words[:, 1:]), arc_words


class Potential:
    """Locally constant potential of depth r >= 1.

    ``vector`` holds the value of every admissible r-word, aligned with
    ``graph.words`` (the system's cached r-block graph); evaluation at a
    point only reads coordinates 0..r-1.  ``values`` looks r-blocks up in
    it, ``window_sums`` adds words' windows, and ``table`` is a dict copy.
    """

    def __init__(self, system: ShiftSystem, depth: int,
                 table: Mapping[tuple, float]):
        if not float(depth).is_integer() or depth < 1:
            raise ValueError("potential depth must be an integer >= 1")
        self.system = system
        self.depth = int(depth)
        keys = [tuple(map(int, key)) for key in table]
        values = np.fromiter(map(float, table.values()), float, len(keys))
        wrong = np.fromiter(map(len, keys), np.int64, len(keys)) != self.depth
        if wrong.any():
            raise ValueError(f"table key {keys[wrong.argmax()]} has wrong "
                             "length")
        try:
            words = np.array(keys, dtype=np.int64)
        except OverflowError:  # clipped, such symbols stay outside range(k)
            words = np.clip(np.array(keys, dtype=object), -1,
                            system.alphabet_size).astype(np.int64)
        self.graph = system.block_graph(self.depth)
        rows = self.graph.find(words.reshape(len(keys), self.depth))
        if (rows < 0).any():
            raise ValueError(f"table key {keys[(rows < 0).argmax()]} is not "
                             "admissible")
        if not np.isfinite(values).all():
            raise ValueError("potential values must be finite")
        self.vector = np.full(len(self.graph.words), np.nan)
        self.vector[rows] = values
        missing = np.isnan(self.vector)
        if missing.any():
            word = tuple(self.graph.words[missing.argmax()].tolist())
            raise ValueError(f"table misses admissible word {word}")

    @classmethod
    def zero(cls, system: ShiftSystem) -> "Potential":
        return cls.depth_one(system, [0.0] * system.alphabet_size)

    @classmethod
    def constant(cls, system: ShiftSystem, c: float) -> "Potential":
        return cls.depth_one(system, [c] * system.alphabet_size)

    @classmethod
    def depth_one(cls, system: ShiftSystem, values) -> "Potential":
        values = list(values)
        if len(values) != system.alphabet_size:
            raise ValueError("need one value per symbol")
        return cls(system, 1, {(a,): v for a, v in enumerate(values)})

    def values(self, blocks) -> np.ndarray:
        """Values of an array of admissible r-blocks (along the last axis)."""
        return self.vector[self.graph.index(blocks)]

    def window_sums(self, words, count: int) -> np.ndarray:
        """Birkhoff sums: per row of admissible symbols (along the last
        axis), the sum of its first ``count`` depth-r windows, added in
        window order.  Rows need count + r - 1 symbols."""
        words = np.asarray(words)
        if words.shape[-1] < count + self.depth - 1:
            raise ValueError("word too short for an exact Birkhoff sum")
        sums = np.zeros(words.shape[:-1])
        for p in range(count):
            sums += self.values(words[..., p:p + self.depth])
        return sums

    def sup_minus(self, other: "Potential") -> float:
        """sup |self - other| over the space (tables must share the system)."""
        if not self.system.same_as(other.system):
            raise ValueError("potentials live on different systems")
        words = self.system.block_graph(max(self.depth, other.depth)).words
        gaps = np.abs(self.values(words[:, :self.depth])
                      - other.values(words[:, :other.depth]))
        return float(gaps.max(initial=0.0))

    def scaled(self, q: float) -> "Potential":
        """q times the potential, on the same graph."""
        return Potential(self.system, self.depth,
                         dict(zip(self.table, (q * self.vector).tolist())))

    @cached_property
    def table(self) -> dict:
        return dict(zip(map(tuple, self.graph.words.tolist()),
                        self.vector.tolist()))


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
        # string calculators per (potential, cover depth),
        # built on demand by ``coverpressure``
        self.calculators: dict = {}
        if kind == self.WHOLE:
            pass
        elif kind == self.SUB_SFT:
            B = _zero_one(sub_adjacency, "sub-adjacency")
            if B.shape != system.adjacency.shape:
                raise ValueError("sub-adjacency shape mismatch")
            if (B > system.adjacency).any():
                raise ValueError("sub-adjacency must be entrywise <= parent")
            self.sub_adjacency = _reduce_to_live(B)
        elif kind == self.CYLINDERS:
            if words is None:  # [] is the empty set
                raise ValueError("cylinder union needs its words")
            ws = [_symbols(w) for w in words]
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
