"""Brute-force monomial ideal arithmetic: the ground-truth side of every check.

Ideals are stored by their unique minimal generating sets, as small integer
matrices.  Powers and colons by a monomial are purely combinatorial:
componentwise sums and clipping, a lexsort that drops repeated rows, and
divisibility checked degree class by degree class.  No intersection of ideals
is formed: the colon by the maximal ideal, the saturation (the AND of the
table's top slices) and the associated primes (its socle cells) read one
membership table over the box spanned by the generators.  The table is one
Python int, bit c being cell c in C order, closed upward and read by
whole-table shifts along each axis.  No Groebner machinery, and no matching
theory.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations_with_replacement, product
from math import prod
from operator import and_, index
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import SimpleGraph, _set_order


_BLOCK = 2048  # rows per side of one divisibility test: at most _BLOCK**2 * n booleans


def _unique_rows(arr: np.ndarray) -> np.ndarray:
    """The distinct rows in lexicographic order: a lexsort over the columns
    (with none, all rows are equal), then a drop of each repeated row."""
    arr = arr[np.lexsort(arr.T[::-1])] if arr.shape[1] else arr
    keep = np.ones(arr.shape[0], dtype=bool)
    keep[1:] = (arr[1:] != arr[:-1]).any(axis=1)
    return arr[keep]


def _divides(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The table [low[p] divides high[q]] over (q, p), built column by column:
    numpy reduces a short last axis slowly."""
    le = [lo <= hi[:, None] for hi, lo in zip(high.T, low.T)]
    return np.logical_and.reduce(le) if le else np.ones((len(high), len(low)), dtype=bool)


def _minimal_rows(arr: np.ndarray) -> np.ndarray:
    """Drop rows divisible by another row (the antichain of minimal elements).

    After deduplication a divisor of a row is a proper divisor, of strictly
    smaller total degree, so each degree class is compared only with the kept
    rows of the lower classes (none for a power of an edge ideal).
    """
    arr = _unique_rows(arr)
    deg = arr.sum(axis=1)
    keep = np.ones(arr.shape[0], dtype=bool)
    for d in np.unique(deg)[1:]:
        rows, lower = np.flatnonzero(deg == d), arr[keep & (deg < d)]
        for i, k in product(range(0, len(rows), _BLOCK), range(0, len(lower), _BLOCK)):
            block = rows[i : i + _BLOCK]
            keep[block] &= ~_divides(lower[k : k + _BLOCK], arr[block]).any(axis=1)
    return arr[keep]


class MonomialIdeal:
    """Monomial ideal given by its minimal generators (an exponent antichain)."""

    __slots__ = ("n", "gens")

    def __init__(self, n: int, gens: np.ndarray):
        self.n = n
        self.gens = gens
        if not self._is_antichain():
            raise ValueError("generators must form a minimal antichain")

    def _is_antichain(self) -> bool:
        # distinct rows, none dividing another: minimalising drops nothing
        return self.gens.shape[0] <= 1 or _minimal_rows(self.gens).shape[0] == self.gens.shape[0]

    @classmethod
    def from_gens(cls, n: int, vectors: Iterable[Sequence[int]]) -> "MonomialIdeal":
        rows = [tuple(v) for v in vectors]
        if not rows:
            return cls(n, np.zeros((0, n), dtype=np.int64))
        arr = _integer_array(rows)
        if arr.ndim != 2 or arr.shape[1] != n:
            raise ValueError(f"generators must have length {n}")
        if (arr < 0).any():
            raise ValueError("generator exponents must be non-negative")
        return cls(n, _minimal_rows(arr))

    @property
    def is_zero(self) -> bool:
        return self.gens.shape[0] == 0

    @property
    def is_unit(self) -> bool:
        return self.gens.shape[0] == 1 and not self.gens.any()

    def to_lists(self) -> list[list[int]]:
        return [list(map(int, row)) for row in self.gens]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.gens, other.gens)

    def __hash__(self) -> int:
        return hash((self.n, self.gens.shape, self.gens.tobytes()))

    def __repr__(self) -> str:
        return f"MonomialIdeal(n={self.n}, gens={self.to_lists()})"


def edge_ideal(g: SimpleGraph) -> MonomialIdeal:
    """The ideal generated by x_u x_v over the edges of g."""
    if g.n < 1:
        raise ValueError("edge ideal needs at least one vertex")
    rows = np.zeros((len(g.edges), g.n), dtype=np.int64)
    for i, (u, v) in enumerate(g.sorted_edges):
        rows[i, u - 1] = 1
        rows[i, v - 1] = 1
    return MonomialIdeal(g.n, _minimal_rows(rows))


def power(j: MonomialIdeal, t: int) -> MonomialIdeal:
    """Minimal generators of j**t (t-fold products as multisets of generators)."""
    if t < 1:
        raise ValueError("power requires t >= 1")
    if t == 1 or j.is_zero:
        return j
    combos = np.array(list(combinations_with_replacement(range(len(j.gens)), t)), dtype=np.int64)
    rows = j.gens[combos].sum(axis=1)
    return MonomialIdeal(j.n, _minimal_rows(rows))


def _integer_array(rows) -> np.ndarray:
    """`rows` as int64, refusing an entry that is not an integer or lies
    outside int64 (an empty array is float64).  numpy reads ints beyond int64
    as objects, floats or uint64, so such arrays are read entry by entry."""
    arr = np.asarray(rows)
    if not arr.size or arr.dtype.kind in "bi" or arr.dtype.kind == "u" and arr.itemsize < 8:
        return arr.astype(np.int64, copy=False)
    try:
        entries = [index(x) for x in np.asarray(rows, dtype=object).flat]
    except TypeError:
        raise ValueError("exponents must be integers") from None
    try:
        return np.array(entries, dtype=np.int64).reshape(arr.shape)
    except OverflowError:
        raise ValueError("exponents must fit in a signed 64-bit integer") from None


def _exponent_rows(n: int, rows) -> np.ndarray:
    """`rows` as an int64 matrix of exponent vectors, refusing a vector whose
    length is not n or an entry that is negative or not an integer."""
    arr = _integer_array(rows)
    if arr.ndim != 2:
        raise ValueError("exponent vectors must be the rows of a matrix")
    if arr.shape[1] != n:
        raise ValueError(f"exponent vector has length {arr.shape[1]}, expected {n}")
    if (arr < 0).any():
        raise ValueError("exponents must be non-negative")
    return arr


def membership(j: MonomialIdeal, a: Sequence[int]) -> bool:
    """Does some generator divide x^a?"""
    return bool(membership_many(j, [a])[0])


def membership_many(j: MonomialIdeal, a_matrix: np.ndarray) -> np.ndarray:
    """Vectorised membership for many exponent vectors (the rows) at once."""
    return _divides(j.gens, _exponent_rows(j.n, a_matrix)).any(axis=1)


def colon_monomial(j: MonomialIdeal, w: Sequence[int]) -> MonomialIdeal:
    """j : x^w, by clipping each generator below w."""
    w = _exponent_rows(j.n, [w])[0]
    return MonomialIdeal(j.n, _minimal_rows(np.clip(j.gens - w, 0, None)))


def _axes(shape: tuple[int, ...]) -> Iterator[tuple[int, int, int, int]]:
    """(stride, length, top, below) of each axis of a non-empty C-order box:
    the masks of the cells at the top of the axis and of the rest, built as
    the axis comes up (one axis's alive at a time), and non-negative, as an
    AND with a negative int is several times slower."""
    size = block = prod(shape)
    full = (1 << size) - 1
    for d in shape:
        stride = block // d
        top = ((1 << stride) - 1) << (block - stride)  # in the first block
        while (k := top.bit_length()) < size:  # doubled; a shift by whole blocks
            top |= top << min(k, size - k)  # may overlap, never overshoot
        yield stride, d, top, full ^ top
        block = stride


def _table(j: MonomialIdeal, shape: tuple[int, ...]) -> int:
    """Membership table of j over a box of the given shape as one int, bit c
    being cell c in C order: the generators inside the box seeded through a
    byte buffer, then closed upward by shifts along each axis that mask off
    its top cells (they would wrap into the next row)."""
    size = prod(shape)
    if not size:
        return 0
    strides = np.array([prod(shape[i + 1 :]) for i in range(j.n)], dtype=np.int64)
    cells = j.gens[(j.gens < shape).all(axis=1)] @ strides
    seed = np.zeros(-(-size // 8), dtype=np.uint8)
    np.bitwise_or.at(seed, cells >> 3, np.left_shift(1, cells & 7).astype(np.uint8))
    x = int.from_bytes(seed, "little")
    for stride, d, _, below in _axes(shape):
        for _ in range(d - 1):
            x |= (x & below) << stride
    return x


def _cells(x: int, shape: tuple[int, ...]) -> np.ndarray:
    """The cells of the set bits of x in increasing order, as coordinate rows,
    unpacked from the non-zero bytes of x only."""
    raw = np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    at = np.flatnonzero(raw)
    row, bit = np.nonzero(np.unpackbits(raw[at, None], axis=1, bitorder="little"))
    return np.stack(np.unravel_index(at[row] * 8 + bit, shape), axis=-1)


def membership_box(j: MonomialIdeal, shape: tuple[int, ...]) -> np.ndarray:
    """Membership table of j over a box of the given shape, as booleans."""
    shape = tuple(map(int, _exponent_rows(j.n, [shape])[0]))
    x, size = _table(j, shape), prod(shape)
    raw = np.frombuffer(x.to_bytes(-(-size // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little").view(bool).reshape(shape)


def _lcm_box(j: MonomialIdeal, what: str) -> tuple[tuple[int, ...], int]:
    """The exponent box spanned by the generators and j's table over it; its
    top slices are absorbing, so membership outside follows by clamping."""
    if j.n < 1:
        raise ValueError(f"{what} needs at least one variable")
    shape = tuple(int(r) + 1 for r in j.gens.max(axis=0, initial=0))
    return shape, _table(j, shape)


def _gens_from_upset(n: int, x: int, shape: tuple[int, ...]) -> MonomialIdeal:
    """Minimal members w of an upward-closed table: w - e_i is outside for each w_i > 0."""
    above = 0  # the cells w with some w - e_i in the table
    for stride, _, _, below in _axes(shape):
        above |= (x & below) << stride
    return MonomialIdeal(n, _cells(x ^ x & above, shape).astype(np.int64, copy=False))


def colon_maximal(j: MonomialIdeal) -> MonomialIdeal:
    """j : m, the AND over i of the tables of j : x_i: w + e_i in j, read at w on
    the absorbing top slice of axis i, and implied by w in j below it."""
    shape, x = _lcm_box(j, "colon_maximal")
    parts = ((x >> stride) & below | x for stride, _, _, below in _axes(shape))
    return _gens_from_upset(j.n, reduce(and_, parts), shape)


def saturate(j: MonomialIdeal) -> MonomialIdeal:
    """sat(j), the intersection of the colons j : x_i^inf: w is in j : x_i^inf
    exactly when w raised to the top of axis i is in j (the top slice is
    absorbing), so its table ANDs j's top slices, each spread down its axis."""
    shape, x = _lcm_box(j, "saturate")
    sat = -1
    for stride, d, top, _ in _axes(shape):
        spread = x & top
        for _ in range(d - 1):
            spread |= spread >> stride
        sat &= spread
    return _gens_from_upset(j.n, sat, shape)


def ass_primes_oracle(j: MonomialIdeal) -> list[frozenset[int]]:
    """Associated primes of R/j, read off the socle cells of j's table: P_F
    is associated exactly when a cell c outside j, at the top of every axis
    outside F, has c + e_i in j for each i in F.  If j : x^w = P_F, raising w
    to the top outside F gives such a c; for such a c, j : x^c = P_F, because
    the top slice is absorbing."""
    shape, x = _lcm_box(j, "ass_primes_oracle")
    if j.is_zero:
        raise ValueError("associated primes of the zero ideal are not swept")
    up = reduce(and_, (x >> stride | top for stride, _, top, _ in _axes(shape)))
    masks = _unique_rows(_cells(up ^ up & x, shape) < np.array(shape) - 1)
    found = [frozenset(int(i) + 1 for i in np.flatnonzero(f)) for f in masks]
    return sorted(found, key=_set_order)
