"""Brute-force monomial ideal arithmetic: the ground-truth side of every check.

Ideals are stored by their minimal generators, as small integer matrices.  A row in a box
is one integer, its cell in C order: a power is the distinct sums of generator cells, and
divisibility is checked degree class by degree class.  The colon by the maximal ideal,
the saturation and the associated primes read one membership table over the generators'
lcm box, one Python int (bit c is cell c), closed upward and read by whole-table shifts
along each axis.  No Groebner machinery, and no matching theory."""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, product
from math import prod
from operator import and_, index, mul, or_
from typing import Iterable, Sequence

import numpy as np

from .graphs import SimpleGraph, _mask_order, iter_bits, set_of


_BLOCK = 2048  # rows per side of one divisibility test: at most _BLOCK**2 * n booleans
_MAX_CELLS = 1 << 29  # the most cells of one table
_MAX_BYTES = 1 << 30  # of a table: about 1.6 a cell, and cells/8 for each `_axes` mask (axis > 1)


def _blocks(shape: tuple[int, ...]) -> np.ndarray:
    """A C-order box's cell count, then each axis's stride; Python ints past 2**63 cells."""
    blocks = list(accumulate(reversed(shape), mul, initial=1))[::-1]
    return np.array(blocks, dtype=object if blocks[0] >> 63 else np.int64)


def _codes(arr: np.ndarray, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each row's cell in the C-order box of the given shape, and its blocks."""
    blocks = _blocks(shape)
    return arr.astype(blocks.dtype, copy=False) @ blocks[1:], blocks


def _rows(codes: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The cells `codes` of the box with these blocks as int64 coordinate rows."""
    return (codes[:, None] % blocks[:-1] // blocks[1:]).astype(np.int64)


def _heads(values: np.ndarray) -> np.ndarray:
    """Over a sorted 1-D array, True at the first of each run of equal entries."""
    heads = np.ones(values.shape[0], dtype=bool)
    heads[1:] = values[1:] != values[:-1]
    return heads


def _unique_rows(arr: np.ndarray) -> np.ndarray:
    """The distinct rows of a non-negative array in lexicographic order, by one sort of cells."""
    codes, _ = _codes(arr, tuple(r + 1 for r in arr.max(axis=0, initial=0).tolist()))
    order = np.argsort(codes)
    return arr[order[_heads(codes[order])]]


def _divides(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The table [low[p] divides high[q]] over (q, p), column by column (a short axis is slow)."""
    le = [lo <= hi[:, None] for hi, lo in zip(high.T, low.T)]
    return np.logical_and.reduce(le) if le else np.ones((len(high), len(low)), dtype=bool)


def _minimal_rows(arr: np.ndarray) -> np.ndarray:
    """Drop rows divisible by another row (the antichain of minimal elements).
    Once repeats are dropped a divisor has smaller degree, so each degree class
    meets only the kept rows of lower classes (none for powers of edge ideals)."""
    arr = _unique_rows(arr)
    deg = arr.sum(axis=1)
    keep = np.ones(arr.shape[0], dtype=bool)
    for d in sorted(set(deg.tolist()))[1:]:  # the degree classes above the lowest
        rows, lower = np.flatnonzero(deg == d), arr[keep & (deg < d)]
        for i, k in product(range(0, len(rows), _BLOCK), range(0, len(lower), _BLOCK)):
            block = rows[i : i + _BLOCK]
            keep[block] &= ~_divides(lower[k : k + _BLOCK], arr[block]).any(axis=1)
    return arr[keep]


class MonomialIdeal:
    """Monomial ideal given by its minimal generators (an exponent antichain)."""

    __slots__ = ("n", "gens")

    def __init__(self, n: int, gens: np.ndarray):
        self.n, self.gens = n, gens
        if not self._is_antichain():
            raise ValueError("generators must form a minimal antichain")

    def _is_antichain(self) -> bool:
        # distinct rows, none dividing another: minimalising drops nothing
        return self.gens.shape[0] <= 1 or _minimal_rows(self.gens).shape[0] == self.gens.shape[0]

    @classmethod
    def from_gens(cls, n: int, vectors: Iterable[Sequence[int]]) -> "MonomialIdeal":
        rows = [tuple(v) for v in vectors]
        arr = _exponent_rows(n, rows) if rows else np.zeros((0, n), dtype=np.int64)
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
    for i, (u, v) in enumerate(reversed(g.sorted_edges)):  # rows in lexicographic order
        rows[i, u - 1] = rows[i, v - 1] = 1
    return MonomialIdeal(g.n, rows)


def power(j: MonomialIdeal, t: int) -> MonomialIdeal:
    """Minimal generators of j**t: the distinct sums of t generators, grown one factor at
    a time as cells of the box of t times the lcm; of one degree they are an antichain."""
    if t < 1:
        raise ValueError("power requires t >= 1")
    if t == 1 or j.is_zero:
        return j
    top = _integer_array([t * int(r) for r in j.gens.max(axis=0)])  # t * lcm within int64
    codes, blocks = _codes(j.gens, tuple(r + 1 for r in top.tolist()))
    sums = codes
    for _ in range(t - 1):  # one sort per factor, dropping repeated sums
        sums = np.sort((sums[:, None] + codes).ravel())
        sums = sums[_heads(sums)]
    rows, deg = _rows(sums, blocks), j.gens.sum(axis=1)  # distinct, in lexicographic order
    return MonomialIdeal(j.n, rows if deg.min() == deg.max() else _minimal_rows(rows))


def _integer_array(rows) -> np.ndarray:
    """`rows` as int64, refusing an entry that is not an integer or lies outside int64
    (numpy reads such ints as objects, floats or uint64, so those are read one by one)."""
    arr = np.asarray(rows)
    if not arr.size or arr.dtype.kind in "bi" or arr.dtype.kind == "u" and arr.itemsize < 8:
        return arr.astype(np.int64, copy=False)
    try:  # index() refuses a non-integer, the int64 array an integer outside it
        entries = [index(x) for x in np.asarray(rows, dtype=object).flat]
        return np.array(entries, dtype=np.int64).reshape(arr.shape)
    except TypeError:
        raise ValueError("exponents must be integers") from None
    except OverflowError:
        raise ValueError("exponents must fit in a signed 64-bit integer") from None


def _exponent_rows(n: int, rows) -> np.ndarray:
    """`rows` as an int64 matrix of exponent vectors of length n, none negative."""
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


def _axes(shape: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(stride, length, below) of each axis of a C-order box within _box_size (checked
    first; none for an empty box): below masks the cells off the top of the axis, and is
    non-negative (an AND with a negative int is slower); x ^ x & below is x's top slice."""
    size = block = _box_size(shape)
    full, axes = (1 << size) - 1, []
    for d in shape if size else ():
        stride = block // d
        top = ((1 << stride) - 1) << (block - stride)  # in the first block
        while (k := top.bit_length()) < size:  # doubled; a shift by whole blocks
            top |= top << min(k, size - k)  # may overlap, never overshoot
        axes.append((stride, d, full ^ top))
        block = stride
    return axes


def _box_size(shape: Sequence[int]) -> int:
    """The cell count of a table over the box, refused past _MAX_CELLS or _MAX_BYTES first."""
    if (size := prod(shape)) > _MAX_CELLS:
        raise ValueError(f"oracle table of {size} cells is past its budget of {_MAX_CELLS} cells")
    if size * (1.6 + sum(d > 1 for d in shape) / 8) > _MAX_BYTES:
        raise ValueError(f"oracle table of {size} cells with axis masks is past {_MAX_BYTES} bytes")
    return size


def _table(j: MonomialIdeal, shape: tuple[int, ...], axes: list) -> int:
    """Membership table of j over a box with these `_axes` as one int: the
    generators' cells seeded through a byte buffer, then closed upward by
    shifts along each axis that mask off its top cells (they would wrap)."""
    cells, _ = _codes(j.gens[(j.gens < shape).all(axis=1)], shape)
    seed = np.zeros(-(-prod(shape) // 8), dtype=np.uint8)
    np.bitwise_or.at(seed, cells >> 3, np.left_shift(1, cells & 7).astype(np.uint8))
    x = int.from_bytes(seed, "little")
    for stride, d, below in axes:
        for _ in range(d - 1):
            x |= (x & below) << stride
    return x


def _cells(x: int) -> np.ndarray:
    """The set bits of x in increasing order as int64 cells, from its non-zero bytes."""
    raw = np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    at = np.flatnonzero(raw)
    row, bit = np.nonzero(np.unpackbits(raw[at, None], axis=1, bitorder="little"))
    return at[row] * 8 + bit


def membership_box(j: MonomialIdeal, shape: tuple[int, ...]) -> np.ndarray:
    """Membership table of j over a box of the given shape, as booleans."""
    shape = tuple(map(int, _exponent_rows(j.n, [shape])[0]))
    x, size = _table(j, shape, _axes(shape)), prod(shape)
    raw = np.frombuffer(x.to_bytes(-(-size // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=size, bitorder="little").view(bool).reshape(shape)


def _lcm_box(j: MonomialIdeal, what: str) -> tuple[tuple[int, ...], int, list]:
    """The generators' lcm box, j's table and its `_axes` for every pass; the top slices absorb."""
    if j.n < 1:
        raise ValueError(f"{what} needs at least one variable")
    shape = tuple(int(r) + 1 for r in j.gens.max(axis=0, initial=0))
    return shape, _table(j, shape, axes := _axes(shape)), axes


def _gens_from_upset(n: int, x: int, shape: tuple[int, ...], axes: list) -> MonomialIdeal:
    """Minimal members w of an upward-closed table x: the cells of x with no w - e_i in x."""
    above = reduce(or_, ((x & below) << stride for stride, _, below in axes), 0)
    return MonomialIdeal(n, _rows(_cells(x ^ x & above), _blocks(shape)))


def colon_maximal(j: MonomialIdeal) -> MonomialIdeal:
    """j : m, the AND over i of the tables of j : x_i: w + e_i in j, read at w on
    the absorbing top slice of axis i, and implied by w in j below it."""
    shape, x, axes = _lcm_box(j, "colon_maximal")
    parts = ((x >> stride) & below | x for stride, _, below in axes)
    return _gens_from_upset(j.n, reduce(and_, parts), shape, axes)


def saturate(j: MonomialIdeal) -> MonomialIdeal:
    """sat(j), the intersection of the j : x_i^inf: w is in j : x_i^inf when w raised to the
    top of axis i is in j (it is absorbing), so its table ANDs j's top slices spread down."""
    shape, x, axes = _lcm_box(j, "saturate")
    sat = -1
    for stride, d, below in axes:
        spread = x ^ x & below
        for _ in range(d - 1):
            spread |= spread >> stride
        sat &= spread
    return _gens_from_upset(j.n, sat, shape, axes)


def _ass_masks(j: MonomialIdeal) -> set[int]:
    """Ass(R/j) as variable masks (bit i-1 <-> x_i), off the socle cells of j's table: P_F is
    associated exactly when a cell c outside j, at the top of every axis outside F, has c + e_i
    in j for each i in F (raise w with j : x^w = P_F to the top outside F; j : x^c = P_F)."""
    shape, x, axes = _lcm_box(j, "ass_primes_oracle")
    if j.is_zero:
        raise ValueError("associated primes of the zero ideal are not swept")
    full = (1 << prod(shape)) - 1  # full ^ below: the top of an axis
    up = reduce(and_, (x >> stride | full ^ below for stride, _, below in axes))
    blocks, axes = _blocks(shape), [i for i, d in enumerate(shape) if d > 1]  # at most 29
    off = _cells(up ^ up & x)[:, None] % blocks[axes] < blocks[axes] - blocks[1:][axes]
    bits = np.array([1 << i for i in axes], dtype=object if axes and axes[-1] >= 63 else np.int64)
    return set((off @ bits).tolist())  # bit i: off the top of axis i


def ass_primes_oracle(j: MonomialIdeal) -> list[frozenset[int]]:
    """Associated primes of R/j as sets of variable indices, in `graphs._mask_order` of their
    codes over the variables they use (at most 29, whose axes are longer than 1): any n works."""
    masks = _ass_masks(j)
    used = list(iter_bits(reduce(or_, masks, 0)))
    codes = {sum(1 << p for p, v in enumerate(used) if m >> (v - 1) & 1): m for m in masks}
    return [set_of(codes[c]) for c in sorted(codes, key=_mask_order)]
