"""Brute-force monomial ideal arithmetic: the ground-truth side of every check.

Ideals are stored by their unique minimal generating sets, as small integer
matrices.  Powers and colons by a monomial are purely combinatorial:
componentwise sums and clipping, a lexsort that drops repeated rows, and
divisibility checked degree class by degree class.  No intersection of ideals
is formed: the colon by the maximal ideal, the saturation (the AND of the
table's top slices) and the associated primes (its socle cells) read one
boolean membership table over the box spanned by the generators.  No Groebner
machinery, and no matching theory.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from operator import index
from typing import Iterable, Sequence

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


def membership_box(j: MonomialIdeal, shape: tuple[int, ...]) -> np.ndarray:
    """Membership table of j over a box of the given shape: the generators inside
    it seeded at once, then closed upward by slice k |= slice k - 1 on each axis."""
    top = _exponent_rows(j.n, [shape])[0]
    box = np.zeros(shape, dtype=bool)
    inside = j.gens[(j.gens < top).all(axis=1)]
    if inside.shape[0]:  # with n = 0 an empty index would select the whole box
        box[tuple(inside.T)] = True
    for view in (np.moveaxis(box, axis, 0) for axis in range(j.n)):
        for k in range(1, view.shape[0]):
            view[k] |= view[k - 1]
    return box


def _bitmap(j: MonomialIdeal) -> np.ndarray:
    """Membership table over the exponent box spanned by the generators; the
    top slice of each axis is absorbing, so membership outside follows by clamping."""
    return membership_box(j, tuple(int(r) + 1 for r in j.gens.max(axis=0, initial=0)))


def _gens_from_upset(n: int, box: np.ndarray) -> MonomialIdeal:
    """Minimal members w of an upward-closed table: w - e_i is outside for each w_i > 0."""
    minimal = box.copy()
    for axis in range(n):
        lead = (slice(None),) * axis
        minimal[lead + (slice(1, None),)] &= ~box[lead + (slice(None, -1),)]
    cells = np.unravel_index(np.flatnonzero(minimal), box.shape)  # np.argwhere, but faster
    return MonomialIdeal(n, np.stack(cells, axis=-1).astype(np.int64))


def _colon_table(box: np.ndarray) -> np.ndarray:
    """The table of j : m: w is in it when each w + e_i is in j, read at the
    top slice of axis i when w is there (the top slice is absorbing)."""
    if box.ndim < 1:
        raise ValueError("colon_maximal needs at least one variable")
    colon = np.ones(box.shape, dtype=bool)
    for lead in ((slice(None),) * axis for axis in range(box.ndim)):  # in place, slice by slice
        colon[lead + (slice(None, -1),)] &= box[lead + (slice(1, None),)]
        colon[lead + (slice(-1, None),)] &= box[lead + (slice(-1, None),)]
    return colon


def colon_maximal(j: MonomialIdeal) -> MonomialIdeal:
    """j : m, the intersection of the colons j : x_i, read off the table of j."""
    return _gens_from_upset(j.n, _colon_table(_bitmap(j)))


def saturate(j: MonomialIdeal) -> MonomialIdeal:
    """sat(j), the intersection of the colons j : x_i^inf, in one pass: w is in
    j : x_i^inf exactly when w raised to the top of axis i is in j (the top
    slice is absorbing), so its table is the AND of the top slices of j's."""
    if j.n < 1:
        raise ValueError("saturate needs at least one variable")
    box = _bitmap(j)
    sat = np.ones(box.shape, dtype=bool)
    for axis in range(j.n):
        sat &= box[(slice(None),) * axis + (slice(-1, None),)]
    return _gens_from_upset(j.n, sat)


def ass_primes_oracle(j: MonomialIdeal) -> list[frozenset[int]]:
    """Associated primes of R/j, read off the socle cells of j's table: P_F
    is associated exactly when a cell c outside j, at the top of every axis
    outside F, has c + e_i in j for each i in F.  If j : x^w = P_F, raising w
    to the top outside F gives such a c; for such a c, j : x^c = P_F, because
    the top slice is absorbing."""
    if j.n < 1:
        raise ValueError("ass_primes_oracle needs at least one variable")
    if j.is_zero:
        raise ValueError("associated primes of the zero ideal are not swept")
    box = _bitmap(j)
    socle = ~box
    for lead in ((slice(None),) * axis for axis in range(j.n)):  # the top slice stays
        socle[lead + (slice(None, -1),)] &= box[lead + (slice(1, None),)]
    masks = _unique_rows(np.stack(np.nonzero(socle), axis=-1) < np.array(box.shape) - 1)
    found = [frozenset(int(i) + 1 for i in np.flatnonzero(f)) for f in masks]
    return sorted(found, key=_set_order)
