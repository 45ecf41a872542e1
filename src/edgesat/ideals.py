"""Brute-force monomial ideal arithmetic: the ground-truth side of every check.

Ideals are stored by their unique minimal generating sets, as small integer
matrices.  Powers, colons by a monomial and intersections are purely
combinatorial (componentwise min/max and divisibility, checked degree class
by degree class, since a proper divisor has strictly smaller total degree).
The colon by the maximal ideal, the saturation and the witness sweep for
associated primes all read one membership table over the exponent box spanned
by the generators, seeded at them and closed upward by slice sweeps.
No Groebner machinery anywhere, and no matching theory.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from typing import Iterable, Sequence

import numpy as np

from .graphs import SimpleGraph


_BLOCK = 2048  # rows per side of one divisibility test: at most _BLOCK**2 * n booleans


def _minimal_rows(arr: np.ndarray) -> np.ndarray:
    """Drop rows divisible by another row (the antichain of minimal elements).

    After deduplication a divisor of a row is a proper divisor, of strictly
    smaller total degree, so each degree class is compared only with the kept
    rows of the lower classes.  For a power of an edge ideal (all generators
    of degree 2t) that leaves `np.unique` alone.
    """
    arr = np.unique(arr, axis=0)
    deg = arr.sum(axis=1)
    keep = np.ones(arr.shape[0], dtype=bool)
    for d in np.unique(deg)[1:]:
        rows, lower = np.flatnonzero(deg == d), arr[keep & (deg < d)]
        for i, k in product(range(0, len(rows), _BLOCK), range(0, len(lower), _BLOCK)):
            block = rows[i : i + _BLOCK]
            le = lower[None, k : k + _BLOCK] <= arr[block, None]
            keep[block] &= ~le.all(axis=2).any(axis=1)
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
        arr = np.array(rows, dtype=np.int64)
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
        return self.n == other.n and self.gens.shape == other.gens.shape and bool(
            (self.gens == other.gens).all()
        )

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
    k = j.gens.shape[0]
    combos = np.array(list(combinations_with_replacement(range(k), t)), dtype=np.int64)
    rows = j.gens[combos].sum(axis=1)
    return MonomialIdeal(j.n, _minimal_rows(rows))


def membership(j: MonomialIdeal, a: Sequence[int]) -> bool:
    """Does some generator divide x^a?"""
    if j.is_zero:
        return False
    return bool((j.gens <= np.asarray(a, dtype=np.int64)).all(axis=1).any())


def membership_many(j: MonomialIdeal, a_matrix: np.ndarray) -> np.ndarray:
    """Vectorised membership for many exponent vectors at once."""
    if j.is_zero:
        return np.zeros(a_matrix.shape[0], dtype=bool)
    return (j.gens[None, :, :] <= a_matrix[:, None, :]).all(axis=2).any(axis=1)


def colon_monomial(j: MonomialIdeal, w: Sequence[int]) -> MonomialIdeal:
    """j : x^w, by clipping each generator below w."""
    if j.is_zero:
        return j
    arr = np.clip(j.gens - np.asarray(w, dtype=np.int64), 0, None)
    return MonomialIdeal(j.n, _minimal_rows(arr))


def intersect(j1: MonomialIdeal, j2: MonomialIdeal) -> MonomialIdeal:
    """Intersection via componentwise max over generator pairs, minimalised."""
    if j1.n != j2.n:
        raise ValueError("ideals live in different rings")
    if j1.is_zero or j2.is_zero:
        return MonomialIdeal.from_gens(j1.n, [])
    rows = np.maximum(j1.gens[:, None, :], j2.gens[None, :, :]).reshape(-1, j1.n)
    return MonomialIdeal(j1.n, _minimal_rows(rows))


def membership_box(j: MonomialIdeal, shape: tuple[int, ...]) -> np.ndarray:
    """Membership table of j over the exponent box of the given shape.

    The generators inside the box (one outside divides nothing inside) are
    seeded as points in one assignment, and the box is closed upward by slice
    sweeps, slice k |= slice k - 1 along each axis: box size times n.
    """
    box = np.zeros(shape, dtype=bool)
    inside = j.gens[(j.gens < np.array(shape, dtype=np.int64)).all(axis=1)]
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
    """Minimal elements of an upward-closed membership table: the members w
    with w - e_i outside it along every axis i where w_i > 0."""
    minimal = box.copy()
    for axis in range(n):
        lead = (slice(None),) * axis
        minimal[lead + (slice(1, None),)] &= ~box[lead + (slice(None, -1),)]
    return MonomialIdeal(n, np.argwhere(minimal).astype(np.int64))


def _shift(box: np.ndarray, axis: int) -> np.ndarray:
    """The table of w -> [w + e_axis in j] from the table of j; the top slice
    of the box is absorbing."""
    s = box.shape[axis]
    return np.take(box, np.minimum(np.arange(1, s + 1), s - 1), axis=axis)


def _colon_table(box: np.ndarray) -> np.ndarray:
    """The table of j : m, the AND of the shifts along every axis."""
    if box.ndim < 1:
        raise ValueError("colon_maximal needs at least one variable")
    return np.logical_and.reduce([_shift(box, axis) for axis in range(box.ndim)])


def colon_maximal(j: MonomialIdeal) -> MonomialIdeal:
    """j : m, the intersection of the colons j : x_i, read off the table of j."""
    return _gens_from_upset(j.n, _colon_table(_bitmap(j)))


def saturate(j: MonomialIdeal) -> MonomialIdeal:
    """The saturation: iterate K <- K : m on the table of j to its fixpoint.

    The generators of every K lie in the box of j, so the table stays exact,
    and each step only grows it until it stops changing.
    """
    box = _bitmap(j)
    while True:
        nxt = _colon_table(box)
        if np.array_equal(nxt, box):
            return _gens_from_upset(j.n, box)
        box = nxt


def lcm_exponents(j: MonomialIdeal) -> np.ndarray:
    if j.is_zero:
        raise ValueError("zero ideal has no generator lcm")
    return j.gens.max(axis=0)


def ass_primes_oracle(j: MonomialIdeal) -> list[frozenset[int]]:
    """Associated primes of R/j by the witness sweep.

    P is associated exactly when P = j : w for a monomial w dividing the lcm
    of the generators.  The variables in j : w are F(w) = {i : w + e_i in j},
    and j : w = P_F exactly when w, with every exponent outside F raised to the
    top of the box, is still not in j: membership does not change above the
    top, so no monomial in the variables outside F lies in j : w.
    """
    if j.is_zero:
        raise ValueError("associated primes of the zero ideal are not swept")
    box = _bitmap(j)
    inside = np.stack([_shift(box, axis) for axis in range(j.n)], axis=-1).reshape(-1, j.n)
    grid = np.indices(box.shape).reshape(j.n, -1).T
    raised = np.where(inside, grid, np.array(box.shape) - 1)
    masks = np.unique(inside[~box[tuple(raised.T)]], axis=0)
    found = [frozenset(int(i) + 1 for i in np.flatnonzero(f)) for f in masks]
    return sorted(found, key=lambda s: (len(s), sorted(s)))
