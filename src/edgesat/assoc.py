"""Associated primes of powers of edge ideals.

Primes are reported by their covers: P_F is the prime of the variables
indexed by the cover F.  Minimal covers give the minimal primes; embedded
primes are covers minimal over the closed neighbourhood of the support of a
t-saturating weighted graph, subject to the matching inequalities at the
core vertices outside that support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .graphs import (
    SimpleGraph,
    _closed_mask,
    _core_mask,
    _covers_edges,
    _covers_over,
    _mask_order,
    _nbrs,
    _odd_cycle_catalogue,
    _vertex_mask,
    iter_bits,
    mask_of,
    set_of,
    triangles,
)
from .matching import WeightedGraph, nu
from .saturation import (
    _check_t,
    _inequalities_hold_at,
    _support_vectors,
    is_strongly_t_saturating,
)

# The evidence of every minimal cover: one read-only object, shared.
_MINIMAL = MappingProxyType({"type": "minimal-cover"})


@dataclass(slots=True)
class AssPrimeReport:
    """One associated prime P_F with a re-verifiable certificate; the cover F
    is held as its vertex mask (bit k-1 <-> vertex k)."""

    mask: int
    kind: str  # "minimal" | "embedded"
    evidence: Mapping = field(default_factory=dict)

    @property
    def vertices(self) -> frozenset[int]:
        return set_of(self.mask)

    def to_dict(self) -> dict:
        return {
            "vertices": list(iter_bits(self.mask)),
            "kind": self.kind,
            "evidence": dict(self.evidence),
        }


def prime_sets(reports: Iterable[AssPrimeReport]) -> set[frozenset[int]]:
    return {r.vertices for r in reports}


def _reports_over(
    g: SimpleGraph,
    supports: Iterable[tuple[int, object]],
    decide: Callable[[int, object], dict | None],
) -> list[AssPrimeReport]:
    """Minimal covers, then for each (closed neighbourhood N[S], x) pair the
    covers minimal over N[S], each decided once, by the first pair that
    gives it: `decide(f, x)`, f a cover mask, returns the evidence of an
    embedded prime, or None.  The covers come from g's catalogue."""
    reports = dict.fromkeys(_covers_over(g, 0), ("minimal", _MINIMAL))
    seen = set(reports)  # every cover decided so far, accepted or not
    for closed, x in supports:
        for f in _covers_over(g, closed):
            if f not in seen:
                seen.add(f)
                evidence = decide(f, x)
                if evidence is not None:
                    reports[f] = ("embedded", evidence)
    return [AssPrimeReport(f, *reports[f]) for f in sorted(reports, key=_mask_order)]


def _cover_witness(g: SimpleGraph, t: int, core: int, catalogue: Iterable[tuple]) -> dict | None:
    """The evidence of an embedded prime P_F, from the core mask `core` of
    the cover F and an odd-cycle catalogue (U, N(U), components) of at most
    3(t-1) vertices that holds every U inside core(F): the first witness of
    the saturating graphs on the catalogue's U with U <= core(F) <= N[U], in
    its order, or None.  For a support S inside core(F), N[S] lies in F, and
    a vertex of F outside N[S] can leave the cover exactly when it lies in
    core(F); so F is minimal over N[S] exactly when core(F) lies in N[S].
    A witness x^a is not in I^t, checked by the public `nu` as its certificate,
    and the inequalities at the core vertices off V_a hold."""
    sets = (um for um, nb, _ in catalogue if not um & ~core and not core & ~(um | nb))
    for a in _support_vectors(g, t, sets):
        h = WeightedGraph(g, a)
        if nu(h) < t and _inequalities_hold_at(h, t, iter_bits(core & ~h.mask)):
            return {"type": "witness", "exponents": list(a)}
    return None


def is_associated(g: SimpleGraph, f: Iterable[int], t: int) -> AssPrimeReport | None:
    """Decide whether P_F is an associated prime of I^t, with a certificate.

    Minimal covers are associated outright.  Otherwise `_cover_witness`
    searches the saturating graphs supported in core(F), on g's odd-cycle
    catalogue of that region: weights below t and weight sum at most 3(t-1),
    the bounds that exhaust the possible saturating graphs.
    """
    _check_t(t)
    fm = _vertex_mask(g, f)
    if not _covers_edges(g, fm):
        raise ValueError("is_associated requires a vertex cover")
    core = _core_mask(g, fm)
    if not core:  # no vertex can leave F
        return AssPrimeReport(fm, "minimal", _MINIMAL)
    evidence = _cover_witness(g, t, core, _odd_cycle_catalogue(g, core, 3 * (t - 1)))
    return None if evidence is None else AssPrimeReport(fm, "embedded", evidence)


def ass_primes(g: SimpleGraph, t: int) -> list[AssPrimeReport]:
    """Ass(I^t): minimal covers plus the embedded primes (none at t = 1).

    An embedded prime is minimal over N[S] for the support S of a
    t-saturating weighted graph, an odd-cycle set of at most 3(t-1)
    vertices.  So the candidates are the covers minimal over N[U] for those
    odd-cycle sets U, each decided once by `_cover_witness`, as
    `is_associated` decides it, but on g's whole catalogue, which holds every
    U of core(F) in the order of core(F)'s own: the same first witness.
    """
    _check_t(t)
    catalogue = _odd_cycle_catalogue(g, g.full_mask, 3 * (t - 1))
    return _reports_over(
        g,
        ((near, None) for near in {um | nb for um, nb, _ in catalogue}),
        lambda f, _: _cover_witness(g, t, _core_mask(g, f), catalogue),
    )


def _shape_reports(g: SimpleGraph, shapes: Iterable[tuple[str, int]]) -> list[AssPrimeReport]:
    return _reports_over(
        g,
        ((_closed_mask(g, s), (tag, s)) for tag, s in shapes),
        lambda _, x: {"type": "shape", "shape": x[0], "vertices": list(iter_bits(x[1]))},
    )


def _triangle_shapes(g: SimpleGraph) -> list[tuple[str, int]]:
    return [("triangle", mask_of(tri)) for tri in triangles(g)]


def ass_primes_2(g: SimpleGraph) -> list[AssPrimeReport]:
    """Ass(I^2) in closed form: minimal covers plus covers minimal over the
    closed neighbourhood of a triangle."""
    return _shape_reports(g, _triangle_shapes(g))


def _has_spanning_cycle(g: SimpleGraph, verts: tuple[int, ...]) -> bool:
    """Is there a cycle through the five `verts` (chords ignored)?  It runs
    first-a-..-d-first for neighbours a < d of the first vertex, with the two
    vertices left, x and y, between them in either order."""
    adj, first, rest = g.adj_bits, verts[0], mask_of(verts[1:])
    for a, d in combinations(iter_bits(adj[first - 1] & rest), 2):
        x, y = iter_bits(rest & ~mask_of((a, d)))
        xb, yb, na, nd = 1 << (x - 1), 1 << (y - 1), adj[a - 1], adj[d - 1]
        if adj[x - 1] & yb and (na & xb and nd & yb or na & yb and nd & xb):
            return True
    return False


def _three_shapes(g: SimpleGraph, region: int) -> list[tuple[str, int]]:
    """The supports of the t = 3 classification inside the vertex mask
    `region`, as (tag, vertex mask), in this order: triangles; a triangle plus
    one neighbour; two disjoint triangles with no joining edge; two triangles
    sharing one vertex; five vertices on a spanning cycle, chords allowed."""
    shapes = [(tag, m) for tag, m in _triangle_shapes(g) if not m & ~region]
    tris = [m for _, m in shapes]
    pairs = list(combinations(tris, 2))
    shapes += [
        ("edge-plus-triangle", m | 1 << (v - 1))
        for m in tris
        for v in iter_bits(_nbrs(g, m) & region & ~m)
    ]
    shapes += [("two-disjoint-triangles", a | b) for a, b in pairs if not _closed_mask(g, a) & b]
    shapes += [("two-triangles-shared-vertex", a | b) for a, b in pairs if (a & b).bit_count() == 1]
    shapes += [
        ("pentagon", mask_of(verts))
        for verts in combinations(iter_bits(region), 5)
        if _has_spanning_cycle(g, verts)
    ]
    return shapes


def ass_primes_3(g: SimpleGraph) -> list[AssPrimeReport]:
    """Ass(I^3) in closed form: minimal covers plus covers minimal over the
    closed neighbourhood of one of the five subgraph shapes."""
    return _shape_reports(g, _three_shapes(g, g.full_mask))


# The t = 3 cases spanned by a shape: (case, `_three_shapes` tag, sorted weights).
_THREE_CASES = (
    ("triangle-2-2-1", "triangle", (1, 2, 2)),
    ("edge-plus-triangle", "edge-plus-triangle", (1, 1, 1, 2)),
    ("two-disjoint-triangles", "two-disjoint-triangles", (1,) * 6),
    ("two-triangles-shared-vertex", "two-triangles-shared-vertex", (1,) * 5),
    ("pentagon-spanned", "pentagon", (1,) * 5),
)


def classify_3_saturating(h: WeightedGraph) -> str | None:
    """Case tag of a weighted graph witnessing membership in sat(I^3) \\ I^3.

    Returns the first matching case among: triangle with weights (2,2,1);
    spanned by an edge plus a triangle meeting at a vertex of weight 2;
    exactly two non-adjacent triangles; spanned by two triangles meeting at
    a vertex; spanned by a pentagon; a K4 whose outside vertices each see at
    least two support vertices.  None when x^a is not in sat(I^3) \\ I^3.
    The first five are the `_three_shapes` spanning the support, with their
    weights; given the shape, the edge meets the triangle at the weight-2
    vertex exactly when that vertex sees the other three.
    """
    g, m = h.graph, h.mask
    if not m or _closed_mask(g, m) != g.full_mask:
        return None

    def sees_the_rest(v: int) -> bool:
        return not m & ~_closed_mask(g, 1 << (v - 1))

    weights = tuple(sorted(h.weights))
    spanned = {tag for tag, s in _three_shapes(g, m) if s == m}
    for case, tag, pattern in _THREE_CASES:
        if tag in spanned and weights == pattern:
            if tag != "edge-plus-triangle" or sees_the_rest(h.vertices[h.weights.index(2)]):
                return case
    if weights == (1,) * 4 and all(map(sees_the_rest, iter_bits(m))):
        if all((g.adj_bits[u - 1] & m).bit_count() >= 2 for u in iter_bits(g.full_mask & ~m)):
            return "k4"
    return None


def ass_infinity(g: SimpleGraph) -> list[AssPrimeReport]:
    """The stable set of associated primes of large powers.

    Embedded members come from vertex sets U whose induced components each
    contain an odd cycle; the covers minimal over N[U] are stable primes, each
    with the first such U of g's uncapped catalogue (the smallest) as evidence.
    """
    return _reports_over(
        g,
        ((um | nb, um) for um, nb, _ in _odd_cycle_catalogue(g, g.full_mask, g.n)),
        lambda _, um: {"type": "odd-cycle-support", "vertices": list(iter_bits(um))},
    )


def s_gamma(g: SimpleGraph) -> int:
    """The stability-index bound s(Gamma).

    Maximum of |U| - sum(s_i) + 1 over vertex sets U whose induced components
    all contain odd cycles, where s_i is the largest s with a strongly
    s-saturating unit weighting on 2s - 1 vertices of the i-th component; 1
    for bipartite graphs.

    The support of such a weighting is factor-critical, so connected with an
    odd cycle: an odd-cycle set.  The catalogue lists a set after its subsets,
    so one pass keeps the level of each connected set C: (|C|+1)/2 when the unit
    weighting on C is strongly saturating there, which no smaller set
    reaches, else the best level of a connected C - v.  That is the best over
    each connected odd-cycle W inside C: W grows to C one neighbour at a time
    through connected odd-cycle sets, so C drops to W one vertex at a time.
    """
    level: dict[int, int] = {}  # connected odd-cycle set -> its s_i
    best = 1
    for um, _, comps in _odd_cycle_catalogue(g, g.full_mask, g.n):
        k = um.bit_count()
        if len(comps) == 1:
            s = (k + 1) // 2
            a = [um >> i & 1 for i in range(g.n)]
            if not (k & 1 and is_strongly_t_saturating(WeightedGraph(g, a), s)):
                s = max(level.get(um ^ 1 << (v - 1), 0) for v in iter_bits(um))
            level[um] = s
        total = 0
        for cm in comps:
            if level[cm] < 2:
                raise RuntimeError(f"odd-cycle component {list(iter_bits(cm))} has no strong level")
            total += level[cm]
        best = max(best, k - total + 1)
    return best


def depth_positive(g: SimpleGraph, t: int) -> bool:
    """depth R/I^t > 0, i.e. the maximal ideal is not associated, for t in {2,3}.

    Equivalent to the absence of a dominating subgraph of the relevant
    shapes: a triangle for t = 2, the five classification shapes for t = 3.
    """
    if t not in (2, 3):
        raise ValueError("depth criteria are available for t in {2, 3} only")
    shapes = _triangle_shapes(g) if t == 2 else _three_shapes(g, g.full_mask)
    return all(_closed_mask(g, s) != g.full_mask for _, s in shapes)
