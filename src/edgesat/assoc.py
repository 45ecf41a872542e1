"""Associated primes of powers of edge ideals.

Primes are reported by their covers: P_F is the prime of the variables
indexed by the cover F.  Minimal covers give the minimal primes; embedded
primes are covers minimal over the closed neighbourhood of the support of a
t-saturating weighted graph, subject to the matching inequalities at the
core vertices outside that support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Iterable, Iterator

from .graphs import (
    SimpleGraph,
    _core_mask,
    closed_neighborhood,
    components_masked,
    covers_minimal_over,
    is_cover,
    is_dominating,
    is_minimal_cover,
    is_minimal_over,
    iter_bits,
    mask_of,
    minimal_covers,
    set_of,
    triangles,
    two_coloring_masked,
)
from .matching import WeightedGraph
from .saturation import (
    _inequalities_hold_at,
    _saturating_graphs,
    is_strongly_t_saturating,
    weighted_graph,
)

THREE_SATURATING_CASES = (
    "triangle-2-2-1",
    "edge-plus-triangle",
    "two-disjoint-triangles",
    "two-triangles-shared-vertex",
    "pentagon-spanned",
    "k4",
)


@dataclass
class AssPrimeReport:
    """One associated prime P_F with a re-verifiable certificate."""

    vertices: frozenset[int]
    kind: str  # "minimal" | "embedded"
    evidence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "vertices": sorted(self.vertices),
            "kind": self.kind,
            "evidence": self.evidence,
        }


def _sort_reports(reports: Iterable[AssPrimeReport]) -> list[AssPrimeReport]:
    return sorted(reports, key=lambda r: (len(r.vertices), sorted(r.vertices)))


def prime_sets(reports: Iterable[AssPrimeReport]) -> set[frozenset[int]]:
    return {r.vertices for r in reports}


def _minimal_reports(g: SimpleGraph) -> list[AssPrimeReport]:
    return [
        AssPrimeReport(f, "minimal", {"type": "minimal-cover"})
        for f in minimal_covers(g)
    ]


def _reports_over(
    g: SimpleGraph, supports: Iterable[tuple[frozenset[int], dict]]
) -> list[AssPrimeReport]:
    """Minimal covers, then the covers minimal over N[S] for each (S, evidence)
    pair; a prime keeps the evidence of the first S that gives it."""
    reports = _minimal_reports(g)
    seen = prime_sets(reports)
    for s, evidence in supports:
        for f in covers_minimal_over(g, closed_neighborhood(g, s)):
            if f not in seen:
                seen.add(f)
                reports.append(AssPrimeReport(f, "embedded", dict(evidence)))
    return _sort_reports(reports)


def _core_inequalities_hold(g: SimpleGraph, f: Iterable[int], h: WeightedGraph, t: int) -> bool:
    """The saturation inequality at each vertex of core(F) outside the support of h."""
    return _inequalities_hold_at(h, t, iter_bits(_core_mask(g, mask_of(f)) & ~h.mask))


def is_associated(g: SimpleGraph, f: Iterable[int], t: int) -> AssPrimeReport | None:
    """Decide whether P_F is an associated prime of I^t, with a certificate.

    Minimal covers are associated outright.  Otherwise, a witness exponent
    vector supported in core(F) is searched with weights below t and weight
    sum at most 3(t-1); those bounds exhaust the possible saturating graphs.
    """
    f = frozenset(f)
    if t < 1:
        raise ValueError("t must be at least 1")
    if not is_cover(g, f):
        raise ValueError("is_associated requires a vertex cover")
    if is_minimal_cover(g, f):
        return AssPrimeReport(f, "minimal", {"type": "minimal-cover"})
    if t == 1:
        return None  # Ass(I) is exactly the minimal covers
    for sup, a, h in _saturating_graphs(g, t, _core_mask(g, mask_of(f))):
        if is_minimal_over(g, f, closed_neighborhood(g, sup)) and _core_inequalities_hold(
            g, f, h, t
        ):
            return AssPrimeReport(f, "embedded", {"type": "witness", "exponents": list(a)})
    return None


def ass_primes(g: SimpleGraph, t: int) -> list[AssPrimeReport]:
    """Ass(I^t): minimal covers plus the embedded primes found by enumerating
    t-saturating weighted graphs, in the order of their exponent vectors."""
    if t < 1:
        raise ValueError("t must be at least 1")
    reports = _minimal_reports(g)
    if t >= 2:
        seen = prime_sets(reports)
        found = sorted(_saturating_graphs(g, t, g.full_mask), key=lambda x: x[1])
        for sup, a, h in found:
            for f in covers_minimal_over(g, closed_neighborhood(g, sup)):
                if f not in seen and _core_inequalities_hold(g, f, h, t):
                    seen.add(f)
                    reports.append(
                        AssPrimeReport(
                            f, "embedded", {"type": "witness", "exponents": list(a)}
                        )
                    )
    return _sort_reports(reports)


def _shape_reports(
    g: SimpleGraph, shapes: Iterable[tuple[str, frozenset[int]]]
) -> list[AssPrimeReport]:
    return _reports_over(
        g,
        ((s, {"type": "shape", "shape": tag, "vertices": sorted(s)}) for tag, s in shapes),
    )


def ass_primes_2(g: SimpleGraph) -> list[AssPrimeReport]:
    """Ass(I^2) in closed form: minimal covers plus covers minimal over the
    closed neighbourhood of a triangle."""
    return _shape_reports(
        g, (("triangle", frozenset(tri)) for tri in triangles(g))
    )


def _triangle_plus_edge_sets(g: SimpleGraph) -> list[frozenset[int]]:
    out = []
    for tri in triangles(g):
        ts = set(tri)
        attach = set()
        for v in tri:
            attach |= g.adj[v]
        for v in sorted(attach - ts):
            out.append(frozenset(ts | {v}))
    return out


def _triangle_pair_sets(g: SimpleGraph) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Vertex sets of two triangles: (disjoint with no joining edge, sharing one vertex)."""
    tris = triangles(g)
    nonadjacent = []
    shared = []
    for t1, t2 in combinations(tris, 2):
        s1, s2 = set(t1), set(t2)
        inter = s1 & s2
        if not inter:
            if not any(g.has_edge(u, v) for u in s1 for v in s2):
                nonadjacent.append(frozenset(s1 | s2))
        elif len(inter) == 1:
            shared.append(frozenset(s1 | s2))
    return nonadjacent, shared


def _has_spanning_cycle(g: SimpleGraph, verts: tuple[int, ...]) -> bool:
    """Is there a cycle through all of `verts` (chords ignored)?"""
    first, rest = verts[0], verts[1:]
    for perm in permutations(rest):
        if perm[0] > perm[-1]:
            continue  # each cycle orientation once
        cycle = (first, *perm)
        if all(g.has_edge(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))):
            return True
    return False


def _pentagon_sets(g: SimpleGraph) -> list[frozenset[int]]:
    out = []
    for verts in combinations(range(1, g.n + 1), 5):
        if _has_spanning_cycle(g, verts):
            out.append(frozenset(verts))
    return out


def _three_shapes(g: SimpleGraph) -> list[tuple[str, frozenset[int]]]:
    shapes: list[tuple[str, frozenset[int]]] = []
    shapes.extend(("triangle", frozenset(t)) for t in triangles(g))
    shapes.extend(("edge-plus-triangle", s) for s in _triangle_plus_edge_sets(g))
    nonadj, shared = _triangle_pair_sets(g)
    shapes.extend(("two-disjoint-triangles", s) for s in nonadj)
    shapes.extend(("two-triangles-shared-vertex", s) for s in shared)
    shapes.extend(("pentagon", s) for s in _pentagon_sets(g))
    return shapes


def ass_primes_3(g: SimpleGraph) -> list[AssPrimeReport]:
    """Ass(I^3) in closed form: minimal covers plus covers minimal over the
    closed neighbourhood of one of the five subgraph shapes."""
    return _shape_reports(g, _three_shapes(g))


def classify_3_saturating(h: WeightedGraph, g: SimpleGraph) -> str | None:
    """Case tag of a weighted graph witnessing membership in sat(I^3) \\ I^3.

    Returns the first matching case among: triangle with weights (2,2,1);
    spanned by an edge plus a triangle meeting at a vertex of weight 2;
    exactly two non-adjacent triangles; spanned by two triangles meeting at
    a vertex; spanned by a pentagon; a K4 whose outside vertices each see at
    least two support vertices.  None when x^a is not in sat(I^3) \\ I^3.
    """
    sup = frozenset(h.vertices)
    if not sup or not is_dominating(g, sup):
        return None
    wsorted = tuple(sorted(h.weights))
    k = len(sup)
    if k == 3 and wsorted == (1, 2, 2) and len(h.edges) == 3:
        return THREE_SATURATING_CASES[0]
    if k == 4 and wsorted == (1, 1, 1, 2):
        c = h.vertices[h.weights.index(2)]
        others = [v for v in h.vertices if v != c]
        for x, y in combinations(others, 2):
            z = next(v for v in others if v not in (x, y))
            if all(h.graph.has_edge(p, q) for p, q in ((c, x), (c, y), (x, y), (c, z))):
                return THREE_SATURATING_CASES[1]
        return None
    if k == 6 and wsorted == (1,) * 6:
        comps = components_masked(g, h.mask)
        if len(h.edges) == 6 and len(comps) == 2 and all(
            set_of(c) in [frozenset(t) for t in triangles(g)] for c in comps
        ):
            return THREE_SATURATING_CASES[2]
        return None
    if k == 5 and wsorted == (1,) * 5:
        tris = [frozenset(t) for t in triangles(g) if frozenset(t) <= sup]
        for t1, t2 in combinations(tris, 2):
            if len(t1 & t2) == 1 and t1 | t2 == sup:
                return THREE_SATURATING_CASES[3]
        if _has_spanning_cycle(g, tuple(sorted(sup))):
            return THREE_SATURATING_CASES[4]
        return None
    if k == 4 and wsorted == (1,) * 4 and len(h.edges) == 6:
        outside = set(range(1, g.n + 1)) - sup
        if all(len(g.adj[u] & sup) >= 2 for u in outside):
            return THREE_SATURATING_CASES[5]
    return None


def _odd_cycle_supports(g: SimpleGraph) -> Iterator[tuple[int, list[int]]]:
    """Nonempty vertex masks whose induced components all contain an odd
    cycle, with those components."""
    for um in range(1, g.full_mask + 1):
        comps = components_masked(g, um)
        if all(two_coloring_masked(g, c) is None for c in comps):
            yield um, comps


def ass_infinity(g: SimpleGraph) -> list[AssPrimeReport]:
    """The stable set of associated primes of large powers.

    Embedded members come from vertex sets U whose induced components each
    contain an odd cycle; the covers minimal over N[U] are stable primes.
    """
    return _reports_over(
        g,
        (
            (set_of(um), {"type": "odd-cycle-support", "vertices": list(iter_bits(um))})
            for um, _ in _odd_cycle_supports(g)
        ),
    )


def _component_strong_level(g: SimpleGraph, comp: frozenset[int]) -> int:
    """Largest s with an induced strongly s-saturating subgraph on 2s-1 vertices."""
    verts = sorted(comp)
    top = (len(verts) + 1) // 2
    for s in range(top, 1, -1):
        size = 2 * s - 1
        for w in combinations(verts, size):
            a = [0] * g.n
            for v in w:
                a[v - 1] = 1
            if is_strongly_t_saturating(weighted_graph(g, a), s):
                return s
    return 0


def s_gamma(g: SimpleGraph) -> int:
    """The stability-index bound s(Gamma).

    Maximum of |U| - sum(s_i) + 1 over vertex sets U whose induced components
    all contain odd cycles, where s_i is the largest strong-saturation level
    of an induced odd-size subgraph of the i-th component; 1 for bipartite
    graphs.
    """
    comp_cache: dict[frozenset[int], int] = {}
    best = 1
    for um, comps in _odd_cycle_supports(g):
        total = 0
        for cm in comps:
            cset = set_of(cm)
            level = comp_cache.get(cset)
            if level is None:
                level = _component_strong_level(g, cset)
                comp_cache[cset] = level
            if level < 2:
                raise RuntimeError(f"odd-cycle component {sorted(cset)} has no strong level")
            total += level
        best = max(best, um.bit_count() - total + 1)
    return best


def depth_positive(g: SimpleGraph, t: int) -> bool:
    """depth R/I^t > 0, i.e. the maximal ideal is not associated, for t in {2,3}.

    Equivalent to the absence of a dominating subgraph of the relevant
    shapes: a triangle for t = 2, the five classification shapes for t = 3.
    """
    if t == 2:
        return not any(is_dominating(g, set(tri)) for tri in triangles(g))
    if t == 3:
        return not any(is_dominating(g, s) for _, s in _three_shapes(g))
    raise ValueError("depth criteria are available for t in {2, 3} only")
