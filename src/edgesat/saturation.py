"""Membership in powers and saturations of edge ideals, via weighted graphs.

For an exponent vector a, the weighted graph of the monomial x^a is the
induced subgraph on the support with vertex i weighted a_i.  Membership in
the t-th power is nu >= t; membership in the saturation is the system of
matching inequalities nu(G_a - N_a(i)) >= t - deg_a(i) over all vertices i
of the ambient graph.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .graphs import (
    SimpleGraph,
    _core_mask,
    _covers_edges,
    _odd_cycle_components,
    components_masked,
    induced_subgraph,
    iter_bits,
    mask_of,
    set_of,
)
from .matching import WeightedGraph, nu

ExponentVector = tuple[int, ...]


def support(a: Sequence[int]) -> frozenset[int]:
    """V_a: the vertices carrying a positive exponent."""
    return frozenset(i + 1 for i, x in enumerate(a) if x > 0)


def weighted_graph(g: SimpleGraph, a: Sequence[int]) -> WeightedGraph:
    """The weighted graph of the monomial x^a."""
    return WeightedGraph.from_exponents(g, a)


def _check_t(t: int) -> None:
    if t < 1:
        raise ValueError("power exponent t must be at least 1")


def _capped_graph(g: SimpleGraph, a: Sequence[int], t: int) -> WeightedGraph:
    """The weighted graph of x^a with each exponent capped at t, which decides
    membership in I^t and sat(I^t) alike: a matching of size t uses no vertex
    more than t times, and a weight of t or more on N already gives w(N) >= t."""
    _check_t(t)
    return weighted_graph(g, [min(x, t) for x in a])


def in_power(g: SimpleGraph, a: Sequence[int], t: int) -> bool:
    """x^a lies in I^t exactly when nu of its weighted graph is at least t."""
    return nu(_capped_graph(g, a, t)) >= t


def _inequality_holds(h: WeightedGraph, drop: int, t: int) -> bool:
    """nu(H - N) >= t - w(N), with w(N) the weight on the vertex mask N."""
    w = sum(h.a[v - 1] for v in iter_bits(drop))
    return w >= t or nu(h.minus_mask(drop)) >= t - w


def _inequalities_hold_at(h: WeightedGraph, t: int, vertices: Iterable[int]) -> bool:
    """The saturation inequality at each of `vertices` of the ambient graph,
    N being the vertex's neighbourhood inside the support of h."""
    adj = h.graph.adj_bits
    return all(_inequality_holds(h, adj[i - 1] & h.mask, t) for i in vertices)


def _membership(g: SimpleGraph, a: Sequence[int], t: int) -> tuple[bool, bool]:
    """Whether x^a lies in I^t and in sat(I^t): the latter is the inequality at
    every vertex of g, which members of I^t satisfy automatically."""
    h = _capped_graph(g, a, t)
    if nu(h) >= t:
        return True, True
    return False, _inequalities_hold_at(h, t, range(1, g.n + 1))


def in_saturation(g: SimpleGraph, a: Sequence[int], t: int) -> bool:
    """x^a lies in the saturation of I^t."""
    return _membership(g, a, t)[1]


def in_sat_minus_power(g: SimpleGraph, a: Sequence[int], t: int) -> bool:
    """x^a lies in the saturation of I^t but not in I^t itself."""
    in_pow, in_sat = _membership(g, a, t)
    return in_sat and not in_pow


def is_t_saturating(h: WeightedGraph, t: int) -> bool:
    """nu(H) < t and nu(H - N(i)) >= t - deg(i) at every vertex of H.

    The empty weighted graph is not considered saturating (it has no odd
    cycle, and the corresponding monomial is 1).
    """
    _check_t(t)
    if not h.vertices or nu(h) >= t:
        return False
    return _inequalities_hold_at(h, t, h.vertices)


def is_strongly_t_saturating(h: WeightedGraph, t: int) -> bool:
    """nu(H) < t and nu(H - j) >= t - a_j for every vertex j of H."""
    _check_t(t)
    if not h.vertices or nu(h) >= t:
        return False
    return all(_inequality_holds(h, 1 << (j - 1), t) for j in h.vertices)


def _unit_drop_moving_nu(g: SimpleGraph, b: Sequence[int], level: int) -> int | None:
    """A support vertex of b where dropping one unit of weight moves nu off
    `level`, or None when every such drop keeps nu at `level`."""
    for i in support(b):
        bm = list(b)
        bm[i - 1] -= 1
        if nu(weighted_graph(g, bm)) != level:
            return i
    return None


def _strong_chain_level(g: SimpleGraph, b: Sequence[int]) -> int:
    """Validate the edge-adding preconditions of b and return its level t."""
    total = sum(b)
    if total % 2 == 0:
        raise ValueError("exponent sum must be odd (2t-1)")
    t = (total + 1) // 2
    hb = weighted_graph(g, b)
    if not is_strongly_t_saturating(hb, t):
        raise ValueError(f"base weighted graph is not strongly {t}-saturating")
    if nu(hb) != t - 1:
        raise ValueError(f"base weighted graph must have matching number {t - 1}")
    i = _unit_drop_moving_nu(g, b, t - 1)
    if i is not None:
        raise ValueError(
            f"dropping one weight unit at vertex {i} must keep matching number {t - 1}"
        )
    return t


def extend_by_edge(g: SimpleGraph, b: Sequence[int], edge: tuple[int, int]) -> ExponentVector:
    """Add one edge of g to a strongly saturating weighted graph.

    b must be strongly t-saturating with weight sum 2t-1 and matching number
    t-1 stable under single weight drops; the edge must have an endpoint in
    the support.  The result is b + e_h + e_j, strongly (t+1)-saturating with
    weight sum 2t+1, which is re-verified before returning.
    """
    u, v = edge
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge of the graph")
    t = _strong_chain_level(g, b)
    sup = support(b)
    if u not in sup and v not in sup:
        raise ValueError("the added edge needs an endpoint in the support")
    a = list(b)
    a[u - 1] += 1
    a[v - 1] += 1
    ha = weighted_graph(g, a)
    if (
        sum(a) != 2 * t + 1
        or not is_strongly_t_saturating(ha, t + 1)
        or nu(ha) != t
        or _unit_drop_moving_nu(g, a, t) is not None
    ):
        raise RuntimeError(f"edge-adding broke the strong-saturation chain at {a}")
    return tuple(a)


def build_strong(g: SimpleGraph, u: Iterable[int], seed: Iterable[int]) -> ExponentVector:
    """Grow a strongly saturating weighted graph from a seed to cover u.

    The seed (2s-1 vertices, weight one each) must induce a strongly
    s-saturating graph and the induced graph on u must be connected.  Edges
    are added in breadth-first order until the support equals u; the result
    is strongly t-saturating for t = |u| - s + 1.
    """
    useq = frozenset(u)
    sseq = frozenset(seed)
    if not sseq <= useq:
        raise ValueError("the seed must be contained in u")
    if len(components_masked(g, mask_of(useq))) != 1:
        raise ValueError("the induced graph on u must be connected")
    if len(sseq) % 2 == 0:
        raise ValueError("the seed must have oddly many vertices")
    s = (len(sseq) + 1) // 2
    a = [0] * g.n
    for v in sseq:
        a[v - 1] = 1
    if not is_strongly_t_saturating(weighted_graph(g, a), s):
        raise ValueError(f"the seed does not induce a strongly {s}-saturating graph")
    current = tuple(a)
    while support(current) != useq:
        sup = support(current)
        candidates = sorted(
            (j, h)
            for h, j_set in ((x, g.adj[x]) for x in sup)
            for j in j_set
            if j in useq and j not in sup
        )
        if not candidates:
            raise ValueError("u is not reachable from the seed inside u")
        j, h = candidates[0]
        current = extend_by_edge(g, current, (h, j))
    return current


def _saturating_graphs(
    g: SimpleGraph, t: int, region: int
) -> Iterator[tuple[tuple[int, ...], ExponentVector, WeightedGraph]]:
    """The t-saturating weighted graphs supported in `region`, as (support, a, h).

    Supports come by size, then in lexicographic order, and the weights on
    each support in lexicographic order.  The paper's bounds make the search
    complete: weights below t, weight sum at most 3(t-1), and every component
    of the support containing an odd cycle.  Its bound of 2t-1 on the length
    of those odd cycles needs no filter of its own: a longer odd cycle carries
    t disjoint edges, so nu >= t and `is_t_saturating` rejects the graph.
    """
    total_bound = 3 * (t - 1)
    verts = list(iter_bits(region))
    for size in range(1, min(len(verts), total_bound) + 1):
        for sup in combinations(verts, size):
            if _odd_cycle_components(g, mask_of(sup)) is None:
                continue
            # The weights are the steps of increasing partial sums up to the
            # sum bound, and both run in lexicographic order.
            for sums in combinations(range(1, total_bound + 1), size):
                weights = [s - r for r, s in zip((0, *sums), sums)]
                if max(weights) >= t:
                    continue
                a = [0] * g.n
                for v, w in zip(sup, weights):
                    a[v - 1] = w
                h = weighted_graph(g, a)
                if is_t_saturating(h, t):
                    yield sup, tuple(a), h


def saturating_vectors(g: SimpleGraph, t: int) -> list[ExponentVector]:
    """All exponent vectors whose weighted graph is t-saturating, sorted.

    The search is `_saturating_graphs` over all of g: weights below t, weight
    sum at most 3(t-1), and supports whose components each contain an odd
    cycle (one longer than 2t-1 already gives nu >= t).
    """
    if t < 2:
        raise ValueError("saturating graphs require t >= 2")
    return sorted(a for _, a, _ in _saturating_graphs(g, t, g.full_mask))


def facets_delta(g: SimpleGraph, a: Sequence[int], t: int) -> list[frozenset[int]]:
    """Facets of the degree-a complex of I^t, for a signed exponent vector.

    For each G between G_a = {i : a_i < 0} and V, with F = V \\ G a cover,
    the localized membership question reduces to the edge ideal of the
    induced graph on core(F) at the shifted exponent s = t minus the weights
    sitting on F outside the core; negative or zero s means membership in
    the localized power and contributes no facet.
    """
    _check_t(t)
    a = tuple(a)
    if len(a) != g.n:
        raise ValueError(f"exponent vector has length {len(a)}, expected {g.n}")
    if not g.edges:
        raise ValueError("the facet formula needs a nonzero edge ideal")
    ga_mask = mask_of(i + 1 for i, x in enumerate(a) if x < 0)
    free = g.full_mask & ~ga_mask
    facets: list[frozenset[int]] = []
    sub = 0
    while True:  # all subsets of `free`; G = ga_mask | sub
        fmask = free & ~sub
        if _covers_edges(g, fmask):
            core = _core_mask(g, fmask)
            shed = fmask & ~core
            s = t - sum(a[v - 1] for v in iter_bits(shed))
            if s >= 1:
                subg, _ = induced_subgraph(g, iter_bits(core))  # relabelled in sorted order
                a_core = [a[v - 1] for v in iter_bits(core)]
                if in_sat_minus_power(subg, a_core, s):
                    facets.append(set_of(sub))
        if sub == free:
            break
        sub = (sub - free) & free
    return sorted(facets, key=lambda f: (len(f), sorted(f)))
