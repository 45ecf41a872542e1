"""Membership in powers and saturations of edge ideals, via weighted graphs.

For an exponent vector a, the weighted graph of the monomial x^a is the
induced subgraph on the support with vertex i weighted a_i.  Membership in
the t-th power is nu >= t; membership in the saturation is the system of
matching inequalities nu(G_a - N_a(i)) >= t - deg_a(i) over all vertices i
of the ambient graph.  Every check of them goes through one kernel: the plan
of each inequality (an `itemgetter` of the support indices outside N and the
edge bits of H - N) is made once per support, and each weight tuple meets the
`nu` cache by key.  The membership questions keep, per support mask, its
unit-weight graph (for the vertices, mask and edge bits), the edges in
`_degree_order`, the plans and the last answer on the graph, in
`SimpleGraph._support_memo`, so a question builds a weighted graph only for a
mask with no entry.  A question is settled by nu <= w/2 and by a
greedy b-matching before it runs a blossom.  The search for saturating
graphs settles each weighting by its cheapest exact test first: the prune
(some w - e_p already failed), then a greedy b-matching that reaches t, then
the inequalities, and only then a blossom run for nu(w) < t.  The supports
are odd-cycle sets, and a support's weightings are cached by (t, size, its
relabelled edge bits), so supports that induce the same labelled graph share
one entry.  Both memos insert through `graphs._remember`, which bounds each.
"""

from __future__ import annotations

from itertools import combinations
from operator import index, itemgetter, mul, sub
from typing import Iterable, Iterator, Sequence

from .graphs import (
    SimpleGraph,
    _core_mask,
    _covers_edges,
    _mask_order,
    _nbrs,
    _odd_cycle_catalogue,
    _remember,
    _vertex_mask,
    components_masked,
    iter_bits,
    mask_of,
    set_of,
)
from .matching import (
    _CACHE,
    WeightedGraph,
    _degree_order,
    _edge_bits,
    _exponent_vector,
    _greedy_counts,
    _integers,
    _nu_of_key,
    nu,
)

ExponentVector = tuple[int, ...]


def support(a: Sequence[int]) -> frozenset[int]:
    """V_a: the vertices carrying a positive exponent."""
    return frozenset(i + 1 for i, x in enumerate(a) if x > 0)


def _check_t(t: int) -> None:
    try:
        index(t)
    except TypeError:
        raise ValueError("power exponent t must be an integer") from None
    if t < 1:
        raise ValueError("power exponent t must be at least 1")


def _in_power(g: SimpleGraph, a: Sequence[int], t: int) -> tuple[tuple, list]:
    """Whether x^a lies in I^t, as the slot (t, w, in_power, in_sat) of the
    support's entry in g's `_support_memo`, w being the support's weights
    capped at t and in_sat None until a saturation question asks it; with
    the entry.  An entry is [the unit-weight graph H on the support, the
    `_degree_order` of its edges, the drop plans (None until a saturation
    question first needs them), the slot of the last question], one per
    support mask, stored through `_remember`.

    The cap decides membership in I^t and sat(I^t) alike: a size-t matching
    uses no vertex more than t times, and a weight of t or more on N gives
    w(N) >= t.  The cheapest exact test answers first: nu(w) is at most half
    the weight sum, and at least the size of a greedy b-matching; only then
    is nu(H) >= t asked (each capped weight is at least 1), then nu(w) >= t.
    """
    _check_t(t)
    mask, w = 0, []
    for i, x in enumerate(_exponent_vector(a, g.n)):
        if x:
            mask |= 1 << i
            w.append(x if x < t else t)
    w = tuple(w)
    memo = g._support_memo
    if (entry := memo.get(mask)) is None:
        h = WeightedGraph(g, [mask >> i & 1 for i in range(g.n)])
        entry = _remember(memo, mask, [h, _degree_order(len(w), h.cache_key[1]), None, None])
    slot = entry[3]  # read once: another thread may replace it
    if slot is None or slot[0] != t or slot[1] != w:
        h, order = entry[0], entry[1]
        in_pow = sum(w) >= 2 * t and (
            sum(_greedy_counts(w, order)) >= t or nu(h) >= t or _nu_of_key((w, h.cache_key[1])) >= t
        )
        slot = entry[3] = (t, w, in_pow, in_pow or None)
    return slot, entry


def in_power(g: SimpleGraph, a: Sequence[int], t: int) -> bool:
    """x^a lies in I^t exactly when nu of its weighted graph is at least t."""
    return _in_power(g, a, t)[0][2]


def _drop_plans(
    g: SimpleGraph, verts: Sequence[int], drops: Iterable[int]
) -> Iterator[tuple[itemgetter, int]]:
    """For each vertex mask N, the plan of H - N, H on the increasing labels
    `verts` of g: an `itemgetter` that reads the weights outside N off the
    support's weight tuple, as a tuple, and the edge bits of H - N."""
    for drop in drops:
        outside = [p for p, v in enumerate(verts) if not drop >> (v - 1) & 1]
        if len(outside) > 1:
            pick = itemgetter(*outside)
        else:  # a slice, so that one index or none still reads a tuple
            pick = itemgetter(slice(outside[0], outside[0] + 1) if outside else slice(0))
        yield pick, _edge_bits(g, [verts[p] for p in outside])


def _inequalities_hold(
    w: tuple[int, ...], t: int, plans: Iterable[tuple[itemgetter, int]]
) -> bool:
    """nu(H - N) >= t - w(N) for each plan, H carrying the support weights w;
    nu(H - N) is at most half the weight of H - N."""
    total = sum(w)
    for pick, bits in plans:
        rest = pick(w)
        kept = sum(rest)
        need = t - total + kept  # t - w(N)
        if need > 0 and (kept < 2 * need or _nu_of_key((rest, bits)) < need):
            return False
    return True


def _inequalities_hold_at(h: WeightedGraph, t: int, vertices: Iterable[int]) -> bool:
    """The saturation inequality at each of `vertices` of the ambient graph,
    N being the vertex's neighbourhood inside the support of h."""
    adj = h.graph.adj_bits
    plans = _drop_plans(h.graph, h.vertices, (adj[i - 1] & h.mask for i in vertices))
    return _inequalities_hold(h.weights, t, plans)


def _membership(g: SimpleGraph, a: Sequence[int], t: int) -> tuple[bool, bool]:
    """Whether x^a lies in I^t and in sat(I^t): the latter is the inequality at
    every vertex of g, which members of I^t satisfy automatically.  Vertices
    with the same neighbours in the support share one plan, and the answer
    is kept in the entry's slot, so a question asked again on the same
    capped weights runs no inequality."""
    slot, entry = _in_power(g, a, t)
    if slot[3] is None:
        h, _, plans, _ = entry
        if plans is None:  # an empty N, if any, comes first: it asks nu(w) >= t, just refused
            drops = sorted({b & h.mask for b in g.adj_bits})
            plans = entry[2] = list(_drop_plans(g, h.vertices, drops))
        slot = entry[3] = (*slot[:3], _inequalities_hold(slot[1], t, plans))
    return slot[2], slot[3]


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
    return bool(h.vertices) and nu(h) < t and _inequalities_hold_at(h, t, h.vertices)


def is_strongly_t_saturating(h: WeightedGraph, t: int) -> bool:
    """nu(H) < t and nu(H - j) >= t - a_j for every vertex j of H."""
    _check_t(t)
    drops = (1 << (j - 1) for j in h.vertices)
    plans = _drop_plans(h.graph, h.vertices, drops)
    return bool(h.vertices) and nu(h) < t and _inequalities_hold(h.weights, t, plans)


def _strong_chain_level(g: SimpleGraph, b: Sequence[int]) -> int:
    """Validate the edge-adding preconditions of b and return its level t."""
    total = sum(b)
    if total % 2 == 0:
        raise ValueError("exponent sum must be odd (2t-1)")
    t = (total + 1) // 2
    hb = WeightedGraph(g, b)
    if not is_strongly_t_saturating(hb, t):
        raise ValueError(f"base weighted graph is not strongly {t}-saturating")
    if nu(hb) != t - 1:
        raise ValueError(f"base weighted graph must have matching number {t - 1}")
    for i in support(b):
        bm = list(b)
        bm[i - 1] -= 1
        if nu(WeightedGraph(g, bm)) != t - 1:
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
    _strong_chain_level(g, b)
    if not (b[u - 1] or b[v - 1]):
        raise ValueError("the added edge needs an endpoint in the support")
    a = list(b)
    a[u - 1] += 1
    a[v - 1] += 1
    try:
        _strong_chain_level(g, a)  # a sums to 2t + 1: the chain's next level
    except ValueError:
        raise RuntimeError(f"edge-adding broke the strong-saturation chain at {a}") from None
    return tuple(a)


def build_strong(g: SimpleGraph, u: Iterable[int], seed: Iterable[int]) -> ExponentVector:
    """Grow a strongly saturating weighted graph from a seed to cover u.

    The seed (2s-1 vertices, weight one each) must induce a strongly
    s-saturating graph and the induced graph on u must be connected.  Edges
    are added in breadth-first order until the support equals u; the result
    is strongly t-saturating for t = |u| - s + 1.
    """
    um, sm = _vertex_mask(g, u), _vertex_mask(g, seed)
    if sm & ~um:
        raise ValueError("the seed must be contained in u")
    if len(components_masked(g, um)) != 1:
        raise ValueError("the induced graph on u must be connected")
    if sm.bit_count() % 2 == 0:
        raise ValueError("the seed must have oddly many vertices")
    s = (sm.bit_count() + 1) // 2
    a = tuple(sm >> i & 1 for i in range(g.n))
    if not is_strongly_t_saturating(WeightedGraph(g, a), s):
        raise ValueError(f"the seed does not induce a strongly {s}-saturating graph")
    while sm != um:
        frontier = _nbrs(g, sm) & um & ~sm
        if not frontier:  # u is connected, so this cannot happen
            raise RuntimeError("u is not reachable from the seed inside u")
        # j: the least vertex of u next to the support; h: its least neighbour in it
        j = (frontier & -frontier).bit_length()
        near = g.adj_bits[j - 1] & sm
        h = (near & -near).bit_length()
        a = extend_by_edge(g, a, (h, j))
        sm |= 1 << (j - 1)
    return a


def _weight_table(size: int, t: int) -> list[tuple[tuple[int, ...], int, bool, list[int]]]:
    """The weightings w of a support of `size` vertices in lexicographic order,
    each with its base-t code, whether it sums to 2t or more, and the codes of
    the w - e_p that stay on the support.  The weights are the steps below t
    of increasing partial sums up to the sum bound 3(t-1); both run in
    lexicographic order."""
    place = [t**p for p in range(size)]  # w as a number in base t
    table = []
    for sums in combinations(range(1, 3 * (t - 1) + 1), size):
        w = tuple(map(sub, sums, (0, *sums)))
        if max(w) < t:
            code = sum(map(mul, w, place))
            below = [code - b for x, b in zip(w, place) if x > 1]
            table.append((w, code, sums[-1] >= 2 * t, below))
    return table


def _support_vectors(g: SimpleGraph, t: int, masks: Iterable[int]) -> Iterator[ExponentVector]:
    """The exponent vectors of the t-saturating weighted graphs on the odd-cycle
    sets `masks` of g, in their order, each one's weights lexicographically.

    The paper's bounds make a search over g's `_odd_cycle_catalogue` of at
    most 3(t-1) vertices complete: weights below t, weight sum at most
    3(t-1), and every component of the support containing an odd cycle.  Its
    bound of 2t-1 on the length of those odd cycles needs no filter: a longer
    one carries t disjoint edges, so the all-ones weighting fails first and
    the prune the rest.

    Whether (S, w) is t-saturating depends on H = G[S] and t alone, so a
    support's weightings, from `_support_weightings`, are kept in
    `matching._CACHE.saturating` under (t, |S|, the edge bits of H relabelled
    0..|S|-1) and read back for any support with that key.
    """
    tables: dict[int, list] = {}  # size -> `_weight_table`, filled by `_support_weightings`
    for mask in masks:
        sup = tuple(iter_bits(mask))
        size, bits = len(sup), _edge_bits(g, sup)
        if (found := _CACHE.saturating.get((t, size, bits))) is None:
            weightings = _support_weightings(g, mask, bits, t, tables)
            found = _remember(_CACHE.saturating, (t, size, bits), tuple(weightings))
        for w in found:
            a = [0] * g.n
            for v, x in zip(sup, w):
                a[v - 1] = x
            yield tuple(a)


def _support_weightings(g: SimpleGraph, mask: int, bits: int, t: int, tables: dict) -> Iterator:
    """The t-saturating weightings of the support mask `mask` of g, with edge
    bits `bits`, each component of the support having an odd cycle, in the
    order of its size's `_weight_table`, kept in `tables` by size.

    nu is monotone in the weights, so a support of 2t or more vertices whose
    all-ones weighting has a greedy b-matching of size t has none, and needs
    no table.  Otherwise it builds no `WeightedGraph` and gives each w its
    cheapest exact test first:
    1. the prune: w fails if some w - e_p on the support already failed;
    2. the greedy: when w sums to 2t or more, a greedy b-matching over the
       support's edges, ordered once per support by the smaller degree of
       their ends, fails w if it reaches size t;
    3. the inequalities, which mostly answer from the `nu` cache;
    4. nu(w) < t by a blossom run, skipped when w sums to less than 2t.
    Saturating is the AND of the inequalities and nu(w) < t.  A w with nu >= t
    satisfies every inequality, so the greedy fails only weightings that step 4
    would fail, and the failures that the prune reads are the same whichever
    step finds them.
    """
    sup = list(iter_bits(mask))
    size = len(sup)
    order = _degree_order(size, bits)
    if size >= 2 * t and sum(_greedy_counts((1,) * size, order)) >= t:
        return
    if size not in tables:
        tables[size] = _weight_table(size, t)
    plans = list(_drop_plans(g, sup, (g.adj_bits[v - 1] & mask for v in sup)))
    failed: set[int] = set()  # the weights with nu >= t so far
    for w, code, heavy, below in tables[size]:
        if not failed.isdisjoint(below) or heavy and sum(_greedy_counts(w, order)) >= t:
            failed.add(code)
        elif _inequalities_hold(w, t, plans):
            if heavy and _nu_of_key((w, bits)) >= t:
                failed.add(code)
            else:
                yield w


def saturating_vectors(g: SimpleGraph, t: int) -> list[ExponentVector]:
    """All exponent vectors whose weighted graph is t-saturating, sorted: the
    search of `_support_vectors` over g's whole odd-cycle catalogue."""
    _check_t(t)
    if t < 2:
        raise ValueError("saturating graphs require t >= 2")
    catalogue = _odd_cycle_catalogue(g, g.full_mask, 3 * (t - 1))
    return sorted(_support_vectors(g, t, (m for m, _, _ in catalogue)))


def facets_delta(g: SimpleGraph, a: Sequence[int], t: int) -> list[frozenset[int]]:
    """Facets of the degree-a complex of I^t, for a signed exponent vector.

    For each G between G_a = {i : a_i < 0} and V, with F = V \\ G a cover,
    the localized membership question is whether x^a on core(F) lies in
    sat(I^s) \\ I^s for the edge ideal of the induced graph on core(F), at
    the shifted exponent s = t minus the weights sitting on F outside the
    core; negative or zero s means membership in the localized power and
    contributes no facet.  It is asked of g itself, at core(F): with a capped
    at s on core(F) and zero elsewhere, nu < s and the saturation inequality
    at each vertex of core(F), whose neighbourhood meets the support as it
    does in the induced graph.  No subgraph is built, and the facets are
    sorted as masks, in `_mask_order`."""
    _check_t(t)
    a = _integers(a)
    if len(a) != g.n:
        raise ValueError(f"exponent vector has length {len(a)}, expected {g.n}")
    if not g.edges:
        raise ValueError("the facet formula needs a nonzero edge ideal")
    ga_mask = mask_of(i + 1 for i, x in enumerate(a) if x < 0)
    free = g.full_mask & ~ga_mask
    facets = []
    sub = 0
    while True:  # all subsets of `free`; G = ga_mask | sub
        fmask = free & ~sub
        if _covers_edges(g, fmask):
            core = _core_mask(g, fmask)
            shed = fmask & ~core
            s = t - sum(a[v - 1] for v in iter_bits(shed))
            if s >= 1:
                h = WeightedGraph(g, [min(x, s) if core >> i & 1 else 0 for i, x in enumerate(a)])
                if nu(h) < s and _inequalities_hold_at(h, s, iter_bits(core)):
                    facets.append(sub)
        if sub == free:
            break
        sub = (sub - free) & free
    return [set_of(m) for m in sorted(facets, key=_mask_order)]
