"""Matching numbers of vertex-weighted graphs.

The weighted graph G_a of a monomial x^a is the ambient `SimpleGraph` with
the exponent vector a: the induced subgraph on the support of a (a bit mask),
vertex i weighted a_i.  It is a frozen dataclass over (graph, a), and
computes what every `nu` call reads, the support and its key (the weights and
the edge bits relabelled 0..k-1), once when it is built.
A matching is an edge multiset in which every vertex appears at most its
weight many times; nu is the maximum size of one.
The canonical algorithm blows each vertex up into weight-many clones and
runs Edmonds' maximum-cardinality matching on the resulting simple graph.
An exhaustive edge-multiset search (`nu_bruteforce`) is kept as an
independent cross-check, and `has_augmenting_walk` decides maximality
directly via the weighted version of Berge's theorem.
`_CACHE` holds the answers no graph owns, `nu` and the saturating catalogue;
a graph's memos live on the graph.  `graphs._remember` bounds each memo alone.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import index
from typing import Iterable, Sequence

from .graphs import SimpleGraph, _remember, mask_of, set_of


def _edge_bits(g: SimpleGraph, verts: Sequence[int]) -> int:
    """The edges of g among the increasing labels `verts`, relabelled 0..k-1:
    bit i*k + j for each edge between verts[i] and verts[j], i < j.  Each
    vertex walks its neighbours above it in the support; a neighbour's index
    j is the number of support vertices below it."""
    k, mask = len(verts), mask_of(verts)
    bits = 0
    for i, u in enumerate(verts):
        above = g.adj_bits[u - 1] & mask >> u << u  # labels u+1 and up
        row = i * k
        while above:
            low = above & -above
            above ^= low
            bits |= 1 << (row + (mask & (low - 1)).bit_count())
    return bits


def _key_edges(k: int, bits: int) -> list[tuple[int, int]]:
    """The edges (p, q), p < q, of the edge bits of a k-vertex key, in order."""
    return [(p, q) for p in range(k) for q in range(p + 1, k) if bits >> (p * k + q) & 1]


def _integers(a: Iterable) -> tuple[int, ...]:
    """`a` as a tuple of ints, each entry read through `operator.index`; a
    numpy array is read through `tolist`, so that its bools pass too."""
    try:
        return tuple(map(index, a.tolist() if hasattr(a, "tolist") else a))
    except TypeError:
        raise ValueError("exponents must be integers") from None


def _exponent_vector(a: Iterable, n: int) -> tuple[int, ...]:
    """`a` as a tuple of n non-negative ints, read by `_integers`; the reasons
    for a refusal are checked in that order: integers, length, sign."""
    a = _integers(a)
    if len(a) != n:
        raise ValueError(f"exponent vector has length {len(a)}, expected {n}")
    if a and min(a) < 0:
        raise ValueError("exponents must be non-negative")
    return a


@dataclass(frozen=True)
class WeightedGraph:
    """The weighted graph G_a: the ambient graph and an exponent vector a.

    Equal, hashed and shown as the pair (graph, a).  Building it stores `a`
    as a tuple and refuses one that is not n non-negative integers.  The
    views every `nu` call reads, the support's vertices and weights, its mask
    and the key, are computed once when it is built; `edges`,
    `weight_map`, `adjacency` and `total_weight` are computed on each access.
    """

    graph: SimpleGraph
    a: tuple[int, ...]
    vertices: tuple[int, ...] = field(init=False, repr=False, compare=False)
    weights: tuple[int, ...] = field(init=False, repr=False, compare=False)
    mask: int = field(init=False, repr=False, compare=False)  # the support of a
    # the weights and the edge bits, the vertices relabelled 0..k-1
    cache_key: tuple[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        a = _exponent_vector(self.a, self.graph.n)
        vertices, weights, mask = [], [], 0
        for i, x in enumerate(a):
            if x:
                vertices.append(i + 1)
                weights.append(x)
                mask |= 1 << i
        vertices, weights = tuple(vertices), tuple(weights)
        key = (weights, _edge_bits(self.graph, vertices))
        # written to the instance dict: the frozen dataclass refuses assignment
        self.__dict__.update(a=a, vertices=vertices, weights=weights, mask=mask, cache_key=key)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        m = self.mask
        return frozenset((u, v) for u, v in self.graph.edges if m >> (u - 1) & m >> (v - 1) & 1)

    @property
    def weight_map(self) -> dict[int, int]:
        return dict(zip(self.vertices, self.weights))

    @property
    def adjacency(self) -> dict[int, frozenset[int]]:
        return {v: set_of(self.graph.adj_bits[v - 1] & self.mask) for v in self.vertices}

    @property
    def total_weight(self) -> int:
        return sum(self.a)


@dataclass(frozen=True)
class Matching:
    """Edge multiset with per-vertex usage at most the vertex weight."""

    edges: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]]) -> "Matching":
        return cls(tuple(sorted((u, v) if u < v else (v, u) for u, v in pairs)))

    def __len__(self) -> int:
        return len(self.edges)

    @cached_property
    def usage(self) -> dict[int, int]:
        c: Counter[int] = Counter()
        for u, v in self.edges:
            c[u] += 1
            c[v] += 1
        return dict(c)


def validate_matching(h: WeightedGraph, m: Matching) -> None:
    edges, weight_map = h.edges, h.weight_map
    for e in m.edges:
        if e not in edges:
            raise ValueError(f"matching uses non-edge {e}")
    for v, c in m.usage.items():
        if c > weight_map[v]:
            raise ValueError(f"vertex {v} used {c} times, weight {weight_map[v]}")


# ---------------------------------------------------------------------------
# Edmonds' blossom algorithm on the clone blow-up


def _max_matching_simple(n: int, adj: list[list[int]]) -> list[int]:
    """Maximum-cardinality matching of a simple graph; mate array, -1 if free."""
    match = [-1] * n
    for v in range(n):  # greedy seed
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    def mark_path(base: list[int], p: list[int], blossom: list[bool], v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def lca(base: list[int], p: list[int], a: int, b: int) -> int:
        used = [False] * n
        x = a
        while True:
            x = base[x]
            used[x] = True
            if match[x] == -1:
                break
            x = p[match[x]]
        y = b
        while True:
            y = base[y]
            if used[y]:
                return y
            y = p[match[y]]

    # An augmenting path joins two free vertices, and never ends at a root
    # that failed: a vertex with no augmenting path keeps none after later
    # augmentations.  So the roots stop when fewer than two untried vertices
    # are free.
    untried = match.count(-1)
    for root in range(n):
        if match[root] != -1:
            continue
        if untried < 2:
            break
        untried -= 1
        p = [-1] * n
        base = list(range(n))
        used = [False] * n
        used[root] = True
        q = deque([root])
        augmented = False
        while q and not augmented:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(base, p, v, to)
                    blossom = [False] * n
                    mark_path(base, p, blossom, v, curbase, to)
                    mark_path(base, p, blossom, to, curbase, v)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        untried -= 1  # `to`, a free vertex above the root
                        augmented = True
                        break
                    used[match[to]] = True
                    q.append(match[to])
    return match


def _blowup(weights: tuple[int, ...], bits: int) -> tuple[int, list[list[int]], list[int]]:
    """The clone blow-up of the key (weights, bits): the clone count, the
    adjacency lists, and the vertex index of each clone.  A clone lists the
    clones of its vertex's neighbours, by vertex index, then clone."""
    k = len(weights)
    first = [0, *accumulate(weights)]  # the clones of vertex p: first[p] .. first[p + 1] - 1
    nbrs: list[list[int]] = [[] for _ in weights]
    for p, q in _key_edges(k, bits):
        nbrs[p].extend(range(first[q], first[q + 1]))
        nbrs[q].extend(range(first[p], first[p + 1]))
    owner = [p for p, w in enumerate(weights) for _ in range(w)]
    return len(owner), [nbrs[p] for p in owner], owner


def maximum_matching(h: WeightedGraph) -> Matching:
    """A maximum matching of h, in canonical (sorted multiset) order."""
    size, adj, owner = _blowup(*h.cache_key)
    label = [h.vertices[p] for p in owner]
    mate = _max_matching_simple(size, adj)
    return Matching.of((label[i], label[m]) for i, m in enumerate(mate) if m > i)


def _degree_order(k: int, bits: int) -> list[tuple[int, int]]:
    """The edges (p, q), p < q, of the edge bits of a k-vertex key, ordered by
    the smaller degree of their ends, then the larger, then by (p, q)."""
    edges = _key_edges(k, bits)
    deg = [0] * k
    for p, q in edges:
        deg[p] += 1
        deg[q] += 1
    return sorted(edges, key=lambda e: sorted((deg[e[0]], deg[e[1]])))


def _greedy_counts(weights: Sequence[int], edges: Sequence[tuple[int, int]]) -> list[int]:
    """A greedy b-matching: each edge (p, q) in turn takes as many copies as
    both of its ends have weight left.  Its size is a lower bound on nu."""
    left = list(weights)
    counts = []
    for p, q in edges:
        c = left[p] if left[p] < left[q] else left[q]
        left[p] -= c
        left[q] -= c
        counts.append(c)
    return counts


class _Cache:
    """The process's exact answers that depend on no graph object, in two
    stores, each bounded by `graphs._remember`: `nu` by `cache_key`; and
    `saturating`, a support's t-saturating weightings by (t, its size, its
    relabelled edge bits) (see `saturation._support_vectors`).  `clear`
    empties both in place, so a caller's reference to a store stays good."""

    def __init__(self) -> None:
        self.nu: dict[tuple[tuple[int, ...], int], int] = {}
        self.saturating: dict[tuple[int, int, int], tuple] = {}

    def clear(self) -> None:
        self.nu.clear()
        self.saturating.clear()


_CACHE = _Cache()


def _nu_of_key(key: tuple[tuple[int, ...], int]) -> int:
    """nu of the weighted graph whose `cache_key` is `key`."""
    val = _CACHE.nu.get(key)
    if val is None:
        size, adj, _ = _blowup(*key)
        mate = _max_matching_simple(size, adj)
        val = _remember(_CACHE.nu, key, (size - mate.count(-1)) // 2)
    return val


def nu(h: WeightedGraph) -> int:
    """The matching number nu(H)."""
    return _nu_of_key(h.cache_key)


def nu_bruteforce(h: WeightedGraph, cutoff: int = 14) -> int:
    """Exhaustive maximum over edge multisets respecting vertex capacities.

    Independent of the blow-up route; refuses inputs with total weight
    above `cutoff`.
    """
    if h.total_weight > cutoff:
        raise ValueError(
            f"total weight {h.total_weight} exceeds brute-force cutoff {cutoff}"
        )
    edges = sorted(h.edges)
    verts = h.vertices
    index = {v: i for i, v in enumerate(verts)}
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def best(i: int, caps: tuple[int, ...]) -> int:
        if i == len(edges):
            return 0
        key = (i, caps)
        hit = memo.get(key)
        if hit is not None:
            return hit
        res = best(i + 1, caps)
        u, v = edges[i]
        ui, vi = index[u], index[v]
        top = min(caps[ui], caps[vi])
        for c in range(1, top + 1):
            nxt = list(caps)
            nxt[ui] -= c
            nxt[vi] -= c
            res = max(res, c + best(i + 1, tuple(nxt)))
        memo[key] = res
        return res

    return best(0, h.weights)


def has_augmenting_walk(h: WeightedGraph, m: Matching) -> bool:
    """Weighted Berge test: does m admit an augmenting walk?

    A walk qualifies when its first and last vertices are unmatched
    (usage below weight), no vertex appears in the walk more often than
    its weight, and it has oddly many edges with the even-position edges
    drawn from m (as a multiset).  A closed walk returns to its start, so
    there the start vertex needs two spare capacity units: with only one,
    swapping the walk's edges would overload it and the walk does not
    certify a larger matching.
    """
    validate_matching(h, m)
    verts = h.vertices
    index = {v: i for i, v in enumerate(verts)}
    weights, weight_map = h.weights, h.weight_map
    used0 = m.usage
    unmatched = [v for v in verts if used0.get(v, 0) < weight_map[v]]
    if not unmatched:
        return False
    adj = h.adjacency
    seen: set[tuple] = set()
    start = -1

    def dfs(v: int, parity: int, usage: tuple[int, ...], slots: tuple[tuple[int, int], ...]) -> bool:
        # parity = number of edges taken so far, mod 2
        if parity == 1:
            spare = weight_map[v] - used0.get(v, 0)
            if spare >= (2 if v == start else 1):
                return True
        state = (v, parity, usage, slots)
        if state in seen:
            return False
        seen.add(state)
        if parity == 0:  # next edge is odd-positioned: any edge of h
            for u in adj[v]:
                ui = index[u]
                if usage[ui] + 1 <= weights[ui]:
                    nxt = list(usage)
                    nxt[ui] += 1
                    if dfs(u, 1, tuple(nxt), slots):
                        return True
        else:  # next edge is even-positioned: consume a matched slot at v
            tried: set[tuple[int, int]] = set()
            for i, e in enumerate(slots):
                if v not in e or e in tried:
                    continue
                tried.add(e)
                u = e[0] if e[1] == v else e[1]
                ui = index[u]
                if usage[ui] + 1 <= weights[ui]:
                    nxt = list(usage)
                    nxt[ui] += 1
                    if dfs(u, 0, tuple(nxt), slots[:i] + slots[i + 1:]):
                        return True
        return False

    for v0 in unmatched:
        start = v0
        seen.clear()
        usage0 = [0] * len(verts)
        usage0[index[v0]] = 1
        if dfs(v0, 0, tuple(usage0), m.edges):
            return True
    return False
