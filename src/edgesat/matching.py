"""Matching numbers of vertex-weighted graphs.

The weighted graph G_a of a monomial x^a is the ambient `SimpleGraph` with
the exponent vector a: the induced subgraph on the support of a (a bit mask),
vertex i weighted a_i; `minus` and `components` set entries of a to zero.
A matching is an edge multiset in which every vertex appears at most its
weight many times; nu is the maximum size of one.
The canonical algorithm blows each vertex up into weight-many clones and
runs Edmonds' maximum-cardinality matching on the resulting simple graph.
An exhaustive edge-multiset search (`nu_bruteforce`) is kept as an
independent cross-check, and `has_augmenting_walk` decides maximality
directly via the weighted version of Berge's theorem.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .graphs import SimpleGraph, components_masked, mask_of, set_of


@dataclass(frozen=True)
class WeightedGraph:
    """The weighted graph G_a: the ambient graph and an exponent vector a."""

    graph: SimpleGraph
    a: tuple[int, ...]

    @classmethod
    def build(cls, weights: Mapping[int, int], edges: Iterable[tuple[int, int]]) -> "WeightedGraph":
        """The weighted graph on the vertices of `weights`, labelled in 1..64,
        with the given edges between them."""
        if any(v < 1 or w < 1 for v, w in weights.items()):
            raise ValueError("weights must be positive and vertex labels at least 1")
        g = SimpleGraph.from_edges(max(weights, default=0), edges)
        h = cls(g, tuple(weights.get(v, 0) for v in range(1, g.n + 1)))
        if h.edges != g.edges:
            raise ValueError("every edge must join two weighted vertices")
        return h

    @classmethod
    def from_exponents(cls, g: SimpleGraph, a: Iterable[int]) -> "WeightedGraph":
        """The weighted graph of a monomial: induced subgraph on the support
        of the exponent vector, vertex i carrying weight a_i."""
        a = tuple(a)
        if len(a) != g.n:
            raise ValueError(f"exponent vector has length {len(a)}, expected {g.n}")
        if any(x < 0 for x in a):
            raise ValueError("exponents must be non-negative")
        return cls(g, a)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, x in enumerate(self.a) if x)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        return tuple(x for x in self.a if x)

    @cached_property
    def mask(self) -> int:
        """The support of a, as a vertex mask."""
        return mask_of(self.vertices)

    def _adjacent_pairs(self) -> Iterator[tuple[int, int]]:
        """Index pairs i < j of adjacent vertices, in the order of the sorted edges."""
        verts, adj = self.vertices, self.graph.adj_bits
        for i, u in enumerate(verts):
            nbrs = adj[u - 1]
            for j in range(i + 1, len(verts)):
                if nbrs >> (verts[j] - 1) & 1:
                    yield i, j

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        verts = self.vertices
        return frozenset((verts[i], verts[j]) for i, j in self._adjacent_pairs())

    @cached_property
    def weight_map(self) -> dict[int, int]:
        return dict(zip(self.vertices, self.weights))

    @cached_property
    def adjacency(self) -> dict[int, frozenset[int]]:
        return {v: set_of(self.graph.adj_bits[v - 1] & self.mask) for v in self.vertices}

    @cached_property
    def total_weight(self) -> int:
        return sum(self.a)

    @cached_property
    def cache_key(self) -> tuple:
        """Canonical key after relabelling the vertices to 0..k-1."""
        k = len(self.vertices)
        bits = 0
        for i, j in self._adjacent_pairs():
            bits |= 1 << (i * k + j)
        return (self.weights, bits)

    def weighted_degree(self, v: int) -> int:
        """Sum of the weights of the neighbours of v."""
        return sum(self.weight_map[u] for u in self.adjacency[v])

    def minus_mask(self, drop: int) -> "WeightedGraph":
        """Induced weighted subgraph on the support outside the mask `drop`."""
        a = tuple(0 if drop >> i & 1 else x for i, x in enumerate(self.a))
        return WeightedGraph(self.graph, a)

    def minus(self, drop: Iterable[int]) -> "WeightedGraph":
        """Induced weighted subgraph on the vertices not in `drop`."""
        return self.minus_mask(mask_of(drop))

    def components(self) -> list["WeightedGraph"]:
        """The connected components, ordered by least vertex."""
        return [self.minus_mask(self.mask & ~c) for c in components_masked(self.graph, self.mask)]


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
    for e in m.edges:
        if e not in h.edges:
            raise ValueError(f"matching uses non-edge {e}")
    for v, c in m.usage.items():
        if c > h.weight_map[v]:
            raise ValueError(f"vertex {v} used {c} times, weight {h.weight_map[v]}")


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

    for root in range(n):
        if match[root] != -1:
            continue
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
                        augmented = True
                        break
                    used[match[to]] = True
                    q.append(match[to])
    return match


def _blowup(h: WeightedGraph) -> tuple[int, list[list[int]], list[int]]:
    clone_of: list[int] = []
    clones: list[range] = []  # the clone indices of each vertex, by vertex index
    for v, w in zip(h.vertices, h.weights):
        clones.append(range(len(clone_of), len(clone_of) + w))
        clone_of.extend([v] * w)
    adj: list[list[int]] = [[] for _ in clone_of]
    for p, q in h._adjacent_pairs():
        for i in clones[p]:
            for j in clones[q]:
                adj[i].append(j)
                adj[j].append(i)
    return len(clone_of), adj, clone_of


def maximum_matching(h: WeightedGraph) -> Matching:
    """A maximum matching of h, in canonical (sorted multiset) order."""
    size, adj, clone_of = _blowup(h)
    mate = _max_matching_simple(size, adj)
    pairs = [
        (clone_of[i], clone_of[mate[i]]) for i in range(size) if mate[i] > i
    ]
    return Matching.of(pairs)


_NU_CACHE: dict[tuple, int] = {}


def nu(h: WeightedGraph) -> int:
    """The matching number nu(H)."""
    key = h.cache_key
    val = _NU_CACHE.get(key)
    if val is None:
        val = len(maximum_matching(h))
        _NU_CACHE[key] = val
    return val


def nu_minus(h: WeightedGraph, drop: Iterable[int]) -> int:
    """nu(H - N): matching number after removing a vertex set."""
    return nu(h.minus(drop))


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
    weights = h.weights
    used0 = m.usage
    unmatched = [v for v in verts if used0.get(v, 0) < h.weight_map[v]]
    if not unmatched:
        return False
    adj = h.adjacency
    seen: set[tuple] = set()
    start = -1

    def dfs(v: int, parity: int, usage: tuple[int, ...], slots: tuple[tuple[int, int], ...]) -> bool:
        # parity = number of edges taken so far, mod 2
        if parity == 1:
            spare = h.weight_map[v] - used0.get(v, 0)
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
