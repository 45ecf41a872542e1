"""Simple graphs on {1,...,n} and their cover/neighbourhood/cycle combinatorics.

Vertex subsets are frozensets at the API level; internally they are bit
masks (bit k-1 <-> vertex k), which caps the vertex count at 64.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

MAX_VERTICES = 64

VertexSet = frozenset[int]


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def set_of(mask: int) -> VertexSet:
    return frozenset(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """Vertices of a mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on the vertex set {1, ..., n}."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {self.n}")
        for u, v in self.edges:
            if not 1 <= u < v <= self.n:
                raise ValueError(f"bad edge ({u},{v}) for a graph on 1..{self.n}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        """Build a graph, normalising edges to (min,max) order and deduplicating."""
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        return cls(n, frozenset(norm))

    @cached_property
    def vertices(self) -> VertexSet:
        return frozenset(range(1, self.n + 1))

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def adj(self) -> dict[int, VertexSet]:
        nbrs: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    @cached_property
    def adj_bits(self) -> tuple[int, ...]:
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u - 1] |= 1 << (v - 1)
            bits[v - 1] |= 1 << (u - 1)
        return tuple(bits)

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple((1 << (u - 1)) | (1 << (v - 1)) for u, v in sorted(self.edges))

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def open_neighborhood(g: SimpleGraph, u: Iterable[int]) -> VertexSet:
    """N(U): vertices adjacent to some vertex of U (may intersect U)."""
    m = 0
    for v in u:
        m |= g.adj_bits[v - 1]
    return set_of(m)


def _closed_mask(g: SimpleGraph, m: int) -> int:
    for v in iter_bits(m):
        m |= g.adj_bits[v - 1]
    return m


def closed_neighborhood(g: SimpleGraph, u: Iterable[int]) -> VertexSet:
    """N[U] = U together with N(U)."""
    return set_of(_closed_mask(g, mask_of(u)))


def induced_subgraph(g: SimpleGraph, u: Iterable[int]) -> tuple[SimpleGraph, dict[int, int]]:
    """Induced subgraph on u, relabelled to 1..|u| in sorted order.

    Returns the subgraph and the old->new vertex mapping.
    """
    order = sorted(set(u))
    relabel = {old: i + 1 for i, old in enumerate(order)}
    keep = set(order)
    edges = frozenset(
        (relabel[a], relabel[b]) for a, b in g.edges if a in keep and b in keep
    )
    return SimpleGraph(len(order), edges), relabel


def _covers_edges(g: SimpleGraph, m: int) -> bool:
    return all(em & m for em in g.edge_masks)


def _core_mask(g: SimpleGraph, m: int) -> int:
    """Vertices of m with no neighbour outside m."""
    outside = g.full_mask & ~m
    return mask_of(v for v in iter_bits(m) if not g.adj_bits[v - 1] & outside)


def is_cover(g: SimpleGraph, s: Iterable[int]) -> bool:
    """Does s meet every edge of g?"""
    return _covers_edges(g, mask_of(s))


def is_minimal_over(g: SimpleGraph, f: Iterable[int], s: Iterable[int]) -> bool:
    """Is f minimal among the covers of g containing s?"""
    fm, sm = mask_of(f), mask_of(s)
    if sm & ~fm or not _covers_edges(g, fm):
        return False
    return all(not _covers_edges(g, fm & ~(1 << (v - 1))) for v in iter_bits(fm & ~sm))


def is_minimal_cover(g: SimpleGraph, s: Iterable[int]) -> bool:
    """Cover such that no proper subset covers."""
    return is_minimal_over(g, s, ())


def core_of_cover(g: SimpleGraph, f: Iterable[int]) -> VertexSet:
    """core(F): vertices of the cover F with no neighbour outside F."""
    m = mask_of(f)
    if not _covers_edges(g, m):
        raise ValueError("core_of_cover requires a vertex cover")
    return set_of(_core_mask(g, m))


def maximal_independent_sets(g: SimpleGraph, region: int | None = None) -> list[int]:
    """Maximal independent sets of the induced subgraph on `region`, as masks.

    Bron-Kerbosch with pivoting, run on the complement adjacency.
    """
    if region is None:
        region = g.full_mask
    comp = [0] * g.n
    for v in iter_bits(region):
        comp[v - 1] = ~g.adj_bits[v - 1] & region & ~(1 << (v - 1))
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pool = p | x
        pivot = max(iter_bits(pool), key=lambda v: (p & comp[v - 1]).bit_count())
        cand = p & ~comp[pivot - 1]
        for v in iter_bits(cand):
            bv = 1 << (v - 1)
            nb = comp[v - 1]
            expand(r | bv, p & nb, x & nb)
            p &= ~bv
            x |= bv

    expand(0, region, 0)
    return out


def _sorted_sets(masks: Iterable[int]) -> list[VertexSet]:
    sets = {set_of(m) for m in masks}
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def minimal_covers(g: SimpleGraph) -> list[VertexSet]:
    """All minimal vertex covers (complements of maximal independent sets)."""
    out = _sorted_sets(g.full_mask ^ m for m in maximal_independent_sets(g))
    if not all(is_minimal_cover(g, c) for c in out):
        raise RuntimeError("Bron-Kerbosch produced a cover that is not minimal")
    return out


def covers_minimal_over(g: SimpleGraph, s: Iterable[int]) -> list[VertexSet]:
    """Covers F containing s that are minimal among covers containing s.

    Every edge avoiding s lies in the induced subgraph on V \\ s, so these are
    exactly s union a minimal cover of that subgraph.
    """
    sm = mask_of(s)
    rest = g.full_mask & ~sm
    return _sorted_sets(sm | (rest ^ m) for m in maximal_independent_sets(g, rest))


def components_masked(g: SimpleGraph, region: int) -> list[int]:
    """Connected components of the induced subgraph on `region`, as masks."""
    comps = []
    todo = region
    while todo:
        start = todo & -todo
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= g.adj_bits[v - 1] & region
            frontier = nxt & ~seen
            seen |= frontier
        comps.append(seen)
        todo &= ~seen
    return comps


def connected_components(g: SimpleGraph) -> list[VertexSet]:
    """Vertex sets of the connected components, ordered by least vertex."""
    return [set_of(m) for m in components_masked(g, g.full_mask)]


def is_dominating(g: SimpleGraph, u: Iterable[int]) -> bool:
    """Is every vertex outside u adjacent to a vertex of u?"""
    return _closed_mask(g, mask_of(u)) == g.full_mask


def two_coloring_masked(g: SimpleGraph, region: int) -> dict[int, int] | None:
    """Proper 2-coloring of the induced subgraph on `region`, or None."""
    color: dict[int, int] = {}
    for comp in components_masked(g, region):
        start = (comp & -comp).bit_length()
        color[start] = 0
        q = deque([start])
        while q:
            v = q.popleft()
            for w in iter_bits(g.adj_bits[v - 1] & region):
                if w not in color:
                    color[w] = 1 - color[v]
                    q.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def is_bipartite(g: SimpleGraph) -> bool:
    return two_coloring_masked(g, g.full_mask) is not None


def shortest_odd_cycle_masked(g: SimpleGraph, region: int) -> int | None:
    """Length of a shortest odd cycle within `region`, or None if bipartite.

    Breadth-first layerings from every vertex; an edge joining two vertices of
    equal depth closes a shortest odd closed walk, which at the global minimum
    is a simple cycle.  The witness cycle is reconstructed and checked.
    """
    best: tuple[int, int, int, int] | None = None  # (length, source, u, v)
    for s in iter_bits(region):
        dist = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            for w in iter_bits(g.adj_bits[v - 1] & region):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
        for u, v in g.sorted_edges:
            if u in dist and v in dist and dist[u] == dist[v]:
                cand = dist[u] + dist[v] + 1
                if best is None or cand < best[0]:
                    best = (cand, s, u, v)
    if best is None:
        return None
    length, s, u, v = best
    _validate_odd_cycle(g, region, s, u, v, length)
    return length


def _validate_odd_cycle(g: SimpleGraph, region: int, s: int, u: int, v: int, length: int) -> None:
    parent: dict[int, int | None] = {s: None}
    q = deque([s])
    while q:
        x = q.popleft()
        for w in iter_bits(g.adj_bits[x - 1] & region):
            if w not in parent:
                parent[w] = x
                q.append(w)

    def path_to_root(x: int) -> list[int]:
        out = [x]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])  # type: ignore[arg-type]
        return out

    pu = path_to_root(u)
    pv = path_to_root(v)
    cycle = pu[::-1] + pv[:-1]  # s .. u, then v .. (child of s)
    if (
        len(cycle) != length
        or len(set(cycle)) != length
        or length % 2 == 0
        or not all(g.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    ):
        raise RuntimeError(f"bad odd-cycle witness {cycle} for length {length}")


def shortest_odd_cycle(g: SimpleGraph) -> int | None:
    """Length of a shortest odd cycle of g; None exactly when g is bipartite."""
    return shortest_odd_cycle_masked(g, g.full_mask)


def triangles(g: SimpleGraph) -> list[tuple[int, int, int]]:
    """All triangles, as increasing vertex triples."""
    out = []
    for u, v in g.sorted_edges:
        common = g.adj_bits[u - 1] & g.adj_bits[v - 1]
        for w in iter_bits(common):
            if w > v:
                out.append((u, v, w))
    return out


def parse_graph_text(text: str) -> SimpleGraph:
    """Parse the edge-list format: first line ``n m``, then m lines ``u v``."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("line 1: empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("line 1: expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError("line 1: expected two integers 'n m'") from None
    edges = []
    for i in range(m):
        if i + 1 >= len(lines):
            raise ValueError(f"line {i + 2}: missing edge line")
        parts = lines[i + 1].split()
        if len(parts) != 2:
            raise ValueError(f"line {i + 2}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {i + 2}: expected two integers 'u v'") from None
        if not 1 <= u < v <= n:
            raise ValueError(f"line {i + 2}: edge ({u},{v}) violates 1 <= u < v <= n")
        edges.append((u, v))
    try:
        return SimpleGraph.from_edges(n, edges)
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None


def graph_to_text(g: SimpleGraph) -> str:
    """Serialise in the edge-list format (single spaces, LF endings)."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges)
    return "\n".join(lines) + "\n"
