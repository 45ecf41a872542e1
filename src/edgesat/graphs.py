"""Simple graphs on {1,...,n} and their cover/neighbourhood/cycle combinatorics.

Vertex subsets are frozensets at the API level; internally they are bit
masks (bit k-1 <-> vertex k), which caps the vertex count at 64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

MAX_VERTICES = 64
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))
_CACHE_LIMIT = 1 << 18  # entries per memo, well above any benchmark run

VertexSet = frozenset[int]


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def set_of(mask: int) -> VertexSet:
    return frozenset(iter_bits(mask))


def _remember(memo: dict, key, value):
    """Store `value` under `key` in `memo` and return it: the one bound of every
    memo.  A memo that holds `_CACHE_LIMIT` entries empties itself first, in
    place, so a caller's reference to it stays good."""
    if len(memo) >= _CACHE_LIMIT:
        memo.clear()
    memo[key] = value
    return value


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
    def adj_bits(self) -> tuple[int, ...]:
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u - 1] |= 1 << (v - 1)
            bits[v - 1] |= 1 << (u - 1)
        return tuple(bits)

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple((1 << (u - 1)) | (1 << (v - 1)) for u, v in self.sorted_edges)

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def _cover_catalogue(self) -> dict[int, tuple[int, ...]]:
        """The memo of `_covers_over`: vertex mask S -> the covers minimal over S."""
        return {}

    @cached_property
    def _odd_cycle_memo(self) -> dict[tuple[int, int], tuple[tuple, ...]]:
        """The memo of `_odd_cycle_catalogue`: (region, size cap) -> its sets."""
        return {}

    @cached_property
    def _support_memo(self) -> dict[int, list]:
        """The memo of `saturation._in_power`: support mask -> its entry."""
        return {}

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def _vertex_mask(g: SimpleGraph, vertices: Iterable[int]) -> int:
    """The mask of a set of vertices of g, refusing a label outside 1..n."""
    m = 0
    for v in vertices:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} is not in 1..{g.n}")
        m |= 1 << (v - 1)
    return m


def _nbrs(g: SimpleGraph, m: int) -> int:
    """N(m) as a mask: the OR of the adjacency bits of the vertices of m."""
    out = 0
    for v in iter_bits(m):
        out |= g.adj_bits[v - 1]
    return out


def _closed_mask(g: SimpleGraph, m: int) -> int:
    return m | _nbrs(g, m)


def closed_neighborhood(g: SimpleGraph, u: Iterable[int]) -> VertexSet:
    """N[U] = U together with N(U)."""
    return set_of(_closed_mask(g, _vertex_mask(g, u)))


def _covers_edges(g: SimpleGraph, m: int) -> bool:
    return all(em & m for em in g.edge_masks)


def _core_mask(g: SimpleGraph, m: int) -> int:
    """Vertices of m with no neighbour outside m."""
    return m & ~_nbrs(g, g.full_mask & ~m)


def is_cover(g: SimpleGraph, s: Iterable[int]) -> bool:
    """Does s meet every edge of g?"""
    return _covers_edges(g, _vertex_mask(g, s))


def is_minimal_over(g: SimpleGraph, f: Iterable[int], s: Iterable[int]) -> bool:
    """Is f minimal among the covers of g containing s?  Exactly when f is such
    a cover and core(f), the vertices that could leave it, lies in s."""
    fm, sm = _vertex_mask(g, f), _vertex_mask(g, s)
    return not sm & ~fm and _covers_edges(g, fm) and not _core_mask(g, fm) & ~sm


def is_minimal_cover(g: SimpleGraph, s: Iterable[int]) -> bool:
    """Cover such that no proper subset covers."""
    return is_minimal_over(g, s, ())


def core_of_cover(g: SimpleGraph, f: Iterable[int]) -> VertexSet:
    """core(F): vertices of the cover F with no neighbour outside F."""
    m = _vertex_mask(g, f)
    if not _covers_edges(g, m):
        raise ValueError("core_of_cover requires a vertex cover")
    return set_of(_core_mask(g, m))


def _maximal_independent_sets(g: SimpleGraph, region: int) -> list[int]:
    """Maximal independent sets of the induced subgraph on `region`, as masks.

    Bron-Kerbosch with pivoting, run on the complement adjacency.
    """
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


def _mask_order(m: int) -> int:
    """Sort key of vertex masks, the library's one order of vertex sets: by
    size, then lexicographically.  Of two sets of one size, the one holding
    the least vertex of their symmetric difference comes first, so the key is
    the size above the bit-reversed mask (reversed a byte at a time, through
    a table), negated."""
    rev = int.from_bytes(m.to_bytes(8, "little").translate(_REVERSED_BYTES), "big")
    return (m.bit_count() << MAX_VERTICES) - rev


def _covers_over(g: SimpleGraph, s: int) -> tuple[int, ...]:
    """The covers minimal over the vertex mask s (s = 0: the minimal covers),
    as masks in `_mask_order`, memoised on g: s with rest \\ I for the maximal
    independent sets I of rest = V \\ s, each checked to have N(I) meet rest
    in exactly rest \\ I."""
    memo = g._cover_catalogue
    if (found := memo.get(s)) is None:
        rest = g.full_mask & ~s
        sets = _maximal_independent_sets(g, rest)
        if any(_nbrs(g, i) & rest != rest & ~i for i in sets):
            raise RuntimeError("Bron-Kerbosch produced a cover that is not minimal")
        found = _remember(memo, s, tuple(sorted((s | rest & ~i for i in sets), key=_mask_order)))
    return found


def minimal_covers(g: SimpleGraph) -> list[VertexSet]:
    """All minimal vertex covers, in `_mask_order`."""
    return [set_of(m) for m in _covers_over(g, 0)]


def covers_minimal_over(g: SimpleGraph, s: Iterable[int]) -> list[VertexSet]:
    """The covers minimal among those containing s, in `_mask_order`."""
    return [set_of(m) for m in _covers_over(g, _vertex_mask(g, s))]


def _layers(g: SimpleGraph, region: int, start: int) -> Iterator[tuple[int, int]]:
    """Breadth-first layers of `region` from the mask `start`, each with its
    neighbourhood N(layer).

    Every edge of the component joins a layer to itself or to the next one,
    so the component is bipartite exactly when no layer meets its own
    neighbourhood; the first that does, at depth d, closes an odd walk of
    length 2d+1.
    """
    layer = seen = start
    while layer:
        nbrs = _nbrs(g, layer)
        yield layer, nbrs
        layer = nbrs & region & ~seen
        seen |= layer


def components_masked(g: SimpleGraph, region: int) -> list[int]:
    """Connected components of the induced subgraph on `region`, as masks,
    ordered by least vertex."""
    comps = []
    while region:
        comp = 0
        for layer, _ in _layers(g, region, region & -region):
            comp |= layer
        comps.append(comp)
        region &= ~comp
    return comps


def _odd_cycle_sets(g: SimpleGraph, region: int, top: int) -> Iterator[list[tuple]]:
    """The vertex sets U of `region`, with at most `top` vertices, whose
    induced components each contain an odd cycle: one list for each size
    from 3 up, unordered, of (U, N(U), the components of U by least vertex).
    The engines read it through `_odd_cycle_catalogue`, memoised per graph.

    A shortest odd cycle of a connected U is chordless, and a vertex of U
    farthest from it can leave U with U still connected and odd.  So the
    connected U of size k + 1 are the chordless odd cycles, found by an
    induced-path search from their least vertex, and the connected U of
    size k with one vertex of N(U) added.  A disconnected U is built once:
    its component C holding the least vertex, with a set walked afresh in
    the region above that vertex and outside N[C].
    """
    adj = g.adj_bits
    top = min(top, region.bit_count())
    grown: dict[int, dict[int, int]] = {}  # size -> {connected U: N(U)}
    for s in iter_bits(region):  # each chordless odd cycle once: least vertex s, p1 < last
        sb = 1 << (s - 1)
        above = region & -(sb << 1)
        for p1 in iter_bits(adj[s - 1] & above):
            path = sb | 1 << (p1 - 1)
            stack = [(p1, path, path)]  # (last vertex, path, path and N(inner vertices))
            while stack:
                last, path, blocked = stack.pop()
                k = path.bit_count() + 1
                for x in iter_bits(adj[last - 1] & above & ~blocked):
                    xb = 1 << (x - 1)
                    if adj[x - 1] & sb:
                        if k & 1 and x > p1:
                            grown.setdefault(k, {})[path | xb] = _nbrs(g, path | xb)
                    elif k < top:
                        stack.append((x, path | xb, blocked | adj[last - 1] | xb))
    later: dict[int, list] = {}  # size -> [disconnected (U, N(U), components)]
    for k in range(3, top + 1):
        level = grown.setdefault(k, {})
        for m, nb in grown.pop(k - 1, {}).items():
            out = nb & region & ~m
            while out:
                low = out & -out
                out ^= low
                if m | low not in level:
                    level[m | low] = nb | adj[low.bit_length() - 1]
        for m, nb in level.items() if k + 3 <= top else ():
            rest = region & -(m & -m) & ~(m | nb)
            for sets in _odd_cycle_sets(g, rest, top - k) if rest.bit_count() > 2 else ():
                for r, rn, comps in sets:
                    later.setdefault(k + r.bit_count(), []).append((m | r, nb | rn, (m, *comps)))
        yield [(m, nb, (m,)) for m, nb in level.items()] + later.pop(k, [])


def _odd_cycle_catalogue(g: SimpleGraph, region: int, top: int) -> tuple[tuple, ...]:
    """The (U, N(U), components) of one `_odd_cycle_sets` run, sorted once by
    `_mask_order` of U, memoised on g under region and min(top, |region|)."""
    key = (region, min(top, region.bit_count()))
    memo = g._odd_cycle_memo
    if (found := memo.get(key)) is None:
        sets = (entry for level in _odd_cycle_sets(g, *key) for entry in level)
        found = _remember(memo, key, tuple(sorted(sets, key=lambda entry: _mask_order(entry[0]))))
    return found


def shortest_odd_cycle_masked(g: SimpleGraph, region: int) -> int | None:
    """Length of a shortest odd cycle within `region`, or None if bipartite.

    From each root, the first layer meeting its own neighbourhood, at depth d,
    closes an odd walk of length 2d+1; the least such over all roots is a
    simple cycle.  The witness is rebuilt from the layers of that root: from
    each end of an edge inside the last layer, step back through the least
    neighbour in each earlier layer.  At the minimum the two halves share only
    the root, and the cycle is checked.
    """
    best: list[int] | None = None  # layers 0..d of the best root
    for s in iter_bits(region):
        layers = []
        for layer, nbrs in _layers(g, region, 1 << (s - 1)):
            layers.append(layer)
            if nbrs & layer:
                if best is None or len(layers) < len(best):
                    best = layers
                break
    if best is None:
        return None
    length = 2 * len(best) - 1
    last = best[-1]
    u = next(x for x in iter_bits(last) if g.adj_bits[x - 1] & last)
    halves = []
    for end in (u, next(iter_bits(g.adj_bits[u - 1] & last))):
        path = [end]
        for layer in reversed(best[:-1]):
            step = g.adj_bits[path[-1] - 1] & layer
            path.append((step & -step).bit_length())
        halves.append(path)
    cycle = halves[0][::-1] + halves[1][:-1]  # root .. u, then v .. (child of root)
    if (
        len(cycle) != length
        or len(set(cycle)) != length
        or not all(g.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    ):
        raise RuntimeError(f"bad odd-cycle witness {cycle} for length {length}")
    return length


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
    if m < 0:
        raise ValueError(f"line 1: negative edge count {m}")
    edges: set[tuple[int, int]] = set()
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
        if (u, v) in edges:
            raise ValueError(f"line {i + 2}: repeated edge ({u},{v})")
        edges.add((u, v))
    for k in range(m + 1, len(lines)):
        if lines[k].strip():
            raise ValueError(f"line {k + 1}: more edge lines than the {m} declared")
    try:
        return SimpleGraph.from_edges(n, edges)
    except ValueError as exc:
        raise ValueError(f"line 1: {exc}") from None


def graph_to_text(g: SimpleGraph) -> str:
    """Serialise in the edge-list format (single spaces, LF endings)."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges)
    return "\n".join(lines) + "\n"
