"""Shared fixtures: the small named graphs every module's examples use, an
empty cache, and the graph helpers several test modules read."""

from __future__ import annotations

from typing import Iterable

import pytest

from edgesat import matching, saturation
from edgesat.assoc import AssPrimeReport
from edgesat.graphs import (
    SimpleGraph,
    _closed_mask,
    _core_mask,
    _layers,
    _odd_cycle_catalogue,
    _vertex_mask,
    components_masked,
    covers_minimal_over,
    iter_bits,
    mask_of,
    minimal_covers,
    set_of,
    shortest_odd_cycle_masked,
)
from edgesat.matching import WeightedGraph
from edgesat.saturation import _check_t, _support_vectors, in_sat_minus_power, support

_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def graph(n: int, *edges: tuple[int, int]) -> SimpleGraph:
    return SimpleGraph.from_edges(n, edges)


def nbrs(g: SimpleGraph, v: int) -> frozenset[int]:
    """The neighbours of v, as a vertex set read off g's adjacency masks."""
    return set_of(g.adj_bits[v - 1])


def set_order(s: frozenset[int]) -> tuple[int, list[int]]:
    """Sort key of vertex sets: by size, then lexicographically.  The library
    sorts masks by `graphs._mask_order` instead; this is its reference."""
    return (len(s), sorted(s))


def induced_subgraph(g: SimpleGraph, u: Iterable[int]) -> tuple[SimpleGraph, dict[int, int]]:
    """The induced subgraph on u, relabelled to 1..|u| in sorted order, and
    the old->new vertex mapping; a label outside 1..n is refused."""
    order = list(iter_bits(_vertex_mask(g, u)))
    relabel = {old: i + 1 for i, old in enumerate(order)}
    edges = frozenset(
        (relabel[a], relabel[b]) for a, b in g.edges if a in relabel and b in relabel
    )
    return SimpleGraph(len(order), edges), relabel


def shortest_odd_cycle(g: SimpleGraph) -> int | None:
    """Length of a shortest odd cycle of g; None exactly when g is bipartite."""
    return shortest_odd_cycle_masked(g, g.full_mask)


def odd_cycle_components(g: SimpleGraph, region: int) -> list[int] | None:
    """The components of `region`, as masks, when each contains an odd cycle,
    else None: a component is bipartite when none of its breadth-first
    layers meets its own neighbourhood."""
    comps = components_masked(g, region)
    for comp in comps:
        if not any(nbrs & layer for layer, nbrs in _layers(g, comp, comp & -comp)):
            return None
    return comps


def saturating_graphs(g: SimpleGraph, t: int, region: int, dominated: int = 0):
    """The exponent vectors of the t-saturating weighted graphs supported in
    `region` whose support's closed neighbourhood contains the mask
    `dominated`: g's odd-cycle catalogue of `region`, filtered, searched in
    its order."""
    catalogue = _odd_cycle_catalogue(g, region, 3 * (t - 1))
    return _support_vectors(g, t, (m for m, nb, _ in catalogue if not dominated & ~(m | nb)))


def witness(g: SimpleGraph, t: int, core: int, a) -> bool:
    """Whether x^a, supported in the core mask `core` of a cover F, witnesses
    P_F at t by localisation: a read on the induced subgraph on core(F) lies
    in sat(I^t) \\ I^t there."""
    h, relabel = induced_subgraph(g, iter_bits(core))
    return in_sat_minus_power(h, [a[v - 1] for v in relabel], t)


def ass_primes_reference(g: SimpleGraph, t: int) -> list[AssPrimeReport]:
    """Ass(I^t) by enumerating, then reading: every t-saturating weighted
    graph of g, in the order of its exponent vector a, and for each the
    covers F minimal over N[S] at whose core the witness condition holds;
    a prime keeps the first a that gives it.  Independent of the route of
    `assoc.ass_primes`, which decides each candidate cover on its own."""
    _check_t(t)
    reports = [
        AssPrimeReport(mask_of(f), "minimal", {"type": "minimal-cover"}) for f in minimal_covers(g)
    ]
    seen = {r.vertices for r in reports}
    over: dict[int, list[frozenset[int]]] = {}
    for a in sorted(saturating_graphs(g, t, g.full_mask)):
        near = _closed_mask(g, mask_of(support(a)))
        if near not in over:
            over[near] = covers_minimal_over(g, iter_bits(near))
        for f in over[near]:
            if f not in seen and witness(g, t, _core_mask(g, mask_of(f)), a):
                seen.add(f)
                evidence = {"type": "witness", "exponents": list(a)}
                reports.append(AssPrimeReport(mask_of(f), "embedded", evidence))
    return sorted(reports, key=lambda r: set_order(r.vertices))


def disjoint_triangles(k: int) -> SimpleGraph:
    edges = []
    for i in range(k):
        b = 3 * i
        edges += [(b + 1, b + 2), (b + 1, b + 3), (b + 2, b + 3)]
    return SimpleGraph.from_edges(3 * k, edges)


def minus(h: WeightedGraph, drop: Iterable[int]) -> WeightedGraph:
    """H - N: the weighted graph of h's exponent vector zeroed on `drop`."""
    return WeightedGraph(h.graph, (0 if v in drop else x for v, x in enumerate(h.a, 1)))


@pytest.fixture
def cold_cache(monkeypatch) -> matching._Cache:
    """An empty cache owner in place of the process's, in each module that
    binds it, for one test; the warm one comes back after the test."""
    cache = matching._Cache()
    for module in (matching, saturation):
        monkeypatch.setattr(module, "_CACHE", cache)
    return cache


@pytest.fixture
def triangle() -> SimpleGraph:
    return graph(3, (1, 2), (1, 3), (2, 3))


@pytest.fixture
def path3() -> SimpleGraph:
    return graph(3, (1, 2), (2, 3))


@pytest.fixture
def square() -> SimpleGraph:
    return graph(4, (1, 2), (2, 3), (3, 4), (1, 4))


@pytest.fixture
def pentagon() -> SimpleGraph:
    return graph(5, (1, 2), (2, 3), (3, 4), (4, 5), (1, 5))


@pytest.fixture
def bowtie() -> SimpleGraph:
    # triangles {1,2,3} and {1,4,5} sharing vertex 1
    return graph(5, (1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5))


@pytest.fixture
def tailed_triangle() -> SimpleGraph:
    # five vertices: a triangle with a path hanging off it
    return graph(5, (1, 2), (1, 3), (2, 3), (3, 4), (4, 5))
