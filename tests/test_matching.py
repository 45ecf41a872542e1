"""Matching numbers of weighted graphs, their witnesses and the Berge test."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from edgesat.census import all_graphs, all_graphs_upto
from edgesat.graphs import SimpleGraph, connected_components
from edgesat.matching import (
    Matching,
    WeightedGraph,
    has_augmenting_walk,
    maximum_matching,
    nu,
    nu_bruteforce,
    nu_minus,
    validate_matching,
)

from conftest import graph


def wg(g: SimpleGraph, *weights: int) -> WeightedGraph:
    return WeightedGraph.from_exponents(g, weights)


def all_matchings(h: WeightedGraph) -> list[Matching]:
    """Every matching of h, by extending multisets edge by edge."""
    edges = sorted(h.edges)
    out: list[list[tuple[int, int]]] = []

    def rec(i: int, caps: dict[int, int], acc: list[tuple[int, int]]) -> None:
        if i == len(edges):
            out.append(list(acc))
            return
        rec(i + 1, caps, acc)
        u, v = edges[i]
        top = min(caps[u], caps[v])
        for c in range(1, top + 1):
            caps[u] -= c
            caps[v] -= c
            rec(i + 1, caps, acc + [edges[i]] * c)
            caps[u] += c
            caps[v] += c

    rec(0, dict(h.weight_map), [])
    return [Matching.of(m) for m in out]


class TestNu:
    def test_triangle_ones(self, triangle):
        assert nu(wg(triangle, 1, 1, 1)) == 1

    def test_triangle_221(self, triangle):
        h = wg(triangle, 2, 2, 1)
        assert nu_bruteforce(h) == 2  # the independent oracle, computed first
        assert nu(h) == 2

    def test_pentagon(self, pentagon):
        assert nu(wg(pentagon, 1, 1, 1, 1, 1)) == 2

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_disjoint_triangles(self, t):
        k = t - 1
        edges = []
        for i in range(k):
            b = 3 * i
            edges += [(b + 1, b + 2), (b + 1, b + 3), (b + 2, b + 3)]
        g = SimpleGraph.from_edges(3 * k, edges)
        assert nu(wg(g, *([1] * (3 * k)))) == t - 1

    def test_empty(self):
        g = graph(2)
        assert nu(WeightedGraph.build({}, [])) == 0
        assert nu(wg(g, 0, 0)) == 0

    def test_witness_is_canonical_and_valid(self, pentagon):
        h = wg(pentagon, 2, 1, 2, 1, 1)
        m = maximum_matching(h)
        validate_matching(h, m)
        assert len(m) == nu(h)
        assert list(m.edges) == sorted(m.edges)


class TestNuMinus:
    def test_triangle_drop_neighborhood(self, triangle):
        # removing N(1) = {2,3} strands vertex 1: no edge survives
        assert nu_minus(wg(triangle, 1, 1, 1), {2, 3}) == 0

    def test_triangle_drop_one(self, triangle):
        # removing the vertex itself leaves the opposite edge
        h = wg(triangle, 1, 1, 1)
        assert nu_minus(h, {1}) == nu_bruteforce(h.minus({1})) == 1

    def test_pentagon_drop_one(self, pentagon):
        assert nu_minus(wg(pentagon, 1, 1, 1, 1, 1), {1}) == 2

    def test_drop_all(self, pentagon):
        h = wg(pentagon, 1, 1, 1, 1, 1)
        assert nu_minus(h, h.vertices) == 0


class TestBruteforce:
    def test_cutoff(self, triangle):
        h = wg(triangle, 3, 3, 3)
        with pytest.raises(ValueError, match="cutoff"):
            nu_bruteforce(h, cutoff=8)
        assert nu_bruteforce(h, cutoff=9) == 4

    def test_same_results_as_nu_examples(self, triangle, pentagon):
        for h in (wg(triangle, 1, 1, 1), wg(triangle, 2, 2, 1), wg(pentagon, 1, 1, 1, 1, 1)):
            assert nu_bruteforce(h) == nu(h)


class TestAugmentingWalk:
    def test_maximum_has_none(self, triangle):
        h = wg(triangle, 1, 1, 1)
        assert not has_augmenting_walk(h, Matching.of([(1, 2)]))

    def test_non_maximum_has_one(self, triangle):
        h = wg(triangle, 2, 2, 1)
        assert has_augmenting_walk(h, Matching.of([(1, 2)]))

    def test_single_edge_from_empty(self):
        h = wg(graph(2, (1, 2)), 1, 1)
        assert has_augmenting_walk(h, Matching.of([]))

    def test_rejects_invalid_matching(self, triangle):
        h = wg(triangle, 1, 1, 1)
        with pytest.raises(ValueError):
            has_augmenting_walk(h, Matching.of([(1, 2), (1, 3)]))
        with pytest.raises(ValueError):
            has_augmenting_walk(h, Matching.of([(4, 5)]))


def weighted_suite(max_n: int, max_w: int):
    for n in range(1, max_n + 1):
        for g in all_graphs(n):
            for weights in product(range(1, max_w + 1), repeat=n):
                yield wg(g, *weights)


class TestBergeExhaustive:
    def test_berge_all_matchings_small(self):
        # maximum <=> no augmenting walk, over every matching of every
        # weighted graph on up to 4 vertices with weights up to 2
        for h in weighted_suite(4, 2):
            best = nu_bruteforce(h, cutoff=8)
            for m in all_matchings(h):
                assert has_augmenting_walk(h, m) == (len(m) < best)


class TestInvariantsSampled:
    def test_nu_equals_bruteforce_and_bounds(self):
        rng = random.Random(3)
        pool = [h for h in weighted_suite(4, 3)]
        for h in rng.sample(pool, 400):
            v = nu(h)
            assert v == nu_bruteforce(h, cutoff=16)
            assert 2 * v <= h.total_weight

    def test_monotonicity(self):
        rng = random.Random(4)
        pool = [h for h in weighted_suite(4, 3) if h.vertices]
        for h in rng.sample(pool, 150):
            for v in h.vertices:
                assert nu(h) >= nu_minus(h, {v})
            # raising one weight never lowers nu
            weights = dict(h.weight_map)
            v = rng.choice(h.vertices)
            weights[v] += 1
            assert nu(WeightedGraph.build(weights, h.edges)) >= nu(h)

    def test_power_growth_identity(self):
        # nu(G_{a + m e_i}) = deg_a(i) + nu(G_a - N_a(i)) once m >= deg_a(i)
        rng = random.Random(5)
        graphs = [g for g in all_graphs(4) if g.edges]
        for g in rng.sample(graphs, 25):
            for weights in rng.sample(list(product(range(1, 3), repeat=4)), 6):
                h = wg(g, *weights)
                for i in h.vertices:
                    deg = h.weighted_degree(i)
                    if deg == 0:
                        continue
                    lifted = list(weights)
                    lifted[i - 1] += deg
                    assert nu(wg(g, *lifted)) == deg + nu(h.minus(h.adjacency[i]))


def _reference_views(g: SimpleGraph, a: tuple[int, ...]) -> dict:
    """The views of the weighted graph of a, built from g.edges and a."""
    verts = tuple(v for v in range(1, g.n + 1) if a[v - 1] > 0)
    edges = frozenset((u, v) for u, v in g.edges if a[u - 1] > 0 and a[v - 1] > 0)
    adjacency = {v: frozenset(u for e in edges if v in e for u in e if u != v) for v in verts}
    idx = {v: i for i, v in enumerate(verts)}
    bits = 0
    for u, v in edges:
        bits |= 1 << (idx[u] * len(verts) + idx[v])
    weights = tuple(a[v - 1] for v in verts)
    return {
        "vertices": verts,
        "weights": weights,
        "edges": edges,
        "weight_map": dict(zip(verts, weights)),
        "adjacency": adjacency,
        "total_weight": sum(weights),
        "degrees": {v: sum(a[u - 1] for u in adjacency[v]) for v in verts},
        "cache_key": (weights, bits),
    }


def _views(h: WeightedGraph) -> dict:
    return {
        "vertices": h.vertices,
        "weights": h.weights,
        "edges": h.edges,
        "weight_map": h.weight_map,
        "adjacency": h.adjacency,
        "total_weight": h.total_weight,
        "degrees": {v: h.weighted_degree(v) for v in h.vertices},
        "cache_key": h.cache_key,
    }


class TestRepresentation:
    """The weighted graph of a is the pair (g, a); every view is derived from it."""

    def test_views_subgraphs_and_keys_exhaustive_n4(self):
        for g in all_graphs_upto(4):
            for a in product(range(3), repeat=g.n):
                h = wg(g, *a)
                assert _views(h) == _reference_views(g, a)
                for size in range(g.n + 1):
                    for s in combinations(range(1, g.n + 1), size):
                        zeroed = tuple(0 if v in s else a[v - 1] for v in range(1, g.n + 1))
                        assert h.minus(s) == wg(g, *zeroed)
                        assert _views(h.minus(s)) == _reference_views(g, zeroed)
                induced = SimpleGraph.from_edges(g.n, _reference_views(g, a)["edges"])
                comps = [c for c in connected_components(induced) if min(c) in h.vertices]
                assert [frozenset(p.vertices) for p in h.components()] == comps
                assert [p.weight_map for p in h.components()] == [
                    {v: a[v - 1] for v in sorted(c)} for c in comps
                ]
                # the key ignores labels and vertices outside the support
                shift = 2
                big = SimpleGraph.from_edges(
                    g.n + shift + 1,
                    [(u + shift, v + shift) for u, v in g.edges] + [(1, g.n + shift + 1)],
                )
                assert wg(big, 0, 0, *a, 0).cache_key == h.cache_key

    def test_build(self):
        h = WeightedGraph.build({2: 3, 5: 1}, [(5, 2)])
        assert (h.vertices, h.weights, h.edges) == ((2, 5), (3, 1), frozenset({(2, 5)}))
        for weights, edges in (
            ({1: 0}, []),  # weights must be positive
            ({1: 1, 2: 1}, [(1, 3)]),  # an edge off the weighted vertices
            ({1: 1, 3: 1}, [(1, 2)]),
            ({1: 1, 2: 1}, [(1, 1)]),  # a self-loop
            ({0: 1}, []),  # labels start at 1
            ({65: 1}, []),  # and end at 64
        ):
            with pytest.raises(ValueError):
                WeightedGraph.build(weights, edges)
