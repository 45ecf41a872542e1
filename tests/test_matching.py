"""Matching numbers of weighted graphs, their witnesses and the Berge test."""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import dataclass
from itertools import product

import pytest

from edgesat.census import all_graphs, all_graphs_upto, random_graphs
from edgesat.graphs import SimpleGraph
from edgesat.matching import (
    Matching,
    WeightedGraph,
    _degree_order,
    _edge_bits,
    _greedy_counts,
    has_augmenting_walk,
    maximum_matching,
    nu,
    nu_bruteforce,
    validate_matching,
)

from conftest import graph, minus


def wg(g: SimpleGraph, *weights: int) -> WeightedGraph:
    return WeightedGraph(g, weights)


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
        assert nu(wg(graph(0))) == 0
        assert nu(wg(g, 0, 0)) == 0

    def test_witness_is_canonical_and_valid(self, pentagon):
        h = wg(pentagon, 2, 1, 2, 1, 1)
        m = maximum_matching(h)
        validate_matching(h, m)
        assert len(m) == nu(h)
        assert list(m.edges) == sorted(m.edges)

    def test_numpy_exponents_give_and_cache_a_python_int(self, triangle):
        np = pytest.importorskip("numpy")
        # weights no other test uses, so the numpy call fills the cache entry
        first = nu(WeightedGraph(triangle, np.array([7, 5, 9], dtype=np.int64)))
        again = nu(wg(triangle, 7, 5, 9))
        assert first == again == 10
        assert type(first) is int and type(again) is int


class TestNuMinus:
    def test_triangle_drop_neighborhood(self, triangle):
        # removing N(1) = {2,3} strands vertex 1: no edge survives
        assert nu(minus(wg(triangle, 1, 1, 1), {2, 3})) == 0

    def test_triangle_drop_one(self, triangle):
        # removing the vertex itself leaves the opposite edge
        h = wg(triangle, 1, 1, 1)
        assert nu(minus(h, {1})) == nu_bruteforce(minus(h, {1})) == 1

    def test_pentagon_drop_one(self, pentagon):
        assert nu(minus(wg(pentagon, 1, 1, 1, 1, 1), {1})) == 2

    def test_drop_all(self, pentagon):
        h = wg(pentagon, 1, 1, 1, 1, 1)
        assert nu(minus(h, h.vertices)) == 0


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


def greedy(h: WeightedGraph) -> Matching:
    """The greedy b-matching of h, relabelled to its vertices, after checking
    that it walks each edge of h once, by the degrees of its ends, and leaves
    no edge with spare weight at both ends."""
    weights, bits = h.cache_key
    edges = _degree_order(len(weights), bits)
    label = h.vertices
    pairs = [(label[p], label[q]) for p, q in edges]
    degree = {v: sum(v in e for e in pairs) for v in label}
    keys = [sorted((degree[u], degree[v])) for u, v in pairs]
    assert set(pairs) == h.edges and len(pairs) == len(h.edges) and keys == sorted(keys)
    m = Matching.of(
        e for e, c in zip(pairs, _greedy_counts(weights, edges)) for _ in range(c)
    )
    spare = {v: h.weight_map[v] - m.usage.get(v, 0) for v in label}
    assert not any(spare[u] and spare[v] for u, v in pairs)
    return m


class TestGreedyLowerBound:
    def test_exhaustive_n4_weights_up_to_3(self):
        for h in weighted_suite(4, 3):
            m = greedy(h)
            validate_matching(h, m)  # only edges of h, no vertex over its weight
            assert len(m) <= nu_bruteforce(h, cutoff=12)

    def test_seeded_graphs_up_to_n8(self):
        rng = random.Random(14)
        for n in range(5, 9):
            for g in random_graphs(n, 40, n):
                h = wg(g, *(rng.randrange(4) for _ in range(n)))
                m = greedy(h)
                validate_matching(h, m)
                bound = nu_bruteforce(h) if h.total_weight <= 14 else nu(h)
                assert len(m) <= bound


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
                assert nu(h) >= nu(minus(h, {v}))
            # raising one weight never lowers nu
            raised = list(h.a)
            raised[rng.choice(h.vertices) - 1] += 1
            assert nu(wg(h.graph, *raised)) >= nu(h)

    def test_power_growth_identity(self):
        # nu(G_{a + m e_i}) = deg_a(i) + nu(G_a - N_a(i)) once m >= deg_a(i)
        rng = random.Random(5)
        graphs = [g for g in all_graphs(4) if g.edges]
        for g in rng.sample(graphs, 25):
            for weights in rng.sample(list(product(range(1, 3), repeat=4)), 6):
                h = wg(g, *weights)
                for i in h.vertices:
                    deg = sum(h.a[j - 1] for j in h.adjacency[i])
                    if deg == 0:
                        continue
                    lifted = list(weights)
                    lifted[i - 1] += deg
                    assert nu(wg(g, *lifted)) == deg + nu(minus(h, h.adjacency[i]))


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
        "cache_key": h.cache_key,
    }


@dataclass(frozen=True)
class _FrozenPair:
    """A frozen dataclass over (graph, a) alone: the reference for the
    equality, hash and repr of a weighted graph."""

    graph: SimpleGraph
    a: tuple[int, ...]


def _assert_pair_semantics(h: WeightedGraph) -> None:
    ref = _FrozenPair(h.graph, h.a)
    twin = WeightedGraph(h.graph, h.a)
    assert twin == h and twin is not h and not twin != h
    assert hash(h) == hash(ref) == hash(twin)
    assert repr(h) == repr(ref).replace("_FrozenPair", "WeightedGraph")
    assert h != ref and h != (h.graph, h.a)
    assert pickle.loads(pickle.dumps(h)) == h and copy.deepcopy(h) == h


class TestRepresentation:
    """The weighted graph of a is the pair (g, a); every view is derived from it."""

    def test_views_subgraphs_and_keys_exhaustive_n4(self):
        for g in all_graphs_upto(4):
            for a in product(range(3), repeat=g.n):
                h = wg(g, *a)
                assert _views(h) == _reference_views(g, a)
                # the key ignores labels and vertices outside the support
                shift = 2
                big = SimpleGraph.from_edges(
                    g.n + shift + 1,
                    [(u + shift, v + shift) for u, v in g.edges] + [(1, g.n + shift + 1)],
                )
                assert wg(big, 0, 0, *a, 0).cache_key == h.cache_key
                assert h.cache_key == (h.weights, _edge_bits(g, h.vertices))
                assert h.mask == sum(1 << (v - 1) for v in h.vertices)
                _assert_pair_semantics(h)

    def test_edge_bits_is_the_pairwise_definition_exhaustive_n5(self):
        for g in all_graphs_upto(5):
            for sub in range(1 << g.n):
                verts = [v for v in range(1, g.n + 1) if sub >> (v - 1) & 1]
                k = len(verts)
                pairwise = sum(
                    1 << (i * k + j)
                    for i in range(k)
                    for j in range(i + 1, k)
                    if g.has_edge(verts[i], verts[j])
                )
                assert _edge_bits(g, verts) == pairwise, (g.edges, verts)

    def test_immutable(self, triangle):
        h = wg(triangle, 2, 0, 1)
        for name in ("graph", "a", "vertices", "weights", "mask", "cache_key", "extra"):
            with pytest.raises(AttributeError):
                setattr(h, name, None)
            with pytest.raises(AttributeError):
                delattr(h, name)
        assert (h.a, h.vertices, h.weights, h.mask) == ((2, 0, 1), (1, 3), (2, 1), 0b101)
        assert h.cache_key == ((2, 1), 0b10)  # vertices 1 and 3 relabelled 0 and 1
        assert h != wg(triangle, 2, 0, 2) and h != wg(graph(3), 2, 0, 1)

    def test_direct_construction_checks_its_input(self, triangle):
        for a, message in (((2, -1), "length 2, expected 3"), ((1, -1, 1), "non-negative")):
            with pytest.raises(ValueError, match=message):
                WeightedGraph(triangle, a)
        h, ref = WeightedGraph(triangle, [2, 0, 1]), wg(triangle, 2, 0, 1)
        assert h.a == (2, 0, 1) and h == ref and hash(h) == hash(ref)
