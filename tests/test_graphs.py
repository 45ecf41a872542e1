"""Cover, neighbourhood and odd-cycle combinatorics of simple graphs."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from edgesat.graphs import (
    SimpleGraph,
    closed_neighborhood,
    connected_components,
    core_of_cover,
    covers_minimal_over,
    induced_subgraph,
    is_bipartite,
    is_cover,
    is_dominating,
    is_minimal_cover,
    is_minimal_over,
    minimal_covers,
    open_neighborhood,
    parse_graph_text,
    graph_to_text,
    shortest_odd_cycle,
    triangles,
)
from edgesat.census import all_graphs, all_graphs_upto, random_graphs

from conftest import graph


class TestNeighborhoods:
    def test_triangle_open(self, triangle):
        assert open_neighborhood(triangle, {1}) == {2, 3}

    def test_path_open(self, path3):
        assert open_neighborhood(path3, {1, 3}) == {2}

    def test_tailed_triangle_closed_is_everything(self, tailed_triangle):
        assert open_neighborhood(tailed_triangle, {1, 2, 3, 4}) == {1, 2, 3, 4, 5}
        assert closed_neighborhood(tailed_triangle, {1, 2, 3, 4}) == {1, 2, 3, 4, 5}

    def test_triangle_closed(self, triangle):
        assert closed_neighborhood(triangle, {1}) == {1, 2, 3}

    def test_empty_closed(self, triangle):
        assert closed_neighborhood(triangle, set()) == set()

    def test_bowtie_closed(self, bowtie):
        assert closed_neighborhood(bowtie, {2, 3}) == {1, 2, 3}


class TestInducedSubgraph:
    def test_pentagon_path(self, pentagon):
        sub, relabel = induced_subgraph(pentagon, {1, 2, 3})
        assert sub.n == 3 and len(sub.edges) == 2
        assert relabel == {1: 1, 2: 2, 3: 3}

    def test_identity(self, tailed_triangle):
        sub, _ = induced_subgraph(tailed_triangle, tailed_triangle.vertices)
        assert sub == tailed_triangle

    def test_tailed_triangle_induced_triangle(self, tailed_triangle):
        sub, _ = induced_subgraph(tailed_triangle, {1, 2, 3})
        assert sub.edges == frozenset({(1, 2), (1, 3), (2, 3)})


class TestCovers:
    def test_triangle_core_minimal(self, triangle):
        assert core_of_cover(triangle, {1, 2}) == set()
        assert core_of_cover(triangle, {1, 2, 3}) == {1, 2, 3}

    def test_tailed_triangle_core(self, tailed_triangle):
        # vertex 4 is adjacent to 5 outside the cover, so it is not in the core
        assert core_of_cover(tailed_triangle, {1, 2, 3, 4}) == {1, 2, 3}

    def test_core_rejects_non_cover(self, triangle):
        with pytest.raises(ValueError):
            core_of_cover(triangle, {1})

    def test_is_cover(self, triangle, tailed_triangle):
        assert not is_cover(triangle, {1})
        assert is_cover(triangle, {1, 2}) and is_minimal_cover(triangle, {1, 2})
        assert is_cover(tailed_triangle, {1, 2, 3, 4})
        assert not is_minimal_cover(tailed_triangle, {1, 2, 3, 4})
        assert is_cover(tailed_triangle, {1, 2, 4})

    def test_minimal_covers_edge(self):
        g = graph(2, (1, 2))
        assert minimal_covers(g) == [{1}, {2}]

    def test_minimal_covers_triangle(self, triangle):
        assert minimal_covers(triangle) == [{1, 2}, {1, 3}, {2, 3}]

    def test_minimal_covers_pentagon(self, pentagon):
        got = minimal_covers(pentagon)
        # independent oracle: filter all 2^5 subsets
        brute = [
            set(s)
            for size in range(6)
            for s in combinations(range(1, 6), size)
            if is_cover(pentagon, s) and is_minimal_cover(pentagon, s)
        ]
        assert sorted(map(sorted, got)) == sorted(map(sorted, brute))
        assert len(got) == 5 and all(len(c) == 3 for c in got)


class TestCoversMinimalOver:
    def test_tailed_triangle_over_closed_triangle(self, tailed_triangle):
        assert covers_minimal_over(tailed_triangle, {1, 2, 3, 4}) == [{1, 2, 3, 4}]

    def test_tailed_triangle_over_everything(self, tailed_triangle):
        assert covers_minimal_over(tailed_triangle, {1, 2, 3, 4, 5}) == [{1, 2, 3, 4, 5}]

    def test_empty_base_is_minimal_covers(self, triangle):
        assert covers_minimal_over(triangle, set()) == minimal_covers(triangle)

    def test_postconditions_exhaustive_small(self):
        for g in all_graphs_upto(4):
            for size in range(g.n + 1):
                for s in map(frozenset, combinations(range(1, g.n + 1), size)):
                    for f in covers_minimal_over(g, s):
                        assert s <= f and is_cover(g, f)
                        assert all(not is_cover(g, f - {v}) for v in f - s)

    def test_is_minimal_over_matches_enumeration(self):
        # Every pair (f, s) of vertex sets of every graph with n <= 5.
        for g in all_graphs_upto(5):
            subsets = [
                frozenset(c)
                for size in range(g.n + 1)
                for c in combinations(range(1, g.n + 1), size)
            ]
            for s in subsets:
                over = set(covers_minimal_over(g, s))
                for f in subsets:
                    assert is_minimal_over(g, f, s) == (f in over), (g.edges, f, s)


class TestComponentsAndCycles:
    def test_components(self):
        two_tris = graph(6, (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6))
        assert connected_components(two_tris) == [{1, 2, 3}, {4, 5, 6}]
        assert connected_components(graph(3)) == [{1}, {2}, {3}]

    def test_connected(self, tailed_triangle):
        assert connected_components(tailed_triangle) == [{1, 2, 3, 4, 5}]

    def test_shortest_odd_cycle(self, triangle, pentagon, path3):
        assert shortest_odd_cycle(triangle) == 3
        assert shortest_odd_cycle(pentagon) == 5
        assert shortest_odd_cycle(path3) is None

    def test_odd_cycle_matches_bipartiteness(self):
        for g in all_graphs_upto(5):
            assert (shortest_odd_cycle(g) is None) == is_bipartite(g)

    def test_pentagon_with_chord_still_five(self, bowtie):
        # bowtie has triangles, so 3
        assert shortest_odd_cycle(bowtie) == 3


class TestDominating:
    def test_pentagon_all(self, pentagon):
        assert is_dominating(pentagon, {1, 2, 3, 4, 5})

    def test_tailed_triangle_not_dominated_by_triangle(self, tailed_triangle):
        assert not is_dominating(tailed_triangle, {1, 2, 3})

    def test_tailed_triangle_four_dominating(self, tailed_triangle):
        assert is_dominating(tailed_triangle, {1, 2, 3, 4})


class TestInvariants:
    def test_core_empty_iff_minimal_small(self):
        for g in all_graphs_upto(5):
            for size in range(g.n + 1):
                for s in map(frozenset, combinations(range(1, g.n + 1), size)):
                    if is_cover(g, s):
                        assert (core_of_cover(g, s) == frozenset()) == is_minimal_cover(g, s)

    def test_core_empty_iff_minimal_sampled_six(self):
        for g in random_graphs(6, 120, seed=5):
            for size in range(7):
                for s in map(frozenset, combinations(range(1, 7), size)):
                    if is_cover(g, s):
                        assert (core_of_cover(g, s) == frozenset()) == is_minimal_cover(g, s)

    def test_minimal_covers_brute_force_n6(self):
        # bitmask brute force over all subsets, for every graph on 6 vertices
        rng = random.Random(11)
        pool = list(all_graphs(6))
        for g in rng.sample(pool, 400) + list(all_graphs_upto(4)):
            brute = set()
            for mask in range(1 << g.n):
                if all(em & mask for em in g.edge_masks) and all(
                    not all(em & (mask & ~(1 << (v - 1))) for em in g.edge_masks)
                    for v in range(1, g.n + 1)
                    if mask >> (v - 1) & 1
                ):
                    brute.add(frozenset(v for v in range(1, g.n + 1) if mask >> (v - 1) & 1))
            assert set(minimal_covers(g)) == brute

    def test_triangle_count_smoke(self, bowtie, pentagon):
        assert triangles(bowtie) == [(1, 2, 3), (1, 4, 5)]
        assert triangles(pentagon) == []


class TestTextFormat:
    def test_roundtrip(self, tailed_triangle):
        text = graph_to_text(tailed_triangle)
        assert text == "5 5\n1 2\n1 3\n2 3\n3 4\n4 5\n"
        assert parse_graph_text(text) == tailed_triangle

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_graph_text("nope\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_graph_text("3 2\n1 2\n2 9\n")
        with pytest.raises(ValueError, match="line 2"):
            parse_graph_text("3 1\nx y\n")

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            SimpleGraph(3, frozenset({(2, 1)}))
        with pytest.raises(ValueError):
            SimpleGraph(3, frozenset({(1, 4)}))
        with pytest.raises(ValueError):
            SimpleGraph(65, frozenset())


class TestRandomGraphs:
    def test_twelve_vertices(self):
        gs = random_graphs(12, 3, seed=0)
        assert len(set(gs)) == 3 and all(g.n == 12 for g in gs)

    def test_draws_up_to_eleven_vertices_are_pinned(self):
        # sha256 of the edge lists drawn before graphs beyond 11 vertices were supported
        drawn = repr([sorted(g.edges) for g in random_graphs(6, 500, seed=2024)])
        assert hashlib.sha256(drawn.encode()).hexdigest() == (
            "98ed91e016ecb03b9f6faf429fb14ab7bb7800623f5183d54a0896f5f8178238"
        )
