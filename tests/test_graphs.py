"""Cover, neighbourhood and odd-cycle combinatorics of simple graphs."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import numpy as np
import pytest

from edgesat import graphs
from edgesat.graphs import (
    SimpleGraph,
    _core_mask,
    _mask_order,
    _nbrs,
    closed_neighborhood,
    components_masked,
    core_of_cover,
    covers_minimal_over,
    is_cover,
    is_minimal_cover,
    is_minimal_over,
    iter_bits,
    mask_of,
    minimal_covers,
    parse_graph_text,
    graph_to_text,
    set_of,
    shortest_odd_cycle_masked,
    triangles,
)
from edgesat.census import all_graphs, all_graphs_upto, random_graphs

from conftest import graph, induced_subgraph, odd_cycle_components, set_order, shortest_odd_cycle


def _numpy_components_and_odd_girths(g: SimpleGraph, region: int) -> tuple[list[int], list[int | None]]:
    """Reference by matrix powers: the components of `region` from the reachability
    of I + A, ordered by least vertex, and for each the least odd k <= its size
    with trace(A^k) > 0 (an odd closed walk, so an odd cycle), or None."""
    full = np.array([[b >> c & 1 for c in range(g.n)] for b in g.adj_bits], dtype=np.int64)

    def sub(vs: list[int]) -> np.ndarray:
        idx = [v - 1 for v in vs]
        return full[np.ix_(idx, idx)]

    verts = list(iter_bits(region))
    reach = np.eye(len(verts), dtype=np.int64) + sub(verts)
    for _ in range(len(verts).bit_length()):
        reach = np.minimum(reach @ reach, 1)
    comps, girths, todo = [], [], list(range(len(verts)))
    while todo:
        comp = [verts[i] for i in todo if reach[todo[0], i]]
        todo = [i for i in todo if not reach[todo[0], i]]
        comps.append(sum(1 << (v - 1) for v in comp))
        a = sub(comp)
        walk, girth = a, None
        for k in range(1, len(comp) + 1, 2):
            if np.trace(walk) > 0:
                girth = k
                break
            walk = walk @ a @ a
        girths.append(girth)
    return comps, girths


def _check_against_numpy(g: SimpleGraph, region: int) -> None:
    comps, girths = _numpy_components_and_odd_girths(g, region)
    odd = [k for k in girths if k is not None]
    assert components_masked(g, region) == comps, (g.edges, region)
    assert shortest_odd_cycle_masked(g, region) == min(odd, default=None), (g.edges, region)
    expected = comps if len(odd) == len(comps) else None
    assert odd_cycle_components(g, region) == expected, (g.edges, region)


class TestNeighborhoods:
    # the open neighbourhood N(U) is the mask helper `_nbrs`
    def test_triangle_open(self, triangle):
        assert _nbrs(triangle, 0b001) == 0b110

    def test_path_open(self, path3):
        assert _nbrs(path3, 0b101) == 0b010

    def test_tailed_triangle_closed_is_everything(self, tailed_triangle):
        assert _nbrs(tailed_triangle, 0b01111) == 0b11111
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

    def test_core_mask_matches_the_vertex_walk(self):
        # every (graph, mask) pair with n <= 5, against a walk over the
        # vertices of m that keeps those with no neighbour outside m
        def walked(g, m):
            outside = g.full_mask & ~m
            return mask_of(v for v in iter_bits(m) if not g.adj_bits[v - 1] & outside)

        pairs = [(g, m) for g in all_graphs_upto(5) for m in range(1 << g.n)]
        assert len(pairs) == 33866
        for g, m in pairs:
            assert _core_mask(g, m) == walked(g, m), (sorted(g.edges), m)

    def test_core_rejects_non_cover(self, triangle):
        with pytest.raises(ValueError):
            core_of_cover(triangle, {1})

    @pytest.mark.parametrize("bad", [7, 0])
    def test_core_rejects_labels_outside_the_graph(self, triangle, bad):
        with pytest.raises(ValueError, match=f"vertex {bad} is not in 1..3"):
            core_of_cover(triangle, {1, 2, 3, bad})

    @pytest.mark.parametrize("bad", [7, 0])
    @pytest.mark.parametrize(
        "call",
        [
            lambda g, bad: is_cover(g, {1, 2, 3, bad}),
            lambda g, bad: is_minimal_cover(g, {1, 2, bad}),
            lambda g, bad: is_minimal_over(g, {1, 2, 3}, {1, bad}),
            lambda g, bad: closed_neighborhood(g, {1, bad}),
            lambda g, bad: covers_minimal_over(g, {bad}),
            lambda g, bad: induced_subgraph(g, {1, bad}),
        ],
        ids=[
            "is_cover", "is_minimal_cover", "is_minimal_over", "closed", "covers_minimal_over",
            "induced_subgraph",
        ],
    )
    def test_vertex_sets_reject_labels_outside_the_graph(self, triangle, call, bad):
        with pytest.raises(ValueError, match=f"vertex {bad} is not in 1..3"):
            call(triangle, bad)

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

    @pytest.mark.parametrize("independent", [0b000, 0b011])
    def test_minimal_covers_self_check_fires(self, monkeypatch, triangle, independent):
        # the complement of a non-maximal independent set keeps a vertex that
        # could leave it; of a set that is not independent, it misses an edge.
        # Over {3} the run is on {1, 2}, where the same sets are bad.
        monkeypatch.setattr(graphs, "_maximal_independent_sets", lambda g, region: [0b001, independent])
        for route in (minimal_covers, lambda g: covers_minimal_over(g, {3})):
            with pytest.raises(RuntimeError, match="Bron-Kerbosch produced a cover that is not minimal"):
                route(triangle)
        monkeypatch.setattr(graphs, "_maximal_independent_sets", lambda g, region: [0b001])
        assert covers_minimal_over(triangle, {3}) == minimal_covers(triangle) == [{2, 3}]

    @pytest.mark.parametrize("source", ["n<=10", "64-bit"])
    def test_mask_order_is_the_set_order(self, source):
        if source == "n<=10":
            masks = list(range(1 << 10))
        else:  # with vertex 64 flipped, and the extremes
            rng = random.Random(64)
            masks = [rng.getrandbits(64) for _ in range(5000)]
            masks += [m ^ 1 << 63 for m in masks] + [(1 << 64) - 1, 1 << 63, 1, 0]
        want = sorted(masks, key=lambda m: set_order(set_of(m)))
        assert sorted(masks, key=_mask_order) == want

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
        # Every pair (f, s) of vertex sets of every graph with n <= 5, against
        # Bron-Kerbosch and against the definition: f is a cover containing s
        # from which no vertex outside s can be removed.
        def by_definition(g: SimpleGraph, f: frozenset[int], s: frozenset[int]) -> bool:
            return s <= f and is_cover(g, f) and all(not is_cover(g, f - {v}) for v in f - s)

        for g in all_graphs_upto(5):
            subsets = [
                frozenset(c)
                for size in range(g.n + 1)
                for c in combinations(range(1, g.n + 1), size)
            ]
            for s in subsets:
                over = set(covers_minimal_over(g, s))
                for f in subsets:
                    got = is_minimal_over(g, f, s)
                    assert got == (f in over) == by_definition(g, f, s), (g.edges, f, s)


class TestComponentsAndCycles:
    def test_components(self):
        two_tris = graph(6, (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6))
        assert components_masked(two_tris, two_tris.full_mask) == [0b000111, 0b111000]
        assert components_masked(graph(3), 0b111) == [0b001, 0b010, 0b100]

    def test_connected(self, tailed_triangle):
        assert components_masked(tailed_triangle, tailed_triangle.full_mask) == [0b11111]

    def test_shortest_odd_cycle(self, triangle, pentagon, path3):
        assert shortest_odd_cycle(triangle) == 3
        assert shortest_odd_cycle(pentagon) == 5
        assert shortest_odd_cycle(path3) is None

    def test_odd_cycle_matches_bipartiteness(self):
        # bipartite: some side S has every edge with one end in it
        for g in all_graphs_upto(5):
            sides = range(1 << g.n)
            bipartite = any(all((s >> u - 1 ^ s >> v - 1) & 1 for u, v in g.edges) for s in sides)
            assert (shortest_odd_cycle(g) is None) == bipartite, g.edges

    def test_odd_cycle_components_exhaustive(self):
        # every region of every graph with n <= 5, against matrix powers
        for g in all_graphs_upto(5):
            for m in range(1 << g.n):
                _check_against_numpy(g, m)

    def test_odd_cycles_and_components_sampled_to_eleven(self):
        # seeded graphs of varied density on 7..11 vertices, plus the odd cycles
        # C7, C9, C11, each on the whole vertex set and on random regions
        rng = random.Random(7411)
        gs = [graph(n, *((i, i + 1) for i in range(1, n)), (1, n)) for n in (7, 9, 11)]
        for n in range(7, 12):
            for _ in range(60):
                p = rng.uniform(0.1, 0.5)
                gs.append(graph(n, *((u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p)))
        for g in gs:
            for m in [g.full_mask] + [rng.getrandbits(g.n) for _ in range(8)]:
                _check_against_numpy(g, m)

    def test_adj_bits_match_the_edge_built_dict(self):
        for g in all_graphs_upto(5):
            nbrs: dict[int, set[int]] = {v: set() for v in range(1, g.n + 1)}
            for u, v in g.edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            assert len(g.adj_bits) == g.n
            assert {v: set_of(b) for v, b in enumerate(g.adj_bits, 1)} == nbrs

    def test_pentagon_with_chord_still_five(self, bowtie):
        # bowtie has triangles, so 3
        assert shortest_odd_cycle(bowtie) == 3


class TestDominating:
    # U dominates exactly when its closed neighbourhood N[U] is every vertex
    def test_pentagon_all(self, pentagon):
        assert closed_neighborhood(pentagon, {1, 2, 3, 4, 5}) == pentagon.vertices

    def test_tailed_triangle_not_dominated_by_triangle(self, tailed_triangle):
        assert closed_neighborhood(tailed_triangle, {1, 2, 3}) != tailed_triangle.vertices

    def test_tailed_triangle_four_dominating(self, tailed_triangle):
        assert closed_neighborhood(tailed_triangle, {1, 2, 3, 4}) == tailed_triangle.vertices


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
        with pytest.raises(ValueError, match="line 3"):
            parse_graph_text("3 1\n1 2\n1 3\n2 3\n")
        with pytest.raises(ValueError, match="line 4"):
            parse_graph_text("3 1\n1 2\n\n2 3\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_graph_text("3 -1\n")
        with pytest.raises(ValueError, match=r"^line 3: repeated edge \(1,2\)$"):
            parse_graph_text("3 2\n1 2\n1 2\n")
        assert parse_graph_text("3 1\n1 2\n\n  \n") == graph(3, (1, 2))

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
