"""Associated-prime machinery: decision, enumeration, closed forms, stability."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from edgesat.assoc import (
    AssPrimeReport,
    ass_infinity,
    ass_primes,
    ass_primes_2,
    ass_primes_3,
    classify_3_saturating,
    depth_positive,
    is_associated,
    prime_sets,
    s_gamma,
)
from edgesat.census import all_graphs, all_graphs_upto, oracle_ass, random_graphs
from edgesat.graphs import SimpleGraph, closed_neighborhood, is_cover, minimal_covers
from edgesat.matching import WeightedGraph
from edgesat.saturation import (
    in_sat_minus_power,
    is_strongly_t_saturating,
    weighted_graph,
)

from conftest import graph


def primes(reports: list[AssPrimeReport]) -> list[list[int]]:
    return [sorted(r.vertices) for r in reports]


def wg(g: SimpleGraph, *weights: int) -> WeightedGraph:
    return WeightedGraph.from_exponents(g, weights)


K4 = graph(4, (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


class TestIsAssociated:
    def test_tailed_triangle_maximal_not_associated(self, tailed_triangle):
        assert is_associated(tailed_triangle, {1, 2, 3, 4, 5}, 2) is None

    def test_tailed_triangle_embedded_witness(self, tailed_triangle):
        rep = is_associated(tailed_triangle, {1, 2, 3, 4}, 2)
        assert rep is not None and rep.kind == "embedded"
        assert rep.evidence == {"type": "witness", "exponents": [1, 1, 1, 0, 0]}

    def test_minimal_cover_certificate(self, triangle):
        rep = is_associated(triangle, {1, 2}, 1)
        assert rep is not None and rep.kind == "minimal"

    def test_rejects_non_cover(self, triangle):
        with pytest.raises(ValueError):
            is_associated(triangle, {1}, 2)

    def test_witness_reverifiable(self, triangle):
        from edgesat.graphs import induced_subgraph

        rep = is_associated(triangle, {1, 2, 3}, 2)
        assert rep is not None
        a = tuple(rep.evidence["exponents"])
        core_graph, _ = induced_subgraph(triangle, {1, 2, 3})
        assert in_sat_minus_power(core_graph, a, 2)

    def test_agrees_with_oracle_small(self):
        rng = random.Random(51)
        pool = [g for g in all_graphs(4) if g.edges]
        for g in rng.sample(pool, 25):
            for t in (1, 2, 3):
                oracle = oracle_ass(g, t)
                for size in range(5):
                    for f in map(frozenset, combinations(range(1, 5), size)):
                        if is_cover(g, f):
                            assert (is_associated(g, f, t) is not None) == (f in oracle)


    def test_decision_agrees_with_enumeration_exhaustive(self):
        # Every cover of every graph with n <= 5, at t = 2 and t = 3.
        cases = 0
        for g in all_graphs_upto(5):
            covers = [
                frozenset(c)
                for size in range(g.n + 1)
                for c in combinations(range(1, g.n + 1), size)
                if is_cover(g, c)
            ]
            for t in (2, 3):
                listed = prime_sets(ass_primes(g, t))
                for f in covers:
                    cases += 1
                    assert (is_associated(g, f, t) is not None) == (f in listed), (g.edges, f, t)
        assert cases == 26448


class TestAssPrimes:
    def test_triangle_t2(self, triangle):
        assert primes(ass_primes(triangle, 2)) == [[1, 2], [1, 3], [2, 3], [1, 2, 3]]

    def test_bipartite_minimal_only(self, square, path3):
        for g in (square, path3):
            for t in (1, 2, 3, 4):
                reports = ass_primes(g, t)
                assert all(r.kind == "minimal" for r in reports)
                assert prime_sets(reports) == set(minimal_covers(g))

    def test_tailed_triangle_t2(self, tailed_triangle):
        got = prime_sets(ass_primes(tailed_triangle, 2))
        assert got == set(minimal_covers(tailed_triangle)) | {frozenset({1, 2, 3, 4})}

    def test_t1_is_minimal_covers(self):
        for g in all_graphs_upto(4):
            assert prime_sets(ass_primes(g, 1)) == set(minimal_covers(g))


class TestClosedForms:
    def test_triangle_adds_maximal(self, triangle):
        assert primes(ass_primes_2(triangle))[-1] == [1, 2, 3]

    def test_square_minimal_only(self, square):
        assert prime_sets(ass_primes_2(square)) == set(minimal_covers(square))
        assert prime_sets(ass_primes_3(square)) == set(minimal_covers(square))

    def test_tailed_triangle(self, tailed_triangle):
        got = prime_sets(ass_primes_2(tailed_triangle))
        assert frozenset({1, 2, 3, 4}) in got
        assert frozenset({1, 2, 3, 4, 5}) not in got

    def test_bowtie_t3_adds_maximal(self, bowtie):
        assert frozenset({1, 2, 3, 4, 5}) in prime_sets(ass_primes_3(bowtie))

    def test_pentagon_t3_adds_maximal(self, pentagon):
        assert frozenset({1, 2, 3, 4, 5}) in prime_sets(ass_primes_3(pentagon))

    def test_three_way_agreement_small(self):
        for g in all_graphs_upto(4):
            o2 = oracle_ass(g, 2)
            assert prime_sets(ass_primes(g, 2)) == prime_sets(ass_primes_2(g)) == o2
            o3 = oracle_ass(g, 3)
            assert prime_sets(ass_primes(g, 3)) == prime_sets(ass_primes_3(g)) == o3


class TestClassify:
    def test_triangle_221(self, triangle):
        assert classify_3_saturating(wg(triangle, 2, 2, 1), triangle) == "triangle-2-2-1"

    def test_pentagon(self, pentagon):
        got = classify_3_saturating(wg(pentagon, 1, 1, 1, 1, 1), pentagon)
        assert got == "pentagon-spanned"

    def test_triangle_ones_is_not_t3(self, triangle):
        assert classify_3_saturating(wg(triangle, 1, 1, 1), triangle) is None

    def test_edge_plus_triangle(self, tailed_triangle):
        # triangle {1,2,3} with weight 2 at vertex 3, pendant edge 3-4;
        # oracle-confirmed member of sat(I^3) \ I^3
        got = classify_3_saturating(wg(tailed_triangle, 1, 1, 2, 1, 0), tailed_triangle)
        assert got == "edge-plus-triangle"
        g = graph(4, (1, 2), (1, 3), (2, 3), (1, 4))
        assert classify_3_saturating(wg(g, 2, 1, 1, 1), g) == "edge-plus-triangle"

    def test_undominated_support_is_none(self, tailed_triangle):
        # support {1,2,3} leaves vertex 5 undominated
        assert classify_3_saturating(wg(tailed_triangle, 2, 2, 1, 0, 0), tailed_triangle) is None

    def test_two_triangle_shapes(self, bowtie):
        assert (
            classify_3_saturating(wg(bowtie, 1, 1, 1, 1, 1), bowtie)
            == "two-triangles-shared-vertex"
        )
        g = graph(6, (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6))
        assert (
            classify_3_saturating(wg(g, 1, 1, 1, 1, 1, 1), g)
            == "two-disjoint-triangles"
        )

    def test_k4_case(self):
        assert classify_3_saturating(wg(K4, 1, 1, 1, 1), K4) == "k4"

    def test_classification_is_the_membership_test(self):
        # tag exists  <=>  x^a in sat(I^3) \ I^3, across a sampled census
        rng = random.Random(61)
        for g in rng.sample(list(all_graphs(5)), 40):
            for a in rng.sample(list(product(range(3), repeat=5)), 40):
                h = weighted_graph(g, a)
                tag = classify_3_saturating(h, g)
                assert (tag is not None) == in_sat_minus_power(g, a, 3), (g.edges, a)


class TestAssInfinity:
    def test_bipartite(self, square):
        reports = ass_infinity(square)
        assert prime_sets(reports) == set(minimal_covers(square))

    def test_triangle(self, triangle):
        assert prime_sets(ass_infinity(triangle)) == set(minimal_covers(triangle)) | {
            frozenset({1, 2, 3})
        }

    def test_bowtie_frozen_oracle(self, bowtie):
        # oracle Ass(I^3) = Ass(I^4) for the bowtie (s(Gamma) = 3)
        got = prime_sets(ass_infinity(bowtie))
        assert got == set(minimal_covers(bowtie)) | {frozenset({1, 2, 3, 4, 5})}
        assert got == oracle_ass(bowtie, 3) == oracle_ass(bowtie, 4)

    def test_matches_formula_at_large_t_sampled(self):
        rng = random.Random(71)
        for g in rng.sample(list(all_graphs(5)), 30):
            t0 = s_gamma(g)
            assert prime_sets(ass_infinity(g)) == prime_sets(ass_primes(g, t0))


class TestSGamma:
    def test_bipartite_one(self, square, path3):
        assert s_gamma(square) == 1
        assert s_gamma(path3) == 1

    def test_triangle(self, triangle):
        assert s_gamma(triangle) == 2

    @pytest.mark.parametrize("t", [3, 4])
    def test_shared_vertex_triangles(self, t):
        # t-1 triangles through one common vertex: s(Gamma) = t
        edges = []
        for i in range(t - 1):
            b = 1 + 2 * i
            edges += [(1, b + 1), (1, b + 2), (b + 1, b + 2)]
        g = SimpleGraph.from_edges(2 * t - 1, edges)
        assert s_gamma(g) == t

    def test_pentagon(self, pentagon):
        assert s_gamma(pentagon) == 3

    def test_stabilization_small(self):
        for g in all_graphs_upto(4):
            t0 = s_gamma(g)
            stable = prime_sets(ass_infinity(g))
            assert prime_sets(ass_primes(g, t0)) == stable
            assert prime_sets(ass_primes(g, t0 + 1)) == stable


class TestStrongSufficiency:
    def test_strongly_saturating_sets_yield_primes(self):
        # Every cover minimal over N[U] with a strongly t-saturating weighted
        # graph on U shows up in ass_primes(g, t).  U must induce no isolated
        # vertex: a strongly saturating graph with one is not saturating
        # (triangle plus isolated vertex, all weights 1, t = 2) and yields
        # no associated prime there.
        rng = random.Random(81)
        pool = [g for g in all_graphs(4) if g.edges]
        hits = 0
        for g in rng.sample(pool, 20):
            for t in (2, 3):
                formula = prime_sets(ass_primes(g, t))
                for size in range(1, 5):
                    for sup in combinations(range(1, 5), size):
                        if any(not (g.adj[v] & set(sup)) for v in sup):
                            continue
                        found = None
                        for weights in product(range(1, t), repeat=size):
                            if sum(weights) > 3 * (t - 1):
                                continue
                            a = [0] * 4
                            for v, w in zip(sup, weights):
                                a[v - 1] = w
                            if is_strongly_t_saturating(weighted_graph(g, a), t):
                                found = tuple(a)
                                break
                        if found is None:
                            continue
                        from edgesat.graphs import covers_minimal_over

                        for f in covers_minimal_over(g, closed_neighborhood(g, sup)):
                            hits += 1
                            assert f in formula
        assert hits > 0


class TestDepth:
    def test_triangle_t2(self, triangle):
        assert not depth_positive(triangle, 2)

    def test_path_t2(self, path3):
        assert depth_positive(path3, 2)

    def test_pentagon_t3(self, pentagon):
        assert not depth_positive(pentagon, 3)

    def test_unsupported_t(self, triangle):
        with pytest.raises(ValueError):
            depth_positive(triangle, 4)

    def test_matches_oracle_small(self):
        for g in all_graphs_upto(4):
            for t in (2, 3):
                expect = frozenset(range(1, g.n + 1)) not in oracle_ass(g, t)
                assert depth_positive(g, t) == expect


class TestEmbeddedNecessity:
    def test_embedded_primes_lie_over_odd_cycle_supports(self):
        # Thm "embedded": every embedded prime is minimal over N[U] for a U
        # whose induced components each contain a short odd cycle.
        from edgesat.graphs import covers_minimal_over, iter_bits, mask_of
        from edgesat.graphs import components_masked
        from edgesat.saturation import _components_have_short_odd_cycles

        rng = random.Random(91)
        for g in rng.sample(list(all_graphs(5)), 30):
            for t in (2, 3):
                for rep in ass_primes(g, t):
                    if rep.kind != "embedded":
                        continue
                    ok = False
                    for size in range(1, 6):
                        for u in combinations(range(1, 6), size):
                            if not _components_have_short_odd_cycles(
                                g, mask_of(u), 2 * t - 1
                            ):
                                continue
                            if rep.vertices in covers_minimal_over(
                                g, closed_neighborhood(g, u)
                            ):
                                ok = True
                                break
                        if ok:
                            break
                    assert ok
