"""Associated-prime machinery: decision, enumeration, closed forms, stability."""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from edgesat import assoc, graphs, matching, saturation
from edgesat.assoc import (
    AssPrimeReport,
    _three_shapes,
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
from edgesat.census import all_graphs, all_graphs_upto, formula_ass, oracle_ass, random_graphs
from edgesat.graphs import (
    SimpleGraph,
    _closed_mask,
    _core_mask,
    _covers_edges,
    _nbrs,
    _odd_cycle_catalogue,
    closed_neighborhood,
    is_cover,
    is_minimal_cover,
    is_minimal_over,
    iter_bits,
    mask_of,
    minimal_covers,
    set_of,
    triangles,
)
from edgesat.ideals import MonomialIdeal, colon_monomial, edge_ideal, power
from edgesat.matching import WeightedGraph
from edgesat.saturation import (
    in_sat_minus_power,
    is_strongly_t_saturating,
    saturating_vectors,
    support,
)

from conftest import (
    ass_primes_reference,
    disjoint_triangles,
    graph,
    induced_subgraph,
    nbrs,
    odd_cycle_components,
    saturating_graphs,
    witness,
)


DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "ass_answer_digests.json"

G10 = [  # the 10-vertex, 19-edge graph of the golden CLI cases
    (1, 2), (1, 5), (1, 10), (2, 3), (2, 7), (2, 10), (3, 6), (3, 7), (4, 5), (4, 7),
    (4, 8), (5, 6), (5, 7), (5, 8), (5, 10), (6, 7), (7, 8), (8, 9), (8, 10),
]


def primes(reports: list[AssPrimeReport]) -> list[list[int]]:
    return [sorted(r.vertices) for r in reports]


def wg(g: SimpleGraph, *weights: int) -> WeightedGraph:
    return WeightedGraph(g, weights)


def complete(n: int) -> SimpleGraph:
    return graph(n, *combinations(range(1, n + 1), 2))


K4 = complete(4)


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

    @pytest.mark.parametrize("bad", [7, 0])
    def test_rejects_labels_outside_the_graph(self, triangle, bad):
        with pytest.raises(ValueError, match=f"vertex {bad} is not in 1..3"):
            is_associated(triangle, {1, 2, 3, bad}, 2)

    def test_witness_reverifiable(self, triangle):
        rep = is_associated(triangle, {1, 2, 3}, 2)
        assert rep is not None
        a = tuple(rep.evidence["exponents"])
        core_graph, _ = induced_subgraph(triangle, {1, 2, 3})
        assert in_sat_minus_power(core_graph, a, 2)

    def test_core_condition_refuses_a_member_of_the_power(self, triangle):
        # F = V: core(F) is the whole triangle, so for a supported on all of it
        # no inequality is asked and only nu(a) < t tells the witness apart.
        core = _core_mask(triangle, mask_of({1, 2, 3}))
        assert witness(triangle, 2, core, (1, 1, 1))
        assert not witness(triangle, 2, core, (2, 2, 2))  # nu = 3: in I^2
        rep = is_associated(triangle, {1, 2, 3}, 2)
        assert rep.evidence == {"type": "witness", "exponents": [1, 1, 1]}

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
        # Every cover of every graph with n <= 5, at t = 2 and t = 3, against
        # the enumerate-then-read reference (ass_primes decides each cover
        # through is_associated, so it would compare the decision with itself).
        cases = 0
        for g in all_graphs_upto(5):
            covers = [
                frozenset(c)
                for size in range(g.n + 1)
                for c in combinations(range(1, g.n + 1), size)
                if is_cover(g, c)
            ]
            for t in (2, 3):
                listed = prime_sets(ass_primes_reference(g, t))
                for f in covers:
                    cases += 1
                    assert (is_associated(g, f, t) is not None) == (f in listed), (g.edges, f, t)
        assert cases == 26448

    def test_evidence_matches_the_minimal_over_walk(self):
        # The domination test keeps the first witness: every cover of every
        # graph with n <= 5, at t = 2 and t = 3, against the walk over all of
        # core(F) that checks each yield with `is_minimal_over`.
        def reference(g: SimpleGraph, f: frozenset[int], t: int) -> AssPrimeReport | None:
            if is_minimal_cover(g, f):
                return AssPrimeReport(mask_of(f), "minimal", {"type": "minimal-cover"})
            for a in saturating_graphs(g, t, _core_mask(g, mask_of(f))):
                if is_minimal_over(g, f, closed_neighborhood(g, support(a))):
                    if witness(g, t, _core_mask(g, mask_of(f)), a):
                        evidence = {"type": "witness", "exponents": list(a)}
                        return AssPrimeReport(mask_of(f), "embedded", evidence)
            return None

        embedded = 0
        for g in all_graphs_upto(5):
            for m in range(g.full_mask + 1):
                f = set_of(m)
                if is_cover(g, f):
                    for t in (2, 3):
                        got = is_associated(g, f, t)
                        assert got == reference(g, f, t), (g.edges, f, t)
                        embedded += got is not None and got.kind == "embedded"
        assert embedded > 0


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

    def test_reports_equal_the_decision_exhaustive(self):
        # the catalogue filtered by N[U] gives each candidate the witness that
        # is_associated finds on its own walk of core(F), on every n <= 5
        embedded = 0
        for g in all_graphs_upto(5):
            for t in (2, 3):
                for r in ass_primes(g, t):
                    assert is_associated(g, r.vertices, t) == r, (g.edges, t)
                    embedded += r.kind == "embedded"
        assert embedded > 0

    def test_t1_is_minimal_covers(self):
        for g in all_graphs_upto(4):
            assert prime_sets(ass_primes(g, 1)) == set(minimal_covers(g))

    def test_blossom_runs_on_g10_t5(self, monkeypatch, cold_cache):
        # Each candidate cover walks only the supports inside its core, and
        # blossom runs only on weightings that neither the greedy lower bound
        # nor the cached inequalities settle: 84 from an empty cache.
        # Run again, every support reads its weightings from the cache.
        real, runs = matching._max_matching_simple, []
        greedy, greedy_calls = saturation._greedy_counts, []

        def counted(n, adj):
            runs.append(n)
            return real(n, adj)

        def counted_greedy(weights, edges):
            greedy_calls.append(weights)
            return greedy(weights, edges)

        monkeypatch.setattr(matching, "_max_matching_simple", counted)
        monkeypatch.setattr(saturation, "_greedy_counts", counted_greedy)
        g = SimpleGraph.from_edges(10, G10)
        reports = ass_primes(g, 5)
        assert len(reports) == 23 and 84 <= len(runs) <= 100 and greedy_calls
        runs.clear()
        greedy_calls.clear()
        assert ass_primes(g, 5) == reports and runs == greedy_calls == []


class TestWitnessOracle:
    def test_every_witness_certifies_its_prime(self):
        # The oracle re-checks each embedded report: for its witness a, with
        # b equal to a on F and t off F, I^t : x^b is P_F.  The colon
        # I^t : x^a itself is not P_F in general.
        cases = [(g, t) for g in all_graphs_upto(5) for t in (2, 3)]
        cases += [(g, t) for g in random_graphs(7, 40, 5) for t in (2, 3, 4)]
        checked = 0
        for g, t in cases:
            jt = None
            for r in ass_primes(g, t):
                if r.kind != "embedded":
                    continue
                if jt is None:
                    jt = power(edge_ideal(g), t)
                a = r.evidence["exponents"]
                b = [a[v - 1] if v in r.vertices else t for v in range(1, g.n + 1)]
                units = [[int(u == v) for u in range(1, g.n + 1)] for v in sorted(r.vertices)]
                got = colon_monomial(jt, b)
                assert got == MonomialIdeal.from_gens(g.n, units), (g.edges, t, r.to_dict())
                checked += 1
        assert checked == 1816


# Each public function of the formula side that takes t, called on the triangle.
T_TAKERS = {
    "in_power": lambda g, t: saturation.in_power(g, (1, 1, 1), t),
    "in_saturation": lambda g, t: saturation.in_saturation(g, (1, 1, 1), t),
    "in_sat_minus_power": lambda g, t: saturation.in_sat_minus_power(g, (1, 1, 1), t),
    "is_t_saturating": lambda g, t: saturation.is_t_saturating(wg(g, 1, 1, 1), t),
    "is_strongly_t_saturating": lambda g, t: is_strongly_t_saturating(wg(g, 1, 1, 1), t),
    "facets_delta": lambda g, t: saturation.facets_delta(g, (1, 1, -1), t),
    "ass_primes": ass_primes,
    "is_associated": lambda g, t: is_associated(g, {1, 2, 3}, t),
    "formula_ass": formula_ass,
    "saturating_vectors": saturating_vectors,
}


@pytest.mark.parametrize("t", [0, -1])
@pytest.mark.parametrize("name", T_TAKERS)
def test_t_below_one_has_one_message(triangle, name, t):
    with pytest.raises(ValueError, match="^power exponent t must be at least 1$"):
        T_TAKERS[name](triangle, t)


class TestCache:
    """Answers do not depend on what the process cache holds."""

    def test_tiny_limit_keeps_the_golden_answer(self, monkeypatch, cold_cache):
        # a limit far below one query's needs: each of the five memos fills
        # and empties, never holds more than the limit, and the answers stay
        golden = json.loads((DATA / "ass_g10_t4_formula.json").read_text())
        witnesses = [p["evidence"]["exponents"] for p in golden["primes"] if p["kind"] == "embedded"]
        fresh = SimpleGraph.from_edges(10, G10)
        want = [saturation._membership(fresh, a, 4) for a in witnesses]
        cold_cache.clear()
        g, limit, held = SimpleGraph.from_edges(10, G10), 2, {}
        memos = {
            "nu": cold_cache.nu,
            "saturating": cold_cache.saturating,
            "supports": g._support_memo,
            "covers": g._cover_catalogue,
            "odd cycles": g._odd_cycle_memo,
        }
        names, remember = {id(memo): name for name, memo in memos.items()}, graphs._remember

        def counted(memo, key, value):
            value = remember(memo, key, value)
            held.setdefault(names[id(memo)], []).append(len(memo))
            return value

        monkeypatch.setattr(graphs, "_CACHE_LIMIT", limit)
        for module in (graphs, matching, saturation):
            monkeypatch.setattr(module, "_remember", counted)
        reports = ass_primes(g, 4)
        assert [r.to_dict() for r in reports] == golden["primes"]
        for r in reports:  # each cover decided again, on its core's own catalogue
            assert is_associated(g, r.vertices, 4).to_dict() == r.to_dict()
        assert [saturation._membership(g, a, 4) for a in witnesses] == want
        assert all(not in_pow for in_pow, _ in want)  # nu < t: no witness lies in I^4
        assert sorted(held) == sorted(memos)
        for name, sizes in held.items():
            assert max(sizes) == limit and sizes.count(1) > 1, name

    @pytest.mark.parametrize(
        "g, t",
        [(complete(7), 4), (complete(9), 5), (disjoint_triangles(4), 5)],
        ids=["K7", "K9", "four triangles"],
    )
    def test_symmetric_supports_answer_as_without_sharing(self, cold_cache, g, t):
        # many labelled copies of one support, each read under its own edge
        # bits, no entry shared between isomorphic supports: the listing is
        # the enumerate-then-read reference's
        want = [(r.vertices, r.kind) for r in ass_primes_reference(g, t)]
        cold_cache.clear()
        assert [(r.vertices, r.kind) for r in ass_primes(g, t)] == want

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_warm_answers_equal_cold_answers(self, cold_cache, t):
        def answers(g, t):  # is_associated returns the first witness in the search order
            covers = [set_of(m) for m in range(g.full_mask + 1) if is_cover(g, set_of(m))]
            decided = [is_associated(g, f, t) for f in covers]
            return (
                saturating_vectors(g, t),
                [r.to_dict() for r in ass_primes(g, t)],
                [None if r is None else r.to_dict() for r in decided],
            )

        graphs = random_graphs(7, 40, 11)
        cold = []
        for g in graphs:
            cold_cache.clear()
            cold.append(answers(g, t))
        rng = random.Random(t)
        relabelled = []  # the same graphs under other labels, warmed before the originals
        for g in graphs:
            sigma = rng.sample(range(1, 8), 7)
            relabelled.append(graph(7, *((sigma[u - 1], sigma[v - 1]) for u, v in g.edges)))
        for warm in (random_graphs(7, 40, 12), relabelled):
            cold_cache.clear()
            for g in warm:  # warmed at every t, to catch a key without t
                for other in (2, 3, 4):
                    answers(g, other)
            assert [answers(g, t) for g in graphs] == cold


class TestReportWalk:
    # The covers minimal over S come from one Bron-Kerbosch run on V \ S,
    # memoised on the graph object; S = 0 gives the minimal covers.
    @pytest.fixture
    def runs(self, monkeypatch):
        real, bases = graphs._maximal_independent_sets, []

        def counted(g, region):
            bases.append(g.full_mask & ~region)
            return real(g, region)

        monkeypatch.setattr(graphs, "_maximal_independent_sets", counted)
        return bases

    @pytest.mark.parametrize("t", [3, 4])
    def test_covers_once_per_closed_neighbourhood_g10(self, runs, t):
        # thousands of saturating graphs on G10, but only 11 distinct N[S]
        assert len(ass_primes(SimpleGraph.from_edges(10, G10), t)) == 23
        assert runs[0] == 0 and len(runs) == len(set(runs)) == 1 + 11

    def test_closed_forms_once_per_closed_neighbourhood_g10(self, runs):
        for route, supports in (
            (ass_primes_3, lambda g: [m for _, m in _three_shapes(g, g.full_mask)]),
            (ass_infinity, lambda g: [m for m, _, _ in _odd_cycle_catalogue(g, g.full_mask, g.n)]),
        ):
            g = SimpleGraph.from_edges(10, G10)
            runs.clear()
            route(g)
            closed = {_closed_mask(g, m) for m in supports(g)}
            assert len(runs) == len(set(runs)) and set(runs) == closed | {0}

    def test_one_catalogue_across_routes(self, runs):
        # the census asks the formula and the closed form of one graph object
        g = SimpleGraph.from_edges(10, G10)
        assert prime_sets(ass_primes(g, 3)) == prime_sets(ass_primes_3(g))
        catalogue = _odd_cycle_catalogue(g, g.full_mask, g.n)
        closed = {_closed_mask(g, m) for m, _, _ in catalogue if m.bit_count() <= 6}
        closed |= {_closed_mask(g, m) for _, m in _three_shapes(g, g.full_mask)}
        assert len(runs) == len(set(runs)) and set(runs) == closed | {0}


class TestOddCycleCatalogue:
    # The odd-cycle sets of a region come from one walk, sorted once and
    # memoised on the graph object under (region, min(top, |region|)).
    @pytest.fixture
    def walks(self, monkeypatch):
        real, caps = graphs._odd_cycle_sets, []

        def counted(g, region, top):
            if region == g.full_mask:  # the walk's own recursion runs on smaller regions
                caps.append(top)
            return real(g, region, top)

        for module in (graphs, saturation, assoc):  # and wherever it is imported by name
            if hasattr(module, "_odd_cycle_sets"):
                monkeypatch.setattr(module, "_odd_cycle_sets", counted)
        return caps

    def test_one_walk_across_routes(self, walks):
        # the `ass` benchmark op asks ass_primes and is_associated(g, V, t)
        g = SimpleGraph.from_edges(10, G10)
        assert len(ass_primes(g, 3)) == 23
        assert is_associated(g, range(1, 11), 3).kind == "embedded"
        assert saturating_vectors(g, 3)
        assert walks == [6]
        ass_primes(SimpleGraph.from_edges(10, G10), 3)
        assert walks == [6, 6]

    @pytest.mark.parametrize("t", [3, 5])
    def test_small_cores_walk_only_their_region(self, walks, t):
        # a dense 16-vertex graph has 55,433 odd-cycle sets; a cover whose core
        # has at most 3 vertices is decided on the catalogue of its core alone
        g = random_graphs(16, 2, 6)[0]
        covers = [
            m
            for m in range(1 << g.n)
            if _covers_edges(g, m) and 1 <= _core_mask(g, m).bit_count() <= 3
        ]
        assert len(covers) == 91
        decided = [is_associated(g, set_of(m), t) for m in covers]
        assert any(r is not None and r.kind == "embedded" for r in decided)
        assert walks == []

    def test_memo_key_is_exact(self):
        # a catalogue read under another region or another cap changes some
        # decision or witness, so a graph object that has answered ass_primes
        # at t = 2 and 3 must decide every cover as a fresh object does
        for g in all_graphs_upto(5):
            shared = SimpleGraph(g.n, g.edges)
            covers = [s for s in map(set_of, range(1 << g.n)) if is_cover(g, s)]
            for t in (2, 3):
                ass_primes(shared, t)
                for f in covers:
                    want = is_associated(SimpleGraph(g.n, g.edges), f, t)
                    assert is_associated(shared, f, t) == want, (g.edges, t, sorted(f))


def _three_shapes_reference(g: SimpleGraph) -> list[tuple[str, frozenset[int]]]:
    """The t = 3 shape lists by set algebra on vertex sets, independent of the masks."""
    tris = [frozenset(t) for t in triangles(g)]
    shapes = [("triangle", t) for t in tris]
    for t in tris:
        attach = set().union(*(nbrs(g, v) for v in t)) - t
        shapes += [("edge-plus-triangle", t | {v}) for v in sorted(attach)]
    nonadjacent, shared = [], []
    for t1, t2 in combinations(tris, 2):
        if not t1 & t2:
            if not any(g.has_edge(u, v) for u in t1 for v in t2):
                nonadjacent.append(t1 | t2)
        elif len(t1 & t2) == 1:
            shared.append(t1 | t2)
    shapes += [("two-disjoint-triangles", s) for s in nonadjacent]
    shapes += [("two-triangles-shared-vertex", s) for s in shared]
    for verts in combinations(range(1, g.n + 1), 5):
        for perm in permutations(verts[1:]):
            cycle = (verts[0], *perm)
            if all(g.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])):
                shapes.append(("pentagon", frozenset(verts)))
                break
    return shapes


# Two disjoint triangles with no joining edge, and a third sharing one vertex
# with one of them, so that both kinds of triangle pair meet in one list;
# none of the seeded n = 7 graphs has both.
TWO_PAIR_KINDS = graph(8, (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (6, 7), (6, 8), (7, 8))


class TestThreeShapes:
    # The first shape that gives a prime keeps its evidence, so the order
    # of the list is part of the output.
    @pytest.mark.parametrize("source", ["n<=5", "n=7"])
    def test_same_shapes_in_the_same_order(self, source):
        if source == "n<=5":
            graphs = all_graphs_upto(5)
        else:
            graphs = [*random_graphs(7, 300, 3), TWO_PAIR_KINDS]
        tags = set()
        for g in graphs:
            got = [(tag, set_of(m)) for tag, m in _three_shapes(g, g.full_mask)]
            assert got == _three_shapes_reference(g), g.edges
            tags |= {tag for tag, _ in got}
        assert len(tags) == (4 if source == "n<=5" else 5)


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
        assert classify_3_saturating(wg(triangle, 2, 2, 1)) == "triangle-2-2-1"

    def test_pentagon(self, pentagon):
        got = classify_3_saturating(wg(pentagon, 1, 1, 1, 1, 1))
        assert got == "pentagon-spanned"

    def test_triangle_ones_is_not_t3(self, triangle):
        assert classify_3_saturating(wg(triangle, 1, 1, 1)) is None

    def test_edge_plus_triangle(self, tailed_triangle):
        # triangle {1,2,3} with weight 2 at vertex 3, pendant edge 3-4;
        # oracle-confirmed member of sat(I^3) \ I^3
        got = classify_3_saturating(wg(tailed_triangle, 1, 1, 2, 1, 0))
        assert got == "edge-plus-triangle"
        g = graph(4, (1, 2), (1, 3), (2, 3), (1, 4))
        assert classify_3_saturating(wg(g, 2, 1, 1, 1)) == "edge-plus-triangle"

    def test_undominated_support_is_none(self, tailed_triangle):
        # support {1,2,3} leaves vertex 5 undominated
        assert classify_3_saturating(wg(tailed_triangle, 2, 2, 1, 0, 0)) is None

    def test_two_triangle_shapes(self, bowtie):
        assert (
            classify_3_saturating(wg(bowtie, 1, 1, 1, 1, 1))
            == "two-triangles-shared-vertex"
        )
        g = graph(6, (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6))
        assert (
            classify_3_saturating(wg(g, 1, 1, 1, 1, 1, 1))
            == "two-disjoint-triangles"
        )

    def test_k4_case(self):
        assert classify_3_saturating(wg(K4, 1, 1, 1, 1)) == "k4"

    def test_classification_is_the_membership_test(self):
        # tag exists  <=>  x^a in sat(I^3) \ I^3, across a sampled census
        rng = random.Random(61)
        for g in rng.sample(list(all_graphs(5)), 40):
            for a in rng.sample(list(product(range(3), repeat=5)), 40):
                h = WeightedGraph(g, a)
                tag = classify_3_saturating(h)
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


class TestOddCycleSupports:
    def test_walks_only_the_odd_cycle_components(self):
        # C31 and a triangle plus 13 isolated vertices each have one odd-cycle
        # set, among 2^31 - 1 and 2^16 - 1 vertex masks
        c31 = graph(31, *((i, i + 1) for i in range(1, 31)), (1, 31))
        triangle_and_isolated = graph(16, (1, 2), (1, 3), (2, 3))
        for g, only in ((c31, c31.full_mask), (triangle_and_isolated, 0b111)):
            assert [m for m, _, _ in _odd_cycle_catalogue(g, g.full_mask, g.n)] == [only]
        assert len(ass_infinity(triangle_and_isolated)) == 4
        assert s_gamma(triangle_and_isolated) == 2

    def test_same_supports_as_the_walk_over_every_mask(self):
        # random_graphs(16, 2, 6)[0] has 55,433 such sets, 15 of them disconnected
        g16 = random_graphs(16, 2, 6)[0]
        for g in [*all_graphs_upto(5), TWO_PAIR_KINDS, graph(7, (1, 2), (1, 3), (2, 3), (5, 6)), g16]:
            every = []
            for um in range(1, g.full_mask + 1):
                comps = odd_cycle_components(g, um)
                if comps is not None:
                    every.append((um, _nbrs(g, um), tuple(comps)))
            assert sorted(_odd_cycle_catalogue(g, g.full_mask, g.n)) == every, g.edges
        assert len(every) == 55433


def _component_strong_level(g: SimpleGraph, comp: int) -> int:
    """Largest s with an induced strongly s-saturating subgraph on 2s-1 vertices
    of the component mask `comp`."""
    verts = list(iter_bits(comp))
    for s in range((len(verts) + 1) // 2, 1, -1):
        for w in map(mask_of, combinations(verts, 2 * s - 1)):
            a = [w >> i & 1 for i in range(g.n)]
            if is_strongly_t_saturating(WeightedGraph(g, a), s):
                return s
    return 0


def _s_gamma_reference(g: SimpleGraph) -> int:
    """s(Gamma) by a subset search over each component of each odd-cycle set."""
    comp_cache: dict[int, int] = {}
    best = 1
    for um, _, comps in _odd_cycle_catalogue(g, g.full_mask, g.n):
        total = 0
        for cm in comps:
            level = comp_cache.get(cm)
            if level is None:
                level = comp_cache[cm] = _component_strong_level(g, cm)
            if level < 2:
                raise RuntimeError(f"odd-cycle component {list(iter_bits(cm))} has no strong level")
            total += level
        best = max(best, um.bit_count() - total + 1)
    return best


def triangle_path(k: int) -> SimpleGraph:
    """k triangles joined in a path, the last vertex of each to the first of
    the next: 3k vertices, 4k - 1 edges."""
    edges = [(b, b + 1) for b in range(3, 3 * k, 3)]
    for b in range(0, 3 * k, 3):
        edges += [(b + 1, b + 2), (b + 1, b + 3), (b + 2, b + 3)]
    return SimpleGraph.from_edges(3 * k, edges)


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

    def test_matches_the_subset_search(self):
        # one pass over the walk against a C(|c|, 2s-1) search per component
        graphs = [*all_graphs_upto(5), *(g for n in (6, 7, 8) for g in random_graphs(n, 100, 30))]
        for g in graphs:
            assert s_gamma(g) == _s_gamma_reference(g), g.edges

    @pytest.mark.parametrize("k, want", [(5, 14), (6, 17)])
    def test_triangle_paths(self, k, want):
        # past the reference's reach: its subset search takes seconds at k = 5
        # and minutes at k = 6
        g = triangle_path(k)
        assert (g.n, len(g.edges)) == (3 * k, 4 * k - 1)
        assert s_gamma(g) == want

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
                        if any(not (nbrs(g, v) & set(sup)) for v in sup):
                            continue
                        found = None
                        for weights in product(range(1, t), repeat=size):
                            if sum(weights) > 3 * (t - 1):
                                continue
                            a = [0] * 4
                            for v, w in zip(sup, weights):
                                a[v - 1] = w
                            if is_strongly_t_saturating(WeightedGraph(g, a), t):
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
        from edgesat.graphs import shortest_odd_cycle_masked

        def components_have_short_odd_cycles(g, sup_mask, bound):
            for comp in components_masked(g, sup_mask):
                length = shortest_odd_cycle_masked(g, comp)
                if length is None or length > bound:
                    return False
            return True

        rng = random.Random(91)
        for g in rng.sample(list(all_graphs(5)), 30):
            for t in (2, 3):
                for rep in ass_primes(g, t):
                    if rep.kind != "embedded":
                        continue
                    ok = False
                    for size in range(1, 6):
                        for u in combinations(range(1, 6), size):
                            if not components_have_short_odd_cycles(
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


def _digest_graphs() -> list[SimpleGraph]:
    return [*all_graphs_upto(5), *random_graphs(7, 30, 7)]


def _answers(g: SimpleGraph) -> dict:
    """Every public Ass answer on g, as plain JSON values."""
    def dicts(reports):
        return [r.to_dict() for r in reports]

    def decided(f, t):
        rep = is_associated(g, f, t)
        return None if rep is None else rep.to_dict()

    covers = [set_of(m) for m in range(g.full_mask + 1) if is_cover(g, set_of(m))]
    vectors = []
    if g.n <= 4:
        vectors = list(product(range(3), repeat=g.n))
    elif g.n == 7:  # the indicator vectors of the 4-, 5- and 6-subsets
        vectors = [
            tuple(int(v in sup) for v in range(1, 8))
            for k in (4, 5, 6)
            for sup in combinations(range(1, 8), k)
        ]
    return {
        "edges": sorted(g.edges),
        "n": g.n,
        "ass": [dicts(ass_primes(g, t)) for t in (1, 2, 3, 4)],
        "ass2": dicts(ass_primes_2(g)),
        "ass3": dicts(ass_primes_3(g)),
        "ass_infinity": dicts(ass_infinity(g)),
        "depth": [depth_positive(g, 2), depth_positive(g, 3)],
        "s_gamma": s_gamma(g),
        "is_associated": [[decided(f, t) for f in covers] for t in (2, 3)],
        "classify3": [[a, classify_3_saturating(wg(g, *a))] for a in vectors],
    }


def _answer_digests() -> list[str]:
    """A 16-hex sha256 prefix of each digest graph's canonical answers."""
    return [
        hashlib.sha256(json.dumps(_answers(g), sort_keys=True, separators=(",", ":")).encode())
        .hexdigest()[:16]
        for g in _digest_graphs()
    ]


class TestReports:
    # A report holds its cover as a vertex mask; the vertex set is read off it.
    # The minimal covers share one read-only evidence object, and to_dict hands
    # out a fresh plain dict.
    def test_vertices_are_the_mask(self):
        count = 0
        for g in _digest_graphs():
            routes = [ass_primes(g, t) for t in (1, 2, 3, 4)]
            routes += [ass_primes_2(g), ass_primes_3(g), ass_infinity(g)]
            for r in (r for reports in routes for r in reports):
                assert type(r.mask) is int and r.vertices == set_of(r.mask)
                assert type(r.vertices) is frozenset and mask_of(r.vertices) == r.mask
                assert r.to_dict()["vertices"] == sorted(r.vertices)
                count += 1
        assert count > 10000

    def test_minimal_evidence_is_shared_and_read_only(self, bowtie):
        reports = [r for r in ass_primes(bowtie, 3) if r.kind == "minimal"]
        decided = is_associated(bowtie, reports[0].vertices, 3)
        assert len(reports) > 1 and all(r.evidence is decided.evidence for r in reports)
        with pytest.raises(TypeError):
            decided.evidence["type"] = "tampered"
        assert reports[0].evidence == {"type": "minimal-cover"}

    def test_to_dict_gives_a_fresh_plain_dict(self, bowtie):
        for r in ass_primes(bowtie, 3):
            first, again = r.to_dict()["evidence"], r.to_dict()["evidence"]
            assert type(first) is dict and first == again and first is not again
            first["type"] = "tampered"
            assert r.evidence["type"] != "tampered" and r.to_dict()["evidence"] == again


class TestAnswerDigest:
    # Every public Ass answer, evidence and order included, on every graph
    # with n <= 5 and 30 seeded n = 7 graphs.  A change that means to alter
    # an answer rewrites the file with `python tests/test_assoc.py` and says
    # why; a refactor leaves it alone.
    def test_answers_match_the_committed_digests(self):
        graphs, want = _digest_graphs(), json.loads(DIGESTS.read_text())
        assert len(want) == len(graphs)
        for g, got, expect in zip(graphs, _answer_digests(), want):
            assert got == expect, f"answers differ first on n={g.n} edges={sorted(g.edges)}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_answer_digests(), indent=0) + "\n")
