"""Membership predicates, saturating weighted graphs, and the facet formula."""

from __future__ import annotations

import gc
import random
import sys
import threading
import weakref
from itertools import combinations, permutations, product

import numpy as np
import pytest

from edgesat import graphs, matching, saturation
from edgesat.assoc import ass_primes, is_associated
from edgesat.census import all_graphs, all_graphs_upto, random_graphs
from edgesat.cli import main
from edgesat.graphs import (
    SimpleGraph,
    _closed_mask,
    _nbrs,
    _odd_cycle_sets,
    components_masked,
    core_of_cover,
    is_cover,
    iter_bits,
    mask_of,
    set_of,
)
from edgesat.ideals import (
    MonomialIdeal,
    colon_monomial,
    edge_ideal,
    membership,
    membership_many,
    power,
    saturate,
)
from edgesat.matching import WeightedGraph, _edge_bits, nu, nu_bruteforce
from edgesat.saturation import (
    build_strong,
    extend_by_edge,
    facets_delta,
    in_power,
    in_sat_minus_power,
    in_saturation,
    is_strongly_t_saturating,
    is_t_saturating,
    saturating_vectors,
    support,
)

from conftest import (
    disjoint_triangles,
    graph,
    induced_subgraph,
    minus,
    nbrs,
    odd_cycle_components,
    saturating_graphs,
    set_order,
    shortest_odd_cycle,
)


def wg(g: SimpleGraph, *weights: int) -> WeightedGraph:
    return WeightedGraph(g, weights)


def dominates(g: SimpleGraph, u: frozenset[int]) -> bool:
    """Whether every vertex outside u has a neighbour in u: N[u] is V."""
    return _closed_mask(g, mask_of(u)) == g.full_mask


def cycle_graph(k: int) -> SimpleGraph:
    return SimpleGraph.from_edges(k, [(i, i + 1) for i in range(1, k)] + [(1, k)])


def _unpruned(g: SimpleGraph, t: int, top: int) -> list[tuple[int, ...]]:
    """Every nonzero a in {0..top}^n whose weighted graph is t-saturating, sorted."""
    return [
        a
        for a in product(range(top + 1), repeat=g.n)
        if any(a) and is_t_saturating(WeightedGraph(g, a), t)
    ]


def _saturating_by_brute_force(h: WeightedGraph, t: int, memo: dict) -> bool:
    """nu(H) < t and nu(H - N(i)) >= t - w(N(i)) at every vertex i of H, with
    each nu from `nu_bruteforce`, memoised on the weighted edge set."""

    def nu_bf(x: WeightedGraph) -> int:
        key = (tuple(sorted(x.weight_map.items())), x.edges)
        if key not in memo:
            memo[key] = nu_bruteforce(x)
        return memo[key]

    if not h.vertices or nu_bf(h) >= t:
        return False
    for i in h.vertices:
        near = nbrs(h.graph, i) & set(h.vertices)
        w = sum(h.a[j - 1] for j in near)
        if w < t and nu_bf(minus(h, near)) < t - w:
            return False
    return True


class TestInPower:
    def test_triangle(self, triangle):
        assert not in_power(triangle, (1, 1, 1), 2)
        assert in_power(triangle, (2, 2, 1), 2)

    def test_zero_vector(self, tailed_triangle):
        assert not in_power(tailed_triangle, (0, 0, 0, 0, 0), 1)

    def test_requires_positive_t(self, triangle):
        with pytest.raises(ValueError):
            in_power(triangle, (1, 1, 1), 0)


PREDICATES = (in_power, in_saturation, in_sat_minus_power)


class TestPredicateInputs:
    """The three membership predicates take numpy rows and keep their messages."""

    def test_numpy_rows_give_python_bools_and_int_cache_values(self, pentagon):
        jt = power(edge_ideal(pentagon), 3)
        sat = saturate(jt)
        rows = np.array(list(product(range(4), repeat=5))[::7] + [[70, 3, 0, 2, 9]], dtype=np.int64)
        for row in rows:
            got = [p(pentagon, row, 3) for p in PREDICATES]
            assert all(type(x) is bool for x in got), row
            in_pow, in_sat = membership(jt, row), membership(sat, row)
            assert got == [in_pow, in_sat, in_sat and not in_pow], row
        assert matching._CACHE.nu and all(type(v) is int for v in matching._CACHE.nu.values())

    @pytest.mark.parametrize("a, t, message", [
        ((1, 1), 2, "exponent vector has length 2, expected 3"),
        ((1, 1, 1, 1), 2, "exponent vector has length 4, expected 3"),
        (np.array([1, 1]), 2, "exponent vector has length 2, expected 3"),
        ((1, -1, 1), 2, "exponents must be non-negative"),
        ((1, 1, 1), 0, "power exponent t must be at least 1"),
        ((1, 1), 0, "power exponent t must be at least 1"),  # t is checked first
    ])
    def test_messages(self, triangle, a, t, message):
        for predicate in PREDICATES:
            with pytest.raises(ValueError, match=f"^{message}$"):
                predicate(triangle, a, t)

    @pytest.mark.parametrize("argv, message", [
        (["2", "1,1"], "error: vector has 2 entries, the graph has 3 vertices"),
        (["2", "1,-1,1"], "error: exponents must be non-negative here"),
    ])
    def test_cli_messages(self, capsys, argv, message):
        assert main(["sat", "--edges", "1-2,1-3,2-3", *argv]) == 2
        assert capsys.readouterr().err.strip() == message

    def test_cli_refuses_t_below_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sat", "--edges", "1-2,1-3,2-3", "0", "1,1,1"])
        assert exc.value.code == 2
        assert "argument t: the power exponent must be at least 1, got 0" in capsys.readouterr().err


class TestIntegerExponents:
    """Both routes refuse exponents that are not integers, with one message;
    numpy integer and bool vectors still pass."""

    ENTRY_POINTS = {
        "WeightedGraph": lambda g, a: WeightedGraph(g, a),
        "in_power": lambda g, a: in_power(g, a, 1),
        "in_saturation": lambda g, a: in_saturation(g, a, 2),
        "facets_delta": lambda g, a: facets_delta(g, a, 2),
        "membership": lambda g, a: membership(edge_ideal(g), a),
        "colon_monomial": lambda g, a: colon_monomial(edge_ideal(g), a),
        "from_gens": lambda g, a: MonomialIdeal.from_gens(g.n, [a]),
    }

    @pytest.mark.parametrize("x", [1.5, np.float64(1.0)])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_non_integer_entry_refused(self, triangle, entry, x):
        with pytest.raises(ValueError, match="^exponents must be integers$"):
            self.ENTRY_POINTS[entry](triangle, (x, 1, 1))

    @pytest.mark.parametrize("t", [1.5, np.float64(2.0)])
    def test_non_integer_t_refused(self, triangle, t):
        for predicate in PREDICATES:
            with pytest.raises(ValueError, match="^power exponent t must be an integer$"):
                predicate(triangle, (1, 1, 1), t)

    @pytest.mark.parametrize("a", [np.array([2, 2, 1], dtype=np.uint8), np.array([True] * 3)])
    def test_numpy_integer_and_bool_vectors_pass(self, triangle, a):
        assert WeightedGraph(triangle, a).a == tuple(map(int, a))
        jt = power(edge_ideal(triangle), 2)
        assert in_power(triangle, a, 2) == membership(jt, a)
        assert in_saturation(triangle, a, 2) == membership(saturate(jt), a)
        assert MonomialIdeal.from_gens(3, [a]).to_lists() == [list(map(int, a))]

    def test_saturating_vectors_checks_t(self, triangle):
        with pytest.raises(ValueError, match="^power exponent t must be an integer$"):
            saturating_vectors(triangle, 2.5)
        with pytest.raises(ValueError, match="^saturating graphs require t >= 2$"):
            saturating_vectors(triangle, 1)

    @pytest.mark.parametrize("x", [2**70, -(2**70), 2**63, np.uint64(2**63)])
    @pytest.mark.parametrize("entry", ["membership", "colon_monomial", "from_gens"])
    def test_ints_beyond_int64_refused_by_the_oracle(self, triangle, entry, x):
        # numpy reads these as objects, floats or uint64, not as int64
        with pytest.raises(ValueError, match="^exponents must fit in a signed 64-bit integer$"):
            self.ENTRY_POINTS[entry](triangle, (x, 0, 0))


class TestSupportStore:
    """The membership questions keep their entries on the graph object, in
    `SimpleGraph._support_memo`, one per support mask; `graphs._remember`
    empties a memo before an insert once it holds `_CACHE_LIMIT` entries, and
    the process cache holds no graph."""

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_differential_against_the_oracle_at_n7(self, cold_cache, t):
        # random 7-vertex graphs, each with 8 vectors of entries below t and
        # 8 with entries up to 64, as in the `membership` benchmark, and its
        # first 4 t-saturating vectors, which sit near sat(I^t) \ I^t
        rng = random.Random(70 + t)
        gaps = 0
        for g in random_graphs(7, 150, 70 + t):
            vectors = [[rng.randrange(t) for _ in range(7)] for _ in range(8)]
            vectors += [[rng.randrange(65) for _ in range(7)] for _ in range(8)]
            vectors += saturating_vectors(g, t)[:4]
            jt = power(edge_ideal(g), t)
            in_jt = membership_many(jt, np.array(vectors))
            in_sat = membership_many(saturate(jt), np.array(vectors))
            for a, p, s in zip(vectors, in_jt, in_sat):
                got = [predicate(g, a, t) for predicate in PREDICATES]
                assert got == [p, s, s and not p], (sorted(g.edges), a, t)
                gaps += got[2]
        assert gaps >= 200

    def test_alternating_graphs_with_one_support(self, cold_cache):
        # the same support mask on the triangle and on the path 1-2-3 has
        # other edge bits and plans; an entry shared between them would answer
        # for the wrong graph
        path = graph(3, (1, 2), (2, 3))
        triangle = graph(3, (1, 2), (1, 3), (2, 3))
        for _ in range(2):
            for g, answers in ((triangle, [True, True, False]), (path, [False, False, False])):
                assert [p(g, (1, 1, 2), 2) for p in PREDICATES] == answers
            for g, answers in ((triangle, [False, True, True]), (path, [False, False, False])):
                assert [p(g, (1, 1, 1), 2) for p in PREDICATES] == answers
            # one entry for the mask on each graph, built for that graph
            for g in (triangle, path):
                assert list(g._support_memo) == [0b111] and g._support_memo[0b111][0].graph is g

    @pytest.mark.parametrize("t", [2, 3])
    def test_graphs_asked_in_turn_answer_as_a_cold_cache(self, cold_cache, t):
        # each vector of {0..t}^4 is asked of every graph on 4 vertices in turn,
        # warm against a cleared cache and a fresh copy of the graph each time
        pool = list(all_graphs(4))
        vectors = list(product(range(t + 1), repeat=4))
        cold, asked = [], {}
        for a in vectors:
            for g in pool:
                for p in PREDICATES:
                    cold_cache.clear()
                    cold.append(p(SimpleGraph(g.n, g.edges), a, t))
                    asked.update(cold_cache.nu)
        cold_cache.clear()
        warm = [p(g, a, t) for a in vectors for g in pool for p in PREDICATES]
        assert warm == cold
        assert all(len(g._support_memo) == 16 for g in pool)
        # the warm store holds the answers the cold questions computed, and only those
        assert cold_cache.nu == asked and len(cold_cache.nu) > 0 and cold_cache.saturating == {}

    def test_threads_switching_graphs_get_their_own_answers(self, cold_cache):
        # each thread asks about one graph while others ask the same mask of another
        path = graph(3, (1, 2), (2, 3))
        triangle = graph(3, (1, 2), (1, 3), (2, 3))
        want = {triangle: [False, True, True], path: [False, False, False]}
        wrong = []

        def ask(g):
            for _ in range(3000):
                got = [p(g, (1, 1, 1), 2) for p in PREDICATES]
                if got != want[g]:
                    wrong.append((g, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=ask, args=(g,)) for g in [triangle, path] * 3]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers) and wrong == []
        for g in (triangle, path):
            assert list(g._support_memo) == [0b111] and g._support_memo[0b111][0].graph is g
        assert len(cold_cache.nu) == 1 and cold_cache.saturating == {}

    def test_threads_sharing_a_graph_at_alternating_t_get_their_own_answers(self, cold_cache, pentagon):
        # each thread asks one vector of one graph object at its own t, while
        # the others overwrite the slot of the one entry they share
        a = (1, 1, 1, 1, 1)
        want = {2: [True, True, False], 3: [False, True, True], 4: [False, False, False]}
        wrong = []

        def ask(t):
            for _ in range(3000):
                got = [p(pentagon, a, t) for p in PREDICATES]
                if got != want[t]:
                    wrong.append((t, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=ask, args=(t,)) for t in [2, 3, 4] * 2]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers) and wrong == []
        assert list(pentagon._support_memo) == [0b11111]

    def test_the_process_cache_keeps_no_graph_alive(self):
        # the answers are kept, and checked, after the graph is gone
        g = graph(5, (1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3))
        answers = [
            in_power(g, (1, 1, 1, 1, 0), 2),
            in_saturation(g, (1, 1, 1, 1, 1), 3),
            len(ass_primes(g, 3)),
            is_associated(g, g.vertices, 3) is None,
        ]
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None
        assert answers == [True, True, 5, False]

    def test_a_key_stored_twice_is_one_entry(self, cold_cache):
        for value in (1, 2):
            assert graphs._remember(cold_cache.nu, ((1, 1), 0b1), value) == value
        assert cold_cache.nu == {((1, 1), 0b1): 2}

    def test_entries_are_counted_and_cleared(self, monkeypatch, cold_cache, pentagon, triangle):
        vectors = [(1, 1, 0, 0, 0), (1, 1, 1, 0, 0), (1, 0, 1, 0, 1), (1, 1, 1, 1, 1)]
        for a in vectors:
            in_saturation(pentagon, a, 2)
        assert len(pentagon._support_memo) == 4
        # another graph's question on a shared mask adds an entry to that graph only
        in_power(triangle, (1, 1, 1), 2)
        assert list(triangle._support_memo) == [0b111] and len(pentagon._support_memo) == 4
        assert pentagon._support_memo[0b111][0].graph is pentagon
        # a full memo answers a mask it holds, and empties itself before an insert
        monkeypatch.setattr(graphs, "_CACHE_LIMIT", 4)
        assert not in_power(pentagon, (1, 1, 1, 0, 0), 3) and len(pentagon._support_memo) == 4
        in_power(pentagon, (0, 1, 1, 0, 0), 2)
        assert list(pentagon._support_memo) == [0b00110]
        assert list(triangle._support_memo) == [0b111]
        # each process store has its own bound: a full `nu` store empties itself
        # before an insert, and the saturating store and the graphs' memos are
        # not its to clear
        assert saturating_vectors(triangle, 2) == [(1, 1, 1)]
        saturating = dict(cold_cache.saturating)
        monkeypatch.setattr(graphs, "_CACHE_LIMIT", len(cold_cache.nu))
        nu(WeightedGraph(triangle, (3, 2, 2)))
        assert len(cold_cache.nu) == 1 < graphs._CACHE_LIMIT
        assert cold_cache.saturating == saturating and len(saturating) == 1
        cold_cache.clear()
        assert cold_cache.nu == {} and cold_cache.saturating == {}
        assert list(triangle._support_memo) == [0b111]
        assert in_saturation(triangle, (1, 1, 1), 2) and list(triangle._support_memo) == [0b111]


def _graphs_up_to_relabelling(n: int) -> list[SimpleGraph]:
    """One labelled graph on n vertices for each graph up to relabelling."""
    seen, kept = set(), []
    perms = list(permutations(range(n)))
    for g in all_graphs(n):
        relabelled = (sorted(tuple(sorted((p[u - 1], p[v - 1]))) for u, v in g.edges) for p in perms)
        key = tuple(min(relabelled))
        if key not in seen:
            seen.add(key)
            kept.append(g)
    return kept


class TestMembershipBounds:
    """A membership question answers by nu <= w/2 or by a greedy b-matching
    before any blossom run, and keeps its answer in the entry's slot."""

    def test_blossom_runs_on_the_benchmark_vectors(self, monkeypatch, cold_cache):
        # the `membership` benchmark's two kinds of vector on random 7-vertex
        # graphs: 186 blossom runs from an empty cache (763 when every new
        # support ran one for its unit-weight nu and no bound came first)
        real, runs = matching._max_matching_simple, []

        def counted(n, adj):
            runs.append(n)
            return real(n, adj)

        monkeypatch.setattr(matching, "_max_matching_simple", counted)
        rng = random.Random(34)
        for t in (2, 3, 4):
            for g in random_graphs(7, 20, 340 + t):
                vectors = [[rng.randrange(t) for _ in range(7)] for _ in range(8)]
                vectors += [[rng.randrange(65) for _ in range(7)] for _ in range(8)]
                for a in vectors:
                    for predicate in PREDICATES:
                        predicate(g, a, t)
        assert 0 < len(runs) <= 186

    def test_questions_a_bound_settles_run_no_blossom(self, monkeypatch, cold_cache, triangle):
        def unreachable(n, adj):
            raise AssertionError("a blossom ran")

        monkeypatch.setattr(matching, "_max_matching_simple", unreachable)
        # the greedy takes 400 copies of the edge 1-2: no 1,199-clone blow-up
        assert [p(triangle, (400, 400, 399), 400) for p in PREDICATES] == [True, True, False]
        # a capped weight sum below 2t leaves nu below t
        rng = random.Random(35)
        asked = 0
        for g in random_graphs(7, 30, 35):
            for t in (2, 3, 4):
                large = [rng.randrange(65) for _ in range(7)]
                for i in rng.sample(range(7), 5):
                    large[i] = 0
                for a in (large, [rng.randrange(2) for _ in range(7)]):
                    if sum(min(x, t) for x in a) < 2 * t:
                        assert not in_power(g, a, t)
                        asked += 1
        assert asked >= 60

    @pytest.mark.parametrize("t", [2, 3])
    def test_the_bounds_are_exact(self, t):
        # every graph with n <= 5 up to relabelling and every a in {0..t+1}^n,
        # against nu_bruteforce on the capped weighted graph and the
        # saturation inequality at every vertex
        for g in [g for n in range(1, 6) for g in _graphs_up_to_relabelling(n)]:
            want: dict[tuple[int, ...], list[bool]] = {}
            for a in product(range(t + 2), repeat=g.n):
                capped = tuple(min(x, t) for x in a)
                if capped not in want:
                    h = WeightedGraph(g, capped)
                    in_pow = nu_bruteforce(h, cutoff=t * g.n) >= t
                    in_sat = in_pow or all(
                        nu_bruteforce(minus(h, nbrs(g, i)), cutoff=t * g.n)
                        >= t - sum(capped[j - 1] for j in nbrs(g, i))
                        for i in g.vertices
                    )
                    want[capped] = [in_pow, in_sat, in_sat and not in_pow]
                assert [p(g, a, t) for p in PREDICATES] == want[capped], (sorted(g.edges), a)

    def test_the_slot_keeps_one_answer(self, monkeypatch, cold_cache, pentagon):
        # the three predicates on one vector run the inequalities once, and
        # so does asking them again; the slot keeps the last question only
        calls = []
        real = saturation._inequalities_hold
        monkeypatch.setattr(
            saturation, "_inequalities_hold", lambda *args: calls.append(args[1]) or real(*args)
        )
        for _ in range(2):
            assert [p(pentagon, (1, 1, 1, 1, 1), 3) for p in PREDICATES] == [False, True, True]
        assert calls == [3]
        assert in_saturation(pentagon, (1, 1, 1, 1, 1), 2)  # in I^2: no inequality
        assert not in_saturation(pentagon, (1, 1, 1, 1, 2), 4)
        assert in_sat_minus_power(pentagon, (1, 1, 1, 1, 1), 3)
        assert calls == [3, 4, 3] and list(pentagon._support_memo) == [0b11111]


class TestLargeExponents:
    @pytest.mark.parametrize("t", [2, 3])
    def test_membership_near_a_million(self, triangle, pentagon, t):
        """Exponents far above t answer as their cap at t does, and as the
        oracle does; the matching route never sees the large weights."""
        rng = random.Random(t)
        for g in (triangle, pentagon):
            jt = power(edge_ideal(g), t)
            sat = saturate(jt)
            draws = [[rng.choice((0, 1, 10**6 - rng.randrange(3))) for _ in range(g.n)]
                     for _ in range(12)]
            for a in [[1] * g.n, [10**6, *[1] * (g.n - 1)], *draws]:
                capped = [min(x, t) for x in a]
                in_pow, in_sat = membership(jt, a), membership(sat, a)
                assert in_power(g, a, t) == in_power(g, capped, t) == in_pow
                assert in_saturation(g, a, t) == in_saturation(g, capped, t) == in_sat
                assert in_sat_minus_power(g, a, t) == (in_sat and not in_pow)


class TestInSaturation:
    def test_triangle_all_ones(self, triangle):
        assert in_saturation(triangle, (1, 1, 1), 2)

    def test_zero_vector(self, triangle, tailed_triangle):
        for t in (1, 2, 3):
            assert not in_saturation(triangle, (0, 0, 0), t)
            assert not in_saturation(tailed_triangle, (0, 0, 0, 0, 0), t)

    def test_tailed_triangle_fails_outside_support(self, tailed_triangle):
        # vertex 5 has no neighbour in the support and nu = 1 < 2
        assert not in_saturation(tailed_triangle, (1, 1, 1, 0, 0), 2)

    def test_members_of_power_are_in_saturation(self, triangle):
        assert in_saturation(triangle, (2, 2, 1), 2)


class TestInSatMinusPower:
    def test_pentagon_t3(self, pentagon):
        assert in_sat_minus_power(pentagon, (1, 1, 1, 1, 1), 3)

    def test_triangle_t2(self, triangle):
        assert in_sat_minus_power(triangle, (1, 1, 1), 2)

    def test_triangle_in_square(self, triangle):
        assert not in_sat_minus_power(triangle, (2, 2, 1), 2)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_dominating_cycle(self, t):
        # a dominating cycle of length 2t-1 with all-ones exponents on it
        k = 2 * t - 1
        g = SimpleGraph.from_edges(
            k + 1, [(i, i + 1) for i in range(1, k)] + [(1, k), (1, k + 1)]
        )
        a = tuple([1] * k + [0])
        assert in_sat_minus_power(g, a, t)


class TestSaturatingPredicates:
    def test_triangle_cases(self, triangle):
        assert is_t_saturating(wg(triangle, 1, 1, 1), 2)
        assert not is_t_saturating(wg(triangle, 1, 1, 1), 3)
        assert is_t_saturating(wg(triangle, 2, 2, 1), 3)

    def test_empty_graph_not_saturating(self):
        h = wg(graph(0))
        assert not is_t_saturating(h, 2)
        assert not is_strongly_t_saturating(h, 2)

    @pytest.mark.parametrize("t", [2, 3])
    def test_equals_brute_force_on_every_small_graph(self, t):
        """Every graph with n <= 5 and every a in {0..t-1}^n: the kernel against
        an independent route (total weight at most 10, under the cutoff 14)."""
        memo: dict = {}
        for g in all_graphs_upto(5):
            for a in product(range(t), repeat=g.n):
                h = WeightedGraph(g, a)
                assert is_t_saturating(h, t) == _saturating_by_brute_force(h, t, memo), (g.edges, a)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_disjoint_triangles_strongly(self, t):
        g = disjoint_triangles(t - 1)
        assert is_strongly_t_saturating(wg(g, *([1] * g.n)), t)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_odd_cycle_strongly(self, t):
        g = cycle_graph(2 * t - 1)
        assert is_strongly_t_saturating(wg(g, *([1] * g.n)), t)

    def test_triangle_pendant_strongly_3(self, tailed_triangle):
        # triangle {1,2,3} plus the pendant edge 3-4, weight 2 at the shared vertex
        h = wg(tailed_triangle, 1, 1, 2, 1, 0)
        assert is_strongly_t_saturating(h, 3)

    def test_strong_implies_saturating(self):
        rng = random.Random(12)
        hits = 0
        for g in rng.sample(list(all_graphs(5)), 120):
            for t in (2, 3):
                for a in saturating_vectors(g, t):
                    h = WeightedGraph(g, a)
                    if is_strongly_t_saturating(h, t):
                        hits += 1
                        assert is_t_saturating(h, t)
        assert hits > 0

    def test_strong_removal_bound(self):
        # strongly t-saturating: nu(H - N) >= t - sum of weights over N, all N
        g = disjoint_triangles(2)
        h = wg(g, *([1] * 6))
        t = 3
        assert is_strongly_t_saturating(h, t)
        for size in range(1, 7):
            for nset in combinations(h.vertices, size):
                bound = t - sum(h.weight_map[v] for v in nset)
                assert nu(minus(h, nset)) >= bound


class TestExtendByEdge:
    def test_triangle_plus_pendant(self):
        g = graph(4, (1, 2), (1, 3), (2, 3), (1, 4))
        a = extend_by_edge(g, (1, 1, 1, 0), (1, 4))
        assert a == (2, 1, 1, 1)
        assert is_strongly_t_saturating(wg(g, *a), 3)
        assert nu(wg(g, *a)) == 2

    def test_repeat_edge(self):
        g = graph(4, (1, 2), (1, 3), (2, 3), (1, 4))
        a = extend_by_edge(g, (2, 1, 1, 1), (1, 4))
        assert a == (3, 1, 1, 2)
        assert is_strongly_t_saturating(wg(g, *a), 4)

    def test_endpoint_outside_support_rejected(self):
        g = graph(5, (1, 2), (1, 3), (2, 3), (4, 5))
        with pytest.raises(ValueError):
            extend_by_edge(g, (1, 1, 1, 0, 0), (4, 5))

    def test_non_edge_rejected(self, triangle):
        with pytest.raises(ValueError):
            extend_by_edge(graph(4, (1, 2), (1, 3), (2, 3)), (1, 1, 1, 0), (1, 4))

    def test_bad_base_rejected(self):
        g = graph(4, (1, 2), (1, 3), (2, 3), (1, 4))
        with pytest.raises(ValueError):
            extend_by_edge(g, (1, 1, 0, 0), (1, 4))  # even weight sum
        with pytest.raises(ValueError):
            extend_by_edge(g, (1, 1, 1, 2), (1, 4))  # not strongly saturating

    def test_unit_drop_must_keep_the_matching_number(self):
        # strongly 4-saturating with nu = 3, but dropping a unit at 1 leaves nu = 2
        g = graph(4, (1, 2), (1, 3), (2, 3))
        message = "^dropping one weight unit at vertex 1 must keep matching number 3$"
        with pytest.raises(ValueError, match=message):
            extend_by_edge(g, (2, 2, 2, 1), (1, 2))

    def test_broken_chain_is_a_runtime_error(self, monkeypatch):
        # the result is re-verified at level t + 1; make that check fail
        real = saturation.is_strongly_t_saturating
        monkeypatch.setattr(saturation, "is_strongly_t_saturating", lambda h, t: t < 3 and real(h, t))
        g = graph(4, (1, 2), (1, 3), (2, 3), (1, 4))
        with pytest.raises(RuntimeError, match="broke the strong-saturation chain at \\[2, 1, 1, 1\\]"):
            extend_by_edge(g, (1, 1, 1, 0), (1, 4))


class TestBuildStrong:
    def test_bowtie(self, bowtie):
        a = build_strong(bowtie, {1, 2, 3, 4, 5}, {1, 2, 3})
        assert sum(a) == 7  # |U| = 5, s = 2, t = 4, weight sum 2t-1
        assert support(a) == {1, 2, 3, 4, 5}
        assert is_strongly_t_saturating(wg(bowtie, *a), 4)
        assert nu(wg(bowtie, *a)) == 3

    def test_seed_only(self, triangle):
        a = build_strong(triangle, {1, 2, 3}, {1, 2, 3})
        assert a == (1, 1, 1)

    def test_triangle_plus_pendant(self, tailed_triangle):
        a = build_strong(tailed_triangle, {1, 2, 3, 4}, {1, 2, 3})
        assert sorted(a) == [0, 1, 1, 1, 2]
        assert is_strongly_t_saturating(wg(tailed_triangle, *a), 3)

    def test_disconnected_rejected(self):
        g = graph(6, (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6))
        with pytest.raises(ValueError):
            build_strong(g, set(range(1, 7)), {1, 2, 3})

    def test_bad_seed_rejected(self, tailed_triangle):
        with pytest.raises(ValueError):
            build_strong(tailed_triangle, {1, 2, 3, 4}, {1, 2, 4})  # not a triangle

    @pytest.mark.parametrize("bad", [7, 0])
    def test_rejects_labels_outside_the_graph(self, triangle, bad):
        with pytest.raises(ValueError, match=f"vertex {bad} is not in 1..3"):
            build_strong(triangle, {1, 2, 3, bad}, {1, 2, 3})
        with pytest.raises(ValueError, match=f"vertex {bad} is not in 1..3"):
            build_strong(triangle, {1, 2, 3}, {1, 2, bad})

    def test_matches_the_frozenset_search(self):
        # reference: the edge-adding search on vertex sets, taking the least
        # (j, h) with j in u outside the support and h a support neighbour of j
        def by_search(g, u, seed):
            current = tuple(int(v in seed) for v in range(1, g.n + 1))
            while support(current) != u:
                sup = support(current)
                j, h = sorted((j, h) for h in sup for j in nbrs(g, h) if j in u and j not in sup)[0]
                current = extend_by_edge(g, current, (h, j))
            return current

        cases = 0
        for g in all_graphs_upto(5):
            for um in range(1, 1 << g.n):
                if len(components_masked(g, um)) != 1:
                    continue
                u = set_of(um)
                for size in range(3, len(u) + 1, 2):
                    for seed in map(frozenset, combinations(sorted(u), size)):
                        unit = tuple(int(v in seed) for v in range(1, g.n + 1))
                        if is_strongly_t_saturating(WeightedGraph(g, unit), (size + 1) // 2):
                            assert build_strong(g, u, seed) == by_search(g, u, seed), (g.edges, u, seed)
                            cases += 1
        assert cases == 4934


class TestSaturatingVectors:
    def test_triangle_t2(self, triangle):
        assert saturating_vectors(triangle, 2) == [(1, 1, 1)]

    def test_bipartite_empty(self, path3, square):
        for t in (2, 3):
            assert saturating_vectors(path3, t) == []
            assert saturating_vectors(square, t) == []

    def test_k4_t3_contains_all_ones(self):
        k4 = graph(4, *[(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        assert (1, 1, 1, 1) in saturating_vectors(k4, 3)

    def test_pruned_equals_unpruned_small(self):
        rng = random.Random(20)
        pool = list(all_graphs_upto(3)) + rng.sample(list(all_graphs(4)), 20)
        for g in pool:
            for t in (2, 3):
                pruned = saturating_vectors(g, t)
                unpruned = _unpruned(g, t, 3 * t)
                assert pruned == unpruned

    def test_pruned_equals_unpruned_sampled_n5(self):
        rng = random.Random(21)
        for g in rng.sample(list(all_graphs(5)), 5):
            pruned = saturating_vectors(g, 2)
            unpruned = _unpruned(g, 2, 6)
            assert pruned == unpruned

    def test_outputs_contain_short_odd_cycles(self):
        rng = random.Random(22)
        for g in rng.sample(list(all_graphs(5)), 60):
            for t in (2, 3):
                for a in saturating_vectors(g, t):
                    h = WeightedGraph(g, a)
                    sub = SimpleGraph.from_edges(g.n, h.edges)
                    length = shortest_odd_cycle(sub)
                    assert length is not None and length <= 2 * t - 1

    def test_output_weight_bounds(self):
        rng = random.Random(23)
        for g in rng.sample(list(all_graphs(5)), 60):
            for t in (2, 3):
                for a in saturating_vectors(g, t):
                    h = WeightedGraph(g, a)
                    v = nu(h)
                    for i in h.vertices:
                        ai = h.weight_map[i]
                        assert ai < min(sum(h.a[j - 1] for j in h.adjacency[i]), v + 1)
                        leaves = [
                            j for j in h.adjacency[i] if len(h.adjacency[j]) == 1
                        ]
                        if leaves:
                            assert ai >= 2

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_permuted_graph_gives_permuted_vectors(self, t):
        # the cache keys a support by its relabelled edges: a relabelled copy
        # of g meets g's keys on other vertex sets, and must map them back
        rng = random.Random(30 + t)
        for g in random_graphs(7, 12, t):
            perm = rng.sample(range(1, 8), 7)  # vertex v of g is perm[v - 1]
            copy = SimpleGraph.from_edges(7, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
            moved = [tuple(a[perm.index(v)] for v in range(1, 8)) for a in saturating_vectors(g, t)]
            assert saturating_vectors(copy, t) == sorted(moved)

    def test_componentwise_saturation(self):
        rng = random.Random(24)
        pool = [g for g in all_graphs(5) if g.edges]
        for g in rng.sample(pool, 40):
            for weights in rng.sample(list(product(range(1, 3), repeat=5)), 8):
                h = wg(g, *weights)
                t = nu(h) + 1
                parts = [minus(h, set_of(h.mask & ~c)) for c in components_masked(g, h.mask)]
                expect = all(is_t_saturating(p, nu(p) + 1) for p in parts)
                assert is_t_saturating(h, t) == expect
                expect_strong = all(
                    is_strongly_t_saturating(p, nu(p) + 1) for p in parts
                )
                assert is_strongly_t_saturating(h, t) == expect_strong


def walk_before_grown_keys(g: SimpleGraph, t: int, region: int, dominated: int):
    """The saturating search (`conftest.saturating_graphs`) as it was when each
    support's mask and key were built from scratch for every subset of
    `combinations`."""
    verts, tables = list(iter_bits(region)), {}
    for size in range(3, min(len(verts), 3 * (t - 1)) + 1):
        for sup in combinations(verts, size):
            mask = mask_of(sup)
            if dominated and dominated & ~_closed_mask(g, mask):
                continue
            if size >= 2 * t:
                h = WeightedGraph(g, [mask >> i & 1 for i in range(g.n)])
                if nu(h) >= t:
                    continue
                bits = h.cache_key[1]
            else:
                bits = _edge_bits(g, sup)
            found = saturation._CACHE.saturating.get((t, size, bits))
            if found is None:
                if odd_cycle_components(g, mask) is None:
                    found = ()
                else:
                    found = tuple(saturation._support_weightings(g, mask, bits, t, tables))
                found = graphs._remember(saturation._CACHE.saturating, (t, size, bits), found)
            for w in found:
                on_support = dict(zip(sup, w))
                a = tuple(on_support.get(v, 0) for v in range(1, g.n + 1))
                yield a


class TestGrownSupports:
    """The saturating search walks the odd-cycle sets of `region` by size
    (`graphs._odd_cycle_sets`), keeps those whose closed neighbourhood
    contains `dominated`, read off the carried N(U), and sorts each size by
    vertex tuple: the odd-cycle sets among the `combinations`, in their order."""

    @staticmethod
    def cases():
        yield from all_graphs_upto(5)
        for n in range(7, 11):
            yield from random_graphs(n, 6, 40 + n)

    @staticmethod
    def walked(g: SimpleGraph, region: int, dominated: int) -> list[list[int]]:
        out = []
        for level in _odd_cycle_sets(g, region, region.bit_count()):
            for m, nb, comps in level:
                assert nb == _nbrs(g, m) and list(comps) == odd_cycle_components(g, m)
            kept = sorted(tuple(iter_bits(m)) for m, nb, _ in level if not dominated & ~(m | nb))
            out.append(list(map(mask_of, kept)))
        return out

    def test_equals_the_combinations_walk(self):
        for g in self.cases():
            full = g.full_mask
            for region in (full, full & ~1):
                verts = list(iter_bits(region))
                for dominated in (0, full, *(1 << i for i in range(g.n))):
                    want = [
                        [
                            mask
                            for mask in map(mask_of, combinations(verts, k))
                            if odd_cycle_components(g, mask) is not None
                            and not dominated & ~_closed_mask(g, mask)
                        ]
                        for k in range(3, len(verts) + 1)
                    ]
                    assert self.walked(g, region, dominated) == want

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_saturating_graphs_equal_the_walk_before(self, cold_cache, t):
        # Each side fills its own cold catalogue, so each computes its misses.
        # K7 and K8 minus a perfect matching add supports of 2t or more
        # vertices with unit-weight nu >= t, which the walk before skipped
        # before its lookup; the catalogue now gives them an empty entry.
        k7 = graph(7, *combinations(range(1, 8), 2))
        matching_pairs = {(1, 2), (3, 4), (5, 6), (7, 8)}
        k8_minus_pm = graph(8, *(e for e in combinations(range(1, 9), 2) if e not in matching_pairs))
        skipped = 0
        for g in [*random_graphs(5, 12, t), *random_graphs(7, 8, 10 + t), k7, k8_minus_pm]:
            full = g.full_mask
            core = full & ~_closed_mask(g, 1)  # the vertices away from vertex 1
            for region, dominated in ((full, 0), (full, full), (full, 1), (core, core)):
                for level in _odd_cycle_sets(g, region, 3 * (t - 1)):
                    for mask, nb, _ in level:
                        if mask.bit_count() >= 2 * t and not dominated & ~(mask | nb):
                            skipped += nu(WeightedGraph(g, [mask >> i & 1 for i in range(g.n)])) >= t
                cold_cache.clear()
                got = list(saturating_graphs(g, t, region, dominated))
                cold_cache.clear()
                assert got == list(walk_before_grown_keys(g, t, region, dominated))
        assert skipped or 2 * t > 3 * (t - 1)  # at t = 2 no support has 2t vertices


class TestOracleEquivalenceSmall:
    def test_membership_small_exhaustive(self):
        # full version (n <= 5, a_i <= 3) runs in the acceptance suite
        for g in all_graphs_upto(3):
            jt = {t: power(edge_ideal(g), t) for t in (1, 2, 3)} if g.edges else None
            for a in product(range(3), repeat=g.n):
                for t in (1, 2, 3):
                    if jt is None:
                        assert not in_power(g, a, t)
                        assert not in_saturation(g, a, t) or g.n == 0
                        continue
                    assert in_power(g, a, t) == membership(jt[t], a)
                    assert in_saturation(g, a, t) == membership(saturate(jt[t]), a)

    def test_gap_members_have_dominating_support(self):
        rng = random.Random(31)
        pool = [g for g in all_graphs(4) if g.edges]
        hits = 0
        for g in rng.sample(pool, 30):
            for a in product(range(3), repeat=4):
                for t in (2, 3):
                    if in_sat_minus_power(g, a, t):
                        hits += 1
                        assert dominates(g, support(a))
        assert hits > 0

    def test_degree_bound_small(self):
        for g in all_graphs_upto(3):
            for a in product(range(7), repeat=g.n):
                if in_sat_minus_power(g, a, 2):
                    assert sum(a) <= 3

    def test_degree_bound_sharp(self):
        for t in (2, 3):
            g = disjoint_triangles(t - 1)
            a = tuple([1] * g.n)
            assert in_sat_minus_power(g, a, t)
            assert sum(a) == 3 * (t - 1)


def localized_sat_minus_power(g: SimpleGraph, a: tuple[int, ...], gmask_verts: frozenset[int], t: int) -> bool:
    """Oracle route for the facet test: project I^t into k[V \\ G] and check
    x^{a_G} in sat - power there."""
    keep = [v for v in range(1, g.n + 1) if v not in gmask_verts]
    if not keep:
        return False
    jt = power(edge_ideal(g), t)
    cols = [v - 1 for v in keep]
    rows = jt.gens[:, cols]
    if rows.shape[0] and (rows.sum(axis=1) == 0).any():
        return False  # a generator became a unit: localized ideal is the whole ring
    loc = MonomialIdeal.from_gens(len(keep), [tuple(r) for r in rows])
    vec = tuple(a[v - 1] for v in keep)
    if membership(loc, vec):
        return False
    return membership(saturate(loc), vec)


def facets_on_core_subgraphs(g: SimpleGraph, a: tuple[int, ...], t: int) -> list[frozenset[int]]:
    """The facet formula asked of a copy of each core: for each cover F = V \\ G
    with G containing G_a, and s = t minus a on F outside core(F) at least 1,
    x^a on core(F) in sat(I^s) \\ I^s of the induced graph on core(F),
    relabelled in sorted order."""
    ga = {i + 1 for i, x in enumerate(a) if x < 0}
    free = [v for v in range(1, g.n + 1) if v not in ga]
    facets = []
    for size in range(len(free) + 1):
        for extra in combinations(free, size):
            f = set(free) - set(extra)
            if not is_cover(g, f):
                continue
            core = core_of_cover(g, f)
            s = t - sum(a[v - 1] for v in f - core)
            if s >= 1:
                sub, _ = induced_subgraph(g, core)
                if in_sat_minus_power(sub, [a[v - 1] for v in sorted(core)], s):
                    facets.append(frozenset(extra))
    return sorted(facets, key=set_order)


class TestFacets:
    def test_triangle_all_ones(self, triangle):
        assert facets_delta(triangle, (1, 1, 1), 2) == [frozenset()]

    def test_large_exponents_vanish(self, triangle):
        assert facets_delta(triangle, (4, 4, 4), 2) == []

    def test_tailed_triangle_negative_direction(self, tailed_triangle):
        assert facets_delta(tailed_triangle, (1, 1, 1, 0, -1), 2) == [frozenset()]

    def test_matches_the_induced_core_route(self, cold_cache):
        # every graph with edges and n <= 5 and seeded samples at n = 6, 7, at
        # t = 1..4, with signed entries, some far above t to meet the cap at
        # s; a facet question leaves the graph's membership memo as it was
        rng = random.Random(4206)
        pool = [g for g in all_graphs_upto(5) if g.edges]
        pool += [g for n in (6, 7) for g in random_graphs(n, 200, 4200 + n) if g.edges]
        nonempty = 0
        for g in pool:
            for t in range(1, 5):
                for _ in range(2):
                    a = tuple(
                        rng.randint(20, 90) if rng.random() < 0.1 else rng.randint(-2, 5)
                        for _ in range(g.n)
                    )
                    want = facets_on_core_subgraphs(g, a, t)
                    in_power(g, [max(x, 0) for x in a], t)
                    entries = dict(g._support_memo)
                    assert facets_delta(g, a, t) == want, (sorted(g.edges), a, t)
                    assert g._support_memo == entries
                    nonempty += bool(want)
        assert nonempty >= 500

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError):
            facets_delta(graph(2), (0, 0), 1)

    def test_matches_localized_oracle(self):
        rng = random.Random(41)
        pool = [g for g in all_graphs(4) if g.edges]
        for g in rng.sample(pool, 15):
            for _ in range(6):
                a = tuple(rng.randint(-1, 2) for _ in range(4))
                t = rng.choice((1, 2, 3))
                got = set(facets_delta(g, a, t))
                ga = frozenset(i + 1 for i, x in enumerate(a) if x < 0)
                expect = set()
                rest = [v for v in range(1, 5) if v not in ga]
                for size in range(len(rest) + 1):
                    for extra in combinations(rest, size):
                        gset = ga | set(extra)
                        if localized_sat_minus_power(g, a, gset, t):
                            expect.add(frozenset(gset - ga))
                assert got == expect, (sorted(g.edges), a, t)
