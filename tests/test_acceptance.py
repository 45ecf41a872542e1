"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single PASS/FAIL line.  The heavyweight censuses run
here rather than in the per-module tests; expect a few minutes total.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import numpy as np
import pytest

import conftest
from edgesat import assoc, census, ideals, saturation
from edgesat.census import all_graphs, all_graphs_upto, oracle_ass, random_graphs, run_census
from edgesat.graphs import SimpleGraph, triangles
from edgesat.matching import (
    Matching,
    WeightedGraph,
    has_augmenting_walk,
    maximum_matching,
    nu,
    nu_bruteforce,
)
from edgesat.saturation import extend_by_edge, is_strongly_t_saturating, support

THREADS = 2

_SUM_GRIDS: dict[tuple[int, ...], np.ndarray] = {}


def _sum_grid(shape: tuple[int, ...]) -> np.ndarray:
    grid = _SUM_GRIDS.get(shape)
    if grid is None:
        grid = np.indices(shape, dtype=np.int16).sum(axis=0)
        _SUM_GRIDS[shape] = grid
    return grid


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    conftest.record_acceptance(line)


def test_criterion_1_census_t2():
    """Three-way Ass(I^2) agreement over every labelled graph with n <= 6."""
    total = 0
    bad = 0
    for n in range(1, 7):
        rep = run_census(n, 2, threads=THREADS if n >= 5 else 1)
        total += rep.graphs_checked
        bad += len(rep.mismatches)
    ok = bad == 0 and total == sum(2 ** (n * (n - 1) // 2) for n in range(1, 7))
    _report("1 (census t=2, n<=6)", ok, f"{total} graphs, {bad} mismatches")
    assert ok


def test_criterion_2_census_t3():
    """Three-way Ass(I^3) agreement: all n <= 5 plus 500 seeded graphs at n = 6."""
    total = 0
    bad = 0
    for n in range(1, 6):
        rep = run_census(n, 3, threads=THREADS if n >= 5 else 1)
        total += rep.graphs_checked
        bad += len(rep.mismatches)
    rep = run_census(6, 3, sample=500, seed=2024, threads=THREADS)
    total += rep.graphs_checked
    bad += len(rep.mismatches)
    ok = bad == 0 and total == 1099 + 500
    _report("2 (census t=3, n<=5 + 500 @ n=6)", ok, f"{total} graphs, {bad} mismatches")
    assert ok


def test_criterion_3_membership_oracle_equivalence():
    """in_power / in_saturation match ideal membership for n <= 5, a_i <= 3, t <= 3."""
    checked = 0
    for g in all_graphs_upto(5):
        vecs = np.array(list(product(range(4), repeat=g.n)), dtype=np.int64)
        if g.edges:
            tables = {}
            for t in (1, 2, 3):
                jt = ideals.power(ideals.edge_ideal(g), t)
                tables[t] = (
                    ideals.membership_many(jt, vecs),
                    ideals.membership_many(ideals.saturate(jt), vecs),
                )
        else:
            falses = np.zeros(len(vecs), dtype=bool)
            tables = {t: (falses, falses) for t in (1, 2, 3)}
        for row, a in enumerate(map(tuple, vecs)):
            for t in (1, 2, 3):
                in_pow, in_sat = tables[t][0][row], tables[t][1][row]
                assert saturation.in_power(g, a, t) == bool(in_pow), (g.edges, a, t)
                assert saturation.in_saturation(g, a, t) == bool(in_sat), (g.edges, a, t)
                checked += 1
    _report("3 (membership equivalence)", True, f"{checked} membership pairs")


def _weighted_suite():
    for n in range(1, 6):
        for g in all_graphs(n):
            for weights in product(range(1, 4), repeat=n):
                yield WeightedGraph(g, weights)


def test_criterion_4_matching_correctness():
    """nu = nu_bruteforce over the exhaustive weighted suite; Berge certificate."""
    checked = 0
    for h in _weighted_suite():
        assert nu(h) == nu_bruteforce(h, cutoff=16), h
        checked += 1

    # Berge, exhaustively on every matching of small weighted graphs
    def all_matchings(h: WeightedGraph):
        edges = sorted(h.edges)

        def rec(i, caps, acc):
            if i == len(edges):
                yield Matching.of(acc)
                return
            yield from rec(i + 1, caps, acc)
            u, v = edges[i]
            top = min(caps[u], caps[v])
            for c in range(1, top + 1):
                caps[u] -= c
                caps[v] -= c
                yield from rec(i + 1, caps, acc + [edges[i]] * c)
                caps[u] += c
                caps[v] += c

        yield from rec(0, dict(h.weight_map), [])

    berge_small = 0
    for n in range(1, 5):
        for g in all_graphs(n):
            for weights in product(range(1, 3), repeat=n):
                h = WeightedGraph(g, weights)
                best = nu(h)
                for m in all_matchings(h):
                    assert has_augmenting_walk(h, m) == (len(m) < best)
                    berge_small += 1

    # Berge on the full suite, sampled: the witness is maximum (no walk),
    # and removing one edge reopens one (when nu >= 1)
    rng = random.Random(1234)
    pool = list(_weighted_suite())
    berge_sampled = 0
    for h in rng.sample(pool, 1500):
        m = maximum_matching(h)
        assert not has_augmenting_walk(h, m)
        if len(m) >= 1:
            smaller = Matching.of(m.edges[:-1])
            assert has_augmenting_walk(h, smaller)
        berge_sampled += 1
    _report(
        "4 (nu vs brute force + weighted Berge)",
        True,
        f"{checked} weighted graphs; Berge exhaustive on {berge_small} matchings, "
        f"sampled on {berge_sampled} witnesses",
    )


def test_criterion_5_worked_example():
    """The 5-vertex example: m not associated to I^2, P_1234 is, on every path."""
    g = SimpleGraph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    oracle = oracle_ass(g, 2)
    formula = assoc.prime_sets(assoc.ass_primes(g, 2))
    closed = assoc.prime_sets(assoc.ass_primes_2(g))
    target = frozenset({1, 2, 3, 4})
    maximal = frozenset({1, 2, 3, 4, 5})
    ok = (
        oracle == formula == closed
        and target in oracle
        and maximal not in oracle
        and assoc.is_associated(g, target, 2) is not None
        and assoc.is_associated(g, maximal, 2) is None
    )
    _report("5 (worked example)", ok, "P_1234 in Ass(I^2), m excluded, engines agree")
    assert ok


def _degree_bound_violations(g: SimpleGraph, t: int) -> int:
    """Count sat(I^t) \\ I^t members with entries <= 3t violating the degree bound."""
    if not g.edges:
        return 0
    shape = (3 * t + 1,) * g.n
    jt = ideals.power(ideals.edge_ideal(g), t)
    power_box = ideals.membership_box(jt, shape)
    sat_box = ideals.membership_box(ideals.saturate(jt), shape)
    diff = sat_box & ~power_box
    return int((diff & (_sum_grid(shape) > 3 * (t - 1))).sum())


def test_criterion_6_degree_bound_and_sharpness():
    """No member of sat(I^t) \\ I^t has degree above 3(t-1); the bound is attained."""
    violations = 0
    graphs_t2 = 0
    for g in all_graphs_upto(6):
        violations += _degree_bound_violations(g, 2)
        graphs_t2 += 1
    graphs_t3 = 0
    for g in all_graphs_upto(5):
        violations += _degree_bound_violations(g, 3)
        graphs_t3 += 1
    for g in random_graphs(6, 500, seed=2024):
        violations += _degree_bound_violations(g, 3)
        graphs_t3 += 1

    sharp = True
    for t in (2, 3):
        k = t - 1
        edges = []
        for i in range(k):
            b = 3 * i
            edges += [(b + 1, b + 2), (b + 1, b + 3), (b + 2, b + 3)]
        g = SimpleGraph.from_edges(3 * k, edges)
        ones = tuple([1] * g.n)
        sharp &= saturation.in_sat_minus_power(g, ones, t) and sum(ones) == 3 * (t - 1)

    ok = violations == 0 and sharp
    _report(
        "6 (degree bound + sharpness)",
        ok,
        f"0 violations over {graphs_t2} graphs at t=2 and {graphs_t3} at t=3; "
        "all-ones on t-1 triangles attains 3(t-1)",
    )
    assert ok


def test_criterion_7_stabilization():
    """Ass stabilizes by s(Gamma); oracle confirms Ass(I^t) grows with t."""
    checked = 0
    for g in all_graphs_upto(5):
        stable = assoc.prime_sets(assoc.ass_infinity(g))
        t0 = assoc.s_gamma(g)
        assert assoc.prime_sets(assoc.ass_primes(g, t0)) == stable, g.edges
        if g.edges:
            a1, a2, a3 = (oracle_ass(g, t) for t in (1, 2, 3))
            assert a1 <= a2 <= a3, g.edges
        checked += 1
    _report("7 (stabilization at s(Gamma))", True, f"{checked} graphs, monotone chains confirmed")


def _odd_cycle_vectors(g: SimpleGraph) -> list[tuple[int, ...]]:
    """Indicator vectors of triangles and 5-cycles of g."""
    out = []
    for tri in triangles(g):
        a = [0] * g.n
        for v in tri:
            a[v - 1] = 1
        out.append(tuple(a))
    for verts in combinations(range(1, g.n + 1), 5):
        if assoc._has_spanning_cycle(g, verts):
            a = [0] * g.n
            for v in verts:
                a[v - 1] = 1
            out.append(tuple(a))
    return out


def test_criterion_8_constructive_chains():
    """Every edge-adding step from every short odd cycle stays strongly saturating."""
    steps = 0
    for g in all_graphs_upto(5):
        for b in _odd_cycle_vectors(g):
            sup = support(b)
            incident = sorted(
                e for e in g.sorted_edges if e[0] in sup or e[1] in sup
            )
            # verify every one-step extension, then follow the first choices
            for e in incident:
                a = extend_by_edge(g, b, e)  # re-verifies the claim internally
                t = (sum(a) + 1) // 2
                assert is_strongly_t_saturating(
                    WeightedGraph(g, a), t
                )
                assert nu(WeightedGraph(g, a)) == t - 1
                steps += 1
            chain = b
            for _ in range(4):
                sup = support(chain)
                nxt = next(
                    e for e in g.sorted_edges if e[0] in sup or e[1] in sup
                )
                chain = extend_by_edge(g, chain, nxt)
                steps += 1
    _report("8 (edge-adding chains)", True, f"{steps} verified extension steps")


def test_criterion_9_depth_criteria():
    """depth R/I^t > 0 iff the maximal ideal is not an oracle associated prime."""
    checked = 0
    for g in all_graphs_upto(5):
        maximal = frozenset(range(1, g.n + 1))
        for t in (2, 3):
            expect = maximal not in oracle_ass(g, t)
            assert assoc.depth_positive(g, t) == expect, (g.edges, t)
            checked += 1
    _report("9 (depth criteria)", True, f"{checked} graph/power pairs")
