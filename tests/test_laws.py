"""Laws the formula engine obeys on graphs past the oracle's reach, checked on
examples that Hypothesis draws from a fixed seed."""

from __future__ import annotations

from itertools import combinations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from edgesat.assoc import ass_infinity, ass_primes, is_associated, prime_sets, s_gamma
from edgesat.graphs import SimpleGraph
from edgesat.saturation import in_power, in_saturation

from conftest import ass_primes_reference

LAWS = settings(
    derandomize=True,  # the same examples on every run
    database=None,
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],  # one cold cache per test
)


@st.composite
def graphs(draw, sizes=st.integers(7, 8)) -> SimpleGraph:
    """A graph on n vertices, n drawn from `sizes`, with n to 2n edges."""
    n = draw(sizes)
    pairs = draw(st.permutations(list(combinations(range(1, n + 1), 2))))
    return SimpleGraph.from_edges(n, pairs[: draw(st.sampled_from(range(n, 2 * n + 1)))])


@st.composite
def relabelled_graphs(draw) -> tuple[SimpleGraph, list[int]]:
    """A graph from `graphs`, and a permutation sigma of its vertices, vertex
    v going to sigma[v - 1]."""
    g = draw(graphs())
    return g, draw(st.permutations(range(1, g.n + 1)))


@LAWS
@given(case=relabelled_graphs(), t=st.sampled_from([2, 3, 4, 5]))
def test_relabelling_maps_the_primes(cold_cache, case, t):
    # Ass(I^t) of sigma G is sigma of Ass(I^t) of G, read through a cache
    # warmed by G alone, so that sigma G's supports meet the entries of G's
    # supports that induce the same labelled graph
    g, sigma = case
    cold_cache.clear()
    want = {(frozenset(sigma[v - 1] for v in r.vertices), r.kind) for r in ass_primes(g, t)}
    moved = SimpleGraph.from_edges(g.n, [(sigma[u - 1], sigma[v - 1]) for u, v in g.edges])
    assert {(frozenset(r.vertices), r.kind) for r in ass_primes(moved, t)} == want


@LAWS
@given(g=graphs(), t=st.sampled_from([2, 3, 4]))
def test_deciding_each_candidate_lists_what_enumeration_reads(cold_cache, g, t):
    # ass_primes decides each cover minimal over N[U], U an odd-cycle set of
    # at most 3(t-1) vertices, by is_associated; enumerating every
    # t-saturating weighted graph and reading the covers it gives lists the
    # same primes, of the same kinds, in the same order
    want = [(r.vertices, r.kind) for r in ass_primes_reference(g, t)]
    cold_cache.clear()
    assert [(r.vertices, r.kind) for r in ass_primes(g, t)] == want, sorted(g.edges)


@LAWS
@given(g=graphs(), t=st.sampled_from([2, 3, 4]))
def test_every_report_is_what_is_associated_decides(cold_cache, g, t):
    # ass_primes decides each candidate F from its one walk's odd-cycle sets
    # U, grouped by N[U]; is_associated walks core(F) afresh.  Both give the
    # same kind and the same first witness
    for r in ass_primes(g, t):
        assert is_associated(g, r.vertices, t) == r, (sorted(g.edges), t)


@settings(LAWS, max_examples=400)
@given(g=graphs())
def test_associated_primes_persist(cold_cache, g):
    # Ass(I^t) is contained in Ass(I^(t+1)) for every edge ideal
    # (Martinez-Bernal, Morey and Villarreal 2012), here for t = 1..3
    primes = [{frozenset(r.vertices) for r in ass_primes(g, t)} for t in range(1, 5)]
    assert all(lower <= upper for lower, upper in zip(primes, primes[1:]))


@st.composite
def graph_pairs_and_vectors(draw) -> tuple[list[SimpleGraph], list[int], int]:
    """Two graphs on the same 8 to 10 vertices, an exponent vector with
    entries 0..2 and a vertex i."""
    n = draw(st.integers(8, 10))
    pair = [draw(graphs(st.just(n))) for _ in range(2)]
    a = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return pair, a, draw(st.integers(0, n - 1))


@settings(LAWS, max_examples=300)
@given(case=graph_pairs_and_vectors(), t=st.sampled_from([2, 3, 4]))
def test_membership_implies_saturation_and_closes_upward(cold_cache, case, t):
    # x^a in I^t implies x^a in sat(I^t), and both memberships hold for
    # a + e_i when they hold for a; the two graphs are asked in turn, so
    # each reads support masks whose entries the other built
    pair, a, i = case
    b = a[:i] + [a[i] + 1] + a[i + 1:]
    low = [(in_power(g, a, t), in_saturation(g, a, t)) for g in pair]
    high = [(in_power(g, b, t), in_saturation(g, b, t)) for g in pair]
    for (pow_a, sat_a), (pow_b, sat_b) in zip(low, high):
        assert sat_a >= pow_a and sat_b >= pow_b
        assert pow_b >= pow_a and sat_b >= sat_a


@st.composite
def graphs_and_covers(draw) -> tuple[SimpleGraph, list[frozenset[int]]]:
    """A graph from `graphs` and a few of its vertex covers, each the
    complement of an independent set grown greedily from a drawn vertex
    order."""
    g = draw(graphs())
    covers = []
    for _ in range(draw(st.integers(1, 6))):
        free = 0  # an independent set, as a mask
        for v in draw(st.lists(st.integers(1, g.n), unique=True)):
            if not g.adj_bits[v - 1] & free:
                free |= 1 << (v - 1)
        covers.append(frozenset(v for v in range(1, g.n + 1) if not free >> (v - 1) & 1))
    return g, covers


@settings(LAWS, max_examples=300)
@given(case=graphs_and_covers())
def test_a_cover_is_associated_exactly_when_listed(cold_cache, case):
    # is_associated walks only the supports whose closed neighbourhood
    # contains core(F); at t = 2..4 it decides P_F as ass_primes lists it, on
    # the drawn covers, on every listed prime, and on each listed prime with
    # one more vertex
    g, covers = case
    for t in (2, 3, 4):
        listed = prime_sets(ass_primes(g, t))
        grown = {f | {v} for f in listed for v in range(1, g.n + 1) if v not in f}
        for f in {*covers, *listed, *grown}:
            assert (is_associated(g, f, t) is not None) == (f in listed), (sorted(g.edges), f, t)


@settings(LAWS, max_examples=200)
@given(g=graphs(), t=st.sampled_from([2, 3, 4]))
def test_an_isolated_vertex_changes_no_prime(cold_cache, g, t):
    # A vertex n+1 with no edge lies in no minimal cover and in no support,
    # so Ass(I^t) and the decision on the cover V(g) stay as they were
    plus = SimpleGraph.from_edges(g.n + 1, g.edges)
    assert prime_sets(ass_primes(plus, t)) == prime_sets(ass_primes(g, t))
    before, after = is_associated(g, g.vertices, t), is_associated(plus, g.vertices, t)
    assert (after and after.kind) == (before and before.kind)


@settings(LAWS, max_examples=60)
@given(g=graphs())
def test_the_primes_stabilise_by_s_gamma(cold_cache, g):
    # Ass(I^t) lies in Ass-infinity for every t, and reaches it by
    # t = s(Gamma); checked up to t = s(Gamma) on graphs where that is at
    # most 5
    top = s_gamma(g)
    assume(top <= 5)
    stable = prime_sets(ass_infinity(g))
    primes = [prime_sets(ass_primes(g, t)) for t in range(1, top + 1)]
    assert all(p <= stable for p in primes), sorted(g.edges)
    assert primes[-1] == stable, sorted(g.edges)
