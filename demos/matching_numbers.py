"""Matching numbers of vertex-weighted graphs, witnesses, and Berge's test.

A matching may repeat edges; vertex i supports at most weight(i) endpoint
slots.  The matching number nu decides membership of monomials in powers of
the edge ideal, so everything downstream rests on this one primitive.
"""

from edgesat import (
    Matching,
    SimpleGraph,
    WeightedGraph,
    has_augmenting_walk,
    maximum_matching,
    nu,
    nu_bruteforce,
)

triangle = SimpleGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)])

print("triangle, all weights 1:")
h = WeightedGraph(triangle, (1, 1, 1))
print("  nu =", nu(h), " witness:", maximum_matching(h).edges)
print()

print("triangle, weights (2,2,1): the edge {1,2} can be doubled")
h = WeightedGraph(triangle, (2, 2, 1))
print("  nu =", nu(h), " witness:", maximum_matching(h).edges)
print("  exhaustive cross-check:", nu_bruteforce(h))
print()

print("removing the neighbourhood of a vertex:")
print("  nu(triangle - N(1)) =", nu(WeightedGraph(triangle, (1, 0, 0))))
print()

print("Berge's certificate, weighted version:")
m = Matching.of([(1, 2)])
h = WeightedGraph(triangle, (2, 2, 1))
print("  M = {{1,2}} in the (2,2,1) triangle: augmenting walk?", has_augmenting_walk(h, m))
print("  (yes: the single-edge walk 1,{1,2},2 already augments, nu = 2)")
best = maximum_matching(h)
print("  the maximum matching", best.edges, "has one?", has_augmenting_walk(h, best))
print()

print("five disjoint weighted triangles: nu adds over components")
edges = []
for i in range(5):
    b = 3 * i
    edges += [(b + 1, b + 2), (b + 1, b + 3), (b + 2, b + 3)]
g = SimpleGraph.from_edges(15, edges)
h = WeightedGraph(g, tuple([1] * 15))
print("  nu =", nu(h), "(one edge per triangle)")
