"""Stable associated primes, the stability-index bound, and depth criteria.

Ass(I^t) grows with t and freezes at Ass^infinity; the bound s(Gamma) says
how soon.  Chains of triangles through one vertex make the bound tight and
far better than the classical n - s estimate.
"""

from edgesat import (
    SimpleGraph,
    ass_infinity,
    ass_primes,
    build_strong,
    depth_positive,
    extend_by_edge,
    is_strongly_t_saturating,
    s_gamma,
)
from edgesat.matching import WeightedGraph


def shared_triangles(k: int) -> SimpleGraph:
    """k triangles through the common vertex 1, on 2k+1 vertices."""
    edges = []
    for i in range(k):
        b = 1 + 2 * i
        edges += [(1, b + 1), (1, b + 2), (b + 1, b + 2)]
    return SimpleGraph.from_edges(2 * k + 1, edges)


for k in (2, 3):
    g = shared_triangles(k)
    t = k + 1
    print(f"{k} triangles sharing vertex 1 (n = {2*k+1}):")
    print(f"  s(Gamma) = {s_gamma(g)}  (equals t = {t}; the classical bound gives {2*t-3})")
    stable = {frozenset(r.vertices) for r in ass_infinity(g)}
    at_t = {frozenset(r.vertices) for r in ass_primes(g, t)}
    print(f"  Ass(I^{t}) already equals Ass^infinity:", at_t == stable)
    print()

print("growing a strongly saturating weighted graph by adding edges:")
bowtie = SimpleGraph.from_edges(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
a = (1, 1, 1, 0, 0)  # the first triangle, strongly 2-saturating
for step in range(2):
    edge = (1, 4) if step == 0 else (4, 5)
    a = extend_by_edge(bowtie, a, edge)
    t = (sum(a) + 1) // 2
    print(f"  after adding {edge}: a = {a}, strongly {t}-saturating:",
          is_strongly_t_saturating(WeightedGraph(bowtie, a), t))
print("or in one call, growing from the seed triangle to the whole bowtie:")
print("  build_strong ->", build_strong(bowtie, {1, 2, 3, 4, 5}, {1, 2, 3}))
print()

print("depth criteria (no dominating shape <=> depth positive):")
path = SimpleGraph.from_edges(3, [(1, 2), (2, 3)])
tri = SimpleGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
pent = SimpleGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
print("  path, t=2:", depth_positive(path, 2), "(no triangle at all)")
print("  triangle, t=2:", depth_positive(tri, 2), "(it dominates itself)")
print("  pentagon, t=3:", depth_positive(pent, 3), "(a dominating pentagon)")
