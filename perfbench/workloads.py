"""The three benchmark workloads: seeded inputs, one op each, answer checks.

Inputs are plain data (vertex count, edge tuples, t, exponent vectors) made
by this module's own seeded generator, so the same seed gives byte-identical
inputs on every machine.  Building the `SimpleGraph` is part of an op, as it
is for a CLI user who parses a graph.

Every workload has `run(item)`, the timed op, and `check(item, answer)`,
which returns an error string or None and runs outside the timed op.  The
library functions an op calls are looked up on their modules at call time,
so the tracer's wrappers see them.  `Census` takes an optional engine in
place of `census.check_graph`, so that a test can inject wrong answers
without touching the library.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations

import numpy as np

from edgesat import assoc, census, ideals, saturation
from edgesat.graphs import SimpleGraph

# The fixed 10-vertex graph of the project roadmap (s(Gamma) = 7).
G10_EDGES = (
    (1, 2), (1, 5), (1, 10), (2, 3), (2, 7), (2, 10), (3, 6), (3, 7), (4, 5), (4, 7),
    (4, 8), (5, 6), (5, 7), (5, 8), (5, 10), (6, 7), (7, 8), (8, 9), (8, 10),
)

# Inputs per run.  A run stops early if it uses them all; at the sizes
# measured when the benchmark was defined a 20 s run uses under a fifth.
CENSUS_COUNT = 8000
ASS_GRAPHS = 3000
MEMBERSHIP_COUNT = 3000

MEMBERSHIP_BATCH = 16  # half near the saturation boundary, half large
MEMBERSHIP_LARGE = 64  # top entry of a large exponent vector


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _random_edges(rng: random.Random, n: int, p: float) -> tuple:
    """round(p * C(n, 2)) distinct edges, drawn uniformly.

    A fixed edge count rather than one coin per edge: the cost of an op
    grows steeply with the edge count, and the dense graphs that coins
    sometimes give would make a run's total depend on a handful of ops.
    """
    slots = list(combinations(range(1, n + 1), 2))
    return tuple(sorted(rng.sample(slots, round(p * len(slots)))))


def census_inputs(seed: int) -> list:
    """Distinct labelled graphs on six vertices, each checked at t = 3."""
    slots = list(combinations(range(1, 7), 2))
    masks = _rng("census", seed).sample(range(1 << len(slots)), CENSUS_COUNT)
    return [
        (6, tuple(slots[i] for i in range(len(slots)) if m >> i & 1), 3)
        for m in masks
    ]


def ass_inputs(seed: int) -> list:
    """G10 at t = 3 and 4, then random graphs on 8 vertices with 11 edges.

    Every random graph is asked at t = 3 and every second one also at t = 4,
    right after its t = 3 op.  Two t = 3 ops per t = 4 op keep the median
    inside the t = 3 mode (about 25 ms) instead of on the gap between the
    modes, where it would jump from run to run; t = 4 (about 0.2 s) sets the
    tail and most of the time.
    """
    rng = _rng("ass", seed)
    items = [(10, G10_EDGES, 3), (10, G10_EDGES, 4)]
    for k in range(ASS_GRAPHS):
        edges = _random_edges(rng, 8, 0.4)
        items.append((8, edges, 3))
        if k % 2 == 0:
            items.append((8, edges, 4))
    return items


def membership_inputs(seed: int) -> list:
    """Random graphs on 7 vertices with 10 edges, t cycling through 2, 3, 4.

    Each batch holds exponent vectors with entries below t, on the
    saturation boundary, and vectors with entries up to 64, whose clone
    blow-ups reach a few hundred vertices.
    """
    rng = _rng("membership", seed)
    half = MEMBERSHIP_BATCH // 2
    items = []
    for k in range(MEMBERSHIP_COUNT):
        t = 2 + k % 3
        edges = _random_edges(rng, 7, 0.5)
        small = [tuple(rng.randrange(t) for _ in range(7)) for _ in range(half)]
        large = [
            tuple(rng.randrange(MEMBERSHIP_LARGE + 1) for _ in range(7))
            for _ in range(MEMBERSHIP_BATCH - half)
        ]
        items.append((7, edges, t, tuple(small + large)))
    return items


def digest(items: list) -> str:
    """sha256 of the canonical JSON form of the inputs."""
    return hashlib.sha256(json.dumps(items, separators=(",", ":")).encode()).hexdigest()


def _prime_ideal(n: int, f) -> ideals.MonomialIdeal:
    return ideals.MonomialIdeal.from_gens(
        n, [[1 if j == i else 0 for j in range(1, n + 1)] for i in sorted(f)]
    )


class Census:
    """One op is `census.check_graph(g, t)`: oracle, formula and closed form."""

    name = "census"
    make_inputs = staticmethod(census_inputs)

    def __init__(self, engine=None):
        self._engine = engine

    def run(self, item):
        n, edges, t = item
        engine = self._engine or census.check_graph
        return engine(SimpleGraph(n, frozenset(edges)), t)

    def check(self, item, answer):
        return None if answer is None else f"engines disagree: {answer}"


class Ass:
    """One op is `assoc.ass_primes(g, t)` plus `assoc.is_associated(g, V, t)`."""

    name = "ass"
    make_inputs = staticmethod(ass_inputs)

    def run(self, item):
        n, edges, t = item
        g = SimpleGraph(n, frozenset(edges))
        reports = assoc.ass_primes(g, t)
        maximal = assoc.is_associated(g, range(1, n + 1), t)
        return (
            tuple(
                (tuple(sorted(r.vertices)), r.kind, tuple(r.evidence.get("exponents", ())))
                for r in reports
            ),
            maximal is not None,
        )

    def check(self, item, answer):
        """Re-check every embedded witness with the oracle, localized at F.

        For a witness a of P_F, take b equal to a on F and t off F; then
        I^t : x^b must equal P_F.  The unlocalized colon I^t : x^a is not
        P_F in general.
        """
        n, edges, t = item
        primes, maximal = answer
        everything = tuple(range(1, n + 1))
        if maximal != any(f == everything for f, _, _ in primes):
            return "is_associated(g, V, t) disagrees with ass_primes"
        g = SimpleGraph(n, frozenset(edges))
        jt = ideals.power(ideals.edge_ideal(g), t)
        for f, kind, a in primes:
            if kind != "embedded":
                continue
            fs = set(f)
            b = [a[i - 1] if i in fs else t for i in range(1, n + 1)]
            if ideals.colon_monomial(jt, b) != _prime_ideal(n, f):
                return f"witness {list(a)} does not certify P_{list(f)}"
        return None


class Membership:
    """One op answers a batch of x^a questions by both routes.

    Matching route: `in_power`, `in_saturation`, `in_sat_minus_power`.
    Oracle route: `ideals.power`, `ideals.saturate`, `ideals.membership_many`.
    """

    name = "membership"
    make_inputs = staticmethod(membership_inputs)

    def run(self, item):
        n, edges, t, vectors = item
        g = SimpleGraph(n, frozenset(edges))
        by_matching = tuple(
            (
                saturation.in_power(g, a, t),
                saturation.in_saturation(g, a, t),
                saturation.in_sat_minus_power(g, a, t),
            )
            for a in vectors
        )
        jt = ideals.power(ideals.edge_ideal(g), t)
        sat = ideals.saturate(jt)
        grid = np.array(vectors, dtype=np.int64)
        in_jt = ideals.membership_many(jt, grid)
        in_sat = ideals.membership_many(sat, grid)
        by_oracle = tuple(
            (bool(p), bool(s), bool(s and not p)) for p, s in zip(in_jt, in_sat)
        )
        return by_matching, by_oracle

    def check(self, item, answer):
        by_matching, by_oracle = answer
        for a, got, want in zip(item[3], by_matching, by_oracle):
            if got != want:
                return f"x^{list(a)}: matching says {got}, oracle says {want}"
        return None


WORKLOADS = {w.name: w for w in (Census, Ass, Membership)}
