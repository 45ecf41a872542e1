"""Exhaustive small-graph census: formula engine vs the ideal-arithmetic oracle."""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from multiprocessing import Pool
from typing import Iterable, Iterator

from . import assoc, ideals
from .graphs import SimpleGraph, graph_to_text


def all_graphs(n: int) -> Iterator[SimpleGraph]:
    """All 2^(n choose 2) labelled graphs on exactly n vertices."""
    slots = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        yield SimpleGraph(n, frozenset(edges))


def all_graphs_upto(n: int) -> Iterator[SimpleGraph]:
    for k in range(1, n + 1):
        yield from all_graphs(k)


def random_graphs(n: int, count: int, seed: int) -> list[SimpleGraph]:
    """`count` distinct seeded-random labelled graphs on n vertices."""
    if count < 0:
        raise ValueError("the sample size must be non-negative")
    slots = list(combinations(range(1, n + 1), 2))
    total = 1 << len(slots)
    rng = random.Random(seed)
    if total <= sys.maxsize:
        masks = rng.sample(range(total), min(count, total))
    else:  # len(range(total)) overflows; draw as `sample` does for a large population
        drawn: dict[int, None] = {}
        while len(drawn) < count:
            drawn[rng.randrange(total)] = None
        masks = list(drawn)
    out = []
    for mask in masks:
        edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        out.append(SimpleGraph(n, frozenset(edges)))
    return out


def oracle_ass(g: SimpleGraph, t: int) -> set[frozenset[int]]:
    """Ass(I^t) by the divisor sweep; the empty cover for the zero ideal."""
    if not g.edges:
        return {frozenset()}
    jt = ideals.power(ideals.edge_ideal(g), t)
    rho = ideals.lcm_exponents(jt)
    isolated = {v for v in range(1, g.n + 1) if not g.adj[v]}
    if not all(int(rho[v - 1]) == (0 if v in isolated else t) for v in range(1, g.n + 1)):
        raise RuntimeError(
            "lcm of the generators of I^t must carry exponent t on non-isolated vertices"
        )
    return set(ideals.ass_primes_oracle(jt))


def formula_ass(g: SimpleGraph, t: int) -> set[frozenset[int]]:
    return assoc.prime_sets(assoc.ass_primes(g, t))


def closed_form_ass(g: SimpleGraph, t: int) -> set[frozenset[int]] | None:
    if t == 2:
        return assoc.prime_sets(assoc.ass_primes_2(g))
    if t == 3:
        return assoc.prime_sets(assoc.ass_primes_3(g))
    return None


@dataclass
class CensusReport:
    n: int
    t: int
    graphs_checked: int
    mismatches: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "graphs_checked": self.graphs_checked,
            "mismatches": self.mismatches,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def _primes_sorted(primes: Iterable[frozenset[int]]) -> list[list[int]]:
    return [sorted(p) for p in sorted(primes, key=lambda s: (len(s), sorted(s)))]


def check_graph(g: SimpleGraph, t: int) -> dict | None:
    """Compare the formula engine, the closed form (t = 2, 3) and the oracle."""
    expected = oracle_ass(g, t)
    got = formula_ass(g, t)
    closed = closed_form_ass(g, t)
    if got == expected and (closed is None or closed == expected):
        return None
    return {
        "edges": [list(e) for e in g.sorted_edges],
        "graph_text": graph_to_text(g),
        "expected": _primes_sorted(expected),
        "got": _primes_sorted(got),
        "closed_form": None if closed is None else _primes_sorted(closed),
    }


def _worker(args: tuple[int, int, tuple[tuple[int, int], ...]]) -> dict | None:
    n, t, edges = args
    return check_graph(SimpleGraph(n, frozenset(edges)), t)


def run_census(
    n: int,
    t: int,
    sample: int | None = None,
    seed: int = 0,
    threads: int = 1,
) -> CensusReport:
    """Compare Ass(I^t) engines over all (or `sample` random) graphs on n vertices."""
    if sample is None and n > 6:
        raise ValueError("full census is refused for n > 6; pass a sample size")
    graphs = random_graphs(n, sample, seed) if sample is not None else all_graphs(n)
    start = time.perf_counter()
    mismatches: list[dict] = []
    count = 0
    if threads <= 1:
        for g in graphs:
            count += 1
            bad = check_graph(g, t)
            if bad is not None:
                mismatches.append(bad)
    else:
        jobs = ((g.n, t, g.sorted_edges) for g in graphs)
        with Pool(threads) as pool:
            for bad in pool.imap_unordered(_worker, jobs, chunksize=64):
                count += 1
                if bad is not None:
                    mismatches.append(bad)
    mismatches.sort(key=lambda m: m["edges"])
    return CensusReport(n, t, count, mismatches, time.perf_counter() - start)
