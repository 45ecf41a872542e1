"""Exhaustive small-graph census: formula engine vs the ideal-arithmetic oracle."""

from __future__ import annotations

import os
import random
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from . import assoc, ideals
from .graphs import SimpleGraph, _mask_order, graph_to_text, iter_bits, set_of


def _graph_of_mask(n: int, slots: list[tuple[int, int]], mask: int) -> SimpleGraph:
    """The graph on n vertices with the edge slots whose bits are set in `mask`."""
    return SimpleGraph(n, frozenset(slots[i] for i in range(len(slots)) if mask >> i & 1))


def all_graphs(n: int) -> Iterator[SimpleGraph]:
    """All 2^(n choose 2) labelled graphs on exactly n vertices."""
    slots = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(slots)):
        yield _graph_of_mask(n, slots, mask)


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
    return [_graph_of_mask(n, slots, mask) for mask in masks]


def _oracle_masks(g: SimpleGraph, t: int) -> set[int]:
    """Ass(I^t) by the brute-force oracle, as cover masks; the empty cover for the zero ideal."""
    if not g.edges:
        return {0}
    lcm = [t if bits else 0 for bits in g.adj_bits]  # of I^t's generators, by vertex
    ideals._box_size([r + 1 for r in lcm])  # refuse the table before I^t is grown
    jt = ideals.power(ideals.edge_ideal(g), t)
    if jt.gens.max(axis=0).tolist() != lcm:  # g has an edge, so jt is not zero
        raise RuntimeError(
            "lcm of the generators of I^t must carry exponent t on non-isolated vertices"
        )
    return ideals._ass_masks(jt)


def _formula_masks(g: SimpleGraph, t: int) -> set[int]:
    return {r.mask for r in assoc.ass_primes(g, t)}


def _closed_form_masks(g: SimpleGraph, t: int) -> set[int] | None:
    """The closed form's cover masks at t = 2 and 3; None at any other t."""
    if t == 2:
        return {r.mask for r in assoc.ass_primes_2(g)}
    if t == 3:
        return {r.mask for r in assoc.ass_primes_3(g)}
    return None


def oracle_ass(g: SimpleGraph, t: int) -> set[frozenset[int]]:
    """Ass(I^t) by the brute-force oracle; the empty cover for the zero ideal."""
    return set(map(set_of, _oracle_masks(g, t)))


def formula_ass(g: SimpleGraph, t: int) -> set[frozenset[int]]:
    return set(map(set_of, _formula_masks(g, t)))


def closed_form_ass(g: SimpleGraph, t: int) -> set[frozenset[int]] | None:
    masks = _closed_form_masks(g, t)
    return None if masks is None else set(map(set_of, masks))


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


def _primes_sorted(masks: Iterable[int]) -> list[list[int]]:
    return [list(iter_bits(m)) for m in sorted(masks, key=_mask_order)]


def check_graph(g: SimpleGraph, t: int) -> dict | None:
    """Compare the formula engine, the closed form (t = 2, 3) and the oracle on cover masks;
    only a mismatch becomes vertex lists."""
    expected = _oracle_masks(g, t)
    got = _formula_masks(g, t)
    closed = _closed_form_masks(g, t)
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
    if threads < 1:
        raise ValueError("the thread count must be at least 1")
    graphs = random_graphs(n, sample, seed) if sample is not None else all_graphs(n)
    start = time.perf_counter()
    mismatches: list[dict] = []
    count = 0
    if threads == 1:
        for g in graphs:
            count += 1
            bad = check_graph(g, t)
            if bad is not None:
                mismatches.append(bad)
    else:
        from multiprocessing import Pool  # only a threaded census pays for this import

        jobs = ((g.n, t, g.sorted_edges) for g in graphs)
        # the answers do not depend on the pool size
        with Pool(min(threads, os.cpu_count() or 1)) as pool:
            for bad in pool.imap_unordered(_worker, jobs, chunksize=64):
                count += 1
                if bad is not None:
                    mismatches.append(bad)
    mismatches.sort(key=lambda m: m["edges"])
    return CensusReport(n, t, count, mismatches, time.perf_counter() - start)
