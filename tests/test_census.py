"""The census comparison: `check_graph` on cover masks against the set-level
comparison of the public engines."""

from __future__ import annotations

import pytest

from edgesat import assoc, census
from edgesat.census import (
    all_graphs_upto,
    check_graph,
    closed_form_ass,
    formula_ass,
    oracle_ass,
)
from edgesat.graphs import SimpleGraph, graph_to_text

from conftest import set_order


def check_graph_reference(g: SimpleGraph, t: int) -> dict | None:
    """The comparison on the vertex sets the public engines hand out, each
    list sorted by `set_order`: the mismatch dict `check_graph` must give."""
    expected, got, closed = oracle_ass(g, t), formula_ass(g, t), closed_form_ass(g, t)
    if got == expected and (closed is None or closed == expected):
        return None

    def lists(primes):
        return [sorted(p) for p in sorted(primes, key=set_order)]

    return {
        "edges": [list(e) for e in g.sorted_edges],
        "graph_text": graph_to_text(g),
        "expected": lists(expected),
        "got": lists(got),
        "closed_form": None if closed is None else lists(closed),
    }


@pytest.mark.parametrize("t", [2, 3])
def test_masks_agree_with_the_public_sets(t):
    graphs = list(all_graphs_upto(5))
    assert len(graphs) == 1099
    for g in graphs:
        assert check_graph(g, t) is None and check_graph_reference(g, t) is None, (g.edges, t)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_a_dropped_report_gives_the_set_level_mismatch(monkeypatch, t):
    # ass_primes loses its last prime (the largest in `set_order`): both
    # comparisons read the same wrong engine and must report it alike
    real = assoc.ass_primes
    monkeypatch.setattr(assoc, "ass_primes", lambda g, t: real(g, t)[:-1])
    for g in all_graphs_upto(4):
        bad = check_graph(g, t)
        assert bad is not None and bad == check_graph_reference(g, t), (g.edges, t)
        assert bad["got"] == bad["expected"][:-1]
        assert bad["closed_form"] == (None if t == 4 else bad["expected"])


def test_mask_routes_hand_out_vertex_sets(bowtie):
    # the public engines convert the masks that check_graph compares
    for t in (2, 3):
        for masks, sets in (
            (census._oracle_masks(bowtie, t), oracle_ass(bowtie, t)),
            (census._formula_masks(bowtie, t), formula_ass(bowtie, t)),
            (census._closed_form_masks(bowtie, t), closed_form_ass(bowtie, t)),
        ):
            assert {sum(1 << (v - 1) for v in s) for s in sets} == masks and len(sets) == len(masks)
    assert census._closed_form_masks(bowtie, 4) is None and closed_form_ass(bowtie, 4) is None
