"""The graph builders' outputs, pinned byte for byte.

``random_reeb`` feeds the tier-1 sweeps, the selftest and the demo, and
``canonical_graph`` is the normal form every reduction returns, so a
change to the graph either builds must show here as a changed digest.
Each digest is the sha256 of the graphs' sorted-key, compact JSON, one
line per graph, in the order the generators below list them."""

import hashlib
import json

from foldcob.reeb import (Category, canonical_graph, decompose,
                          graph_to_json, random_reeb, reduce_to_normal_form)


def _digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update((json.dumps(graph_to_json(g), sort_keys=True,
                             separators=(",", ":")) + "\n").encode())
    return h.hexdigest()


def _random_graphs():
    return [random_reeb(seed, 1 + seed % 40, orientable)
            for seed in range(200) for orientable in (True, False)]


def test_random_graphs_are_pinned():
    assert _digest(_random_graphs()) == (
        "83cc7aa54534ac91a3f362e6a8b4110255a4adcfbd117a2edb7f563ad751a79c")


def test_canonical_graphs_are_pinned():
    assert _digest(canonical_graph(z, w, cat) for z in range(-9, 10)
                   for w in (0, 1) for cat in Category
                   if not (w and cat.oriented)) == (
        "37cf3960905795a79df61afe42b7f6543e2f5f1ec590e12a8a71a5dd79d5b872")


def test_reduction_trace_follows_the_pieces():
    """CANCEL_PAIR matches each saddle with one of the other kind,
    CANCEL_RP2 pairs the cross-cap levels, and DELETE_SPHERE drops every
    capped star and every sphere those moves leave; moves that apply no
    times are left out."""
    for g in _random_graphs():
        p = decompose(g)
        pairs, rp2 = min(p.n2, p.n3), p.n4 // 2
        moves = (("CANCEL_PAIR", pairs), ("CANCEL_RP2", rp2),
                 ("DELETE_SPHERE", p.n1 + pairs + rp2))
        for cat in Category:
            if cat.oriented and not g.orientable:
                continue
            red = reduce_to_normal_form(g, cat)
            assert red.trace == tuple((m, n) for m, n in moves if n)
            inv = red.invariants
            assert red.canonical == canonical_graph(inv.z, inv.w, cat)
