"""The level sweep against the per-vertex reference formulas, and at scale."""

import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, "tests")

from foldcob.diagrams import cusp_count_closed, from_reeb
from foldcob.reeb import (Category, ReebError, ReebGraph, Vertex, VertexKind,
                          decompose, disjoint_union, fiber_profile,
                          graph_to_json, invariants, random_reeb,
                          validate_reeb)

import reeb_reference as ref


def _relabel(g, rng):
    """The same function with shuffled ids, vertices and edges, edges in
    either direction, and non-integer rational values in the same order."""
    labels = rng.sample(range(10 * len(g.vertices) + 10), len(g.vertices))
    newid = {v.id: (f"v{k}" if k % 3 == 0 else k)
             for v, k in zip(g.vertices, labels)}
    value = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
    vertices = []
    for v in sorted(g.vertices, key=lambda w: w.value):
        value += Fraction(rng.randint(1, 20), rng.randint(2, 9))
        vertices.append(Vertex(newid[v.id], value, v.kind))
    rng.shuffle(vertices)
    edges = [(newid[a], newid[b]) if rng.random() < 0.5
             else (newid[b], newid[a]) for a, b in g.edges]
    rng.shuffle(edges)
    return ReebGraph(g.orientable, tuple(vertices), tuple(edges))


def _damage(g, rng):
    """One random defect, or none; the graph may stay valid."""
    vs, es = list(g.vertices), list(g.edges)
    if not vs:
        return g
    i = rng.randrange(len(vs))
    v = vs[i]
    other = vs[rng.randrange(len(vs))]
    how = rng.randrange(8)
    if how == 0:
        vs[i] = Vertex(v.id, v.value, rng.choice(list(VertexKind)))
    elif how == 1:
        if es:
            es.pop(rng.randrange(len(es)))
    elif how == 2:
        es.append((v.id, other.id))
    elif how == 3:
        es.append((v.id, "nowhere"))
    elif how == 4:
        vs[i] = Vertex(v.id, other.value, v.kind)
    elif how == 5:
        vs[i] = Vertex(other.id, v.value, v.kind)
    elif how == 6:
        # swapping two values can turn edges upside down
        j = vs.index(other)
        vs[i], vs[j] = (Vertex(v.id, other.value, v.kind),
                        Vertex(other.id, v.value, other.kind))
    elif how == 7:
        return ReebGraph(True, g.vertices, g.edges)
    return ReebGraph(g.orientable, tuple(vs), tuple(es))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 30), st.booleans(),
       st.booleans(), st.randoms(use_true_random=False))
def test_sweep_matches_reference(seed, size, orientable, damaged, rng):
    g = _relabel(random_reeb(seed, size, orientable), rng)
    if damaged:
        g = _damage(g, rng)
    problems = ref.validate_reeb(g)
    assert validate_reeb(g) == problems
    if problems:
        with pytest.raises(ReebError) as exc:
            fiber_profile(g)
        assert str(exc.value) == problems[0]
        return
    assert fiber_profile(g) == ref.fiber_profile(g)
    assert decompose(g) == ref.decompose(g)
    assert from_reeb(g) == ref.from_reeb(g)
    signs = [ref.saddle_sign(g, v) for v in g.vertices
             if v.kind is VertexKind.SADDLE]
    assert g._sweep.split == (signs.count(1), signs.count(-1))


def test_hundred_thousand_vertices_in_near_linear_time():
    # the per-vertex edge scans took hours at this size
    start = time.perf_counter()
    g = random_reeb(7, 100_000, False)
    inv = invariants(g, Category.UNORIENTED)
    cusps = cusp_count_closed(from_reeb(g))
    elapsed = time.perf_counter() - start
    assert len(g.vertices) >= 100_000
    assert cusps.count == inv.z and cusps.cross_check == "ok"
    assert elapsed < 20, f"{elapsed:.1f} s"


@pytest.mark.parametrize("base, step", [
    # values whose floats tie, so only the exact comparison orders them
    (Fraction(1, 3), Fraction(1, 10 ** 30)),
    # values beyond the float range
    (Fraction(10) ** 400, Fraction(1, 7)),
    (-Fraction(10) ** 400, Fraction(1, 7)),
])
def test_sweep_orders_values_floats_cannot_tell_apart(base, step):
    g = random_reeb(3, 12, False)
    # reversed listing, so that input order alone gives the wrong sweep
    g = ReebGraph(g.orientable,
                  tuple(Vertex(v.id, base + v.value * step, v.kind)
                        for v in reversed(g.vertices)), g.edges)
    assert validate_reeb(g) == []
    assert fiber_profile(g) == ref.fiber_profile(g)
    assert from_reeb(g) == ref.from_reeb(g)
    exact = sorted(g.vertices, key=lambda v: v.value)
    assert [v["id"] for v in graph_to_json(g)["vertices"]] == \
        [v.id for v in exact]
    # a second operand with the same values, and one whose values fall
    # between the first one's: the union ranks the vertices of both in
    # exact value order, the first operand's first on a tie
    between = ReebGraph(g.orientable,
                        tuple(Vertex(v.id, v.value + step / 2, v.kind)
                              for v in g.vertices), g.edges)
    for h in (g, between):
        tagged = sorted([(v.value, 0, v) for v in g.vertices]
                        + [(v.value, 1, v) for v in h.vertices],
                        key=lambda t: t[:2])
        rank = {(side, v.id): r for r, (_, side, v) in enumerate(tagged)}
        union = disjoint_union(g, h)
        assert [v.kind for v in union.vertices] == \
            [v.kind for _, _, v in tagged]
        assert union.edges == tuple((rank[side, a], rank[side, b])
                                    for side, x in enumerate((g, h))
                                    for a, b in x.edges)
        assert validate_reeb(union) == []
