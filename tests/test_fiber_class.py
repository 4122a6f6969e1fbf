"""A function's fiber tally as a class in H_1(V32) = Z^2 + Z2.

The tally of a Reeb graph is its fiber cycle in V32.  Its class is
(0, z, w), and the surface operations act on the class as they act on
(z, w): negation flips z, disjoint union adds, the normal form keeps the
class, and two graphs are cobordant exactly when their classes agree.
"""

from itertools import combinations

import pytest

from foldcob.catalog import CatalogId, catalog
from foldcob.complexes import express_class
from foldcob.reeb import (Category, cobordant, disjoint_union, fiber_profile,
                          invariants, klein_bottle_graph, negate,
                          projective_plane_graph, random_reeb,
                          reduce_to_normal_form, sphere_graph, torus_graph)
from foldcob.selftest import _SWEEP_SIZE

V32 = catalog(CatalogId.V32)
_SEEDS = 100


def fiber_class(g):
    return express_class(V32, 1, V32.chain(1, fiber_profile(g).counts))


def _sweep_pairs(orientable):
    """Criterion 5's graphs: each seed's graph and its union partner."""
    return [(random_reeb(seed, 1 + seed % _SWEEP_SIZE, orientable),
             random_reeb(10_000 + seed, 1 + (seed * 7) % _SWEEP_SIZE,
                         orientable))
            for seed in range(_SEEDS)]


_PAIRS = {o: _sweep_pairs(o) for o in (True, False)}
_FIXTURES = [sphere_graph(), torus_graph(), projective_plane_graph(),
             klein_bottle_graph()]


def _pairs(cat):
    """Criterion 5's pairs that the category admits."""
    if cat.oriented:
        return _PAIRS[True]
    return _PAIRS[True] + _PAIRS[False]


def _fixtures(cat):
    """Criterion 6's fixtures that the category admits: an oriented
    category needs an orientable graph."""
    return [g for g in _FIXTURES if g.orientable or not cat.oriented]


def _graphs(cat):
    """Criterion 5's graphs and criterion 6's fixtures."""
    return [g for pair in _pairs(cat) for g in pair] + _fixtures(cat)


_CATEGORIES = pytest.mark.parametrize("cat", list(Category),
                                      ids=lambda c: c.value)


def test_tally_is_keyed_by_v32_generators():
    names = tuple(V32.names(1))
    for g in _graphs(Category.UNORIENTED):
        assert tuple(fiber_profile(g).counts) == names


@_CATEGORIES
def test_class_is_zero_z_w(cat):
    for g in _graphs(cat):
        inv = invariants(g, cat)
        assert fiber_class(g) == (0, inv.z, inv.w)


@_CATEGORIES
def test_negation_flips_z(cat):
    for g in _graphs(cat):
        _, z, w = fiber_class(g)
        assert fiber_class(negate(g)) == (0, -z, w)


@_CATEGORIES
def test_disjoint_union_adds_classes(cat):
    for g, h in _pairs(cat) + list(combinations(_fixtures(cat), 2)):
        a, b = fiber_class(g), fiber_class(h)
        assert fiber_class(disjoint_union(g, h)) == (
            a[0] + b[0], a[1] + b[1], (a[2] + b[2]) % 2)


@_CATEGORIES
def test_normal_form_keeps_the_class(cat):
    for g in _graphs(cat):
        assert (fiber_class(reduce_to_normal_form(g, cat).canonical)
                == fiber_class(g))


@_CATEGORIES
def test_cobordant_exactly_when_classes_agree(cat):
    graphs = _graphs(cat)
    classes = [fiber_class(g) for g in graphs]
    agree = 0
    for (g, a), (h, b) in combinations(zip(graphs, classes), 2):
        assert cobordant(g, h, cat) == (a == b)
        agree += a == b
    # both outcomes occur, so neither side of the equivalence is vacuous
    assert 0 < agree < len(graphs) * (len(graphs) - 1) // 2
