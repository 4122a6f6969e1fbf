import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldcob.reeb import (Category, CategoryError, ReebError, VertexKind,
                          canonical_graph, cobordant, decompose,
                          disjoint_union, euler_characteristic, fiber_profile,
                          graph_from_json, graph_to_json, invariants,
                          klein_bottle_graph, make_graph, negate,
                          projective_plane_graph, random_reeb,
                          reduce_to_normal_form, sphere_graph, torus_graph,
                          validate_reeb)


def test_fixtures_validate():
    for g in (sphere_graph(), torus_graph(), projective_plane_graph(),
              klein_bottle_graph()):
        assert not validate_reeb(g)


def test_fixture_invariants():
    assert invariants(sphere_graph(), Category.ORIENTED).z == 0
    inv = invariants(projective_plane_graph(), Category.UNORIENTED)
    assert (inv.z, inv.w) == (0, 1)
    inv = invariants(klein_bottle_graph(), Category.UNORIENTED)
    assert (inv.z, inv.w) == (0, 0)


def test_euler_characteristics():
    assert euler_characteristic(sphere_graph()) == 2
    assert euler_characteristic(torus_graph()) == 0
    assert euler_characteristic(projective_plane_graph()) == 1
    assert euler_characteristic(klein_bottle_graph()) == 0


def test_validator_saddle_degree():
    g = make_graph(True, [(0, 0, "MIN"), (1, 1, "SADDLE")], [(0, 1)])
    assert any("SADDLE has degree 1" in v for v in validate_reeb(g))


def test_validator_deg2_needs_nonorientable():
    g = make_graph(True, [(0, 0, "MIN"), (1, 1, "DEG2"), (2, 2, "MAX")],
                   [(0, 1), (1, 2)])
    assert any("orientable" in v for v in validate_reeb(g))


def test_validator_distinct_values():
    g = make_graph(True, [(0, 0, "MIN"), (1, 0, "MAX")], [(0, 1)])
    assert any("distinct" in v for v in validate_reeb(g))


def test_validator_min_orientation():
    g = make_graph(True, [(0, 1, "MIN"), (1, 0, "MAX")], [(0, 1)])
    bad = validate_reeb(g)
    assert bad


def test_empty_graph():
    g = make_graph(True, [], [])
    assert not validate_reeb(g)
    inv = invariants(g, Category.UNORIENTED)
    assert (inv.z, inv.w) == (0, 0)
    assert fiber_profile(g).events == ()


def test_sphere_profile_cancels():
    prof = fiber_profile(sphere_graph())
    assert [(e.fiber_class, e.parity, e.sign) for e in prof.events] == [
        ("I0", "o", 1), ("I0", "o", -1)]
    assert all(v == 0 for v in prof.counts.values())


def test_one_saddle_two_max_profile():
    g = make_graph(True,
                   [(0, 0, "MIN"), (1, 1, "SADDLE"), (2, 2, "MAX"),
                    (3, 3, "MAX")],
                   [(0, 1), (1, 2), (1, 3)])
    prof = fiber_profile(g)
    assert prof.counts == {"I0_o": 0, "I0_e": 1, "I1_o": -1, "I1_e": 0,
                           "I2_o": 0, "I2_e": 0}
    inv = invariants(g, Category.ORIENTED)
    assert inv.z == 1
    assert -prof.counts["I0_o"] + prof.counts["I0_e"] == inv.z


def test_projective_plane_crosscap_count():
    # the cross-cap level's fiber is one circle: an odd I2 event
    assert fiber_profile(projective_plane_graph()).counts["I2_o"] == 1


def test_decompositions():
    p = decompose(torus_graph())
    assert (p.n1, p.n2, p.n3, p.n4) == (2, 1, 1, 0)
    p = decompose(klein_bottle_graph())
    assert (p.n1, p.n2, p.n3, p.n4) == (2, 0, 0, 2)
    p = decompose(sphere_graph())
    assert (p.n1, p.n2, p.n3, p.n4) == (2, 0, 0, 0)


def test_reduce_torus_to_empty():
    res = reduce_to_normal_form(torus_graph(), Category.ORIENTED)
    assert (res.invariants.z, res.invariants.w) == (0, 0)
    assert res.canonical.vertices == ()
    assert dict(res.trace)["CANCEL_PAIR"] == 1


def test_reduce_two_projective_planes():
    g = disjoint_union(projective_plane_graph(), projective_plane_graph())
    res = reduce_to_normal_form(g, Category.UNORIENTED)
    assert (res.invariants.z, res.invariants.w) == (0, 0)
    assert dict(res.trace)["CANCEL_RP2"] == 1


def test_reduce_positive_z():
    g = make_graph(True,
                   [(0, 0, "MIN"), (1, 1, "SADDLE"), (2, 2, "MAX"),
                    (3, 3, "MAX")],
                   [(0, 1), (1, 2), (1, 3)])
    res = reduce_to_normal_form(g, Category.ORIENTED)
    assert (res.invariants.z, res.invariants.w) == (1, 0)
    assert res.canonical.count(VertexKind.SADDLE) == 1
    assert not validate_reeb(res.canonical)


def test_canonical_graphs_validate():
    for z in (-3, -1, 0, 2):
        for w, cat in ((0, Category.ORIENTED), (1, Category.UNORIENTED)):
            g = canonical_graph(z, w, cat)
            assert not validate_reeb(g)
            inv = invariants(g, cat)
            assert (inv.z, inv.w) == (z, w)


@pytest.mark.parametrize("z", [-1, 0, 2])
def test_canonical_graph_refuses_w_it_cannot_realise(z):
    # an oriented category has no cross-cap level, so no w = 1 graph
    for cat in Category:
        if cat.oriented:
            with pytest.raises(CategoryError):
                canonical_graph(z, 1, cat)
    # w is read mod 2 from the cross-cap count, so only 0 and 1 exist
    for w in (-1, 2):
        with pytest.raises(ValueError, match="w must be 0 or 1"):
            canonical_graph(z, w, Category.UNORIENTED)


def test_cobordant_fixtures():
    assert cobordant(torus_graph(), sphere_graph(), Category.ORIENTED)
    sph_u = make_graph(False, [(0, 0, "MIN"), (1, 1, "MAX")], [(0, 1)])
    assert not cobordant(projective_plane_graph(), sph_u,
                         Category.UNORIENTED)


def test_category_mismatch():
    with pytest.raises(CategoryError):
        invariants(projective_plane_graph(), Category.ORIENTED)


def test_negate_involution():
    g = torus_graph()
    gg = negate(negate(g))
    assert gg == g


def test_json_roundtrip():
    g = torus_graph()
    doc = graph_to_json(g)
    assert doc["vertices"][0]["value"] == "0/1"
    g2 = graph_from_json(doc)
    assert invariants(g2, Category.ORIENTED) == invariants(
        g, Category.ORIENTED)
    assert sorted(v.value for v in g2.vertices) == sorted(
        v.value for v in g.vertices)


def test_json_rejects_garbage():
    with pytest.raises(ReebError):
        graph_from_json({"orientable": True, "vertices": [], "edges": [[0, 1]]})
    with pytest.raises(ReebError):
        graph_from_json([1, 2, 3])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 12), st.booleans())
def test_random_graphs_validate(seed, size, orientable):
    g = random_reeb(seed, size, orientable)
    assert not validate_reeb(g)
    if orientable:
        assert g.count(VertexKind.DEG2) == 0
    assert g == random_reeb(seed, size, orientable)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10), st.integers(0, 10))
def test_union_additivity(seed, s1, s2):
    g1 = random_reeb(seed, s1, False)
    g2 = random_reeb(seed + 1, s2, False)
    u = disjoint_union(g1, g2)
    assert not validate_reeb(u)
    a = invariants(g1, Category.UNORIENTED)
    b = invariants(g2, Category.UNORIENTED)
    c = invariants(u, Category.UNORIENTED)
    assert c.z == a.z + b.z
    assert c.w == (a.w + b.w) % 2


def test_values_are_exact_rationals():
    g = make_graph(True, [(0, Fraction(1, 3), "MIN"),
                          (1, Fraction(2, 3), "MAX")], [(0, 1)])
    assert not validate_reeb(g)
    assert graph_to_json(g)["vertices"][0]["value"] == "1/3"


def _one_saddle_two_max():
    return make_graph(True,
                      [(0, 0, "MIN"), (1, 1, "SADDLE"), (2, 2, "MAX"),
                       (3, 3, "MAX")],
                      [(0, 1), (1, 2), (1, 3)])


def test_invariant_identities_fire_on_inconsistent_counts():
    g = _one_saddle_two_max()
    g._sweep.split = 0, 1   # the saddle now reads as having two lower edges
    with pytest.raises(AssertionError, match="strand-count"):
        invariants(g, Category.ORIENTED)
    g = _one_saddle_two_max()
    events = g._sweep.events
    cls, components, below = events[3]
    # the top maximum's fiber gains a component
    events[3] = cls, components + 1, below
    with pytest.raises(AssertionError, match="minimum/maximum"):
        invariants(g, Category.ORIENTED)


@pytest.mark.parametrize("value", ["1e999999999", "-1E+999999999",
                                   "1e-999999999", "1e1_000_000_000",
                                   "7" * 5000])
def test_value_strings_are_bounded(value):
    doc = graph_to_json(sphere_graph())
    doc["vertices"][0]["value"] = value
    start = time.perf_counter()
    with pytest.raises(ReebError):
        graph_from_json(doc)
    assert time.perf_counter() - start < 1.0


def test_value_strings_within_the_bound_parse():
    doc = graph_to_json(sphere_graph())
    doc["vertices"][0]["value"] = "-1.5e1000"
    g = graph_from_json(doc)
    assert min(v.value for v in g.vertices) == -15 * Fraction(10) ** 999
