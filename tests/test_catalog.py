import functools

import pytest

from foldcob.catalog import (CatalogId, _name_map, catalog,
                             counting_identities, cusp_cocycle_check,
                             fiber_classes, free_approximation,
                             hypercohomology, suspension_map)
from foldcob.complexes import (ComplexError, Direction, RingTag, hom_dual,
                               homology, make_complex, validate_complex)
from foldcob.intmat import IntMatrix, cokernel_is_trivial

import catalog_reference
from snf_reference import relations


def ring_counts(cx, deg):
    free = sum(1 for g in cx.generators[deg] if g.ring is RingTag.FREE)
    return free, cx.n(deg) - free


def test_co32_generators():
    cx = catalog(CatalogId.CO32)
    assert cx.direction is Direction.COHOMOLOGICAL
    assert cx.names(0) == ["0_o", "0_e"]
    assert cx.names(1) == ["I0_o", "I0_e", "I1_o", "I1_e"]
    assert cx.names(2) == ["II01_o", "II01_e"]


def test_oriented_and_simple_ids_share_the_complex():
    base = catalog(CatalogId.CO32)
    for cid in (CatalogId.CO32_ORI, CatalogId.SCO32, CatalogId.SCO32_ORI):
        assert catalog(cid) is base


def test_v32_generator_table():
    cx = catalog(CatalogId.V32)
    assert cx.direction is Direction.HOMOLOGICAL
    assert ring_counts(cx, 0) == (2, 0)
    assert ring_counts(cx, 1) == (4, 2)
    assert ring_counts(cx, 2) == (2, 20)
    assert cx.names(1) == ["I0_o", "I0_e", "I1_o", "I1_e", "I2_o", "I2_e"]


def test_v32_h1_basis_cycles():
    # express_class coordinates on H_1(V32) are read in this basis, which
    # the pivot order picks: Z^2 + Z2
    cx = catalog(CatalogId.V32)
    pres = homology(cx, 1)
    assert (pres.free_rank, pres.torsion) == (2, (2,))
    assert pres.basis_cycles == (cx.chain(1, {"I0_o": -1, "I1_o": 1}),
                                 cx.chain(1, {"I0_o": -1, "I1_e": 1}),
                                 cx.chain(1, {"I2_e": -1}))


def test_f32_adds_one_free_generator():
    f32 = catalog(CatalogId.F32)
    assert f32.n(2) == 23
    assert f32.names(2)[-1] == "A"
    assert all(g.ring is RingTag.FREE
               for deg in f32.generators for g in deg)


def test_z2_catalog_shapes():
    z2 = catalog(CatalogId.C32_Z2)
    assert z2.n(0) == 2 and z2.n(1) == 6 and z2.n(2) == 22
    simple = catalog(CatalogId.C32_Z2_SIMPLE)
    assert simple.n(2) == 20
    assert all(not n.startswith("II6") for n in simple.names(2))


def test_simple_catalog_is_the_filtered_full_catalog():
    full = catalog(CatalogId.C32_Z2)
    simple = catalog(CatalogId.C32_Z2_SIMPLE)
    keep = [i for i, n in enumerate(full.names(2)) if not n.startswith("II6")]
    assert [full.names(2)[i] for i in keep] == simple.names(2)
    filtered = full.differentials[1].submatrix(keep, range(full.n(1)))
    assert filtered == simple.differentials[1]
    assert full.differentials[0] == simple.differentials[0]


_REFERENCE = {
    CatalogId.CO32: catalog_reference.co32,
    CatalogId.C32_Z2: catalog_reference.c32_z2,
    CatalogId.C32_Z2_SIMPLE: functools.partial(catalog_reference.c32_z2,
                                               simple=True),
}


@pytest.mark.parametrize("cid", list(_REFERENCE), ids=lambda c: c.value)
def test_closed_cochain_catalogs_equal_the_typed_reference(cid):
    # the catalogs are duals of V32; they equal the typed tables as
    # objects: the generators, their order and every matrix
    assert catalog(cid) == _REFERENCE[cid]()


@pytest.mark.parametrize("cid", list(CatalogId), ids=lambda c: c.value)
def test_formula_is_the_inverse_of_make_complex(cid):
    # every source is listed, in generator order, with only nonzero terms,
    # and the formulas rebuild the catalog
    cx = catalog(cid)
    formulas = [cx.formula(i) for i in range(len(cx.differentials))]
    for i, formula in enumerate(formulas):
        assert list(formula) == cx.names(cx.ends(i)[0])
        assert all(all(image.values()) for image in formula.values())
    assert make_complex(cx.direction, [[tuple(g) for g in deg]
                                       for deg in cx.generators],
                        formulas) == cx


def test_every_catalog_validates():
    for cid in CatalogId:
        assert not validate_complex(catalog(cid))


def test_bcusp32_shape_and_cocycles():
    cx = catalog(CatalogId.BCUSP32)
    assert cx.names(1) == ["I0_o", "I0_e", "I1_o", "I1_e", "Ia_o", "Ia_e"]
    assert cx.n(2) == 12
    report = cusp_cocycle_check()
    assert report.ok
    expected = cx.chain(2, {"IIa_o": 1, "IIa_e": 1, "IIg_o": 1, "IIg_e": 1})
    assert report.image_c2 == expected
    assert tuple(-x for x in report.image_c2) == report.image_c1


def test_bcusp32_negates_cusp32_on_iia():
    # on I0, I1 -> II01, IIa the boundary catalog's coboundary is the
    # closed one with the generators IIa_o and IIa_e negated
    cusp, bcusp = catalog(CatalogId.CUSP32), catalog(CatalogId.BCUSP32)
    for src in cusp.names(1):
        for tgt in cusp.names(2):
            sign = -1 if tgt.startswith("IIa_") else 1
            c = cusp.differentials[1].entries[cusp.index(2, tgt)][
                cusp.index(1, src)]
            b = bcusp.differentials[1].entries[bcusp.index(2, tgt)][
                bcusp.index(1, src)]
            assert b == sign * c, (src, tgt)


def test_counting_identities_cusp32():
    idents = {i.f_terms: i.F_terms
              for i in counting_identities(CatalogId.CUSP32)}
    assert idents[(("I0_o", 1),)] == (("II01_o", 1), ("II01_e", -1),
                                      ("IIa_e", 1))
    assert idents[(("I1_o", 1),)] == (("II01_o", -1), ("II01_e", 1),
                                      ("IIa_o", 1))


def test_counting_identities_co32_pairs():
    idents = counting_identities(CatalogId.CO32)
    assert {i.f_terms for i in idents} == {
        (("I0_o", 1), ("I1_e", 1)), (("I0_e", 1), ("I1_o", 1))}
    assert all(i.F_terms == () for i in idents)


@pytest.mark.parametrize("cid", [CatalogId.CO32_ORI, CatalogId.SCO32,
                                 CatalogId.SCO32_ORI])
def test_counting_identities_of_co32_aliases(cid):
    # catalog(cid) is the CO32 object, so its identities are CO32's
    assert counting_identities(cid) == counting_identities(CatalogId.CO32)


def test_counting_identities_rejects_truncated_catalog():
    with pytest.raises(ComplexError):
        counting_identities(CatalogId.CO21)


def test_fiber_classes_metadata():
    classes = {(fc.name, fc.parity): fc for fc in fiber_classes(CatalogId.V32)}
    assert classes[("I2", "o")].codim == 1
    assert not classes[("I2", "o")].coorientable
    assert classes[("II01", "e")].coorientable
    bclasses = {fc.name for fc in fiber_classes(CatalogId.BCUSP32)
                if fc.cusp_class}
    assert bclasses == {"IIa", "IIg"}
    assert all(fc.coorientable for fc in fiber_classes(CatalogId.BCUSP32))


def test_suspension_variants_share_the_chain_map():
    assert suspension_map("co_Z").chain is suspension_map("full_Z2").chain


@pytest.mark.parametrize("variant", ["co_Z", "full_Z2"])
def test_suspension_maps_are_identities_in_degrees_0_and_1(variant):
    for f in suspension_map(variant):
        assert f.matrices == tuple(IntMatrix.identity(f.target.n(d))
                                   for d in (0, 1))


def test_suspension_rejects_unknown_variant():
    with pytest.raises(ValueError):
        suspension_map("co_Q")


def test_free_approximation_rejects_other_complexes():
    with pytest.raises(ComplexError):
        free_approximation(catalog(CatalogId.CO32))


def test_free_approximation_collapses_torsion():
    v32 = catalog(CatalogId.V32)
    f32, lam = free_approximation(v32)
    assert f32 == catalog(CatalogId.F32)
    col = f32.names(2).index("A")
    assert all(lam.matrices[2].entries[r][col] == 0 for r in range(v32.n(2)))
    # degree-2 comparison data is recorded, not asserted: the collapse
    # map need not be a homology isomorphism at the top degree
    h2_v = homology(v32, 2)
    h2_f = homology(f32, 2)
    assert isinstance(h2_v.free_rank, int) and isinstance(h2_f.free_rank, int)


def test_hypercohomology_degree_range():
    with pytest.raises(ComplexError):
        hypercohomology(catalog(CatalogId.V32), RingTag.FREE, 3)


def test_hyper_groups_over_z():
    v32 = catalog(CatalogId.V32)
    h0 = hypercohomology(v32, RingTag.FREE, 0)
    assert (h0.group.free_rank, h0.group.torsion) == (1, ())
    h1 = hypercohomology(v32, RingTag.FREE, 1)
    assert (h1.group.free_rank, h1.group.torsion) == (2, ())
    assert h0.comparison_is_isomorphism and h1.comparison_is_isomorphism


@pytest.mark.parametrize("g", list(RingTag))
def test_dual_collapse_is_the_transposed_collapse(g):
    # Hom(lam, g): the transpose of lam on the generators hom_dual keeps,
    # mod 2 over Z2, is the map by names between the duals
    v32 = catalog(CatalogId.V32)
    f32, lam = free_approximation(v32)
    dual = _name_map(hom_dual(v32, g), hom_dual(f32, g))

    def kept(cx, d):
        return [i for i, gen in enumerate(cx.generators[d])
                if g is RingTag.TWO_TORSION or gen.ring is RingTag.FREE]

    for d, m in enumerate(lam.matrices):
        t = m.submatrix(kept(v32, d), kept(f32, d)).transpose()
        assert dual.matrices[d] == (t.mod2() if g is RingTag.TWO_TORSION
                                    else t)


def test_collapse_is_onto_exactly_where_every_name_occurs():
    # the Smith-reduced cokernel of [f_d | relations] is the oracle of the
    # name test; the dualized collapse over Z misses the torsion names, so
    # it is onto in degree 0 only
    v32 = catalog(CatalogId.V32)
    f32, lam = free_approximation(v32)
    dual = _name_map(hom_dual(v32, RingTag.FREE), hom_dual(f32, RingTag.FREE))
    onto = []
    for f in (lam, dual):
        for d, m in enumerate(f.matrices):
            by_names = set(f.target.names(d)) <= set(f.source.names(d))
            assert by_names == cokernel_is_trivial(
                m.hstack(relations(f.target, d)))
            onto.append(by_names)
    assert onto == [True, True, True, True, False, False]
