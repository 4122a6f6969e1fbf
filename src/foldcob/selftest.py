"""Acceptance-level checks shared by the CLI selftest and the test suite.

Each check returns a CheckResult; run_all executes the core battery
with a reduced random sweep (the test suite runs the full-size sweep
and additionally the numeric germ oracle, which needs numpy).
"""

from __future__ import annotations

from collections import namedtuple

from .catalog import (CatalogId, _name_map, catalog, counting_identities,
                      cusp_cocycle_check, fiber_classes, free_approximation,
                      hypercohomology, suspension_map)
from .choices import CUSP_C2
from .complexes import (ComplexError, RingTag, express_class, homology,
                        induced_map)
from .diagrams import (algebraic_counts, cusp_count_closed,
                       disjoint_union_diagrams, from_reeb, reverse)
from .intmat import _smith, _sparse_rows
from .reeb import (Category, VertexKind, cobordant, decompose, disjoint_union,
                   euler_characteristic, fiber_profile, invariants,
                   klein_bottle_graph, negate, projective_plane_graph,
                   random_reeb, reduce_to_normal_form, sphere_graph,
                   torus_graph)


CheckResult = namedtuple("CheckResult", "name ok detail", defaults=("",))


class _Failed(Exception):
    pass


def _need(cond, detail):
    if not cond:
        raise _Failed(detail)


def _run(name, fn) -> CheckResult:
    try:
        fn()
    except _Failed as exc:
        return CheckResult(name, False, str(exc))
    except Exception as exc:  # honest reporting beats a crash here
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
    return CheckResult(name, True)


def _group(cx, deg, free_rank, torsion):
    pres = homology(cx, deg)
    _need((pres.free_rank, pres.torsion) == (free_rank, tuple(torsion)),
          f"degree {deg}: got Z^{pres.free_rank} + {list(pres.torsion)}, "
          f"expected Z^{free_rank} + {list(torsion)}")
    return pres


def _class_is_zero(cx, deg, coeffs):
    vec = cx.chain(deg, coeffs)
    coords = express_class(cx, deg, vec)
    _need(all(c == 0 for c in coords),
          f"class {coeffs} is nonzero: coordinates {coords}")


def check_catalog_homology():
    co32 = catalog(CatalogId.CO32)
    _group(co32, 0, 1, [])
    _group(co32, 1, 2, [])
    # 2*a1 = a2 + a3 with a1 = -(I0_o + I1_e), a2 = -I0_o + I0_e,
    # a3 = I1_o - I1_e: the difference is a coboundary
    _class_is_zero(co32, 1, {"I0_o": -2 + 1, "I1_e": -2 + 1, "I0_e": -1,
                             "I1_o": -1})
    _group(catalog(CatalogId.CO21), 1, 3, [])
    z2 = catalog(CatalogId.C32_Z2)
    _group(z2, 0, 0, [2])
    _group(z2, 1, 0, [2, 2, 2])
    _group(catalog(CatalogId.C21_Z2), 1, 0, [2] * 5)
    v32 = catalog(CatalogId.V32)
    _group(v32, 0, 1, [])
    _group(v32, 1, 2, [2])
    # -2*t1 = t2 + t2' with t1 = I0_o - I1_e, t2 = -I0_o + I0_e,
    # t2' = -I1_o + I1_e
    _class_is_zero(v32, 1, {"I0_o": -2 + 1, "I1_e": 2 - 1, "I0_e": -1,
                            "I1_o": 1})


def check_suspension():
    maps = suspension_map("co_Z")
    co21 = catalog(CatalogId.CO21)
    # with a1 = b1 = -(I0_o + I1_e), a2 = -I0_o + I0_e, a3 = I1_o - I1_e,
    # b2 = I0_o, b3 = I1_o the pullback is the identity on cochains, so
    # a1 -> b1 and a3 -> b1 + b2 + b3 hold on the nose; a2 differs from
    # b1 - b2 - b3 by the coboundary of the odd regular class:
    _class_is_zero(co21, 1, {"I0_o": 1, "I0_e": 1, "I1_o": 1, "I1_e": 1})
    m = induced_map(maps.pullback, 1)
    _need((m.rows, m.cols) == (3, 2), f"pullback matrix is {m.rows}x{m.cols}")
    diag = [d for d in _smith(_sparse_rows(m), m.cols).diagonal() if d != 0]
    _need(len(diag) == 2, "pullback on degree-1 cohomology is not injective")
    maps2 = suspension_map("full_Z2")
    m2 = induced_map(maps2.pullback, 1)
    _need((m2.rows, m2.cols) == (5, 3), f"Z2 pullback is {m2.rows}x{m2.cols}")


def check_free_approximation():
    v32 = catalog(CatalogId.V32)
    f32, lam = free_approximation(v32)
    a_boundary = f32.formula(1)["A"]
    _need(a_boundary == {"I2_o": 2}, f"boundary of A is {a_boundary}")
    _group(f32, 1, 2, [2])
    for coeff in (RingTag.FREE, RingTag.TWO_TORSION):
        for deg in (0, 1):
            h = hypercohomology(v32, coeff, deg)
            _need(h.comparison_is_isomorphism,
                  f"comparison not iso at coeff {coeff.value} degree {deg}")
    _need(hypercohomology(v32, RingTag.FREE, 0).group.free_rank == 1,
          "rank of degree-0 hyper group")
    h1 = hypercohomology(v32, RingTag.FREE, 1).group
    _need((h1.free_rank, h1.torsion) == (2, ()), "degree-1 hyper group")


def check_catalog_validity():
    # CO32 is the dual of V32, and the cusp catalogs extend CO32's
    # coboundaries: the maps by names to CO32 raise if a square fails
    for cid in (CatalogId.CUSP32, CatalogId.BCUSP32):
        try:
            _name_map(catalog(cid), catalog(CatalogId.CO32))
        except ComplexError as exc:
            raise _Failed(f"{cid.value} -> CO32: {exc}") from None
    for cid in CatalogId:
        # catalog() checks each distinct object once and raises if invalid
        cx = catalog(cid)
        if cid in (CatalogId.C32_Z2, CatalogId.C32_Z2_SIMPLE,
                   CatalogId.C21_Z2, CatalogId.F32):
            continue  # Z2 coefficients force Z2 tags everywhere, and the
            # free approximation deliberately lifts every tag to Z
        free = {g.name for deg in cx.generators for g in deg
                if g.ring is RingTag.FREE and g.name != "A"}
        coor = {fc.label for fc in fiber_classes(cid) if fc.coorientable}
        _need(free == coor, f"{cid.value}: FREE tags vs co-orientable flags")
    _need(cusp_cocycle_check().ok, "cusp cocycle compatibility")
    # the counting identities of the closed cusp catalog must sum to the
    # cusp-class total
    idents = {i.f_terms[0][0]: dict(i.F_terms)
              for i in counting_identities(CatalogId.CUSP32)}
    total = {}
    for lbl, s in CUSP_C2:
        for t, c in idents[lbl].items():
            total[t] = total.get(t, 0) + s * c
    _need({t: -c for t, c in total.items() if c} ==
          {"IIa_o": 1, "IIa_e": 1},
          f"cusp total from identities: {total}")


def _check_one_graph(g):
    cat = (Category.UNORIENTED if not g.orientable else Category.ORIENTED)
    inv = invariants(g, cat)     # internal identities hard-assert
    _need(g.count(VertexKind.DEG2) % 2 == euler_characteristic(g) % 2,
          "cross-cap parity vs Euler characteristic")
    prof = fiber_profile(g).counts
    z = inv.z
    # the tally is the fiber cycle, whose class in H_1(V32) = Z^2 + Z2 is
    # (0, z, w)
    v32 = catalog(CatalogId.V32)
    fiber_class = express_class(v32, 1, v32.chain(1, prof))
    _need(fiber_class == (0, z, inv.w), f"fiber class {fiber_class}")
    red = reduce_to_normal_form(g, cat)
    again = reduce_to_normal_form(red.canonical, cat)
    _need(again.invariants == red.invariants, "reduction not idempotent")
    _need(again.canonical == red.canonical, "canonical form not fixed")
    _need(cobordant(g, red.canonical, cat), "graph vs its normal form")
    neg = negate(g)
    _need(invariants(neg, cat).z == -z, "negation does not flip z")
    both = disjoint_union(g, neg)
    binv = invariants(both, cat)
    _need(binv.z == 0 and binv.w == (2 * inv.w) % 2, "union with negation")
    # cross-module: the closed diagram of the graph reproduces the counts
    d = from_reeb(g)
    counts = algebraic_counts(d)
    _need(counts == {**prof, "Ia_o": 0, "Ia_e": 0}, "diagram counts")
    cc = cusp_count_closed(d)
    _need(cc.cross_check == "ok", "closed cusp cross-check")
    _need(cc.count == z, "closed cusp count vs z")
    rc = algebraic_counts(reverse(d))
    for key in ("I0_o", "I0_e", "I1_o", "I1_e"):
        _need(rc[key] == -counts[key], f"reversal does not negate {key}")
    sym = disjoint_union_diagrams(d, reverse(d))
    _need(cusp_count_closed(sym).count == 0, "symmetric diagram cusp count")


_SWEEP_SIZE = 14   # random graphs have 1 to 14 sweep steps


def check_random_sweep(per_category):
    def body():
        for orientable in (True, False):
            for seed in range(per_category):
                g = random_reeb(seed, 1 + seed % _SWEEP_SIZE, orientable)
                _check_one_graph(g)
                g2 = random_reeb(10_000 + seed, 1 + (seed * 7) % _SWEEP_SIZE,
                                 orientable)
                u = disjoint_union(g, g2)
                cat = (Category.ORIENTED if orientable
                       else Category.UNORIENTED)
                a, b, c = (invariants(x, cat) for x in (g, g2, u))
                _need(c.z == a.z + b.z, "z not additive under union")
                _need(c.w == (a.w + b.w) % 2, "w not additive under union")
                _need(cobordant(g, g2, cat)
                      == ((a.z, a.w) == (b.z, b.w)),
                      "cobordance differs from invariant equality")
    return body


def check_fixtures():
    sph, tor = sphere_graph(), torus_graph()
    rp2, kb = projective_plane_graph(), klein_bottle_graph()
    for g, cat, zw in ((sph, Category.ORIENTED, (0, 0)),
                       (tor, Category.ORIENTED, (0, 0)),
                       (rp2, Category.UNORIENTED, (0, 1)),
                       (kb, Category.UNORIENTED, (0, 0))):
        inv = invariants(g, cat)
        _need((inv.z, inv.w) == zw, f"fixture invariants {(inv.z, inv.w)}")
    pieces = decompose(tor)
    _need((pieces.n1, pieces.n2, pieces.n3, pieces.n4) == (2, 1, 1, 0),
          "torus decomposition")
    _need(euler_characteristic(rp2) == 1, "projective-plane Euler number")
    sph_u = sph._replace(orientable=False)
    _need(not cobordant(rp2, sph_u, Category.UNORIENTED),
          "projective plane must not bound")
    for cat in Category:
        if cat.oriented:
            _need(cobordant(tor, sph, cat), f"torus vs sphere in {cat.value}")
    _need(cobordant(tor._replace(orientable=False), sph_u,
                    Category.UNORIENTED), "torus vs sphere, unoriented")


# random graphs per category in the selftest's sweep
_SELFTEST_PER_CATEGORY = 100


def run_all() -> list[CheckResult]:
    return [
        _run("criterion-1 catalog homology groups and relations",
             check_catalog_homology),
        _run("criterion-2 suspension pullback on degree-1 cohomology",
             check_suspension),
        _run("criterion-3 free approximation and hyper comparison",
             check_free_approximation),
        _run("criterion-4 catalog validity, duals, cusp cocycles",
             check_catalog_validity),
        _run(f"criterion-5 random-graph property sweep "
             f"(x{_SELFTEST_PER_CATEGORY} per category)",
             check_random_sweep(_SELFTEST_PER_CATEGORY)),
        _run("criterion-6 named surface fixtures", check_fixtures),
    ]
