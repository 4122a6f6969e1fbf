"""Named singular-fiber classes and the universal complexes built on them.

Generator labels are ``<class>_<parity>`` with parity ``o`` (odd number
of fiber components) or ``e`` (even); the auxiliary degree-2 generator
of the free approximation is plain ``A``.  Within each degree the
generators are ordered by class name (ASCII lexicographic) with ``o``
before ``e``; ``A`` is appended last.

The n=2 complexes (CO21, C21_Z2 and the source of the suspension chain
map) are the degree-0 and degree-1 truncations of the n=3 ones.  The closed
cochain catalogs are duals of V32, whose two differentials are the one
closed-catalog table here: CO32 is Hom(V32, Z) and C32_Z2 is
Hom(V32, Z2).  The hand-typed reference they are tested against lives
with the tests.

CO32_ORI, SCO32 and SCO32_ORI are aliases of CO32: ``catalog`` returns
the CO32 object for them, built and checked once.  CO32 holds only the
co-orientable classes (``_COOR_CLOSED``).  The simple-stable-map catalogs
leave out only the class II6 (C32_Z2_SIMPLE is the Z2 dual of
``_v32(simple=True)``), which is not co-orientable, so they leave CO32 as
it is; and no table here separates the oriented ids from the unoriented
ones.

CUSP32 and BCUSP32 orient the cusp class IIa oppositely: from I0 and I1
to II01 and IIa, BCUSP32's coboundary is CUSP32's with IIa_o and IIa_e
negated.  So the coboundary of the cusp cochain c2 is +IIa_o + IIa_e (plus
the IIg terms) in BCUSP32 and -IIa_o - IIa_e in CUSP32.  The sign of a
generator is a choice of orientation, so both complexes are sound; the
tables keep the signs they have, which the exported matrices show.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .choices import CUSP_C1, CUSP_C2, CatalogId
from .complexes import (ChainMap, ComplexError, Direction, MixedComplex,
                        RingTag, hom_dual, homology, induced_is_isomorphism,
                        induced_map, make_complex, validate_chain_map,
                        validate_complex)
from .intmat import IntMatrix


class FiberClass(namedtuple("FiberClass",
                            "name parity codim coorientable cusp_class",
                            defaults=(False,))):
    """A fiber class of a catalog; parity is "o" or "e"."""

    __slots__ = ()

    @property
    def label(self) -> str:
        return f"{self.name}_{self.parity}"


def _ordered(names):
    """Both parities of each class, sorted by (name, o-before-e)."""
    out = []
    for name in sorted(names):
        out.append(f"{name}_o")
        out.append(f"{name}_e")
    return out


def _gens(labels, ring_of):
    return [(lbl, ring_of(lbl)) for lbl in labels]


def _free(_lbl):
    return RingTag.FREE


# degree-2 classes of the closed three-to-two catalogs (Z2 / mixed side)
_DEG2_CLOSED = ["II00", "II01", "II02", "II11", "II12", "II22",
                "II3", "II4", "II5", "II6", "II7"]
_COOR_CLOSED = {"0", "I0", "I1", "II01", "IIa"}
_CUSP_CLASSES = {"IIa", "IIg"}


def fiber_classes(catalog_id: CatalogId) -> tuple[FiberClass, ...]:
    """The classes appearing in a catalog, in generator order."""
    cx = catalog(catalog_id)
    # every class of the integer boundary catalog BCUSP32 is co-orientable
    every = catalog_id is CatalogId.BCUSP32
    out = []
    for deg in range(cx.top_degree + 1):
        for g in cx.generators[deg]:
            if g.name == "A":
                continue
            name, parity = g.name.rsplit("_", 1)
            out.append(FiberClass(name, parity, deg,
                                  every or name in _COOR_CLOSED,
                                  name in _CUSP_CLASSES))
    return tuple(out)


def _both(formula_per_class):
    """Expand {class: image} to both parities with the same image."""
    out = {}
    for cls, image in formula_per_class.items():
        out[f"{cls}_o"] = image
        out[f"{cls}_e"] = image
    return out


def _truncated(cx: MixedComplex) -> MixedComplex:
    """The n=2 complex of an n=3 one: degrees 0 and 1 and the
    differential between them."""
    return MixedComplex(cx.direction, cx.generators[:2], cx.differentials[:1])


_V32_D1 = _both({
    "I0": {"0_o": 1, "0_e": -1},
    "I1": {"0_o": 1, "0_e": -1},
    "I2": {},
})
_V32_D2 = {
    "II01_o": {"I0_o": 1, "I0_e": 1, "I1_o": -1, "I1_e": -1},
    "II01_e": {"I0_o": -1, "I0_e": -1, "I1_o": 1, "I1_e": 1},
    **_both({
        "II00": {}, "II11": {}, "II22": {}, "II3": {}, "II4": {},
        "II5": {}, "II7": {},
        "II02": {"I2_o": 1, "I2_e": 1},
        "II12": {"I2_o": 1, "I2_e": 1},
        "II6": {"I2_o": 1, "I2_e": 1},
    }),
}


def _v32_ring(lbl):
    name = lbl.rsplit("_", 1)[0]
    return RingTag.FREE if name in _COOR_CLOSED else RingTag.TWO_TORSION


def _v32(simple=False):
    """V32, or with simple=True V32 without the class II6."""
    deg2 = [n for n in _DEG2_CLOSED if not (simple and n == "II6")]
    d2 = {src: img for src, img in _V32_D2.items()
          if not (simple and src.startswith("II6_"))}
    return make_complex(
        Direction.HOMOLOGICAL,
        [_gens(_ordered(["0"]), _v32_ring),
         _gens(_ordered(["I0", "I1", "I2"]), _v32_ring),
         _gens(_ordered(deg2), _v32_ring)],
        [_V32_D1, d2])


def _f32():
    d2 = {**_V32_D2, "A": {"I2_o": 2}}
    degrees = [_gens(_ordered(["0"]), _free),
               _gens(_ordered(["I0", "I1", "I2"]), _free),
               _gens(_ordered(_DEG2_CLOSED) + ["A"], _free)]
    return make_complex(Direction.HOMOLOGICAL, degrees, [_V32_D1, d2])


def _extended(i, extra):
    """CO32's coboundary out of degree i, the dual of V32's, with the
    further terms extra[source] added to its rows: the cusp catalogs add
    only their cusp and boundary terms to V32's one table."""
    out = catalog(CatalogId.CO32).formula(i)
    for src, terms in extra.items():
        out[src] = {**out.get(src, {}), **terms}
    return out


def _cusp32():
    delta1 = _extended(1, {"I0_o": {"IIa_e": 1}, "I0_e": {"IIa_o": -1},
                           "I1_o": {"IIa_o": 1}, "I1_e": {"IIa_e": -1}})
    return make_complex(
        Direction.COHOMOLOGICAL,
        [_gens(_ordered(["0"]), _free),
         _gens(_ordered(["I0", "I1"]), _free),
         _gens(_ordered(["II01", "IIa"]), _free)],
        [_extended(0, {}), delta1])


def _bcusp32():
    deg1 = _ordered(["I0", "I1", "Ia"])
    delta0 = _extended(0, {"0_o": {"Ia_o": 1, "Ia_e": 1},
                           "0_e": {"Ia_o": -1, "Ia_e": -1}})
    delta1 = _extended(1, {
        "I0_o": {"IIa_e": -1, "II0a_o": -1, "II0a_e": 1, "IIg_e": -1},
        "I0_e": {"IIa_o": 1, "II0a_o": -1, "II0a_e": 1, "IIg_o": 1},
        "I1_o": {"IIa_o": -1, "II1a_o": -1, "II1a_e": 1, "IIb_e": -1},
        "I1_e": {"IIa_e": 1, "II1a_o": -1, "II1a_e": 1, "IIb_o": 1},
        "Ia_o": {"II0a_o": 1, "II0a_e": -1, "II1a_o": 1, "II1a_e": -1,
                 "IIb_e": 1, "IIg_o": -1},
        "Ia_e": {"II0a_o": 1, "II0a_e": -1, "II1a_o": 1, "II1a_e": -1,
                 "IIb_o": -1, "IIg_e": 1},
    })
    return make_complex(
        Direction.COHOMOLOGICAL,
        [_gens(_ordered(["0"]), _free),
         _gens(deg1, _free),
         _gens(_ordered(["II01", "II0a", "II1a", "IIa", "IIb", "IIg"]), _free)],
        [delta0, delta1])


_ALIASES = dict.fromkeys(
    (CatalogId.CO32_ORI, CatalogId.SCO32, CatalogId.SCO32_ORI), CatalogId.CO32)

_BUILDERS = {
    CatalogId.CO32: lambda: hom_dual(catalog(CatalogId.V32), RingTag.FREE),
    CatalogId.CO21: lambda: _truncated(catalog(CatalogId.CO32)),
    CatalogId.C32_Z2: lambda: hom_dual(catalog(CatalogId.V32),
                                       RingTag.TWO_TORSION),
    CatalogId.C32_Z2_SIMPLE: lambda: hom_dual(_v32(simple=True),
                                              RingTag.TWO_TORSION),
    CatalogId.C21_Z2: lambda: _truncated(catalog(CatalogId.C32_Z2)),
    CatalogId.V32: _v32,
    CatalogId.F32: _f32,
    CatalogId.CUSP32: _cusp32,
    CatalogId.BCUSP32: _bcusp32,
}


@functools.lru_cache(maxsize=None)
def catalog(catalog_id: CatalogId) -> MixedComplex:
    if catalog_id in _ALIASES:
        return catalog(_ALIASES[catalog_id])
    if catalog_id not in _BUILDERS:
        raise KeyError(f"unknown catalog id {catalog_id}")
    cx = _BUILDERS[catalog_id]()
    bad = validate_complex(cx)
    if bad:
        raise ComplexError(f"catalog {catalog_id.value} invalid: {bad[0]}")
    return cx


@functools.lru_cache(maxsize=None)
def _name_map(src: MixedComplex, tgt: MixedComplex) -> ChainMap:
    """The map by generator names: in every degree both complexes have,
    each generator of src goes to the generator of tgt with its name, or
    to 0.  Every catalog chain map is one; built and checked once per pair
    of complexes."""
    f = ChainMap(src, tgt, tuple(
        IntMatrix.from_rows([[int(g.name == h.name) for g in src.generators[d]]
                             for h in tgt.generators[d]], src.n(d))
        for d in range(min(src.top_degree, tgt.top_degree) + 1)))
    bad = validate_chain_map(f)
    if bad:
        raise ComplexError(f"map by names is not a chain map: {bad[0]}")
    return f


# the chain map from the n=2 to the n=3 complex, with the pullback it
# induces on the co-orientable / Z2 cochain side
SuspensionMaps = namedtuple("SuspensionMaps", "chain pullback")


@functools.lru_cache(maxsize=None)
def suspension_map(variant: str) -> SuspensionMaps:
    """variant 'co_Z': pullback CO32 -> CO21; 'full_Z2': C32_Z2 -> C21_Z2.

    Both maps are maps by names, the identity in degrees 0 and 1; both
    variants share the one chain map V21 -> V32."""
    ids = {"co_Z": (CatalogId.CO32, CatalogId.CO21),
           "full_Z2": (CatalogId.C32_Z2, CatalogId.C21_Z2)}.get(variant)
    if ids is None:
        raise ValueError(f"unknown suspension variant {variant!r}")
    v32 = catalog(CatalogId.V32)
    return SuspensionMaps(_name_map(_truncated(v32), v32),
                          _name_map(*map(catalog, ids)))


@functools.lru_cache(maxsize=None)
def free_approximation(v: MixedComplex):
    """The all-free resolution of the mixed closed catalog.

    Returns (f, lam) where f adds the generator A with boundary twice
    I2_o, and lam is the map by names f -> v: it collapses A and reduces
    torsion coordinates.  A map by names is onto exactly when every target
    name occurs in the source.  Only the specific mixed catalog is
    supported.
    """
    if v != catalog(CatalogId.V32):
        raise ComplexError("free approximation is defined for the V32 "
                           "catalog only")
    f = catalog(CatalogId.F32)
    lam = _name_map(f, v)
    for d in range(3):
        if not set(v.names(d)) <= set(f.names(d)):
            raise ComplexError(f"collapse map not surjective at degree {d}")
    for d in (0, 1):
        if not induced_is_isomorphism(lam, d):
            raise ComplexError(
                f"collapse map not a homology isomorphism at degree {d}")
    return f, lam


# group is an AbelianGroupPresentation, comparison an IntMatrix
Hypercohomology = namedtuple("Hypercohomology",
                             "group comparison comparison_is_isomorphism")


def hypercohomology(v: MixedComplex, g: RingTag, deg: int) -> Hypercohomology:
    """Cohomology of the dualized free approximation, with the
    comparison map from the cohomology of the dualized mixed complex.

    The dualized collapse map Hom(lam, g) is the map by names from
    ``hom_dual(v, g)`` to ``hom_dual(f, g)``: lam is 1 exactly where
    names agree, and hom_dual keeps the names."""
    f, _ = free_approximation(v)
    dual_lam = _name_map(hom_dual(v, g), hom_dual(f, g))
    return Hypercohomology(homology(dual_lam.target, deg),
                           induced_map(dual_lam, deg),
                           induced_is_isomorphism(dual_lam, deg))


class CountingIdentity(namedtuple("CountingIdentity", "f_terms F_terms")):
    """Sum of f-side and F-side signed fiber counts that equals zero.

    Reads as sum(c * count(X, f)) + sum(c * count(Y, F)) = 0 where the
    f terms range over codimension-1 classes of a generic function and
    the F terms over codimension-2 classes of a generic homotopy; each
    term is a (label, coefficient) pair.
    """

    __slots__ = ()


def counting_identities(catalog_id: CatalogId) -> tuple[CountingIdentity, ...]:
    """Boundary-of-a-chain counting identities of the catalog.

    For each codimension-1 class X the signed number of X-fibers of the
    boundary function equals minus the signed incidence sum over
    codimension-2 classes of the homotopy.
    """
    catalog_id = _ALIASES.get(catalog_id, catalog_id)
    if catalog_id not in (CatalogId.CO32, CatalogId.CUSP32, CatalogId.BCUSP32):
        raise ComplexError(
            f"catalog {catalog_id.value} carries no counting identities")
    if catalog_id is CatalogId.CO32:
        return (CountingIdentity((("I0_o", 1), ("I1_e", 1)), ()),
                CountingIdentity((("I0_e", 1), ("I1_o", 1)), ()))
    return tuple(CountingIdentity(((lbl, 1),), tuple(image.items()))
                 for lbl, image in catalog(catalog_id).formula(1).items())


class CocycleReport(namedtuple("CocycleReport", "image_c1 image_c2 "
                               "c2_hits_cusp_classes c1_plus_c2_closed")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.c2_hits_cusp_classes and self.c1_plus_c2_closed


def cusp_cocycle_check() -> CocycleReport:
    """Exact check that the two cusp-counting cochains are compatible.

    In the boundary catalog, c1 = Ia_o - Ia_e + I1_o - I1_e and
    c2 = -I0_o + I0_e satisfy: the coboundary of c2 is the sum of the
    four cusp classes and the coboundary of c1 + c2 vanishes.
    """
    cx = catalog(CatalogId.BCUSP32)
    d1 = cx.differentials[1]
    c1 = cx.chain(1, dict(CUSP_C1))
    c2 = cx.chain(1, dict(CUSP_C2))
    im1 = d1.apply(c1)
    im2 = d1.apply(c2)
    cusp_sum = cx.chain(2, dict.fromkeys(_ordered(_CUSP_CLASSES), 1))
    total = tuple(a + b for a, b in zip(im1, im2))
    return CocycleReport(im1, im2, im2 == cusp_sum,
                         all(x == 0 for x in total))
