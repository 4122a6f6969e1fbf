"""The sparse builders and checks against the former dense ones.

``make_complex`` and ``hom_dual`` build each differential from its
nonzeros, and ``validate_chain_map`` composes the squares of a map a
column at a time; ``complex_reference`` keeps the former builders, which
fill dense rows, and the former check, which multiplies dense matrices.
On every catalog, on seeded surfaces and their duals and on random
formula dictionaries, both builders must give equal matrices with equal
``sparse_columns``, or the same exception and text; both checks must
give the same violations in the same order.  ``hom_dual`` returns its
dual checked; the real check must agree.
"""

import importlib
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import complex_reference
from foldcob.catalog import (CatalogId, _name_map, catalog,
                             free_approximation, suspension_map)
from foldcob.complexes import (ChainMap, ComplexError, Direction, Generator,
                               MixedComplex, RingTag, _complex_violations,
                               hom_dual, induced_is_isomorphism, induced_map,
                               make_complex, validate_chain_map)
from foldcob.intmat import IntMatrix

from test_complex_check import _mixed
from test_rank_oracle import _random_complex

ROOT = Path(__file__).resolve().parents[1]
catalog_module = importlib.import_module("foldcob.catalog")


def _same(new, old):
    """new and old are equal complexes; each differential of new holds
    exact ints only, and its stored sparse columns are those of old and
    those a copy derives from new's own dense rows."""
    assert new == old
    for m, ref in zip(new.differentials, old.differentials, strict=True):
        assert m.sparse_columns == ref.sparse_columns
        assert IntMatrix(*m).sparse_columns == m.sparse_columns
        assert {type(x) for row in m.entries for x in row} <= {int}
        assert {type(x) for col in m.sparse_columns
                for pair in col for x in pair} <= {int}


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _both(new_build, old_build, *args):
    """Both builders on args: equal complexes, or the same exception type
    and text.  The complex, or the exception's (type, text)."""
    new, old = _outcome(new_build, *args), _outcome(old_build, *args)
    if isinstance(old, MixedComplex):
        assert isinstance(new, MixedComplex), new
        _same(new, old)
    else:
        assert new == old
    return new


def _args(cx):
    """make_complex's arguments for cx, read back by names."""
    return (cx.direction, [[(g.name, g.ring) for g in deg]
                           for deg in cx.generators],
            [cx.formula(i) for i in range(len(cx.differentials))])


@pytest.mark.parametrize("cid", CatalogId, ids=lambda c: c.value)
def test_catalogs_build_as_with_the_dense_builders(cid, monkeypatch):
    cx = catalog(cid)
    _both(make_complex, complex_reference.make_complex, *_args(cx))
    if cx.direction is Direction.HOMOLOGICAL:
        for g in RingTag:
            _both(hom_dual, complex_reference.hom_dual, cx, g)
    # the catalog's own builder, run on the former make_complex and hom_dual
    monkeypatch.setattr(catalog_module, "make_complex",
                        complex_reference.make_complex)
    monkeypatch.setattr(catalog_module, "hom_dual", complex_reference.hom_dual)
    old = catalog_module._BUILDERS[catalog_module._ALIASES.get(cid, cid)]()
    _same(cx, old)


@pytest.mark.parametrize("seed", range(3))
def test_surfaces_and_their_duals_build_as_with_the_dense_builders(
        seed, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import gen

    rng = random.Random(seed)
    for kind in gen.SURFACES:
        case = gen.surface_case(rng, kind, 200)
        cx = _both(make_complex, complex_reference.make_complex,
                   Direction.HOMOLOGICAL,
                   [[(name, RingTag(ring)) for name, ring in deg]
                    for deg in case.degrees], case.diffs)
        for g in RingTag:
            dual = _both(hom_dual, complex_reference.hom_dual, cx, g)
            assert _complex_violations(dual) == []


# mostly ints; the others as make_complex reads them: True, Fraction(3)
# and 2.0 as ints, zeros as no entry, 1.5 as from_rows's ValueError, and
# "3" and None as a ComplexError
_COEFFS = ((1, -1, 2, -3, 5) * 6 + (0,) * 3
           + (True, False, Fraction(3), Fraction(0), Fraction(-2, 1),
              2.0, -1.0, 0.0, 1.5, Fraction(1, 2), "3", None))


def _random_formulas(rng):
    """make_complex's arguments, drawn with generator names from a small
    pool, so that some repeat in a degree, and with a few unknown names."""
    direction = rng.choice(list(Direction))
    degrees = [[(rng.choice("abcdef"), rng.choice(list(RingTag)))
                for _ in range(rng.randint(0, 5))]
               for _ in range(rng.randint(1, 4))]

    def name(deg):
        known = [n for n, _ in degrees[deg]]
        return rng.choice(known) if known and rng.random() < 0.98 else "zz"

    diffs = []
    for i in range(len(degrees) - 1):
        src, tgt = (i + 1, i) if direction is Direction.HOMOLOGICAL else (
            i, i + 1)
        diffs.append({name(src): {name(tgt): rng.choice(_COEFFS)
                                  for _ in range(rng.randint(0, 3))}
                      for _ in range(rng.randint(0, 4))})
    return direction, degrees, diffs


def test_random_formulas_build_as_with_the_dense_builder():
    rng = random.Random(30)
    seen = Counter()
    for _ in range(1500):
        direction, degrees, diffs = args = _random_formulas(rng)
        out = _both(make_complex, complex_reference.make_complex, *args)
        if isinstance(out, MixedComplex):
            seen["complex"] += 1
            seen["with a zero"] += any(x == 0 for formula in diffs
                                       for image in formula.values()
                                       for x in image.values())
            seen["with a repeated name"] += any(
                len({n for n, _ in deg}) < len(deg) for deg in degrees)
        else:
            kind, text = out
            seen[kind.__name__, text.rsplit(": ", 1)[-1][:7]] += 1
    # every outcome is exercised
    assert seen["complex"] >= 300, seen
    assert min(seen["with a zero"], seen["with a repeated name"]) >= 50, seen
    assert seen["ComplexError", "unknown"] >= 20, seen
    assert seen["ComplexError", "coeffic"] >= 20, seen
    assert seen["ValueError", "1.5"] + seen["ValueError", "Fractio"] >= 20, \
        seen


_BUILDERS = {
    "Z": lambda rng: _random_complex(rng, RingTag.FREE, Direction.HOMOLOGICAL),
    "Z2": lambda rng: _random_complex(rng, RingTag.TWO_TORSION,
                                      Direction.HOMOLOGICAL),
    "mixed": lambda rng: _mixed(rng, Direction.HOMOLOGICAL),
}


@pytest.mark.parametrize("kind", _BUILDERS)
def test_the_dual_of_a_random_complex_is_a_complex(kind):
    rng = random.Random(f"dual {kind}")
    for _ in range(100):
        cx = _BUILDERS[kind](rng)
        assert _complex_violations(cx) == []
        for g in RingTag:
            dual = _both(hom_dual, complex_reference.hom_dual, cx, g)
            assert dual._violations == ()
            assert _complex_violations(dual) == []


def test_the_dual_of_every_catalog_is_a_complex():
    for cid in CatalogId:
        cx = catalog(cid)
        if cx.direction is Direction.HOMOLOGICAL:
            for g in RingTag:
                assert _complex_violations(hom_dual(cx, g)) == []


def _catalog_maps():
    """Every chain map the catalog layer builds, each a new object whose
    check has not run: the suspension maps, the collapse map, its duals
    and the maps selftest checks into CO32."""
    v32, f32 = catalog(CatalogId.V32), catalog(CatalogId.F32)
    maps = [m for variant in ("co_Z", "full_Z2")
            for m in suspension_map(variant)]
    maps.append(free_approximation(v32)[1])
    maps += [_name_map(hom_dual(v32, g), hom_dual(f32, g)) for g in RingTag]
    maps += [_name_map(catalog(cid), catalog(CatalogId.CO32))
             for cid in (CatalogId.CUSP32, CatalogId.BCUSP32)]
    return [ChainMap(*f) for f in maps]


def _changed_map(rng, f):
    """f with one entry of one nonempty degree matrix changed, or f."""
    slots = [d for d, m in enumerate(f.matrices) if m.rows and m.cols]
    if not slots:
        return f
    d = rng.choice(slots)
    m = f.matrices[d]
    rows = [list(r) for r in m.entries]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += rng.choice(
        (-1, 1, 2, 3))
    mats = list(f.matrices)
    mats[d] = IntMatrix.from_rows(rows, m.cols)
    return f._replace(matrices=tuple(mats))


def test_the_chain_map_check_finds_what_the_dense_check_found():
    rng = random.Random(30)
    failing = 0
    for f in _catalog_maps():
        assert validate_chain_map(f) == []
        assert complex_reference.chain_map_violations(f) == []
        for _ in range(15):
            g = _changed_map(rng, f)
            bad = validate_chain_map(g)
            assert bad == complex_reference.chain_map_violations(g)
            failing += bool(bad)
    assert failing >= 50


def test_the_chain_map_check_takes_no_dense_product(monkeypatch):
    maps = _catalog_maps()
    rng = random.Random(3)
    changed = [_changed_map(rng, f) for f in maps for _ in range(5)]

    def forbidden(*args):
        raise AssertionError("dense product in the chain-map check")

    monkeypatch.setattr(IntMatrix, "mul", forbidden)
    assert all(validate_chain_map(f) == [] for f in maps)
    assert any(validate_chain_map(f) for f in changed)


def test_induced_is_isomorphism_refuses_a_map_that_is_not_a_chain_map():
    gens = ((Generator("x", RingTag.FREE),), (Generator("y", RingTag.FREE),))
    a = MixedComplex(Direction.HOMOLOGICAL, gens, (IntMatrix.zero(1, 1),))
    b = MixedComplex(Direction.HOMOLOGICAL, gens, (IntMatrix.identity(1),))
    f = ChainMap(a, b, (IntMatrix.identity(1), IntMatrix.identity(1)))
    first = validate_chain_map(f)[0]
    assert str(first) == "chain-map square fails at degree 1: source " \
                         "generator y"
    for call in (induced_map, induced_is_isomorphism):
        with pytest.raises(ComplexError) as info:
            call(f, 1)
        assert str(info.value) == f"not a chain map: {first}"
