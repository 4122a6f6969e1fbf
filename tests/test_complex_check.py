"""One check per complex, by the lift criterion homology reads.

``MixedComplex._violations`` runs ``_complex_violations`` once per
complex object: shapes, then Z2 -> Z entries, then each column of each
differential lifted by ``_lift`` through the next one.
``validate_complex`` lists the result; ``homology``, in every degree and
on both of its paths, and ``hom_dual`` raise ``not a complex: <first
violation>``, and ``express_class`` and ``induced_map`` raise it through
``homology``.  The violations must be those of the former dense check,
kept in ``complex_reference``, entry for entry.
"""

import random
import re
from collections import Counter

import pytest

import complex_reference
import snf_reference
from foldcob import complexes
from foldcob.catalog import CatalogId, catalog
from foldcob.complexes import (ChainMap, ComplexError, Direction, Generator,
                               MixedComplex, RingTag, express_class,
                               hom_dual, homology, induced_map, make_complex,
                               validate_complex)
from foldcob.intmat import IntMatrix

from test_rank_oracle import _random_complex

_homology = homology.__wrapped__     # no cache: every call runs the body
X, Y = Generator("x", RingTag.FREE), Generator("y", RingTag.FREE)


def _refusals(cx):
    """The message of each entry point on cx, in every degree: homology,
    express_class on the zero vector, and hom_dual over Z and Z2."""
    calls = [lambda d=d: _homology(cx, d) for d in range(cx.top_degree + 1)]
    calls += [lambda d=d: express_class(cx, d, (0,) * cx.n(d))
              for d in range(cx.top_degree + 1)]
    calls += [lambda g=g: hom_dual(cx, g) for g in RingTag]
    messages = []
    for call in calls:
        with pytest.raises(ComplexError) as info:
            call()
        messages.append(str(info.value))
    return messages


def test_too_many_differentials_is_a_shape_violation():
    cx = MixedComplex(Direction.HOMOLOGICAL, ((X,), (Y,)),
                      (IntMatrix.identity(1),) * 2)
    bad = validate_complex(cx)
    assert [str(v) for v in bad] == [
        "shape at degree 0: 2 differentials for 2 degrees"]
    assert set(_refusals(cx)) == {f"not a complex: {bad[0]}"}


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("degrees, diffs", [
    ([[("a", RingTag.FREE)]], [{"a": {"a": 1}}]),
    ([], [{}]),
    ([[("a", RingTag.FREE)], []], [{}, {}]),
    ([[("a", RingTag.FREE)], [("b", RingTag.TWO_TORSION)]], [{}] * 3),
])
def test_make_complex_refuses_too_many_differentials(direction, degrees,
                                                     diffs):
    # the violation a MixedComplex with those differentials reports
    gens = tuple(tuple(Generator(*g) for g in deg) for deg in degrees)
    want = validate_complex(MixedComplex(
        direction, gens, (IntMatrix.zero(0, 0),) * len(diffs)))
    assert [v.kind for v in want] == ["shape"]
    assert want[0].detail == (f"{len(diffs)} differentials for "
                              f"{len(degrees)} degrees")
    with pytest.raises(ComplexError) as info:
        make_complex(direction, degrees, diffs)
    assert str(info.value) == f"not a complex: {want[0]}"


_MALFORMED = {
    # 2x1 between two one-generator degrees: the dual reads one entry
    "wrong shape": (MixedComplex(Direction.HOMOLOGICAL, ((X,), (Y,)),
                                 (IntMatrix.from_rows([[1], [1]], 1),)),
                    "shape at degree 1: differential is 2x1, expected 1x1"),
    # t -> x with t in Z2 and x in Z: degree 1 used to give a group
    "Z2 into Z": (make_complex(Direction.HOMOLOGICAL,
                               [[("x", RingTag.FREE)],
                                [("t", RingTag.TWO_TORSION)]],
                               [{"t": {"x": 1}}]),
                  "two-torsion source maps to free target at degree 1: "
                  "generator t -> x"),
    "odd composite": (make_complex(
        Direction.COHOMOLOGICAL,
        [[(n, RingTag.TWO_TORSION)] for n in "abc"],
        [{"a": {"b": 1}}, {"b": {"c": 3}}]),
        "nonzero composite at degree 0: d∘d sends a to 3*c"),
}


@pytest.mark.parametrize("name", _MALFORMED)
def test_every_entry_point_refuses_a_malformed_complex(name):
    cx, first = _MALFORMED[name]
    assert str(validate_complex(cx)[0]) == first
    assert set(_refusals(cx)) == {f"not a complex: {first}"}
    if name != "wrong shape":    # a map needs shapes to be checked at all
        ident = ChainMap(cx, cx, tuple(IntMatrix.identity(cx.n(d))
                                       for d in range(cx.top_degree + 1)))
        for deg in range(cx.top_degree + 1):
            with pytest.raises(ComplexError,
                               match=re.escape(f"not a complex: {first}")):
                induced_map(ident, deg)


def _mixed(rng, direction):
    """A valid complex with both rings: a random pure Z complex and a
    random pure Z2 one side by side, with even entries from Z generators
    into Z2 ones, and each degree's generators shuffled.  The composite
    is 0 on the Z rows, and even on the Z2 rows, since every term there
    holds an even entry or a Z2 composite."""
    a = _random_complex(rng, RingTag.FREE, direction)
    b = _random_complex(rng, RingTag.TWO_TORSION, direction)
    gens = [ga + tuple(g._replace(name="t" + g.name) for g in gb)
            for ga, gb in zip(a.generators, b.generators)]
    order = [rng.sample(range(len(g)), len(g)) for g in gens]
    mats = []
    for (da, src, tgt), db in zip(a._diffs(), b.differentials):
        rows = [list(r) + [0] * db.cols for r in da.entries]
        rows += [[2 * rng.choice((-1, 0, 0, 1)) for _ in range(da.cols)]
                 + list(r) for r in db.entries]
        mats.append(IntMatrix.from_rows(
            [[rows[r][c] for c in order[src]] for r in order[tgt]],
            len(gens[src])))
    return MixedComplex(direction, tuple(tuple(g[i] for i in o)
                                         for g, o in zip(gens, order)),
                        tuple(mats))


def _changed(rng, cx):
    """cx with one entry of one nonempty differential changed, or None."""
    slots = [i for i, d in enumerate(cx.differentials) if d.rows and d.cols]
    if not slots:
        return None
    i = rng.choice(slots)
    d = cx.differentials[i]
    rows = [list(r) for r in d.entries]
    rows[rng.randrange(d.rows)][rng.randrange(d.cols)] += rng.choice(
        (-1, 1, 2, 3))
    mats = list(cx.differentials)
    mats[i] = IntMatrix.from_rows(rows, d.cols)
    return cx._replace(differentials=tuple(mats))


def _kinds(violations):
    return Counter((v.kind, v.degree) for v in violations)


def _same_as_reference(cx):
    """The violations of cx against the dense reference, and homology in
    every degree against the dense homology or the first of them; True
    iff cx is a complex."""
    bad = validate_complex(cx)
    ref = complex_reference.validate_complex(cx)
    assert _kinds(bad) == _kinds(ref)
    assert sorted(bad) == sorted(ref)
    for deg in range(cx.top_degree + 1):
        if bad:
            with pytest.raises(ComplexError) as info:
                _homology(cx, deg)
            assert str(info.value) == f"not a complex: {bad[0]}"
        else:
            assert _homology(cx, deg) == snf_reference.homology(cx, deg)
    return not bad


_BUILDERS = {
    "Z": lambda rng, dr: _random_complex(rng, RingTag.FREE, dr),
    "Z2": lambda rng, dr: _random_complex(rng, RingTag.TWO_TORSION, dr),
    "mixed": _mixed,
}


@pytest.mark.parametrize("kind", _BUILDERS)
@pytest.mark.parametrize("direction", Direction, ids=lambda d: d.value)
def test_the_lift_check_finds_what_the_dense_check_found(kind, direction):
    rng = random.Random(f"{kind} {direction.value}")
    valid_after_change = invalid = 0
    for _ in range(150):
        cx = _BUILDERS[kind](rng, direction)
        assert _same_as_reference(cx)
        changed = _changed(rng, cx)
        if changed is not None:
            ok = _same_as_reference(changed)
            valid_after_change += ok
            invalid += not ok
    # both answers are exercised
    assert valid_after_change and invalid >= 10


def test_catalogs_and_their_changed_copies_agree_with_the_dense_check():
    for cid in CatalogId:
        assert _same_as_reference(catalog(cid))
    rng = random.Random(5)
    v32 = catalog(CatalogId.V32)
    results = [_same_as_reference(_changed(rng, v32)) for _ in range(40)]
    assert results.count(False) > 20


@pytest.fixture
def checked(monkeypatch):
    """The complexes checked since the fixture started, once per check."""
    out = []
    check = complexes._complex_violations

    def counted(cx):
        out.append(cx)
        return check(cx)

    monkeypatch.setattr(complexes, "_complex_violations", counted)
    return out


def test_each_complex_object_is_checked_once(checked):
    homology.cache_clear()
    cx = MixedComplex(*catalog(CatalogId.V32))    # a new copy: no check yet
    dual = hom_dual(cx, RingTag.TWO_TORSION)
    for _ in range(2):
        for c in (cx, dual):
            validate_complex(c)
            for deg in range(c.top_degree + 1):
                homology(c, deg).basis_cycles
                express_class(c, deg, (0,) * c.n(deg))
        hom_dual(cx, RingTag.FREE)
    # hom_dual returns its dual checked
    assert [id(x) for x in checked] == [id(cx)]
    # a refused complex is checked once too, however often it is refused
    bad, _ = _MALFORMED["Z2 into Z"]
    bad = MixedComplex(*bad)
    checked.clear()
    _refusals(bad)
    _refusals(bad)
    assert validate_complex(bad)
    assert [id(x) for x in checked] == [id(bad)]


def test_the_rank_path_lifts_no_boundary(monkeypatch):
    lifted = []
    lifts = complexes._boundary_lifts

    def counted(cx, deg):
        lifted.append(deg)
        return lifts(cx, deg)

    monkeypatch.setattr(complexes, "_boundary_lifts", counted)
    for cid in (CatalogId.CO32, CatalogId.C32_Z2, CatalogId.F32):
        cx = MixedComplex(*catalog(cid))
        groups = [_homology(cx, deg) for deg in range(cx.top_degree + 1)]
        assert lifted == []
        # the basis, built on its first read, lifts each boundary once
        for pres in groups:
            pres.basis_cycles, pres.coord_rows
        assert lifted == list(range(cx.top_degree + 1))
        lifted.clear()


def test_the_check_takes_no_dense_product(monkeypatch):
    def forbidden(*args):
        raise AssertionError("dense product in the complex check")

    monkeypatch.setattr(IntMatrix, "mul", forbidden)
    rng = random.Random(3)
    for _ in range(20):
        cx = _changed(rng, MixedComplex(*catalog(CatalogId.V32)))
        validate_complex(cx)
    assert not validate_complex(MixedComplex(*catalog(CatalogId.V32)))
