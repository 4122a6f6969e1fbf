"""Differentials stay sparse until their dense rows are read.

``make_complex`` and ``hom_dual`` build each differential from its
nonzeros (``IntMatrix._of_columns``), and its dense rows are scattered
only on their first read.  The group path, from ``make_complex`` through
the check, the groups in every degree and ``hom_dual`` to the groups of
the dual, reads none: here the dense build raises, and the groups must
still come out right on every catalog and on seeded surfaces of all four
kinds.  ``homology``'s cache hashes a complex by its sparse data, the
shapes among them, and must still tell apart complexes that differ only
in a zero row.  A matrix built from its nonzeros is the same value as
the one built from its dense rows: equal both ways, hashed, printed and
pickled alike.
"""

import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldcob.catalog import CatalogId, catalog
from foldcob.complexes import (ComplexError, Direction, MixedComplex,
                               RingTag, hom_dual, homology, make_complex)
from foldcob.intmat import IntMatrix, _Columns

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def no_dense_rows(monkeypatch):
    """Every read of the dense rows of a matrix built from its nonzeros
    raises, also where they were built already."""
    def forbidden(self):
        raise AssertionError("the group path built dense rows")

    monkeypatch.setattr(_Columns, "_values", property(forbidden))
    homology.cache_clear()
    yield
    homology.cache_clear()


def _groups(cx):
    return tuple((g.free_rank, g.torsion)
                 for g in (homology(cx, k) for k in range(cx.top_degree + 1)))


def _scattered(m):
    """m as the matrix of dense rows scattered here from its columns."""
    rows = [[0] * m.cols for _ in range(m.rows)]
    for j, col in enumerate(m.sparse_columns):
        for i, x in col:
            rows[i][j] = x
    return IntMatrix.from_rows(rows, m.cols)


def _sparse(cx):
    """cx's value, read off its sparse data."""
    return (cx.direction, cx.generators,
            tuple((d.rows, d.cols, d.sparse_columns)
                  for d in cx.differentials))


def _dense_copy(cx):
    """cx with every differential built from dense rows."""
    return MixedComplex(cx.direction, cx.generators,
                        tuple(map(_scattered, cx.differentials)))


def _group_path(cx):
    """The groups of cx and, for a homological one, of its duals over Z
    and Z2, on a copy that keeps nothing from earlier calls."""
    cx = MixedComplex(*cx)
    out = [_groups(cx)]
    if cx.direction is Direction.HOMOLOGICAL:
        out += [_groups(hom_dual(cx, g)) for g in RingTag]
    return out


@pytest.mark.parametrize("cid", CatalogId, ids=lambda c: c.value)
def test_catalog_groups_read_no_dense_row(cid, no_dense_rows):
    built = catalog.__wrapped__(cid)    # built again, under the patch
    got = _group_path(built)
    assert _sparse(built) == _sparse(catalog(cid))
    homology.cache_clear()
    want = [_groups(_dense_copy(built))]
    if built.direction is Direction.HOMOLOGICAL:
        want += [_groups(_dense_copy(hom_dual(built, g))) for g in RingTag]
    assert got == want


@pytest.mark.parametrize("cells", [200, 1000])
def test_surface_groups_read_no_dense_row(cells, no_dense_rows, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import random

    import gen

    rng = random.Random(cells)
    for kind in gen.SURFACES:
        case = gen.surface_case(rng, kind, cells)
        degrees = [[(name, RingTag(ring)) for name, ring in deg]
                   for deg in case.degrees]
        cx = make_complex(Direction.HOMOLOGICAL, degrees, case.diffs)
        assert not cx._violations
        want, want_z2 = gen.SURFACE_HOMOLOGY[kind]
        groups, _, groups_z2 = _group_path(cx)
        assert groups == want
        assert groups_z2 == tuple((0, (2,) * b) for b in want_z2)


def _pair(rows_zero):
    """x <- y by 1 over Z, and the same with a zero row put into the
    differential: equal sparse columns, one row apart."""
    gens = ((("x", RingTag.FREE),), (("y", RingTag.FREE),))
    good = make_complex(Direction.HOMOLOGICAL, gens, [{"y": {"x": 1}}])
    d = good.differentials[0]
    bad = MixedComplex(good.direction, good.generators,
                       (IntMatrix._of_columns(d.rows + rows_zero,
                                              d.sparse_columns),))
    return good, bad


def test_the_cache_hashes_a_complex_by_its_sparse_data(no_dense_rows):
    good, bad = _pair(1)
    for cx in good, bad:
        assert cx._sparse_hash == hash(_sparse(cx))
    assert good._sparse_hash != bad._sparse_hash


@pytest.mark.parametrize("first", ["good", "bad"])
def test_the_cache_tells_apart_complexes_a_zero_row_apart(first):
    good, bad = _pair(1)
    assert good != bad and good.differentials[0] != bad.differentials[0]
    homology.cache_clear()
    if first == "good":
        assert _groups(good) == ((0, ()), (0, ()))
    with pytest.raises(ComplexError, match="differential is 2x1"):
        homology(bad, 0)
    assert _groups(good) == ((0, ()), (0, ()))
    assert homology.cache_info().currsize == 2


def test_an_equal_copy_finds_the_cached_entry_by_its_dense_rows():
    # a lookup with the same object compares nothing; one with an equal
    # copy compares the two complexes by value, which builds the dense
    # rows of both, as ``homology``'s docstring says
    homology.cache_clear()
    first = catalog.__wrapped__(CatalogId.V32)
    pres = homology(first, 1)
    assert homology(first, 1) is pres
    assert not any("_values" in vars(d) for d in first.differentials)
    copy = catalog.__wrapped__(CatalogId.V32)
    assert copy is not first
    assert homology(copy, 1) is pres
    assert homology.cache_info().currsize == 1
    for cx in first, copy:
        assert all("_values" in vars(d) for d in cx.differentials)


def test_complexes_differing_in_one_entry_are_not_equal():
    def build(x):
        return make_complex(Direction.HOMOLOGICAL,
                            [[("x", RingTag.FREE)], [("y", RingTag.FREE)]],
                            [{"y": {"x": x}}])

    a, b = build(2), build(3)
    assert a.differentials[0] != b.differentials[0]
    assert not a.differentials[0] == b.differentials[0]
    assert a != b and build(2) == a
    homology.cache_clear()
    assert homology(a, 0).torsion == (2,)
    assert homology(b, 0).torsion == (3,)
    assert homology(build(2), 0) is homology(a, 0)


_ENTRY = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 10**20))


def _entries(nr, nc):
    return st.lists(st.lists(_ENTRY, min_size=nc, max_size=nc),
                    min_size=nr, max_size=nr)


def _of_rows(nr, nc, rows):
    """The matrix of the rows, built from its nonzeros."""
    return IntMatrix._of_columns(nr, tuple(
        tuple((i, rows[i][j]) for i in range(nr) if rows[i][j])
        for j in range(nc)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_matrix_from_its_nonzeros_is_the_dense_value(data):
    nr, nc = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    rows = data.draw(_entries(nr, nc))
    a = nr, nc, rows
    dense = IntMatrix.from_rows(rows, nc)
    lazy = _of_rows(*a)
    assert type(lazy) is _Columns and "_values" not in vars(lazy)
    assert lazy.sparse_columns == dense.sparse_columns
    assert (lazy.rows, lazy.cols) == (nr, nc)
    # another matrix, of the same shape a third of the time
    shape = data.draw(st.sampled_from([(nr, nc), (nr + 1, nc), (nr, nc + 1)]))
    b = (*shape, data.draw(_entries(*shape)))
    same = IntMatrix.from_rows(b[2], b[1]) == dense
    other = _of_rows(*b)
    assert (lazy == other) is same and (other == lazy) is same
    assert (lazy != other) is not same
    assert lazy == _of_rows(*a) and not lazy != _of_rows(*a)
    assert lazy == dense and dense == lazy and not lazy != dense
    assert not dense != lazy and (dense == other) is same
    assert hash(_of_rows(*a)) == hash(dense) == hash((nr, nc, dense.entries))
    assert repr(_of_rows(*a)) == repr(dense)
    fresh = _of_rows(*a)
    back = pickle.loads(pickle.dumps(fresh))
    assert "_values" not in vars(fresh) and "_values" not in vars(back)
    assert back == dense and hash(back) == hash(dense)
    assert repr(back) == repr(dense)
    assert _of_rows(*a).entries == dense.entries
    assert tuple(_of_rows(*a)) == tuple(dense) == (nr, nc, dense.entries)
    assert _of_rows(*a)[2] == dense[2] and lazy[-1] == dense[-1]
    assert _of_rows(*a)._asdict() == dense._asdict()
    copy = _of_rows(*a)._replace(cols=nc)
    assert type(copy) is IntMatrix and copy == dense
    assert _of_rows(*a).columns() == dense.columns()
    for f in lazy._fields:
        with pytest.raises(AttributeError):
            setattr(lazy, f, getattr(dense, f))
    assert lazy == dense
    # the other tuple operations read the fields too, not the storage
    assert dense.entries in _of_rows(*a) and nc in _of_rows(*a)
    assert _of_rows(*a).count(nc) == dense.count(nc)
    assert _of_rows(*a).index(dense.entries) == 2
    assert _of_rows(*a) + () == dense + () == () + _of_rows(*a)
    assert _of_rows(*a) + other == dense + IntMatrix(*other)
    assert 2 * _of_rows(*a) == _of_rows(*a) * 2 == dense * 2
    for x, y in [(_of_rows(*a), other), (dense, other), (_of_rows(*a),
                                                         IntMatrix(*other))]:
        assert (x < y) is (dense < IntMatrix(*other))
        assert (x <= y) is (dense <= IntMatrix(*other))
        assert (x > y) is (dense > IntMatrix(*other))
        assert (x >= y) is (dense >= IntMatrix(*other))


def test_a_presentation_built_on_demand_is_the_value_of_its_fields():
    homology.cache_clear()
    cx = catalog.__wrapped__(CatalogId.CO32)
    plain = tuple(homology.__wrapped__(cx, 1))
    for op in (lambda p: plain[2] in p, lambda p: p.count(plain[0]),
               lambda p: p.index(plain[3]), lambda p: p + (),
               lambda p: () + p, lambda p: p * 2, lambda p: p < plain,
               lambda p: p >= plain, lambda p: p == plain):
        assert op(homology.__wrapped__(cx, 1)) == op(plain)


def test_replace_checks_the_shape_of_a_sparse_built_matrix():
    m = _of_rows(2, 1, [[1], [0]])
    with pytest.raises(ValueError, match="row count mismatch"):
        m._replace(rows=3)
