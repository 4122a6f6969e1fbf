"""The unit pass of the untracked Smith reduction against two oracles.

With neither side tracked, ``intmat._smith`` clears the +-1 pivots
(``_unit_pass``) before its Euclidean reduction.  Invariant factors are
unique, so its diagonal must equal the one of the tracked reduction,
which takes no such pass, and must agree with ranks over fields computed
without the Smith engine (``rank_reference``): the nonzero factors
number the rank over Q, the odd ones the rank over F2 and those prime to
3 the rank over F3.  The diagonal has min(rows, cols) entries, is
nonnegative and each entry divides the next.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldcob import intmat
from foldcob.catalog import CatalogId, catalog
from foldcob.complexes import (Direction, RingTag, hom_dual, homology,
                               make_complex)
from foldcob.intmat import (IntMatrix, _column_rows, _dense, _smith,
                            _sparse_rows, _unit_pass, snf_with_inverses)
from rank_reference import rank_mod, rank_mod2, rank_q

ROOT = Path(__file__).resolve().parents[1]


def _check_factors(m: IntMatrix, rows=_sparse_rows):
    """The untracked diagonal of m against the tracked one and the field
    ranks; returns it.  ``rows`` builds m's sparse rows afresh, since
    ``_smith`` reduces them in place."""
    w = _smith(rows(m), m.cols)
    got = w.diagonal()
    assert (w.nr, w.nc) == (m.rows, m.cols)
    assert len(got) == min(m.rows, m.cols)
    assert got == _smith(rows(m), m.cols, u=True, v=m.cols).diagonal()
    assert all(d >= 0 for d in got)
    for a, b in zip(got, got[1:]):
        assert (b % a == 0) if a else b == 0, got
    nonzero = [d for d in got if d]
    assert len(nonzero) == rank_q(m.entries)
    assert sum(d % 2 == 1 for d in nonzero) == rank_mod2(m.entries)
    assert sum(d % 3 != 0 for d in nonzero) == rank_mod(m.entries, 3)
    return got, w


dims = st.integers(0, 12)
ENTRIES = {
    "dense": st.integers(-3, 3),
    "sparse": st.integers(-9, 9).map(lambda x: x if abs(x) == 1 else 0),
    "twos": st.sampled_from((0, 0, 0, 0, 2, -2, 1, -1)),
}


def _matrix(nr, nc, entry):
    return st.lists(st.lists(entry, min_size=nc, max_size=nc),
                    min_size=nr, max_size=nr).map(
        lambda rows: IntMatrix(nr, nc, tuple(map(tuple, rows))))


def _incidence(nr, nc):
    """nr x nc, each column one +1 and one -1 in distinct rows."""
    def build(pairs):
        rows = [[0] * nc for _ in range(nr)]
        for c, (a, b) in enumerate(pairs):
            rows[a][c], rows[b][c] = 1, -1
        return IntMatrix(nr, nc, tuple(map(tuple, rows)))
    pair = st.lists(st.integers(0, nr - 1), min_size=2, max_size=2,
                    unique=True)
    return st.lists(pair, min_size=nc, max_size=nc).map(build)


def _with_zero_lines(m, data):
    """m with zero rows and zero columns put in at drawn places."""
    rows = [list(r) for r in m.entries]
    nc = m.cols
    for _ in range(data.draw(st.integers(0, 3), label="zero cols")):
        c = data.draw(st.integers(0, nc), label="at col")
        for r in rows:
            r.insert(c, 0)
        nc += 1
    for _ in range(data.draw(st.integers(0, 3), label="zero rows")):
        rows.insert(data.draw(st.integers(0, len(rows)), label="at row"),
                    [0] * nc)
    return IntMatrix(len(rows), nc, tuple(map(tuple, rows)))


matrices = st.one_of(
    st.tuples(dims, dims, st.sampled_from(sorted(ENTRIES))).flatmap(
        lambda a: _matrix(a[0], a[1], ENTRIES[a[2]])),
    st.tuples(st.integers(2, 12), dims).flatmap(lambda a: _incidence(*a)),
)


@settings(max_examples=400, deadline=None)
@given(matrices, st.data())
def test_untracked_factors_match_tracked_and_field_ranks(m, data):
    if data.draw(st.booleans(), label="zero lines"):
        m = _with_zero_lines(m, data)
    got, w = _check_factors(m)
    # s is diag(d1, d2, ...) in m's shape
    assert _dense(w.s, m.cols) == tuple(
        tuple(got[i] if i == j else 0 for j in range(m.cols))
        for i in range(m.rows))


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (1, 0), (0, 1)])
def test_empty_shapes(shape):
    got, w = _check_factors(IntMatrix.zero(*shape))
    assert got == [] and len(w.s) == shape[0]


def test_known_factors():
    # a unit beside a block that has none, a unit that fills in, and a
    # row holding only a 2
    cases = {((1, 0, 0), (0, 2, 4), (0, 6, 8)): [1, 2, 4],
             ((1, 1, 0), (1, -1, 0), (0, 0, 3)): [1, 1, 6],
             ((2, 0), (0, 2), (1, 1)): [1, 2],
             ((-1, 2, 2), (2, -1, 2), (2, 2, -1)): [1, 3, 9]}
    for entries, want in cases.items():
        got, _ = _check_factors(IntMatrix.from_rows(entries))
        assert got == want, entries


def test_the_pass_takes_units_only_and_fills_in():
    # row 2 holds no unit; row 0 pivots on column 0, which fills column 2
    # of row 1, where then no unit is left; columns 1 and 2 become 0 and 1
    units, rest = _unit_pass([{0: 1, 2: 3}, {0: 1, 1: 2}, {1: 2}], 3)
    assert (units, rest) == (1, [{0: 2, 1: -3}, {0: 2}])
    # row 0 holds two units and pivots on column 1, held by two rows
    # where column 0 is held by three; row 1 then pivots on column 0
    units, rest = _unit_pass([{0: 1, 1: 1}, {0: 1, 2: 5}, {1: 2, 0: 4}], 3)
    assert (units, rest) == (2, [{0: -10}])


def _catalog_differentials():
    out = []
    for cid in CatalogId:
        cx = catalog(cid)
        cxs = [cx]
        if cx.direction is Direction.HOMOLOGICAL:
            cxs += [hom_dual(cx, g) for g in RingTag]
        out += [(f"{cid.value}[{i}]", d) for c in cxs
                for i, d in enumerate(c.differentials)]
    return out


def test_every_catalog_differential():
    cases = _catalog_differentials()
    assert len(cases) >= 30
    for name, d in cases:
        _check_factors(d, _column_rows)


def _surface(gen, kind, cells, seed):
    case = gen.surface_case(random.Random(seed), kind, cells)
    degrees = [[(name, RingTag(ring)) for name, ring in deg]
               for deg in case.degrees]
    return make_complex(Direction.HOMOLOGICAL, degrees, case.diffs)


@pytest.mark.parametrize("cells", [200, 2000])
def test_surface_differentials_and_groups(cells, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import gen

    for kind in gen.SURFACES:
        cx = _surface(gen, kind, cells, cells)
        dual = hom_dual(cx, RingTag.TWO_TORSION)
        for c in (cx, dual):
            for d in c.differentials:
                got, _ = _check_factors(d, _column_rows)
                # the pass, not the Euclidean reduction, takes almost
                # every pivot of a surface
                units, _ = _unit_pass(_column_rows(d), d.cols)
                assert units >= 0.9 * sum(1 for x in got if x)
        want, want_z2 = gen.SURFACE_HOMOLOGY[kind]
        assert tuple((g.free_rank, g.torsion) for g in
                     (homology.__wrapped__(cx, k) for k in range(3))) == want
        assert tuple(len(homology.__wrapped__(dual, k).torsion)
                     for k in range(3)) == want_z2


def test_tracked_reductions_take_no_pass(monkeypatch):
    # bases and transforms keep the pivot order of the tracked reduction
    def forbidden(*args):
        raise AssertionError("a tracked reduction ran the unit pass")

    monkeypatch.setattr(intmat, "_unit_pass", forbidden)
    m = IntMatrix.from_rows([[1, 2], [3, 1], [1, 1]])
    snf_with_inverses(m)
    v32 = catalog(CatalogId.V32)    # mixed: its groups come with the basis
    for deg in range(v32.top_degree + 1):
        homology.__wrapped__(v32, deg).basis_cycles
    co32 = catalog(CatalogId.CO32)
    with pytest.raises(AssertionError, match="unit pass"):
        # a pure complex's groups do take it, on a copy that has not kept
        # its factors
        homology.__wrapped__(type(co32)(*co32), 1)
