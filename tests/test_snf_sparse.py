"""The sparse Smith workspace and sparse homology against the dense
reference.

Both engines run the same elementary operations with the same pivots, so
every transform must agree entry for entry.  The library's homology reads
only the transforms it needs and keeps them sparse; the reference's is
the dense one, so every presentation, field by field, and every class
``express_class`` gives must agree too.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from foldcob.catalog import CatalogId, catalog
from foldcob.complexes import (Direction, NotACycleError, RingTag,
                               express_class, hom_dual, homology, make_complex)
from foldcob.intmat import (IntMatrix, _dense, _smith, _sparse_rows,
                            snf_with_inverses)

import snf_reference as ref
from test_complexes import build_mixed_complex, small_mats

dims = st.integers(0, 12)
ENTRIES = {
    "dense": st.integers(-3, 3),
    "sparse": st.integers(-9, 9).map(lambda x: x if abs(x) == 1 else 0),
}


def _matrix(nr, nc, entry):
    return st.lists(st.lists(entry, min_size=nc, max_size=nc),
                    min_size=nr, max_size=nr).map(
        lambda rows: IntMatrix(nr, nc, tuple(map(tuple, rows))))


def _stacked(d):
    """[d | 2I]: a differential beside the relations of all-torsion targets."""
    two = IntMatrix(d.rows, d.rows, tuple(
        tuple(2 if i == j else 0 for j in range(d.rows)) for i in range(d.rows)))
    return d.hstack(two)


matrices = st.one_of(
    st.tuples(dims, dims, st.sampled_from(sorted(ENTRIES))).flatmap(
        lambda a: _matrix(a[0], a[1], ENTRIES[a[2]])),
    st.tuples(dims, dims).flatmap(
        lambda a: _matrix(a[0], a[1], ENTRIES["sparse"])).map(_stacked),
)


@settings(max_examples=400, deadline=None)
@given(matrices, st.data())
def test_sparse_engine_matches_dense_reference(m, data):
    got = snf_with_inverses(m)
    want = ref.snf_with_inverses(m)
    assert got == want
    for g in got:
        assert type(g.entries) is tuple
        assert all(type(row) is tuple for row in g.entries)
    # pivots depend on s alone: tracking one side or neither ends with the
    # same s and the same transforms on the tracked side; v is held by
    # columns, and v = k keeps only v's rows < k
    v_cols = want[2].columns()
    k = data.draw(st.integers(0, m.cols), label="k")
    for u, v in ((True, None), (False, m.cols), (False, None), (False, k)):
        w = _smith(_sparse_rows(m), m.cols, u=u, v=v)
        assert _dense(w.s, m.cols) == want[1].entries
        if u:
            assert _dense(w.u, m.rows) == want[0].entries
            assert _dense(w.uinv, m.rows) == tuple(want[3].columns())
        else:
            assert w.u is None and w.uinv is None
        if v is None:
            assert w.v is None and w.vinv is None
        else:
            assert _dense(w.v, v) == tuple(c[:v] for c in v_cols)
            assert _dense(w.vinv, m.cols) == want[4].entries


def _triangle_complex(rng, nverts, ntris):
    """A random simplicial 2-complex with shuffled generators."""
    tris = sorted({tuple(sorted(rng.sample(range(nverts), 3)))
                   for _ in range(ntris)})
    edges = sorted({e for t in tris for e in itertools.combinations(t, 2)})
    verts = sorted({v for e in edges for v in e})
    name = lambda cell: "c" + "_".join(map(str, cell))
    d1 = {name(e): {name((e[1],)): 1, name((e[0],)): -1} for e in edges}
    d2 = {name(t): {name((t[1], t[2])): 1, name((t[0], t[2])): -1,
                    name((t[0], t[1])): 1} for t in tris}
    degrees = [[(name(c), RingTag.FREE) for c in cells]
               for cells in ([(v,) for v in verts], edges, tris)]
    for deg in degrees:
        rng.shuffle(deg)
    return make_complex(Direction.HOMOLOGICAL, degrees, [d1, d2])


def _complexes():
    out = [catalog(c) for c in CatalogId]
    rng = random.Random(7)
    out += [_triangle_complex(rng, n, t) for n, t in
            ((5, 6), (7, 10), (9, 16), (12, 30), (16, 40), (20, 60))]
    homological = [cx for cx in out if cx.direction is Direction.HOMOLOGICAL]
    return out + [hom_dual(cx, g) for cx in homological
                  for g in (RingTag.FREE, RingTag.TWO_TORSION)]


def _same_presentation(got, want, case):
    for f in want._fields:
        assert getattr(got, f) == getattr(want, f), (case, f)
    assert repr(got) == repr(want), case


def test_presentations_match_dense_reference():
    compute = homology.__wrapped__    # no cache: computed every time
    cases = [(cx, deg) for cx in _complexes()
             for deg in range(cx.top_degree + 1)]
    assert len(cases) > 60
    for cx, deg in cases:
        _same_presentation(compute(cx, deg), ref.homology(cx, deg), (cx, deg))


def _class_or_error(express, cx, deg, vec):
    try:
        return express(cx, deg, vec)
    except NotACycleError:
        return NotACycleError


@settings(max_examples=60, deadline=None)
@given(small_mats, small_mats, st.lists(st.booleans(), min_size=12, max_size=12),
       st.data())
def test_mixed_presentations_and_classes_match_dense_reference(
        d1_rows, mix_rows, torsion_seeds, data):
    cx = build_mixed_complex(d1_rows, mix_rows, torsion_seeds)
    for deg in range(3):
        want = ref.homology(cx, deg)
        _same_presentation(homology.__wrapped__(cx, deg), want, deg)
        # basis cycles, boundaries, torsion relations and arbitrary vectors,
        # the last ones mostly not cycles
        vecs = [list(c) for c in want.basis_cycles]
        vecs += [list(col) for col in
                 (cx.in_diff(deg)[0].columns() if cx.in_diff(deg) else [])]
        vecs += [[2 if i == t else 0 for i in range(cx.n(deg))]
                 for t in cx.torsion_indices(deg)]
        vecs += data.draw(st.lists(
            st.lists(st.integers(-4, 4), min_size=cx.n(deg),
                     max_size=cx.n(deg)), max_size=4))
        for coeffs in data.draw(st.lists(
                st.lists(st.integers(-3, 3), min_size=len(vecs),
                         max_size=len(vecs)), max_size=4)):
            vecs.append([sum(c * v[i] for c, v in zip(coeffs, vecs))
                         for i in range(cx.n(deg))])
        for vec in vecs:
            assert (_class_or_error(express_class, cx, deg, vec)
                    == _class_or_error(ref.express_class, cx, deg, vec)), vec
