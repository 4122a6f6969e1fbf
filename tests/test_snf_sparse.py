"""The sparse Smith workspace against the dense reference engine.

Both engines run the same elementary operations with the same pivots, so
every transform, and every homology presentation built from them, must
agree entry for entry.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from foldcob.catalog import CatalogId, catalog
from foldcob.complexes import (Direction, RingTag, hom_dual, homology,
                               make_complex)
from foldcob.intmat import IntMatrix, snf_with_inverses

import snf_reference as ref

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
@given(matrices)
def test_sparse_engine_matches_dense_reference(m):
    got = snf_with_inverses(m)
    want = ref.snf_with_inverses(m)
    assert got == want
    for g in got:
        assert type(g.entries) is tuple
        assert all(type(row) is tuple for row in g.entries)


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
            ((5, 6), (7, 10), (9, 16), (12, 30))]
    homological = [cx for cx in out if cx.direction is Direction.HOMOLOGICAL]
    return out + [hom_dual(cx, g) for cx in homological
                  for g in (RingTag.FREE, RingTag.TWO_TORSION)]


def test_presentations_match_dense_reference(monkeypatch):
    compute = homology.__wrapped__    # no cache: each engine computes
    cases = [(cx, deg) for cx in _complexes()
             for deg in range(cx.top_degree + 1)]
    sparse = [compute(cx, deg) for cx, deg in cases]
    monkeypatch.setattr("foldcob.complexes.snf_with_inverses",
                        ref.snf_with_inverses)
    dense = [compute(cx, deg) for cx, deg in cases]
    assert len(cases) > 60
    for case, got, want in zip(cases, sparse, dense):
        assert got == want, case
