"""Groups first, bases on demand.

``homology`` of a pure complex reads the group off one diagonal-only
Smith reduction per differential and builds the basis cycles and
coordinate rows only when one of them is first read.  The record is the
same value either way: equal, hashed, printed and pickled by its four
fields.
"""

import pickle

import pytest

import snf_reference
from foldcob.catalog import CatalogId, catalog
from foldcob.complexes import (AbelianGroupPresentation, ComplexError,
                               Direction, MixedComplex, RingTag, homology,
                               make_complex)

from test_complexes import _count_reductions

_homology = homology.__wrapped__     # no cache: a new group on every call


@pytest.mark.parametrize("cid", [CatalogId.CO32, CatalogId.C32_Z2,
                                 CatalogId.F32])
def test_groups_run_one_diagonal_reduction_per_differential(cid, monkeypatch):
    calls = _count_reductions(monkeypatch)
    cx = MixedComplex(*catalog(cid))    # a new copy keeps nothing yet
    groups = [_homology(cx, deg) for deg in range(cx.top_degree + 1)]
    assert calls == [(False, None)] * len(cx.differentials)
    calls.clear()
    for pres in groups:
        pres.free_rank, pres.torsion, pres.rank
    assert not calls
    for deg, pres in enumerate(groups):
        pres.basis_cycles
        assert calls == [(False, cx.n(deg)), (True, None)]
        calls.clear()
        pres.coord_rows, pres.basis_cycles
        assert not calls


def test_a_mixed_complex_builds_its_basis_with_its_group(monkeypatch):
    calls = _count_reductions(monkeypatch)
    cx = MixedComplex(*catalog(CatalogId.V32))
    pres = _homology(cx, 1)
    assert calls == [(False, cx.n(1)), (True, None)]
    calls.clear()
    pres.basis_cycles, pres.coord_rows
    assert not calls


def _lazy_and_eager():
    """A presentation of C32_Z2 in degree 1 not built yet, and the dense
    reference's, built with the same group and basis."""
    cx = catalog(CatalogId.C32_Z2)
    return _homology(cx, 1), snf_reference.homology(cx, 1)


def test_lazy_and_eager_presentations_are_the_same_value():
    lazy, eager = _lazy_and_eager()
    assert type(lazy) is type(eager) is AbelianGroupPresentation
    assert lazy == eager and eager == lazy and not lazy != eager
    assert _lazy_and_eager()[0] == tuple(eager)
    assert hash(_lazy_and_eager()[0]) == hash(eager) == hash(tuple(eager))
    assert repr(_lazy_and_eager()[0]) == repr(eager)
    for lazy in (_lazy_and_eager()[0], lazy):
        back = pickle.loads(pickle.dumps(lazy))
        assert type(back) is AbelianGroupPresentation
        assert back == eager and repr(back) == repr(eager)
    lazy = _lazy_and_eager()[0]
    assert tuple(lazy) == tuple(eager) and lazy[2] == eager[2]
    assert _lazy_and_eager()[0]._asdict() == eager._asdict()
    assert _lazy_and_eager()[0]._replace() == eager
    other = _lazy_and_eager()[0]._replace(torsion=())
    assert other != eager and not other == eager


def test_a_lazy_presentation_is_immutable():
    lazy, eager = _lazy_and_eager()
    for f in lazy._fields:
        with pytest.raises(AttributeError):
            setattr(lazy, f, getattr(eager, f))
    assert lazy == eager


def test_z2_homology_rejects_odd_composite():
    gens = [[(name, RingTag.TWO_TORSION)] for name in "xyz"]
    odd = make_complex(Direction.HOMOLOGICAL, gens,
                       [{"y": {"x": 1}}, {"z": {"y": 1}}])
    with pytest.raises(ComplexError,
                       match="not a complex: nonzero composite"):
        homology(odd, 1)
    even = make_complex(Direction.HOMOLOGICAL, gens,
                        [{"y": {"x": 1}}, {"z": {"y": 2}}])
    pres = homology(even, 1)
    assert (pres.free_rank, pres.torsion) == (0, ())
    assert pres.basis_cycles == ()
