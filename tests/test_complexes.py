import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldcob.complexes import (ChainMap, ComplexError, Direction, Generator,
                               MixedComplex, NotACycleError, RingTag,
                               express_class, hom_dual, homology, induced_map,
                               make_complex, validate_chain_map,
                               validate_complex, zero_complex)
from foldcob.intmat import IntMatrix, _smith, diagonal, snf_with_inverses

from test_intmat import frac_rank


def free_gens(prefix, n):
    return tuple((f"{prefix}{i}", RingTag.FREE) for i in range(n))


def build_free_complex(d1_rows, seed_rows):
    """Three-term all-free homological complex with d1 ∘ d2 = 0.

    d2 is built inside the kernel of d1 (seeded by the second matrix),
    so the complex is valid by construction; the homology checks below
    are independent of that step.
    """
    d1 = IntMatrix.from_rows(d1_rows)
    _, s, v, _, _ = snf_with_inverses(d1)
    diag = diagonal(s)
    k = v.submatrix(range(d1.cols), [j for j in range(d1.cols)
                                     if j >= len(diag) or diag[j] == 0])
    ncols = len(seed_rows)
    flat = [x for row in seed_rows for x in row] or [0]
    data = [[flat[(i * ncols + j) % len(flat)] for j in range(ncols)]
            for i in range(k.cols)]
    r = IntMatrix(k.cols, ncols, tuple(tuple(row) for row in data))
    d2 = k.mul(r)
    gens = (
        tuple(Generator(f"a{i}", RingTag.FREE) for i in range(d1.rows)),
        tuple(Generator(f"b{i}", RingTag.FREE) for i in range(d1.cols)),
        tuple(Generator(f"c{i}", RingTag.FREE) for i in range(d2.cols)),
    )
    return MixedComplex(Direction.HOMOLOGICAL, gens, (d1, d2))


def build_mixed_complex(d1_rows, seed_rows, torsion_seeds):
    """build_free_complex with some generators made two-torsion.

    The torsion set is closed downwards (every target of a torsion source
    is torsion), so no torsion source meets a free target and d1 ∘ d2 = 0
    still holds over Z.
    """
    cx = build_free_complex(d1_rows, seed_rows)
    seeds = iter(torsion_seeds)
    torsion = [{i for i in range(cx.n(deg)) if next(seeds)}
               for deg in range(3)]
    for deg in (2, 1):
        d = cx.differentials[deg - 1]
        torsion[deg - 1] |= {r for r in range(d.rows) for c in torsion[deg]
                             if d.entries[r][c] != 0}
    gens = tuple(tuple(Generator(g.name, RingTag.TWO_TORSION if i in torsion[deg]
                                 else RingTag.FREE)
                       for i, g in enumerate(cx.generators[deg]))
                 for deg in range(3))
    return MixedComplex(Direction.HOMOLOGICAL, gens, cx.differentials)


small_mats = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-3, 3), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(small_mats, small_mats)
def test_free_homology_matches_rational_ranks(d1_rows, mix_rows):
    cx = build_free_complex(d1_rows, mix_rows)
    assert not validate_complex(cx)
    d1, d2 = cx.differentials
    # degree 1: nullity(d1) - rank(d2) over the rationals
    expect = (d1.cols - frac_rank(d1)) - frac_rank(d2)
    assert homology(cx, 1).free_rank == expect
    assert homology(cx, 0).free_rank == d1.rows - frac_rank(d1)
    assert homology(cx, 2).free_rank == d2.cols - frac_rank(d2)


def t2(pres):
    return sum(1 for d in pres.torsion if d % 2 == 0)


@settings(max_examples=60, deadline=None)
@given(small_mats, small_mats)
def test_universal_coefficients_dimensions(d1_rows, mix_rows):
    cx = build_free_complex(d1_rows, mix_rows)
    dual = hom_dual(cx, RingTag.TWO_TORSION)
    for k in range(3):
        hk = homology(cx, k)
        below = t2(homology(cx, k - 1)) if k >= 1 else 0
        dim = len(homology(dual, k).torsion)
        assert dim == hk.free_rank + t2(hk) + below


@settings(max_examples=40, deadline=None)
@given(small_mats, small_mats)
def test_express_class_of_basis_is_identity(d1_rows, mix_rows):
    cx = build_free_complex(d1_rows, mix_rows)
    for deg in range(3):
        pres = homology(cx, deg)
        for j, cyc in enumerate(pres.basis_cycles):
            coords = express_class(cx, deg, cyc)
            assert coords == tuple(1 if i == j else 0
                                   for i in range(pres.rank))


def check_express_recovers_coefficients(cx, deg, data):
    """A random combination of basis cycles plus a random boundary is
    expressed by its coefficients, the torsion ones mod their order."""
    pres = homology(cx, deg)
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=pres.rank,
                                max_size=pres.rank))
    vec = [0] * cx.n(deg)
    for c, cyc in zip(coeffs, pres.basis_cycles):
        vec = [x + c * y for x, y in zip(vec, cyc)]
    inn = cx.in_diff(deg)
    if inn is not None:
        chain = data.draw(st.lists(st.integers(-3, 3), min_size=inn[0].cols,
                                   max_size=inn[0].cols))
        vec = [x + y for x, y in zip(vec, inn[0].apply(chain))]
    for i in cx.torsion_indices(deg):
        vec[i] += 2 * data.draw(st.integers(-3, 3))
    free = pres.free_rank
    want = tuple(coeffs[:free]) + tuple(
        c % t for c, t in zip(coeffs[free:], pres.torsion))
    assert express_class(cx, deg, vec) == want


@pytest.mark.parametrize("dual", [False, True])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_express_class_recovers_v32_coefficients(dual, data):
    from foldcob.catalog import CatalogId, catalog
    cx = catalog(CatalogId.V32)
    if dual:
        cx = hom_dual(cx, RingTag.TWO_TORSION)
    for deg in range(3):
        check_express_recovers_coefficients(cx, deg, data)


@settings(max_examples=60, deadline=None)
@given(small_mats, small_mats,
       st.lists(st.booleans(), min_size=12, max_size=12), st.data())
def test_express_class_recovers_mixed_coefficients(d1_rows, mix_rows,
                                                   torsion_seeds, data):
    cx = build_mixed_complex(d1_rows, mix_rows, torsion_seeds)
    assert not validate_complex(cx)
    for deg in range(3):
        check_express_recovers_coefficients(cx, deg, data)


def _count_reductions(monkeypatch):
    """Record the sides each Smith reduction of homology tracks."""
    calls = []

    def counting(rows, nc, u=False, v=None):
        calls.append((u, v))
        return _smith(rows, nc, u=u, v=v)

    monkeypatch.setattr("foldcob.complexes._smith", counting)
    return calls


def test_homology_runs_two_snfs_and_express_class_none(monkeypatch):
    calls = _count_reductions(monkeypatch)
    cx = make_complex(
        Direction.HOMOLOGICAL,
        [[("two_snf_x", RingTag.FREE)], [("two_snf_y", RingTag.FREE),
                                         ("two_snf_t", RingTag.TWO_TORSION)],
         [("two_snf_z", RingTag.FREE)]],
        [{"two_snf_y": {"two_snf_x": 2}}, {"two_snf_z": {"two_snf_t": 2}}])
    homology.cache_clear()
    for deg in range(3):
        calls.clear()
        homology(cx, deg)
        assert len(calls) == 2
        # v^-1 and v's rows < n of the first reduction, u, u^-1 of the
        # second
        assert calls == [(False, cx.n(deg)), (True, None)]
    calls.clear()
    assert express_class(cx, 1, (0, 1)) == (1,)
    assert express_class(cx, 0, (3,)) == (1,)
    assert not calls


def test_express_class_runs_no_dense_product_and_no_reduction(monkeypatch):
    from foldcob.catalog import CatalogId, catalog
    v32 = catalog(CatalogId.V32)
    cases = [(cx, deg) for cx in (v32, hom_dual(v32, RingTag.TWO_TORSION))
             for deg in range(3)]
    for cx, deg in cases:
        homology(cx, deg).basis_cycles    # a pure complex builds it on demand

    def forbidden(*args, **kwargs):
        raise AssertionError("express_class must not call this")

    monkeypatch.setattr(IntMatrix, "apply", forbidden)
    monkeypatch.setattr(IntMatrix, "mul", forbidden)
    monkeypatch.setattr("foldcob.complexes._smith", forbidden)
    for cx, deg in cases:
        pres = homology(cx, deg)
        for j, cyc in enumerate(pres.basis_cycles):
            assert express_class(cx, deg, cyc) == tuple(
                int(i == j) for i in range(pres.rank))


def test_presentation_holds_one_coordinate_row_per_summand():
    from foldcob.catalog import CatalogId, catalog
    for cid in CatalogId:
        cx = catalog(cid)
        for deg in range(cx.top_degree + 1):
            pres = homology(cx, deg)
            assert len(pres.coord_rows) == pres.rank
            moduli = tuple(d for d, _ in pres.coord_rows)
            assert moduli == (0,) * pres.free_rank + pres.torsion
            for d, row in pres.coord_rows:
                assert list(row) == sorted(row)
                assert len({j for j, _ in row}) == len(row)
                assert all(x and (not d or 0 < x < d) for _, x in row)


def _point(name):
    return make_complex(Direction.HOMOLOGICAL, [[(name, RingTag.FREE)]], [])


def test_homology_cache_is_bounded():
    maxsize = homology.cache_info().maxsize
    assert maxsize is not None
    homology.cache_clear()
    for i in range(maxsize + 20):
        assert homology(_point(f"bounded{i}"), 0).free_rank == 1
    assert homology.cache_info().currsize <= maxsize


def test_homology_cache_keeps_recent_presentation(monkeypatch):
    calls = _count_reductions(monkeypatch)
    maxsize = homology.cache_info().maxsize
    cx = make_complex(
        Direction.HOMOLOGICAL,
        [[("recent_x", RingTag.FREE)], [("recent_y", RingTag.FREE),
                                        ("recent_w", RingTag.FREE)]],
        [{"recent_y": {"recent_x": 1}, "recent_w": {"recent_x": 1}}])
    homology.cache_clear()
    homology(cx, 1).basis_cycles    # a pure complex builds it on demand
    # fewer than maxsize other entries in between: still cached
    for i in range(maxsize - 1):
        homology(_point(f"recent{i}"), 0)
    calls.clear()
    assert express_class(cx, 1, (1, -1)) == (-1,)
    assert not calls
    # maxsize others since its last use: evicted, so computed again
    for i in range(maxsize):
        homology(_point(f"evict{i}"), 0)
    calls.clear()
    assert express_class(cx, 1, (1, -1)) == (-1,)
    assert len(calls) == 2


def test_equal_complexes_hash_equal_and_share_a_cache_entry(monkeypatch):
    calls = _count_reductions(monkeypatch)

    def build():
        return make_complex(
            Direction.HOMOLOGICAL,
            [[("share_x", RingTag.FREE)], [("share_y", RingTag.FREE)]],
            [{"share_y": {"share_x": 2}}])

    a, b = build(), build()
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash((a.direction, a.generators,
                                       a.differentials))
    homology.cache_clear()
    pres = homology(a, 0)
    calls.clear()
    assert homology(b, 0) is pres
    assert not calls
    assert homology.cache_info().currsize == 1
    # a pickled complex leaves its cached hash behind
    c = pickle.loads(pickle.dumps(a))
    assert c == a and "_hash" not in vars(c)


def test_express_class_reuses_the_torsion_slots(monkeypatch):
    cx = make_complex(
        Direction.HOMOLOGICAL,
        [[("slot_x", RingTag.TWO_TORSION)], [("slot_y", RingTag.FREE)]],
        [{"slot_y": {"slot_x": 1}}])
    assert homology(cx, 1).free_rank == 1
    assert express_class(cx, 1, (2,)) in {(1,), (-1,)}
    calls = []
    torsion_indices = MixedComplex.torsion_indices

    def counting(self, deg):
        calls.append(deg)
        return torsion_indices(self, deg)

    monkeypatch.setattr(MixedComplex, "torsion_indices", counting)
    for _ in range(3):
        assert express_class(cx, 1, (2,)) in {(1,), (-1,)}
    assert not calls


def test_express_class_rejects_wrong_length():
    cx = make_complex(
        Direction.HOMOLOGICAL,
        [[("x", RingTag.FREE)], [("y", RingTag.FREE), ("w", RingTag.FREE)]],
        [{"y": {"x": 1}, "w": {"x": 1}}])
    assert express_class(cx, 1, (1, -1)) == (-1,)
    with pytest.raises(ValueError, match="3 entries"):
        express_class(cx, 1, (1, -1, 5))
    with pytest.raises(ValueError, match="1 entries"):
        express_class(cx, 1, (1,))


def test_express_class_refuses_entries_that_are_not_integers():
    # int() would truncate 0.5 and turn "1" into 1, so both are refused by
    # the rule IntMatrix.from_rows applies, naming the entry; 0.5 used to
    # give the class (-0.5,) and "1" to escape as a bare TypeError
    cx = make_complex(
        Direction.HOMOLOGICAL,
        [[("x", RingTag.FREE)], [("y", RingTag.FREE), ("w", RingTag.FREE)]],
        [{"y": {"x": 1}, "w": {"x": 1}}])
    for bad, message in (
            ((0.5, -0.5), "vector entry 0 is not an integer: 0.5"),
            (("1", -1), "vector entry 0 is not an integer: '1'"),
            ((1, None), "vector entry 1 is not an integer: None")):
        with pytest.raises(ComplexError) as info:
            express_class(cx, 1, bad)
        assert str(info.value) == message
    # entries equal to their int() are read as those ints
    assert express_class(cx, 1, (1.0, -1)) == (-1,)
    assert type(express_class(cx, 1, (True, -1.0))[0]) is int


def test_homology_rejects_nonzero_composite():
    cx = make_complex(
        Direction.HOMOLOGICAL,
        [[("x", RingTag.FREE)], [("y", RingTag.FREE)], [("z", RingTag.FREE)]],
        [{"y": {"x": 1}}, {"z": {"y": 2}}])
    with pytest.raises(ComplexError,
                       match="not a complex: nonzero composite"):
        homology(cx, 1)


def test_hom_dual_generator_counts():
    from foldcob.catalog import CatalogId, catalog
    v32 = catalog(CatalogId.V32)
    dual = hom_dual(v32, RingTag.TWO_TORSION)
    for deg in range(3):
        assert dual.n(deg) == v32.n(deg)
        assert all(g.ring is RingTag.TWO_TORSION for g in dual.generators[deg])
    dual_z = hom_dual(v32, RingTag.FREE)
    for deg in range(3):
        free = sum(1 for g in v32.generators[deg] if g.ring is RingTag.FREE)
        assert dual_z.n(deg) == free


def test_validator_flags_torsion_to_free_entry():
    cx = make_complex(
        Direction.HOMOLOGICAL,
        [[("x", RingTag.FREE)], [("t", RingTag.TWO_TORSION)]],
        [{"t": {"x": 1}}])
    bad = validate_complex(cx)
    assert bad and bad[0].kind == "two-torsion source maps to free target"


def test_validator_flags_nonzero_composite():
    cx = make_complex(
        Direction.HOMOLOGICAL,
        [[("x", RingTag.FREE)], [("y", RingTag.FREE)], [("z", RingTag.FREE)]],
        [{"y": {"x": 1}}, {"z": {"y": 2}}])
    bad = validate_complex(cx)
    assert bad and bad[0].kind == "nonzero composite"
    assert bad[0].degree == 2


def test_composite_vanishing_mod_two_is_accepted():
    cx = make_complex(
        Direction.HOMOLOGICAL,
        [[("x", RingTag.TWO_TORSION)], [("y", RingTag.TWO_TORSION)],
         [("z", RingTag.TWO_TORSION)]],
        [{"y": {"x": 1}}, {"z": {"y": 2}}])
    assert not validate_complex(cx)
    assert homology(cx, 1).torsion == ()


def test_zero_complex():
    cx = zero_complex()
    pres = homology(cx, 0)
    assert pres.free_rank == 0 and pres.torsion == ()


def test_express_class_rejects_non_cycles():
    cx = make_complex(
        Direction.HOMOLOGICAL,
        [[("x", RingTag.FREE)], [("y", RingTag.FREE)]],
        [{"y": {"x": 1}}])
    with pytest.raises(NotACycleError):
        express_class(cx, 1, (1,))
    # an odd image on a two-torsion target is not zero there either
    cx = make_complex(
        Direction.HOMOLOGICAL,
        [[("x", RingTag.TWO_TORSION)], [("y", RingTag.FREE)]],
        [{"y": {"x": 1}}])
    assert express_class(cx, 1, (2,)) in {(1,), (-1,)}
    with pytest.raises(NotACycleError):
        express_class(cx, 1, (1,))


def test_identity_chain_map_induces_identity():
    from foldcob.catalog import CatalogId, catalog
    v32 = catalog(CatalogId.V32)
    ident = ChainMap(v32, v32, tuple(IntMatrix.identity(v32.n(d))
                                     for d in range(3)))
    assert not validate_chain_map(ident)
    for deg in range(3):
        m = induced_map(ident, deg)
        assert m == IntMatrix.identity(homology(v32, deg).rank)


def test_chain_map_condition_is_checked():
    a = make_complex(Direction.HOMOLOGICAL,
                     [[("x", RingTag.FREE)], [("y", RingTag.FREE)]],
                     [{"y": {"x": 2}}])
    b = make_complex(Direction.HOMOLOGICAL,
                     [[("x", RingTag.FREE)], [("y", RingTag.FREE)]],
                     [{"y": {"x": 3}}])
    f = ChainMap(a, b, (IntMatrix.identity(1), IntMatrix.identity(1)))
    bad = validate_chain_map(f)
    assert bad and bad[0].kind == "chain-map square fails"


def _one_arrow_complexes():
    """x <- y with a well-shaped 1x1 differential, and the same degrees
    with a 2x1 one."""
    gens = ((Generator("x", RingTag.FREE),), (Generator("y", RingTag.FREE),))
    good = MixedComplex(Direction.HOMOLOGICAL, gens, (IntMatrix.identity(1),))
    bad = MixedComplex(Direction.HOMOLOGICAL, gens,
                       (IntMatrix.from_rows([[1], [0]], 1),))
    return good, bad


@pytest.mark.parametrize("bad_end", ["source", "target"])
def test_chain_map_on_malformed_complex_reports_its_shape(bad_end):
    good, bad = _one_arrow_complexes()
    ends = (bad, good) if bad_end == "source" else (good, bad)
    f = ChainMap(*ends, (IntMatrix.identity(1), IntMatrix.identity(1)))
    found = validate_chain_map(f)
    assert found and found[0].kind == "shape"
    assert "differential is 2x1, expected 1x1" in found[0].detail
    with pytest.raises(ComplexError, match="not a chain map: shape"):
        induced_map(f, 0)


def _point(direction, ring=RingTag.FREE):
    """One generator in degree 0 and no differential."""
    return make_complex(direction, [[("p", ring)]], [])


_HOM, _COH = Direction.HOMOLOGICAL, Direction.COHOMOLOGICAL


@pytest.mark.parametrize("source, target, matrices, want", [
    (_point(_HOM), _point(_COH), (IntMatrix.identity(1),),
     ("direction mismatch", 0, "source vs target")),
    (_point(_HOM), _point(_HOM), (),
     ("shape", 0, "wrong number of degree matrices")),
    (_point(_HOM), _point(_HOM), (IntMatrix.identity(2),),
     ("shape", 0, "matrix shape mismatch")),
    # Hom(Z2, Z) = 0, so a torsion generator cannot map onto a free one
    (_point(_HOM, RingTag.TWO_TORSION), _point(_HOM),
     (IntMatrix.identity(1),),
     ("two-torsion source maps to free target", 0, "p")),
])
def test_chain_map_violations_name_their_cause(source, target, matrices,
                                               want):
    found = validate_chain_map(ChainMap(source, target, matrices))
    assert found and tuple(found[0]) == want


def test_hom_dual_refuses_a_cochain_complex():
    with pytest.raises(ComplexError, match="expects a homological complex"):
        hom_dual(_point(_COH), RingTag.FREE)


@pytest.mark.parametrize("diff, message", [
    ({"y": {"x": "3"}},
     "differential 0, 'y' -> 'x': coefficient '3' is not an integer"),
    ({"q": {"x": 1}}, "differential 0, 'q' -> 'x': unknown generator"),
    ({"y": {"q": 1}}, "differential 0, 'y' -> 'q': unknown generator"),
    ({"q": {}}, "differential 0: unknown generator 'q'"),
])
def test_make_complex_names_the_bad_entry(diff, message):
    # a float such as 1.5 keeps the ValueError of IntMatrix.from_rows,
    # naming its row and column (tests/test_intmat.py)
    with pytest.raises(ComplexError) as info:
        make_complex(Direction.HOMOLOGICAL,
                     [[("x", RingTag.FREE)], [("y", RingTag.FREE)]], [diff])
    assert str(info.value) == message
