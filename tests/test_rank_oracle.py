"""The groups of pure complexes against ranks over fields.

``homology`` reads the group of a complex whose generators share one
ring off the invariant factors of its differentials.  Here the same
groups are checked against ranks computed without the Smith engine
(``rank_reference``): over Z, the free rank is n - rank_Q(d_out) -
rank_Q(d_in) and, for p = 2 and 3, the torsion factors divisible by p
number rank_Q(d_in) - rank_p(d_in); over Z2, the group is (Z2)^k with
k = n - rank_2(d_out) - rank_2(d_in).  Each group must also equal the
one of the dense reference ``snf_reference.homology``.
"""

import random
from pathlib import Path

import pytest

import snf_reference
from foldcob.catalog import CatalogId, catalog
from foldcob.complexes import (Direction, Generator, MixedComplex, RingTag,
                               hom_dual, homology, make_complex)
from foldcob.intmat import IntMatrix
from rank_reference import rank_mod, rank_mod2, rank_q

ROOT = Path(__file__).resolve().parents[1]
_homology = homology.__wrapped__     # no cache: a new group on every call
_RANK_P = {2: rank_mod2, 3: lambda rows: rank_mod(rows, 3)}


def _rings(cx):
    return {g.ring for gens in cx.generators for g in gens}


def _check(cx):
    """The group in every degree of the pure complex cx against the ranks
    of its differentials and the dense reference."""
    over_z2 = _rings(cx) == {RingTag.TWO_TORSION}
    for deg in range(cx.top_degree + 1):
        pres = _homology(cx, deg)
        n = cx.n(deg)
        out, inn = cx.out_diff(deg), cx.in_diff(deg)
        d_out = out[0].entries if out is not None else ()
        d_in = inn[0].entries if inn is not None else ()
        if over_z2:
            assert pres.free_rank == 0
            assert pres.torsion == (2,) * (n - rank_mod2(d_out)
                                           - rank_mod2(d_in))
        else:
            assert pres.free_rank == n - rank_q(d_out) - rank_q(d_in)
            for p, rank_p in _RANK_P.items():
                assert sum(d % p == 0 for d in pres.torsion) == (
                    rank_q(d_in) - rank_p(d_in)), (deg, p)
        ref = snf_reference.homology(cx, deg)
        assert (pres.free_rank, pres.torsion) == (ref.free_rank, ref.torsion)


def test_rank_reference_on_known_matrices():
    m = [[2, 0, 0], [0, 6, 0], [0, 0, 0]]
    assert (rank_q(m), rank_mod2(m), rank_mod(m, 3)) == (2, 0, 1)
    assert rank_mod2([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2
    assert rank_q([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 3
    assert rank_q([]) == rank_mod2([]) == rank_q([[], []]) == 0


# a mixed complex (V32) has no rank formula
_PURE = [cid for cid in CatalogId if len(_rings(catalog(cid))) == 1]


@pytest.mark.parametrize("cid", _PURE, ids=lambda c: c.value)
def test_pure_catalogs_match_field_ranks(cid):
    _check(catalog(cid))


@pytest.mark.parametrize("seed", range(3))
def test_surfaces_and_their_z2_duals_match_field_ranks(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import gen

    rng = random.Random(seed)
    for kind in gen.SURFACES:
        case = gen.surface_case(rng, kind, 40)
        cx = make_complex(
            Direction.HOMOLOGICAL,
            [[(name, RingTag(ring)) for name, ring in deg]
             for deg in case.degrees], case.diffs)
        _check(cx)
        _check(hom_dual(cx, RingTag.TWO_TORSION))


def _random_pair(rng):
    """d1 (n0 x n1) and d2 (n1 x n2) with d1 d2 = 0 by construction:
    d1 = A [I_r 0] G^-1 and d2 = G [0 I]^T B for a unimodular G built
    from random elementary operations, so d1 d2 = A [I_r 0][0 I]^T B = 0;
    A and B are small random matrices, each scaled by 1, 2, 3 or 6, which
    give the torsion."""
    n0, n1, n2 = rng.randint(0, 5), rng.randint(0, 6), rng.randint(0, 5)
    r = rng.randint(0, n1)
    g = [[int(i == j) for j in range(n1)] for i in range(n1)]
    ginv = [row[:] for row in g]
    for _ in range(3 * n1 if n1 > 1 else 0):
        i, j = rng.sample(range(n1), 2)
        q = rng.choice((-2, -1, 1, 2))
        # G <- E G with E = I + q e_ij, and G^-1 <- G^-1 E^-1
        g[i] = [a + q * b for a, b in zip(g[i], g[j])]
        for row in ginv:
            row[j] -= q * row[i]
    ka, kb = rng.choice((1, 2, 3, 6)), rng.choice((1, 2, 3, 6))
    a = [[ka * rng.randint(-3, 3) for _ in range(r)] for _ in range(n0)]
    b = [[kb * rng.randint(-3, 3) for _ in range(n2)] for _ in range(n1 - r)]
    d1 = [[sum(a[i][k] * ginv[k][j] for k in range(r)) for j in range(n1)]
          for i in range(n0)]
    d2 = [[sum(g[i][r + k] * b[k][j] for k in range(n1 - r))
           for j in range(n2)] for i in range(n1)]
    return (n0, n1, n2), d1, d2


def _mat(rows, ncols):
    return IntMatrix(len(rows), ncols, tuple(tuple(row) for row in rows))


def _transpose(rows, ncols):
    return [list(col) for col in zip(*rows)] if rows else [[]] * ncols


def _random_complex(rng, ring, direction):
    (n0, n1, n2), d1, d2 = _random_pair(rng)
    if ring is RingTag.TWO_TORSION:
        # over Z2 the composite need only be even
        d2 = [[x + 2 * rng.randint(-1, 1) for x in row] for row in d2]
    gens = tuple(tuple(Generator(f"g{deg}_{i}", ring) for i in range(n))
                 for deg, n in enumerate((n0, n1, n2)))
    if direction is Direction.HOMOLOGICAL:
        mats = (_mat(d1, n1), _mat(d2, n2))
    else:
        # the transposes: delta1 delta0 = (d1 d2)^T
        mats = (_mat(_transpose(d1, n1), n0), _mat(_transpose(d2, n2), n1))
    return MixedComplex(direction, gens, mats)


@pytest.mark.parametrize("seed", range(40))
def test_random_pure_complexes_match_field_ranks(seed):
    rng = random.Random(seed)
    for ring in RingTag:
        for direction in Direction:
            _check(_random_complex(rng, ring, direction))
