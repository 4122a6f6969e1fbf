import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldcob.intmat import (IntMatrix, cokernel_is_trivial, diagonal,
                            smith_normal_form, snf_with_inverses)


def frac_det(m: IntMatrix) -> Fraction:
    """Independent determinant via fraction-free Gaussian elimination."""
    assert m.rows == m.cols
    n = m.rows
    a = [[Fraction(x) for x in row] for row in m.entries]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def frac_rank(m: IntMatrix) -> int:
    a = [[Fraction(x) for x in row] for row in m.entries]
    rank = 0
    col = 0
    for col in range(m.cols):
        pivot = next((r for r in range(rank, m.rows) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        for r in range(m.rows):
            if r != rank and a[r][col] != 0:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


matrices = st.integers(1, 8).flatmap(
    lambda r: st.integers(1, 8).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-5, 5), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_snf_contract(rows):
    m = IntMatrix.from_rows(rows)
    u, s, v, uinv, vinv = snf_with_inverses(m)
    assert u.mul(m).mul(v) == s
    assert u.mul(uinv) == IntMatrix.identity(m.rows)
    assert v.mul(vinv) == IntMatrix.identity(m.cols)
    assert abs(frac_det(u)) == 1
    assert abs(frac_det(v)) == 1
    diag = diagonal(s)
    for i in range(s.rows):
        for j in range(s.cols):
            if i != j:
                assert s.entries[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert sum(1 for d in diag if d != 0) == frac_rank(m)


def int_det(rows):
    """Determinant by the permutation expansion (the matrices here are tiny)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def determinantal_divisor(rows, k):
    """gcd of all k x k minors (0 when they all vanish)."""
    g = 0
    for r in itertools.combinations(range(len(rows)), k):
        for c in itertools.combinations(range(len(rows[0])), k):
            g = math.gcd(g, int_det([[rows[i][j] for j in c] for i in r]))
    return g


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-4, 4), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_snf_matches_determinantal_divisors(rows):
    # d1 * ... * dk is the gcd of the k x k minors, an invariant that needs
    # no elimination at all
    _, s, _, _, _ = snf_with_inverses(IntMatrix.from_rows(rows))
    product = 1
    for k, d in enumerate(diagonal(s), start=1):
        product *= d
        assert product == determinantal_divisor(rows, k)


def test_snf_identity_and_zero():
    i3 = IntMatrix.identity(3)
    u, s, v = smith_normal_form(i3)
    assert s == i3
    z = IntMatrix.zero(2, 3)
    u, s, v = smith_normal_form(z)
    assert s == z
    assert u == IntMatrix.identity(2)
    assert v == IntMatrix.identity(3)


def test_snf_dense_wide_matrix():
    # regression: naive remainder-swap elimination blew up on this one
    m = IntMatrix.from_rows([
        [0, 3, -3, -4, 4, 2, -3], [4, 1, 5, 5, 1, 3, 2],
        [5, 0, 2, 2, 5, 5, -2], [3, 4, -2, -5, 0, 0, 0],
        [-5, 3, -3, -1, 4, -3, 1], [4, -1, 2, -4, -4, 3, -5],
        [-4, -2, -3, -5, -1, -5, 2], [0, -3, -3, 5, 2, 0, 3]])
    u, s, v, uinv, vinv = snf_with_inverses(m)
    assert diagonal(s) == [1, 1, 1, 1, 1, 1, 1]
    assert u.mul(m).mul(v) == s
    assert uinv.mul(u) == IntMatrix.identity(8)
    assert vinv.mul(v) == IntMatrix.identity(7)


def _random_rows(rng, nr, nc, entry):
    return [[entry(rng) for _ in range(nc)] for _ in range(nr)]


def _dense(rng):
    return rng.randint(-3, 3)


def _sparse(rng):
    # +-1 with probability 0.2, else 0
    return rng.choice((-1, 1)) if rng.random() < 0.2 else 0


def _transform_bits(rows):
    """Check the SNF contract on rows; the largest bit length of an entry
    of u, v, u^-1 or v^-1."""
    m = IntMatrix.from_rows(rows)
    u, s, v, uinv, vinv = snf_with_inverses(m)
    assert u.mul(m).mul(v) == s
    assert u.mul(uinv) == IntMatrix.identity(m.rows)
    assert v.mul(vinv) == IntMatrix.identity(m.cols)
    return max(abs(x).bit_length()
               for t in (u, v, uinv, vinv) for row in t.entries for x in row)


# Coefficient growth: Bezout recombination of rows multiplies them by the
# pivot's cofactors and gave transforms of thousands of bits on these
# (tens of thousands on the sparse one); a Euclidean reduction keeps
# every remainder at most half the pivot.
@pytest.mark.parametrize("n, entry, seed", [(26, _dense, 1), (60, _sparse, 1)])
def test_snf_transform_bits_bounded_large(n, entry, seed):
    rows = _random_rows(random.Random(seed), n, n, entry)
    assert _transform_bits(rows) <= 2048


def test_snf_transform_bits_bounded_small():
    rng = random.Random(2024)
    worst = max(_transform_bits(_random_rows(rng, rng.randint(1, 12),
                                             rng.randint(1, 12), _dense))
                for _ in range(300))
    assert worst <= 128


def test_snf_frozen_example():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    u, s, v = smith_normal_form(m)
    assert diagonal(s) == [2, 4]
    assert u.mul(m).mul(v) == s


def test_cokernel():
    assert cokernel_is_trivial(IntMatrix.identity(3))
    assert not cokernel_is_trivial(IntMatrix.from_rows([[2]]))
    assert not cokernel_is_trivial(IntMatrix.zero(2, 1))
    assert cokernel_is_trivial(IntMatrix.zero(0, 3))


def test_shape_errors():
    with pytest.raises(ValueError):
        IntMatrix(1, 2, ((1,),))
    with pytest.raises(ValueError):
        IntMatrix.identity(2).mul(IntMatrix.identity(3))
