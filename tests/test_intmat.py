import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldcob.complexes import Direction, RingTag, make_complex
from foldcob.intmat import (IntMatrix, cokernel_is_trivial, diagonal,
                            from_columns, snf_with_inverses)


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
    u, s, v, _, _ = snf_with_inverses(i3)
    assert s == i3
    z = IntMatrix.zero(2, 3)
    u, s, v, _, _ = snf_with_inverses(z)
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
    u, s, v, _, _ = snf_with_inverses(m)
    assert diagonal(s) == [2, 4]
    assert u.mul(m).mul(v) == s


def test_cokernel():
    assert cokernel_is_trivial(IntMatrix.identity(3))
    assert not cokernel_is_trivial(IntMatrix.from_rows([[2]]))
    assert not cokernel_is_trivial(IntMatrix.zero(2, 1))
    assert cokernel_is_trivial(IntMatrix.zero(0, 3))


def test_non_integer_entries_are_refused():
    # int() would truncate 1.5 to 1 and turn "3" into 3, and it raises on
    # None, "a" and inf: all are refused, naming the entry's row and column
    for bad, where in (([[1.5]], "row 0, column 0"),
                       ([[1, 2], [3, "3"]], "row 1, column 1"),
                       ([[1, None]], "row 0, column 1"),
                       ([[0], ["a"]], "row 1, column 0"),
                       ([[float("inf")]], "row 0, column 0")):
        with pytest.raises(ValueError, match=where):
            IntMatrix.from_rows(bad)
    with pytest.raises(ValueError, match="row 1, column 0"):
        from_columns([(1, 2.5), (0, 0)], 2)
    with pytest.raises(ValueError, match="row 0, column 0"):
        make_complex(Direction.HOMOLOGICAL,
                     [[("x", RingTag.FREE)], [("y", RingTag.FREE)]],
                     [{"y": {"x": 1.5}}])
    # entries equal to their int() are kept, as ints
    assert_identical(IntMatrix.from_rows([[1.0, True, -2]]),
                     IntMatrix(1, 3, ((1, 1, -2),)))
    assert_identical(from_columns([[2.0], [False]], 1),
                     IntMatrix(1, 2, ((2, 0),)))


def test_shape_errors():
    with pytest.raises(ValueError):
        IntMatrix(1, 2, ((1,),))
    with pytest.raises(ValueError, match="shape mismatch in matrix product"):
        IntMatrix.identity(2).mul(IntMatrix.identity(3))
    with pytest.raises(ValueError, match="shape mismatch in matrix product"):
        IntMatrix.zero(2, 0).mul(IntMatrix.zero(1, 2))
    with pytest.raises(ValueError, match="vector length mismatch"):
        IntMatrix.identity(2).apply((1, 0, 0))
    with pytest.raises(ValueError, match="vector length mismatch"):
        IntMatrix.zero(3, 0).apply((0,))
    with pytest.raises(ValueError, match="column length mismatch"):
        from_columns([(1, 2), (3,)], 2)
    with pytest.raises(ValueError, match="column length mismatch"):
        from_columns([(1, 2, 3)], 2)


# Differential tests of the zero-skipping kernels against the index-by-index
# loops they replaced, on sparse, dense and big-integer entries and on
# shapes with no rows or no columns.

def naive_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    data = tuple(tuple(sum(a.entries[i][k] * b.entries[k][j]
                           for k in range(a.cols))
                       for j in range(b.cols))
                 for i in range(a.rows))
    return IntMatrix(a.rows, b.cols, data)


def naive_apply(m: IntMatrix, vec):
    return tuple(sum(m.entries[i][j] * vec[j] for j in range(m.cols))
                 for i in range(m.rows))


def naive_columns(m: IntMatrix):
    return [tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols)]


def naive_from_columns(cols, rows):
    data = tuple(tuple(int(c[i]) for c in cols) for i in range(rows))
    return IntMatrix(rows, len(cols), data)


ENTRIES = {
    "sparse": st.integers(-9, 9).map(lambda x: x if abs(x) == 1 else 0),
    "dense": st.integers(-5, 5),
    "big": st.integers(-(1 << 130), 1 << 130),
}


def int_matrices(nr, nc):
    """An nr x nc matrix of one entry kind, with some rows zeroed."""
    def build(kind):
        return st.tuples(
            st.lists(st.lists(ENTRIES[kind], min_size=nc, max_size=nc),
                     min_size=nr, max_size=nr),
            st.lists(st.booleans(), min_size=nr, max_size=nr),
        ).map(lambda rz: IntMatrix(nr, nc, tuple(
            (0,) * nc if zero else tuple(row) for row, zero in zip(*rz))))
    return st.sampled_from(sorted(ENTRIES)).flatmap(build)


dims = st.integers(0, 7)


def assert_identical(got: IntMatrix, want: IntMatrix):
    assert got == want
    assert type(got.entries) is tuple
    assert all(type(row) is tuple for row in got.entries)
    assert all(type(x) is int for row in got.entries for x in row)


@settings(max_examples=300, deadline=None)
@given(st.data(), dims, dims, dims)
def test_mul_matches_naive(data, n, k, m):
    a = data.draw(int_matrices(n, k))
    b = data.draw(int_matrices(k, m))
    assert_identical(a.mul(b), naive_mul(a, b))


@settings(max_examples=300, deadline=None)
@given(st.data(), dims, dims)
def test_apply_matches_naive(data, nr, nc):
    m = data.draw(int_matrices(nr, nc))
    vec = data.draw(int_matrices(1, nc)).entries[0]
    got = m.apply(vec)
    assert got == naive_apply(m, vec)
    assert type(got) is tuple
    assert m.apply(list(vec)) == got


@settings(max_examples=300, deadline=None)
@given(st.data(), dims, dims)
def test_columns_and_from_columns_match_naive(data, nr, nc):
    m = data.draw(int_matrices(nr, nc))
    cols = m.columns()
    assert cols == naive_columns(m)
    assert all(type(c) is tuple for c in cols)
    assert_identical(from_columns(cols, nr), m)
    as_lists = [list(c) for c in cols]
    assert_identical(from_columns(as_lists, nr), naive_from_columns(as_lists, nr))


def test_kernels_on_empty_shapes():
    for nr, nc in ((0, 0), (0, 4), (4, 0)):
        z = IntMatrix.zero(nr, nc)
        assert z.columns() == [()] * nc
        assert from_columns(z.columns(), nr) == z
        assert z.apply((0,) * nc) == (0,) * nr
        assert z.mul(IntMatrix.zero(nc, 3)) == IntMatrix.zero(nr, 3)
        assert IntMatrix.zero(3, nr).mul(z) == IntMatrix.zero(3, nc)
