"""Exact integer matrices and Smith normal form.

Everything here runs over Python's unbounded integers; no floating
point is used anywhere in the algebra core.

``IntMatrix`` is an immutable tuple of dense rows.  A differential of a
complex is built from its nonzeros instead (``IntMatrix._of_columns``):
its columns, as (row, nonzero) pairs, are kept as the ``sparse_columns``
cache and scattered once into the dense rows, which it still holds and
compares by, so it equals the matrix ``from_rows`` builds from those
rows.  ``_column_rows`` reads its sparse rows off those columns in
O(nonzeros); ``_sparse_rows`` reads them off the dense rows, for the
dense-born input of ``snf_with_inverses``.

The Smith reduction is Euclidean with a least-|pivot| rule (after
Kannan-Bachem and Havas-Majewski-Matthews), so coefficients stay small,
and works on sparse vectors: s, u and v^-1 as lists of sparse rows,
v and u^-1 as lists of sparse columns, each a dict {index: nonzero}.
Every elementary row or column operation moves whole rows of the first
three and whole columns of the other two, so it is one sparse
a += q*b, a list swap or a negation per matrix, and costs only the
nonzeros it touches.  Pivots depend on s alone, so ``_smith`` tracks
only the sides its caller reads, and an untracked side holds nothing and
costs no call: homology's reduction of a differential beside its torsion
relations tracks v^-1 and v, its reduction of the boundaries in cycle
coordinates u and u^-1, ``cokernel_is_trivial`` neither.  Homology reads
v only in the n coordinates of its complex, not in those of the
relations, so it keeps v's first n rows only: a column operation acts on
each row of v on its own, and those rows come out as in the full v.
``_smith`` takes its input as sparse rows, which homology builds
directly; ``snf_with_inverses`` tracks both sides in full and scatters
the five results into dense rows once, at the end.

The reduction also visits only the rows of s that can be nonzero where
it works.  At step t the rows above t are zero from column t on, so a
column operation starts at row t.  Below t, after an elimination pass
down column t, exactly the rows left with a nonzero remainder can be
nonzero there; a row swap exchanges row t with one of them and keeps
that set, and a column swap, which visits every row from t on anyway,
returns the rows nonzero in the column it brings in.  A pivot of +-1
divides exactly: each quotient is the entry times the pivot, no
remainder is left, and the pivot's row and column are cleared in one
pass each, with no division.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property


class IntMatrix(namedtuple("IntMatrix", "rows cols entries")):
    # no __slots__: the instance dict holds ``sparse_columns``, cached on
    # first read or stored by ``_of_columns``

    def __new__(cls, rows, cols, entries):
        if len(entries) != rows:
            raise ValueError("row count mismatch")
        for row in entries:
            if len(row) != cols:
                raise ValueError("column count mismatch")
        return tuple.__new__(cls, (rows, cols, entries))

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds its copy here: check its shape too
        return cls(*iterable)

    @staticmethod
    def from_rows(rows, cols=None):
        rows = [_int_row(r, i) for i, r in enumerate(rows)]
        if cols is None:
            if not rows:
                raise ValueError("cannot infer column count of empty matrix")
            cols = len(rows[0])
        return IntMatrix(len(rows), cols, tuple(rows))

    @staticmethod
    def _of_columns(rows, columns):
        """The rows x len(columns) matrix whose columns are ``columns``, a
        tuple of tuples of (row, nonzero int) pairs in row order, as
        ``sparse_columns`` gives them.  They are kept as that cache and
        scattered once into the dense rows."""
        zero = [0] * len(columns)
        data = [zero.copy() for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, x in col:
                data[i][j] = x
        m = IntMatrix(rows, len(columns), tuple(map(tuple, data)))
        m.__dict__["sparse_columns"] = columns
        return m

    @staticmethod
    def zero(rows, cols):
        return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n):
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n))
                                     for i in range(n)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        # each output row is the sum of a * (row k of other) over the
        # nonzero entries a = self[i][k]; the matrices here are mostly zeros
        zero = (0,) * other.cols
        data = []
        for row in self.entries:
            acc = zero
            for a, brow in zip(row, other.entries):
                if a:
                    acc = [x + a * y for x, y in zip(acc, brow)]
            data.append(tuple(acc))
        return IntMatrix(self.rows, other.cols, tuple(data))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(self.columns()))

    def mod2(self) -> "IntMatrix":
        data = tuple(tuple(x % 2 for x in row) for row in self.entries)
        return IntMatrix(self.rows, self.cols, data)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        data = tuple(self.entries[i] + other.entries[i] for i in range(self.rows))
        return IntMatrix(self.rows, self.cols + other.cols, data)

    def columns(self):
        if not self.rows:
            return [()] * self.cols
        return list(zip(*self.entries))

    @cached_property
    def sparse_columns(self):
        """Each column as a tuple of its (row, nonzero) pairs, built once
        per matrix."""
        return tuple(tuple((i, x) for i, x in enumerate(col) if x)
                     for col in self.columns())

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        nonzero = [(j, x) for j, x in enumerate(vec) if x]
        return tuple(sum(row[j] * x for j, x in nonzero) for row in self.entries)

    def submatrix(self, row_idx, col_idx):
        data = tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        return IntMatrix(len(row_idx), len(col_idx), data)


def _int_row(row, i=None):
    """Row i as a tuple of ints; ValueError naming the row and column of
    the first entry that int() would change or refuses, such as 1.5, "3"
    or None.  A vector, with no i, names the entry by its index alone."""
    row = tuple(row)
    if {*map(type, row)} <= {int}:    # exact ints, as int() returns them
        return row
    try:
        ints = tuple(map(int, row))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != row:    # one comparison for the whole row
        # entry by entry, which raises at the first that int() would change
        return tuple(_int_entry(x, i, j) for j, x in enumerate(row))
    return ints


def _int_entry(x, i, j):
    """The entry x at row i, column j as an int, or a ValueError naming it
    if int() would change or refuses it; with no i, x is entry j of a
    vector."""
    if type(x) is int:
        return x
    if not _is_int(x):
        at = f"{j}" if i is None else f"at row {i}, column {j}"
        raise ValueError(f"entry {at} is not an integer: {x!r}")
    return int(x)


def _is_int(x):
    """Whether int() keeps x's value."""
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):
        return False


def from_columns(cols, rows):
    """Build a matrix from a list of column vectors (rows = row count)."""
    if any(len(c) != rows for c in cols):
        raise ValueError("column length mismatch")
    if not cols:
        return IntMatrix.zero(rows, 0)
    data = tuple(_int_row(r, i) for i, r in enumerate(zip(*cols)))
    return IntMatrix(rows, len(cols), data)


def _axpy(a, b, q):
    """a += q * b on sparse vectors, dropping the entries that cancel."""
    for k, x in b.items():
        y = a.get(k, 0) + q * x
        if y:
            a[k] = y
        else:
            del a[k]


class _Work:
    """Sparse workspace for the Smith reduction with transform tracking.

    Every vector is a dict {index: nonzero}.  s, u and v^-1 are lists of
    sparse rows; v and u^-1 are lists of sparse columns.  A row operation
    on s is the same operation on the rows of u and the inverse one on the
    columns of u^-1; a column operation on s is the same operation on the
    columns of v and the inverse one on the rows of v^-1.  So each matrix
    is stored along the vectors its operations move: an addition is one
    sparse a += q*b, a swap is a list swap and a negation a loop over one
    vector's nonzeros, and none of them reads an entry that is zero.  Only
    the column operations on s cross its rows, a lookup or two per row:
    the rows an addition is given, and for a swap of columns t < j the
    rows from t on.
    An untracked side is None (u and u^-1 unless ``u``; v and v^-1 when
    ``v`` is None) and no operation touches it.  v keeps only its rows
    < ``v``: a column operation acts on each row of v on its own, so v's
    columns start as the first ``v`` rows of the identity, and those rows
    come out as they would in the full v.
    """

    def __init__(self, rows, nc, u: bool, v: int | None):
        self.nr, self.nc = len(rows), nc
        self.s = rows
        self.u = self.uinv = self.v = self.vinv = None
        if u:
            self.u = [{i: 1} for i in range(self.nr)]
            self.uinv = [{i: 1} for i in range(self.nr)]
        if v is not None:
            self.v = [{j: 1} if j < v else {} for j in range(nc)]
            self.vinv = [{j: 1} for j in range(nc)]

    def diagonal(self):
        return [self.s[i].get(i, 0) for i in range(min(self.nr, self.nc))]

    def row_swap(self, i, j):
        s = self.s
        s[i], s[j] = s[j], s[i]
        if self.u is not None:
            for rows in (self.u, self.uinv):
                rows[i], rows[j] = rows[j], rows[i]

    def row_neg(self, i):
        vecs = (self.s[i],) if self.u is None else (
            self.s[i], self.u[i], self.uinv[i])
        for vec in vecs:
            for k in vec:
                vec[k] = -vec[k]

    def row_add(self, i, j, q):
        # row i += q * row j, so column j of u^-1 -= q * column i
        _axpy(self.s[i], self.s[j], q)
        if self.u is not None:
            _axpy(self.u[i], self.u[j], q)
            _axpy(self.uinv[j], self.uinv[i], -q)

    def col_swap(self, t, j):
        """Swap columns t < j; return, in order, the rows below t that are
        then nonzero in column t.  Rows above t are zero from column t on,
        so neither column is there, and the swap visits only rows from t
        on: the same pass finds those rows."""
        s, below = self.s, []
        for i in range(t, self.nr):
            r = s[i]
            if t in r or j in r:
                a, b = r.pop(t, 0), r.pop(j, 0)
                if a:
                    r[j] = a
                if b:
                    r[t] = b
                    if i > t:
                        below.append(i)
        if self.v is not None:
            for cols in (self.v, self.vinv):
                cols[t], cols[j] = cols[j], cols[t]
        return below

    def col_adds(self, j, ops, rows):
        """col i += ops[i] * col j for every key i of the dict ops (not j).

        None of the additions writes column j, so one pass over ``rows``,
        the indices of the rows of s that are nonzero in column j, does all
        of them: each such row r adds r[j] * ops."""
        for i in rows:
            r = self.s[i]
            _axpy(r, ops, r[j])
        if self.v is not None:
            v, vinv = self.v, self.vinv
            vj = v[j]
            for i, q in ops.items():
                if vj:
                    _axpy(v[i], vj, q)
                _axpy(vinv[j], vinv[i], -q)


def _nearest_quotient(x, p):
    """The integer q nearest to x / p, so that |x - q*p| <= |p| / 2."""
    q, r = divmod(x, p)
    return q + 1 if 2 * abs(r) > abs(p) else q


def _first_offender(s, t, p):
    """The first row below t with an entry that p does not divide, or
    None."""
    for i in range(t + 1, len(s)):
        for x in s[i].values():
            if x % p:
                return i
    return None


def _reduce(w: _Work):
    # Euclidean reduction: the pivot's row and column are cut down to
    # remainders of at most |pivot| / 2, and the least remainder becomes
    # the next pivot, so |pivot| strictly falls and coefficients stay small.
    # Rows from t on are zero left of column t and rows above t are zero
    # from column t on, so "nonempty" below means "nonzero in the block".
    # ``col`` lists, in order, the rows below t that are nonzero in column
    # t: a pass keeps the rows left with a remainder, a row swap moves row
    # t into one of them and so keeps the list, and a column swap returns
    # the list for the column it brings in.  Only a pivot that needs no
    # column swap has its column scanned.
    nr, nc, s = w.nr, w.nc, w.s
    t = 0
    while t < min(nr, nc):
        # pivot: the entry of least (|.|, column) in the first nonzero row of
        # the block
        i = next((i for i in range(t, nr) if s[i]), None)
        if i is None:
            break
        row = s[i]
        j = min(row, key=lambda j: (abs(row[j]), j))
        if i != t:
            w.row_swap(t, i)
        if j != t:
            col = w.col_swap(t, j)
        else:
            col = [i for i in range(t + 1, nr) if t in s[i]]
        while True:
            p = s[t][t]
            if p == 1 or p == -1:
                # a unit divides exactly: each quotient is p*x and leaves
                # no remainder, so the row and column of t end clear
                for i in col:
                    w.row_add(i, t, -p * s[i][t])
                ops = {j: -p * x for j, x in s[t].items() if j != t}
                if ops:
                    w.col_adds(t, ops, [t])
                break
            # a zero quotient (|entry| <= |p| / 2) would add nothing
            rest = []
            for i in col:
                x = s[i][t]
                q = _nearest_quotient(x, p)
                if q:
                    w.row_add(i, t, -q)
                    x -= q * p
                if x:
                    rest.append((abs(x), i, t))
            col = [i for _, i, _ in rest]
            ops = {j: -q for j, x in s[t].items()
                   if j != t and (q := _nearest_quotient(x, p))}
            if ops:
                w.col_adds(t, ops, [t] + col)
            rest += [(abs(x), t, j) for j, x in s[t].items() if j != t]
            if not rest:
                break
            _, i, j = min(rest)
            if i != t:
                w.row_swap(t, i)
            else:
                col = w.col_swap(t, j)
        # force divisibility towards the rest of the block (a unit divides
        # everything)
        p = s[t][t]
        offender = None if p == 1 or p == -1 else _first_offender(s, t, p)
        if offender is not None:
            w.row_add(t, offender, 1)
            continue
        if p < 0:
            w.row_neg(t)
        t += 1


def _dense(vecs, n):
    """Sparse vectors of length n, each scattered into a tuple of zeros."""
    out = []
    for vec in vecs:
        full = [0] * n
        for k, x in vec.items():
            full[k] = x
        out.append(tuple(full))
    return tuple(out)


def _sparse_rows(m: IntMatrix):
    """The rows of m as new dicts {column: nonzero}, read off its dense
    rows."""
    return [{j: x for j, x in enumerate(row) if x} for row in m.entries]


def _column_rows(m: IntMatrix):
    """The rows of m as new dicts {column: nonzero}, read off its sparse
    columns in O(nonzeros), in the order ``_sparse_rows`` gives."""
    rows = [{} for _ in range(m.rows)]
    for j, col in enumerate(m.sparse_columns):
        for i, x in col:
            rows[i][j] = x
    return rows


def _smith(rows, nc, u=False, v=None) -> _Work:
    """The matrix with the sparse ``rows`` (taken over and reduced in
    place) and nc columns reduced to s = diag(d1 | d2 | ...) in a sparse
    workspace that tracks u, u^-1 only if ``u``, and v^-1 and the first
    ``v`` rows of v unless ``v`` is None (``v`` = nc tracks all of v)."""
    w = _Work(rows, nc, u, v)
    _reduce(w)
    return w


def snf_with_inverses(m: IntMatrix):
    """u*m*v = s with s diagonal, d1 | d2 | ..., u, v unimodular.

    Returns (u, s, v, uinv, vinv).
    """
    w = _smith(_sparse_rows(m), m.cols, u=True, v=m.cols)
    nr, nc = w.nr, w.nc
    rows = lambda vecs, n: IntMatrix(len(vecs), n, _dense(vecs, n))
    # v and u^-1 are square and held by columns
    cols = lambda vecs, n: IntMatrix(n, n, tuple(zip(*_dense(vecs, n))))
    return (rows(w.u, nr), rows(w.s, nc), cols(w.v, nc), cols(w.uinv, nr),
            rows(w.vinv, nc))


def diagonal(s: IntMatrix):
    return [s.entries[i][i] for i in range(min(s.rows, s.cols))]


def cokernel_is_trivial(m: IntMatrix) -> bool:
    """True iff Z^rows / im(m) = 0."""
    if m.rows == 0:
        return True
    diag = _smith(_sparse_rows(m), m.cols).diagonal()
    return len(diag) >= m.rows and all(abs(d) == 1 for d in diag[:m.rows])
