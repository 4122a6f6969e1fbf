"""Exact integer matrices and Smith normal form.

Everything here runs over Python's unbounded integers; no floating
point is used anywhere in the algebra core.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

    @staticmethod
    def from_rows(rows, cols=None):
        rows = [tuple(int(x) for x in r) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("cannot infer column count of empty matrix")
            cols = len(rows[0])
        return IntMatrix(len(rows), cols, tuple(rows))

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
        data = tuple(tuple(self.entries[i][j] for i in range(self.rows))
                     for j in range(self.cols))
        return IntMatrix(self.cols, self.rows, data)

    def mod2(self) -> "IntMatrix":
        data = tuple(tuple(x % 2 for x in row) for row in self.entries)
        return IntMatrix(self.rows, self.cols, data)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        data = tuple(self.entries[i] + other.entries[i] for i in range(self.rows))
        return IntMatrix(self.rows, self.cols + other.cols, data)

    def column(self, j):
        return tuple(self.entries[i][j] for i in range(self.rows))

    def columns(self):
        if not self.rows:
            return [()] * self.cols
        return list(zip(*self.entries))

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        nonzero = [(j, x) for j, x in enumerate(vec) if x]
        return tuple(sum(row[j] * x for j, x in nonzero) for row in self.entries)

    def submatrix(self, row_idx, col_idx):
        data = tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        return IntMatrix(len(row_idx), len(col_idx), data)


def from_columns(cols, rows):
    """Build a matrix from a list of column vectors (rows = row count)."""
    if any(len(c) != rows for c in cols):
        raise ValueError("column length mismatch")
    if not cols:
        return IntMatrix.zero(rows, 0)
    data = tuple(tuple(map(int, r)) for r in zip(*cols))
    return IntMatrix(rows, len(cols), data)


class _Work:
    """Mutable workspace for the Smith reduction with transform tracking."""

    def __init__(self, m: IntMatrix):
        self.nr, self.nc = m.rows, m.cols
        self.s = [list(row) for row in m.entries]
        self.u = [[1 if i == j else 0 for j in range(self.nr)] for i in range(self.nr)]
        self.uinv = [row[:] for row in self.u]
        self.v = [[1 if i == j else 0 for j in range(self.nc)] for i in range(self.nc)]
        self.vinv = [row[:] for row in self.v]

    def row_swap(self, i, j):
        self.s[i], self.s[j] = self.s[j], self.s[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for r in self.uinv:
            r[i], r[j] = r[j], r[i]

    def row_neg(self, i):
        self.s[i] = [-x for x in self.s[i]]
        self.u[i] = [-x for x in self.u[i]]
        for r in self.uinv:
            r[i] = -r[i]

    def row_add(self, i, j, q):
        # row i += q * row j
        self.s[i] = [a + q * b for a, b in zip(self.s[i], self.s[j])]
        self.u[i] = [a + q * b for a, b in zip(self.u[i], self.u[j])]
        for r in self.uinv:
            if r[i]:
                r[j] -= q * r[i]

    def col_swap(self, i, j):
        for r in self.s:
            r[i], r[j] = r[j], r[i]
        for r in self.v:
            r[i], r[j] = r[j], r[i]
        self.vinv[i], self.vinv[j] = self.vinv[j], self.vinv[i]

    def col_add(self, i, j, q):
        # col i += q * col j
        for r in self.s:
            if r[j]:
                r[i] += q * r[j]
        for r in self.v:
            if r[j]:
                r[i] += q * r[j]
        self.vinv[j] = [a - q * b for a, b in zip(self.vinv[j], self.vinv[i])]


def _nearest_quotient(x, p):
    """The integer q nearest to x / p, so that |x - q*p| <= |p| / 2."""
    q, r = divmod(x, p)
    return q + 1 if 2 * abs(r) > abs(p) else q


def _reduce(w: _Work):
    # Euclidean reduction: the pivot's row and column are cut down to
    # remainders of at most |pivot| / 2, and the least remainder becomes
    # the next pivot, so |pivot| strictly falls and coefficients stay small
    nr, nc, s = w.nr, w.nc, w.s
    t = 0
    while t < min(nr, nc):
        # pivot: the entry of least |.| in the first nonzero row of the block
        i = next((i for i in range(t, nr) if any(s[i][t:])), None)
        if i is None:
            break
        row = s[i]
        j = min((j for j in range(t, nc) if row[j]), key=lambda j: abs(row[j]))
        if i != t:
            w.row_swap(t, i)
        if j != t:
            w.col_swap(t, j)
        while True:
            p = s[t][t]
            # a zero quotient (|entry| <= |p| / 2) would add nothing
            for i in range(t + 1, nr):
                q = s[i][t] and _nearest_quotient(s[i][t], p)
                if q:
                    w.row_add(i, t, -q)
            for j in range(t + 1, nc):
                q = s[t][j] and _nearest_quotient(s[t][j], p)
                if q:
                    w.col_add(j, t, -q)
            rest = [(abs(s[i][t]), i, t) for i in range(t + 1, nr) if s[i][t]]
            rest += [(abs(s[t][j]), t, j) for j in range(t + 1, nc) if s[t][j]]
            if not rest:
                break
            _, i, j = min(rest)
            if i != t:
                w.row_swap(t, i)
            else:
                w.col_swap(t, j)
        # force divisibility towards the rest of the block (a unit divides
        # everything)
        p = s[t][t]
        offender = None if abs(p) == 1 else next(
            (i for i in range(t + 1, nr) if any(x % p for x in s[i][t + 1:])),
            None)
        if offender is not None:
            w.row_add(t, offender, 1)
            continue
        if p < 0:
            w.row_neg(t)
        t += 1


def snf_with_inverses(m: IntMatrix):
    """u*m*v = s with s diagonal, d1 | d2 | ..., u, v unimodular.

    Returns (u, s, v, uinv, vinv).
    """
    w = _Work(m)
    _reduce(w)
    pack = lambda rows, nr, nc: IntMatrix(nr, nc, tuple(tuple(r) for r in rows))
    return (pack(w.u, w.nr, w.nr), pack(w.s, w.nr, w.nc), pack(w.v, w.nc, w.nc),
            pack(w.uinv, w.nr, w.nr), pack(w.vinv, w.nc, w.nc))


def smith_normal_form(m: IntMatrix):
    """Smith normal form: (u, s, v) with u*m*v = s."""
    u, s, v, _, _ = snf_with_inverses(m)
    return u, s, v


def diagonal(s: IntMatrix):
    return [s.entries[i][i] for i in range(min(s.rows, s.cols))]


def cokernel_is_trivial(m: IntMatrix) -> bool:
    """True iff Z^rows / im(m) = 0."""
    if m.rows == 0:
        return True
    _, s, _ = smith_normal_form(m)
    diag = diagonal(s)
    return len(diag) >= m.rows and all(abs(d) == 1 for d in diag[:m.rows])
