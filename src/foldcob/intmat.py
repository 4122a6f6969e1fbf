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

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        data = tuple(
            tuple(sum(self.entries[i][k] * other.entries[k][j]
                      for k in range(self.cols))
                  for j in range(other.cols))
            for i in range(self.rows))
        return IntMatrix(self.rows, other.cols, data)

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
        return [self.column(j) for j in range(self.cols)]

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(self.entries[i][j] * vec[j] for j in range(self.cols))
                     for i in range(self.rows))

    def submatrix(self, row_idx, col_idx):
        data = tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        return IntMatrix(len(row_idx), len(col_idx), data)

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)


def from_columns(cols, rows):
    """Build a matrix from a list of column vectors (rows = row count)."""
    data = tuple(tuple(int(c[i]) for c in cols) for i in range(rows))
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
            r[j] -= q * r[i]

    def col_swap(self, i, j):
        for r in self.s:
            r[i], r[j] = r[j], r[i]
        for r in self.v:
            r[i], r[j] = r[j], r[i]
        self.vinv[i], self.vinv[j] = self.vinv[j], self.vinv[i]

    def col_neg(self, i):
        for r in self.s:
            r[i] = -r[i]
        for r in self.v:
            r[i] = -r[i]
        self.vinv[i] = [-x for x in self.vinv[i]]

    def col_add(self, i, j, q):
        # col i += q * col j
        for r in self.s:
            r[i] += q * r[j]
        for r in self.v:
            r[i] += q * r[j]
        self.vinv[j] = [a - q * b for a, b in zip(self.vinv[j], self.vinv[i])]

    def row_combine(self, i, j, a, b, c, d):
        # rows (i, j) <- (a*ri + b*rj, c*ri + d*rj); needs a*d - b*c == 1
        for rows in (self.s, self.u):
            rows[i], rows[j] = (
                [a * x + b * y for x, y in zip(rows[i], rows[j])],
                [c * x + d * y for x, y in zip(rows[i], rows[j])])
        for r in self.uinv:
            r[i], r[j] = d * r[i] - c * r[j], -b * r[i] + a * r[j]

    def col_combine(self, i, j, a, b, c, d):
        # cols (i, j) <- (a*ci + b*cj, c*ci + d*cj); needs a*d - b*c == 1
        for rows in (self.s, self.v):
            for r in rows:
                r[i], r[j] = a * r[i] + b * r[j], c * r[i] + d * r[j]
        self.vinv[i], self.vinv[j] = (
            [d * x - c * y for x, y in zip(self.vinv[i], self.vinv[j])],
            [-b * x + a * y for x, y in zip(self.vinv[i], self.vinv[j])])


def _xgcd(a, b):
    """(g, x, y) with x*a + y*b == g == gcd(a, b) (g may be negative)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _reduce(w: _Work):
    nr, nc = w.nr, w.nc
    t = 0
    while t < min(nr, nc):
        # locate a pivot in the remaining block
        best = next(((i, j) for i in range(t, nr) for j in range(t, nc)
                     if w.s[i][j] != 0), None)
        if best is None:
            break
        if best[0] != t:
            w.row_swap(t, best[0])
        if best[1] != t:
            w.col_swap(t, best[1])
        while True:
            # gcd-eliminate column t, then row t; column elimination by a
            # general unimodular combine can dirty column t again, but
            # only while |pivot| strictly shrinks, so this terminates
            for i in range(t + 1, nr):
                x = w.s[i][t]
                if x != 0:
                    p = w.s[t][t]
                    if x % p == 0:
                        w.row_add(i, t, -(x // p))
                    else:
                        g, a, b = _xgcd(p, x)
                        if g < 0:
                            g, a, b = -g, -a, -b
                        w.row_combine(t, i, a, b, -(x // g), p // g)
            for j in range(t + 1, nc):
                x = w.s[t][j]
                if x != 0:
                    p = w.s[t][t]
                    if x % p == 0:
                        w.col_add(j, t, -(x // p))
                    else:
                        g, a, b = _xgcd(p, x)
                        if g < 0:
                            g, a, b = -g, -a, -b
                        w.col_combine(t, j, a, b, -(x // g), p // g)
            if (all(w.s[i][t] == 0 for i in range(t + 1, nr))
                    and all(w.s[t][j] == 0 for j in range(t + 1, nc))):
                break
        # force divisibility towards the rest of the block
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if w.s[i][j] % w.s[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            w.row_add(t, offender, 1)
            continue
        if w.s[t][t] < 0:
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
