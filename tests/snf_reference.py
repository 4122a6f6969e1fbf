"""Reference Smith reduction on dense rows, one index per entry.

This is the elimination the library runs, with the same elementary
operations in the same order and the same least-|pivot| rule, but every
matrix is a list of dense rows and every operation walks whole rows and
columns.  The library keeps its workspace sparse; the differential tests
require the two to return the same five matrices entry for entry.
"""

from __future__ import annotations

from foldcob.intmat import IntMatrix


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
