"""Reference Smith reduction on dense rows, one index per entry, and the
dense homology built on it.

This is the elimination the library runs, with the same elementary
operations in the same order and the same least-|pivot| rule, but every
matrix is a list of dense rows and every operation walks whole rows and
columns.  The library keeps its workspace sparse; the differential tests
require the two to return the same five matrices entry for entry.

``homology``, ``_lift`` and ``express_class`` below compute the
library's presentations and classes densely: both transforms of both
reductions scattered into dense matrices, and the coordinate rows a
presentation holds formed as the dense product u2 * to_cycle at the kept
positions, torsion rows mod their modulus.  ``express_class`` does not
read those rows: it takes its own two dense products, u2 * (to_cycle *
lift), so the classes check the library's composed rows independently.
The library reads only the transforms it needs and keeps them sparse;
the differential tests require the same presentation, field for field,
and the same classes.
"""

from __future__ import annotations

from foldcob.complexes import (AbelianGroupPresentation, ComplexError,
                               MixedComplex, NotACycleError, RingTag,
                               _check_degree)
from foldcob.intmat import IntMatrix, diagonal, from_columns


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


def relations(cx: MixedComplex, deg: int) -> IntMatrix:
    """Columns 2e for each TWO_TORSION generator of the degree."""
    n = cx.n(deg)
    return from_columns([[2 if i == t else 0 for i in range(n)]
                         for t in cx.torsion_indices(deg)], n)


def _lift(cx: MixedComplex, deg: int, x):
    """x followed by y with d_out x + 2y = 0 on the torsion targets.

    This is the unique preimage of x in the kernel of [d_out | relations];
    None when x is not a cycle, that is when d_out x has a nonzero free
    entry or an odd torsion entry.
    """
    out = cx.out_diff(deg)
    if out is None:
        return tuple(x)
    d_out, tgt = out
    y = []
    for g, e in zip(cx.generators[tgt], d_out.apply(x)):
        if g.ring is RingTag.TWO_TORSION and e % 2 == 0:
            y.append(-e // 2)
        elif e != 0:
            return None
    return tuple(x) + tuple(y)


def homology(cx: MixedComplex, deg: int) -> AbelianGroupPresentation:
    """Homology (or cohomology, per direction) at the given degree.

    Two Smith reductions: one of [d_out | relations], whose kernel columns
    of v are the cycle lattice and whose matching rows of v^-1 give the
    coordinates of any cycle in it, and one of the boundaries written in
    those coordinates.  Nothing is cached.
    """
    return _homology(cx, deg)[0]


def _homology(cx: MixedComplex, deg: int):
    """(presentation, to_cycle, u2, kept (position, modulus) pairs)."""
    _check_degree(cx, deg)
    n = cx.n(deg)
    out = cx.out_diff(deg)
    if out is None:
        stacked = IntMatrix.zero(0, n)
    else:
        d_out, tgt = out
        stacked = d_out.hstack(relations(cx, tgt))
    _, s, v, _, vinv = snf_with_inverses(stacked)
    diag = diagonal(s)
    ker = [j for j in range(stacked.cols) if j >= len(diag) or diag[j] == 0]
    # u*m*v = s makes every other coordinate of a kernel vector vanish, and
    # dropping the relation rows is injective on the kernel
    k_basis = v.submatrix(range(n), ker)
    to_cycle = vinv.submatrix(ker, range(stacked.cols))
    inn = cx.in_diff(deg)
    b = relations(cx, deg)
    if inn is not None:
        b = inn[0].hstack(b)
    lifts = [_lift(cx, deg, col) for col in b.columns()]
    if None in lifts:
        raise ComplexError("image does not lie in the cycle lattice")
    y = to_cycle.mul(from_columns(lifts, stacked.cols))
    u2, s2, _, u2inv, _ = snf_with_inverses(y)
    diag = diagonal(s2)
    free_pos, tors_pos = [], []
    for i in range(len(ker)):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            free_pos.append((i, 0))
        elif d >= 2:
            tors_pos.append((i, d))
    positions = tuple(free_pos + tors_pos)
    basis_mat = k_basis.mul(u2inv).columns()
    cycles = tuple(basis_mat[i] for i, _ in positions)
    coord_mat = u2.mul(to_cycle).entries
    rows = []
    for i, d in positions:
        row = [x % d if d else x for x in coord_mat[i]]
        rows.append((d, tuple((j, x) for j, x in enumerate(row) if x)))
    pres = AbelianGroupPresentation(
        free_rank=len(free_pos),
        torsion=tuple(d for _, d in tors_pos),
        basis_cycles=cycles,
        coord_rows=tuple(rows))
    return pres, to_cycle, u2, positions


def express_class(cx: MixedComplex, deg: int, cycle) -> tuple[int, ...]:
    """Coordinates of a cycle's class in the basis of ``homology`` above."""
    _, to_cycle, u2, positions = _homology(cx, deg)
    if len(cycle) != cx.n(deg):
        raise ComplexError(f"vector has {len(cycle)} entries, degree {deg} "
                           f"has {cx.n(deg)} generators")
    lifted = _lift(cx, deg, cycle)
    if lifted is None:
        raise NotACycleError("vector is not a cycle at this degree")
    u = u2.apply(to_cycle.apply(lifted))
    return tuple(u[i] if d == 0 else u[i] % d for i, d in positions)
