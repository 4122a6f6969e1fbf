"""Matrix ranks over fields, computed without the Smith engine.

These are the oracle for the group ``complexes.homology`` reads off the
invariant factors of a pure complex's differentials.  Over Q, the rank
of an integer matrix is the number of its invariant factors; over F_p it
is the number of those that p does not divide.  So, for a complex of
free generators, the free rank in a degree is n - rank_Q(d_out) -
rank_Q(d_in), and the number of torsion factors divisible by p is
rank_Q(d_in) - rank_p(d_in).

``rank_mod2`` eliminates over F2 on rows held as Python-int bitsets;
``rank_mod`` eliminates over F_p on dense rows.  ``rank_q`` is the rank
mod the prime 2**61 - 1: it can fall below the rank over Q only if the
prime divides every nonzero maximal minor, which the small matrices of
the tests never come near.
"""

from __future__ import annotations

LARGE_PRIME = 2**61 - 1


def rank_mod2(rows) -> int:
    """Rank over F2 of integer rows: each row a bitset of its odd entries,
    reduced against the pivots kept so far by xor."""
    pivots = {}     # lowest set bit -> row holding it as its lowest bit
    for row in rows:
        x = sum(1 << j for j, a in enumerate(row) if a % 2)
        while x:
            low = x & -x
            if low not in pivots:
                pivots[low] = x
                break
            x ^= pivots[low]
    return len(pivots)


def rank_mod(rows, p: int) -> int:
    """Rank over F_p of integer rows, by Gaussian elimination."""
    m = [[a % p for a in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], -1, p)
        prow = [a * inv % p for a in m[rank]]
        m[rank] = prow
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(m[i], prow)]
        rank += 1
    return rank


def rank_q(rows) -> int:
    """Rank over Q, as the rank mod LARGE_PRIME."""
    return rank_mod(rows, LARGE_PRIME)
