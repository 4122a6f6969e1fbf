#!/usr/bin/env python3
"""Generate random Reeb graphs, reduce them, and report the invariants.

Usage: python3 scripts/random_graph_demo.py [--seeds N] [--size K]

For each seed we build one orientable and one non-orientable graph,
compute the cobordism invariants, reduce to normal form, and check that
the canonical representative realises the same invariants.  Prints a
histogram of (z, w) classes seen.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from foldcob.diagrams import cusp_count_closed, from_reeb
from foldcob.reeb import (Category, invariants, random_reeb,
                          reduce_to_normal_form)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--size", type=int, default=10)
    args = ap.parse_args()

    hist = Counter()
    for seed in range(args.seeds):
        for cat in (Category.ORIENTED, Category.UNORIENTED):
            g = random_reeb(seed, args.size, cat.oriented)
            inv = invariants(g, cat)
            res = reduce_to_normal_form(g, cat)
            canon_inv = invariants(res.canonical, cat)
            if (canon_inv.z, canon_inv.w) != (inv.z, inv.w):
                sys.exit(f"error: seed {seed}, {cat.value}: the normal form "
                         "has other invariants")
            hist[(cat.name, inv.z, inv.w)] += 1
            if cat is Category.ORIENTED:
                # the closed cusp count of the sweep diagram equals z
                cusp = cusp_count_closed(from_reeb(g))
                if cusp.count != inv.z or cusp.cross_check != "ok":
                    sys.exit(f"error: seed {seed}: the closed cusp count "
                             "differs from z")

    print(f"{args.seeds} seeds, size {args.size}: all reductions consistent")
    for (cat, z, w), n in sorted(hist.items()):
        print(f"  {cat:10s} z={z:+d} w={w}  x{n}")


if __name__ == "__main__":
    main()
