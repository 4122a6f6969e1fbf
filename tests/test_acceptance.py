"""Acceptance battery: one test per criterion, each printing a verdict line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they appear; under plain pytest the captured output is shown on failure.
"""

import sys

import pytest

sys.path.insert(0, "tests")

from foldcob import selftest
from foldcob.diagrams import (algebraic_counts, cusp_count_boundary,
                              cusp_count_closed, disjoint_union_diagrams,
                              from_reeb, reverse)
from foldcob.reeb import (Category, cobordant, invariants, random_reeb,
                          reduce_to_normal_form)

import oracle_cusp


def _verdict(num, label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion-{num}: {label}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, detail or label


def _check(num, label, fn):
    res = selftest._run(label, fn)
    _verdict(num, label, res.ok, res.detail)


def test_criterion_1_catalog_homology():
    _check(1, "catalog homology groups and basis relations",
           selftest.check_catalog_homology)


def test_criterion_2_suspension():
    _check(2, "suspension pullback on degree-1 cohomology",
           selftest.check_suspension)


def test_criterion_3_free_approximation():
    _check(3, "free approximation and hypercohomology comparison",
           selftest.check_free_approximation)


def test_criterion_4_catalog_validity():
    _check(4, "catalog validation, duals, cusp cocycle identities",
           selftest.check_catalog_validity)


def test_criterion_5_random_graph_sweep():
    def body():
        selftest.check_random_sweep(per_category=1000)()
        # cobordance criterion in all four categories
        for cat in Category:
            orientable = cat.oriented
            for seed in range(250):
                g1 = random_reeb(seed, 1 + seed % 12, orientable)
                g2 = random_reeb(seed + 77, 1 + (seed * 3) % 12, orientable)
                a, b = invariants(g1, cat), invariants(g2, cat)
                same = (a.z, a.w) == (b.z, b.w)
                assert cobordant(g1, g2, cat) == same
                r1 = reduce_to_normal_form(g1, cat)
                assert (r1.canonical
                        == reduce_to_normal_form(r1.canonical, cat).canonical)
    _check(5, "property sweep over 1000+ random graphs per category", body)


def test_criterion_6_named_fixtures():
    _check(6, "named surface fixtures and their cobordism classes",
           selftest.check_fixtures)


def test_criterion_7_cusp_oracle():
    def body():
        d1 = oracle_cusp.closed_diagram(2048, 1501)
        d2 = oracle_cusp.closed_diagram(4096, 3001)
        assert d1 == d2, "closed oracle diagram unstable under refinement x2"
        b1 = oracle_cusp.boundary_diagram(2048, 1501)
        b2 = oracle_cusp.boundary_diagram(4096, 3001)
        assert b1 == b2, "boundary oracle diagram unstable under refinement x2"
        closed = cusp_count_closed(d1)
        assert closed.count in (1, -1), f"closed count {closed.count}"
        assert closed.cross_check == "ok"
        bound = cusp_count_boundary(b1)
        assert bound.count in (1, -1), f"boundary count {bound.count}"
        assert bound.cross_check == "ok"
        assert bound.count == closed.count, "variants disagree"
        rev = cusp_count_closed(reverse(d1))
        assert rev.count == -closed.count, "reversal does not negate"
        assert rev.cross_check == "ok"
        # min/max-symmetric diagrams count zero
        for seed in (1, 2, 3):
            d = from_reeb(random_reeb(seed, 10, True))
            sym = disjoint_union_diagrams(d, reverse(d))
            assert cusp_count_closed(sym).count == 0
        counts = algebraic_counts(d1)
        assert -counts["I0_o"] + counts["I0_e"] == closed.count
    _check(7, "numeric germ oracle reproduces the cusp invariant", body)


def test_criterion_8_substituted_verifications():
    # Geometric realizability of the moves and germ genericity are not
    # desk-checkable; the substitutes are the chain-level and
    # combinatorial verifications exercised by criteria 1-7.  This
    # criterion re-runs the chain-level core as the agreed replacement.
    def body():
        selftest.check_catalog_validity()
        selftest.check_fixtures()
    _check(8, "full-scale claims replaced by chain-level checks", body)
