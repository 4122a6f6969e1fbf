"""Workload ``algebra``: the integer core, in three phases in this process.

(a) homology: ``homology`` in every degree of distinct triangulated
    closed surfaces (torus, Klein bottle, RP2, genus 2), and of each
    one's ``hom_dual(., Z2)``.  Generators are relabelled per instance,
    so the ``homology`` cache never hits.
(b) express: seeded ``express_class`` queries that all reuse the
    presentation of one fixed Klein bottle.
(c) snf: ``snf_with_inverses`` on dense, sparse and incidence matrices.

(a) and (b) use the complexes layer one-shot and repeated; (c) shows the
coefficient growth of the Smith reduction.
"""

from __future__ import annotations

import random
import statistics
import time

import gen
from run import Outcome, pct, schedule
from spans import Plain, layer_metrics

from foldcob.complexes import (Direction, RingTag, express_class, hom_dual,
                               homology, make_complex)
from foldcob.intmat import IntMatrix, snf_with_inverses

CHILDREN_RSS = False
# what each end-to-end metric measures on this workload
ALIASES = {"p50_ms": "algebra.express_p50_ms", "p90_ms": "algebra.express_p90_ms",
           "small_per_s": "algebra.snf_matrices_per_s",
           "large_per_s": "algebra.homology_complexes_per_s"}
SIZES = {
    # surface cells, surfaces in the pool, express cells, express queries,
    # dense n range, sparse n range, incidence n range, matrices per family,
    # traced surfaces, traced queries, traced matrices per family
    "full": dict(cells=200, surfaces=40, express_cells=200, queries=400,
                 dense=(12, 22), sparse=(24, 40), incidence=(20, 60),
                 per_family=400, t_surfaces=4, t_queries=40, t_per_family=20),
    "tiny": dict(cells=40, surfaces=4, express_cells=40, queries=5,
                 dense=(3, 5), sparse=(4, 6), incidence=(4, 6),
                 per_family=3, t_surfaces=4, t_queries=3, t_per_family=2),
}
SHARES = {"homology": 0.55, "express": 0.20, "snf": 0.25}   # of the wall time
MIN_EXPRESS = 100             # p90 then has at least ten samples beyond it


def _complex(case):
    degrees = [[(name, RingTag(ring)) for name, ring in deg] for deg in case.degrees]
    return make_complex(Direction.HOMOLOGICAL, degrees, case.diffs)


def setup(seed, size):
    p = SIZES[size]
    rng = random.Random(seed)
    surfaces = [gen.surface_case(rng, gen.SURFACES[i % 4], p["cells"])
                for i in range(p["surfaces"])]
    # (b): one Klein bottle, the same for every seed, since the cost of a
    # query follows its presentation more than the query; the presentation
    # is computed here, as the untimed first call, and every query reuses it
    express_cx = _complex(gen.surface_case(random.Random("express"), "klein",
                                           p["express_cells"]))
    pres = homology(express_cx, 1)
    d2 = express_cx.differentials[1]
    queries = []
    for q in range(p["queries"]):
        coeffs = [0] * len(pres.basis_cycles) if q % 4 == 0 else [
            rng.randint(-3, 3) for _ in pres.basis_cycles]
        chain = [rng.randint(-2, 2) for _ in range(d2.cols)]
        vec = [sum(row[j] * chain[j] for j in range(d2.cols)) for row in d2.entries]
        for c, cyc in zip(coeffs, pres.basis_cycles):
            vec = [x + c * y for x, y in zip(vec, cyc)]
        free = pres.free_rank
        want = tuple(coeffs[:free]) + tuple(
            c % mod for c, mod in zip(coeffs[free:], pres.torsion))
        queries.append((vec, want))
    sizes = {f: gen.stratified_sizes(rng, *p[f], p["per_family"])
             for f in gen.MATRIX_FAMILIES}
    matrices = [(f, gen.matrix_case(rng, f, sizes[f][i]))
                for i in range(p["per_family"]) for f in gen.MATRIX_FAMILIES]
    return surfaces, (express_cx, queries), matrices, size


# ---------------------------------------------------------------------------
# independent checks


def _apply(m, x):
    return [sum(a * b for a, b in zip(row, x)) for row in m]


def _check_snf(rows, res):
    """u*m*v = s, u*uinv = I and v*vinv = I on a random vector each
    (Freivalds: a wrong product passes with probability at most 2**-32),
    s diagonal with nonnegative entries d1 | d2 | ..."""
    u, s, v, uinv, vinv = (x.entries for x in res)
    rng = random.Random(str(rows))
    x = [rng.randrange(1 << 32) for _ in rows[0]]
    y = [rng.randrange(1 << 32) for _ in rows]
    problems = []
    if _apply(u, _apply(rows, _apply(v, x))) != _apply(s, x):
        problems.append("u*m*v != s")
    if _apply(u, _apply(uinv, y)) != y or _apply(v, _apply(vinv, x)) != x:
        problems.append("transform times inverse is not I")
    if any(e for i, row in enumerate(s) for j, e in enumerate(row) if i != j):
        problems.append("s is not diagonal")
    diag = [s[i][i] for i in range(min(len(s), len(s[0])))]
    if any(d < 0 for d in diag):
        problems.append("negative diagonal entry")
    for a, b in zip(diag, diag[1:]):
        if (b % a if a else b) != 0:
            problems.append(f"{a} does not divide {b}")
            break
    return problems


def _check_homology(kind, groups, dual_groups):
    want, want_z2 = gen.SURFACE_HOMOLOGY[kind]
    got = tuple((g.free_rank, g.torsion) for g in groups)
    got_z2 = tuple(g.torsion for g in dual_groups)
    problems = []
    if got != want:
        problems.append(f"{kind} homology {got} != {want}")
    if any(g.free_rank for g in dual_groups) or got_z2 != tuple((2,) * b for b in want_z2):
        problems.append(f"{kind} mod-2 cohomology {got_z2} has the wrong ranks")
    return problems


def _bits(entries):
    return max((abs(x).bit_length() for row in entries for x in row), default=0)


# ---------------------------------------------------------------------------
# the three phases; each times only the calls into the program


def _surface(case, outcome, caller):
    """Build the complex, take all its homology and that of its mod-2 dual;
    the six groups, or None if the program raised."""
    try:
        cx = caller.call("complexes.make_complex", _complex, case)
        groups = [caller.call("complexes.homology", homology, cx, deg)
                  for deg in range(3)]
        dual = caller.call("complexes.hom_dual", hom_dual, cx, RingTag.TWO_TORSION)
        dual_groups = [caller.call("complexes.homology.z2dual", homology, dual, deg)
                       for deg in range(3)]
    except Exception as exc:   # a crash in the program is a failed operation
        outcome.record([f"{type(exc).__name__}: {exc}"], case.kind)
        return None
    outcome.record(_check_homology(case.kind, groups, dual_groups), case.kind)
    return groups + dual_groups


def _express(cx, query, outcome, caller):
    vec, want = query
    try:
        got = caller.call("complexes.express_class", express_class, cx, 1, vec)
    except Exception as exc:
        outcome.record([f"{type(exc).__name__}: {exc}"], "express")
        return
    outcome.record([] if got == want else [f"{got} != {want}"], "express")


def _snf(family, rows, outcome, caller):
    """(u, s, v, uinv, vinv), or None if the program raised."""
    m = IntMatrix.from_rows(rows)
    try:
        res = caller.call("intmat.snf", snf_with_inverses, m)
    except Exception as exc:
        outcome.record([f"{type(exc).__name__}: {exc}"], f"snf {family}")
        return None
    outcome.record(_check_snf(rows, res), f"snf {family} {m.rows}x{m.cols}")
    return res


def measure(inputs, seconds, outcome, timings):
    surfaces, (express_cx, queries), matrices, size = inputs
    n = dict.fromkeys(SHARES, 0)
    min_express = MIN_EXPRESS if size == "full" else 1
    for phase in schedule(SHARES, seconds, lambda: n["homology"] and n["snf"]
                          and n["express"] >= min_express, timings):
        item = timings.item()
        if phase == "homology":
            _surface(surfaces[n[phase] % len(surfaces)], outcome, item)
        elif phase == "express":
            _express(express_cx, queries[n[phase] % len(queries)], outcome, item)
        else:
            _snf(*matrices[n[phase] % len(matrices)], outcome, item)
        # one surface is two complexes: the integer one and its mod-2 dual
        timings.add(phase, item, 2 if phase == "homology" else 1)
        n[phase] += 1
    outcome.reuse.append(
        f"algebra (a): {max(0, n['homology'] - len(surfaces))} of {n['homology']} "
        "surfaces repeat a complex, so the homology cache is not hit")
    outcome.reuse.append(
        f"algebra (b): {n['express']} of {n['express']} express queries reuse "
        "the one presentation computed at set-up")
    outcome.reuse.append(
        f"algebra (c): {max(0, n['snf'] - len(matrices))} of {n['snf']} "
        "SNF calls repeat a matrix; intmat has no cache")
    express_t = timings.scaled("express")
    return {
        "p50_ms": 1000 * pct(express_t, 50),
        "p90_ms": 1000 * pct(express_t, 90),
        "small_per_s": 1 / statistics.median(timings.scaled("snf")),
        "large_per_s": statistics.median(timings.scaled_rates("homology")),
    }


def trace(inputs, tracer, outcome):
    surfaces, (express_cx, queries), matrices, size = inputs
    p = SIZES[size]
    t_surfaces = surfaces[:p["t_surfaces"]]
    t_queries = queries[:p["t_queries"]]
    t_matrices = matrices[:3 * p["t_per_family"]]

    # each item runs untraced, then traced: the overhead is the difference;
    # the homology cache is emptied so the traced run computes again, and
    # the express presentation goes back in afterwards, as at set-up
    scratch = Outcome()
    values = {}
    overhead = 0.0
    basis_bits = 0

    def pair(untraced, traced):
        nonlocal overhead
        t0 = time.perf_counter()
        untraced()
        t1 = time.perf_counter()
        out = traced()
        overhead += (time.perf_counter() - t1) - (t1 - t0)
        return out

    def traced_surface(n, case):
        homology.cache_clear()
        with tracer.span("algebra.surface", trace_id=f"complex{n}"):
            return _surface(case, outcome, tracer)

    for n, case in enumerate(t_surfaces):
        groups = pair(lambda: _surface(case, scratch, Plain),
                      lambda: traced_surface(n, case))
        if groups:
            basis_bits = max([basis_bits] + [_bits(g.basis_cycles) for g in groups])
    homology.cache_clear()
    homology(express_cx, 1)
    for n, q in enumerate(t_queries):
        def traced_query():
            with tracer.span("algebra.query", trace_id=f"query{n}"):
                _express(express_cx, q, outcome, tracer)
        pair(lambda: _express(express_cx, q, scratch, Plain), traced_query)
    for n, (family, rows) in enumerate(t_matrices):
        def traced_matrix():
            with tracer.span("algebra.matrix", trace_id=f"matrix{n}"):
                return _snf(family, rows, outcome, tracer)
        res = pair(lambda: _snf(family, rows, scratch, Plain), traced_matrix)
        if res:
            key = f"intmat.max_bits.{family}"
            bits = max(_bits(x.entries) for i, x in enumerate(res) if i != 1)
            values[key] = max(values.get(key, 0), bits)

    values.update(layer_metrics(tracer.spans))
    values["complexes.basis_max_bits"] = basis_bits
    values["trace.overhead_s"] = overhead
    return values
