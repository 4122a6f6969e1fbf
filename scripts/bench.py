#!/usr/bin/env python3
"""Layer timings of the integer core (``intmat`` and ``complexes``) and of
the surface layer (``reeb`` and ``diagrams``).

Times, with ``timeit`` and seeded inputs from ``perfbench/gen.py``:

- ``IntMatrix.mul`` (m times its transpose) and ``snf_with_inverses`` on the
  dense, sparse +-1 and incidence families at n = 20, 40, 60, with the
  largest bit length of an entry of u, v, u^-1 or v^-1;
- ``homology`` in every degree of a ~200-cell torus, Klein bottle, RP2 and
  genus-2 complex and of each one's Z2 dual, bypassing the cache, on a
  new copy of the complex per call: the groups alone (``homology_group``)
  and the groups with their basis cycles read (``homology``), which
  builds them where they are built on demand;
- for each of those SNFs and homologies, in one more untimed call, the
  elementary operations of its Smith reductions (``ops``: row_add,
  row_swap, row_neg, col_adds and col_swap calls) and, beside them,
  ``axpy_nonzeros``, the nonzeros that sparse a += q*b reads; for a
  homology these are the reductions that build the basis, counted on a
  copy whose groups were taken already, and the reductions of the groups
  alone are counted apart (``homology_group_ops``); two checkouts that
  run the same elimination give the same operation counts, and
  ``same_ops`` in the output says whether all labels do, while the
  nonzeros read fall when a checkout skips work, and their sum per label
  is printed on a line of its own;
- ``make_complex`` and ``hom_dual(., Z2)`` of a torus, Klein bottle, RP2
  and genus-2 complex of about BUILD_CELLS cells each, the dual of a
  complex already checked, as the ``algebra`` workload takes it, with
  the nonzeros of each complex's differentials;
- ``express_class`` on one reused Klein-bottle presentation;
- for every catalog id in every degree, ``homology``, timed and counted
  as above, and
  ``express_class`` per query over the basis cycles of its presentation,
  each of which must come out as its unit vector;
- ``graph_from_json``, ``invariants``, ``reduce_to_normal_form``,
  ``from_reeb``, ``diagram_to_json``, ``diagram_from_json`` and
  ``cusp_count_closed`` on nonorientable ``gen.reeb_case`` graphs of
  10^3, 10^4 and 10^5 vertices and their closed diagrams, each call timed
  on its own and each run on a freshly parsed graph or diagram, so that
  no step reads what an earlier run cached, and ``graph_from_json`` once
  more (``graph_from_json_decimal``) on a copy of each graph whose values
  "t/3" are written as the decimals "te-3", in the same order, which the
  decimal branch of the value parse reads; with them, per size, a
  sha256 over ``graph_to_json``, ``fiber_profile``, ``invariants`` and
  ``diagram_to_json(from_reeb(g))`` (``outputs_sha256``), and
  ``same_outputs`` in the output says whether all labels agree on it;
- the wall time of one ``python -m foldcob.cli`` subprocess, spawn to
  exit, per subcommand: the catalog commands, ``selftest``, and
  ``invariants``, ``reduce``, ``cobordant`` and ``cusp`` on the
  ``gen.reeb_case`` graphs and diagrams of CLI_GRAPH_SIZES vertices;
  and, as the floors under them, of ``python -c pass`` and of
  ``python -c "import foldcob.cli"``.

A run is REPEAT rounds.  In each round every checkout given with
``--src`` times each step once, in a subprocess of its own (``--once``);
the checkouts take turns, and their order flips from round to round, so
that a drift of the machine during the run falls on all of them alike.
In a round each in-process step is timed as the least of CALLS calls,
after one call to warm up; each timing is then the median (and the
least) of its REPEAT samples.  The
results go under the ``--label`` of their checkout into the JSON file
``--out``, which must be named, next to any other labels already there.
To compare a parent checkout with this one:

    python3 scripts/bench.py --src OTHER_CHECKOUT/src --label parent \
        --src src --label change --out BENCH_30.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEED = 5
REPEAT = 5
CALLS = 3
SIZES = (20, 40, 60)
CELLS = 200
BUILD_CELLS = (200, 800, 2000)
QUERIES = 200
GRAPH_SIZES = (10**3, 10**4, 10**5)
CLI_GRAPH_SIZES = (10**3, 10**5)
CLI_COMMANDS = (["catalog", "list"], ["catalog", "export", "--id", "V32"],
                ["homology", "--id", "V32", "--deg", "1"],
                ["hyper", "--id", "V32", "--coeff", "Z", "--deg", "1"],
                ["suspension", "--variant", "co_Z"],
                ["identities", "--id", "CO32"], ["selftest"])


def _timed(fn):
    """The least wall seconds of CALLS calls of fn, after one call to warm
    up: a shared machine slows single calls, and the least call is the
    one it slowed least."""
    return min(timeit.Timer(fn).repeat(repeat=CALLS + 1, number=1)[1:])


def _bits(*matrices):
    return max((abs(x).bit_length() for m in matrices for row in m.entries
                for x in row), default=0)


OPS = ("row_add", "row_swap", "row_neg", "col_adds", "col_swap")


def _count_ops(fn):
    """The elementary operations of the Smith reductions that one call of
    fn runs, as {name: count} over OPS, and the nonzeros their sparse
    a += q*b calls read, counted by a subclass of the workspace
    ``intmat._Work`` and a wrapper of ``intmat._axpy`` put in for the call.
    The operations are fixed by the pivots; the nonzeros read also fall
    when the workspace skips work, so only the operations say whether two
    checkouts ran the same elimination."""
    from foldcob import intmat

    counts = dict.fromkeys(OPS, 0)
    nonzeros = 0
    work, axpy = intmat._Work, intmat._axpy

    def counted(name):
        def op(self, *args):
            counts[name] += 1
            return getattr(work, name)(self, *args)
        return op

    def counting_axpy(a, b, q):
        nonlocal nonzeros
        nonzeros += len(b)
        axpy(a, b, q)

    intmat._Work = type("CountingWork", (work,),
                        {name: counted(name) for name in OPS})
    intmat._axpy = counting_axpy
    try:
        fn()
    finally:
        intmat._Work, intmat._axpy = work, axpy
    return counts, nonzeros


def bench_matrices(gen, rng):
    from foldcob.intmat import IntMatrix, snf_with_inverses

    out = []
    for family in gen.MATRIX_FAMILIES:
        for n in SIZES:
            m = IntMatrix.from_rows(gen.matrix_case(rng, family, n))
            mt = m.transpose()
            mul_s = _timed(lambda: m.mul(mt))
            snf_s = _timed(lambda: snf_with_inverses(m))
            u, _, v, uinv, vinv = snf_with_inverses(m)
            ops, nonzeros = _count_ops(lambda: snf_with_inverses(m))
            out.append({"family": family, "rows": m.rows, "cols": m.cols,
                        "mul_s": mul_s, "snf_s": snf_s,
                        "max_bits": _bits(u, v, uinv, vinv),
                        "ops": ops, "axpy_nonzeros": nonzeros})
    return out


def _complex(case):
    from foldcob.complexes import Direction, RingTag, make_complex

    degrees = [[(name, RingTag(ring)) for name, ring in deg]
               for deg in case.degrees]
    return make_complex(Direction.HOMOLOGICAL, degrees, case.diffs)


def _homology_runs(cx, degrees):
    """Calls that take homology in the degrees with its cache bypassed:
    ``group`` and ``full`` each on a new copy of cx, so that no call reads
    what a complex keeps from an earlier one, the first reading the
    groups only and the second the basis cycles too, which builds them
    where they are built on demand; and ``basis()``, which takes the
    groups of a new copy and returns ``full`` on that copy.  Its call
    runs exactly the basis reductions whether a checkout builds the basis
    with the group or on demand, so its operations are the ones that two
    checkouts can compare."""
    from foldcob.complexes import homology

    compute = homology.__wrapped__

    def group(c=None):
        c = type(cx)(*cx) if c is None else c
        return [compute(c, deg) for deg in degrees]

    def full(c=None):
        return [pres.basis_cycles for pres in group(c)]

    def basis():
        c = type(cx)(*cx)
        group(c)
        return lambda: full(c)

    return group, full, basis


def _time_homology(row, name, cx, degrees):
    """The homology timings and operations of cx under name: ``X_s`` of
    the group and the basis, ``X_group_s`` of the group alone, ``X_ops``
    and ``X_axpy_nonzeros`` of the basis reductions and ``X_group_ops`` of
    the reductions the group alone runs."""
    group, full, basis = _homology_runs(cx, degrees)
    row[name + "_s"] = _timed(full)
    row[name + "_group_s"] = _timed(group)
    row[name + "_ops"], row[name + "_axpy_nonzeros"] = _count_ops(basis())
    row[name + "_group_ops"] = _count_ops(group)[0]


def bench_homology(gen, rng):
    from foldcob.complexes import RingTag, hom_dual

    out = []
    for kind in gen.SURFACES:
        case = gen.surface_case(rng, kind, CELLS)
        cx = _complex(case)
        dual = hom_dual(cx, RingTag.TWO_TORSION)
        row = {"kind": kind, "cells": list(case.cells)}
        _time_homology(row, "homology", cx, range(3))
        _time_homology(row, "homology_z2dual", dual, range(3))
        out.append(row)
    return out


def bench_builders(gen, rng):
    from foldcob.complexes import RingTag, hom_dual, validate_complex

    out = []
    for cells in BUILD_CELLS:
        for kind in gen.SURFACES:
            case = gen.surface_case(rng, kind, cells)
            cx = _complex(case)
            validate_complex(cx)
            out.append({"kind": kind, "cells": list(case.cells),
                        "nonzeros": sum(len(col) for d in cx.differentials
                                        for col in d.sparse_columns),
                        "make_complex_s": _timed(lambda: _complex(case)),
                        "hom_dual_z2_s": _timed(
                            lambda: hom_dual(cx, RingTag.TWO_TORSION))})
    return out


def bench_express(gen, rng):
    from foldcob.complexes import express_class, homology

    cx = _complex(gen.surface_case(random.Random("express"), "klein", CELLS))
    pres = homology(cx, 1)
    d2 = cx.differentials[1]
    queries = []
    for _ in range(QUERIES):
        coeffs = [rng.randint(-3, 3) for _ in pres.basis_cycles]
        vec = d2.apply([rng.randint(-2, 2) for _ in range(d2.cols)])
        for c, cyc in zip(coeffs, pres.basis_cycles):
            vec = [x + c * y for x, y in zip(vec, cyc)]
        free = pres.free_rank
        want = tuple(coeffs[:free]) + tuple(
            c % d for c, d in zip(coeffs[free:], pres.torsion))
        queries.append((vec, want))
    for vec, want in queries:
        if express_class(cx, 1, vec) != want:
            sys.exit("error: express_class gave a wrong class")
    per_query = _timed(lambda: [express_class(cx, 1, v) for v, _ in queries])
    return {"cells": cx.n(0) + cx.n(1) + cx.n(2), "queries": QUERIES,
            "per_query_s": per_query / QUERIES}


def bench_catalogs():
    from foldcob.catalog import CatalogId, catalog
    from foldcob.complexes import express_class, homology

    out = []
    for cid in CatalogId:
        cx = catalog(cid)
        for deg in range(cx.top_degree + 1):
            row = {"id": cid.value, "degree": deg}
            _time_homology(row, "homology", cx, (deg,))
            pres = homology(cx, deg)
            for j, cyc in enumerate(pres.basis_cycles):
                unit = tuple(int(i == j) for i in range(pres.rank))
                if express_class(cx, deg, cyc) != unit:
                    sys.exit(f"error: express_class gave a wrong class "
                             f"on {cid.value} in degree {deg}")
            row["queries"] = pres.rank
            if pres.rank:
                row["express_per_query_s"] = _timed(
                    lambda: [express_class(cx, deg, cyc)
                             for cyc in pres.basis_cycles]) / pres.rank
            out.append(row)
    return out


def bench_surface(gen, rng):
    from foldcob.diagrams import (cusp_count_closed, diagram_from_json,
                                  diagram_to_json, from_reeb)
    from foldcob.reeb import (Category, fiber_profile, graph_from_json,
                              graph_to_json, invariants,
                              reduce_to_normal_form)

    def least(fn, fresh):
        """The least wall seconds of CALLS calls of fn, each on a new
        input from fresh(), so that no call reads what another cached.
        Each call starts right after a full collection, so the cyclic
        collector runs inside it as often as the call's own allocations
        make it run, not as often as earlier steps left it due."""
        best = math.inf
        for _ in range(CALLS):
            x = fresh()
            gc.collect()
            t = time.perf_counter()
            fn(x)
            best = min(best, time.perf_counter() - t)
        return best

    out = []
    category = Category.UNORIENTED
    for n in GRAPH_SIZES:
        case = gen.reeb_case(rng, n, False)
        graph = lambda: graph_from_json(case.doc)
        diagram = lambda: from_reeb(graph())
        decimal = {**case.doc, "vertices": [
            {**v, "value": v["value"].replace("/3", "e-3")}
            for v in case.doc["vertices"]]}
        row = {"vertices": case.vertices, "edges": case.edges}
        for name, fn, fresh in (
                ("graph_from_json", graph_from_json, lambda: case.doc),
                ("graph_from_json_decimal", graph_from_json,
                 lambda: decimal),
                ("invariants", lambda g: invariants(g, category), graph),
                ("reduce_to_normal_form",
                 lambda g: reduce_to_normal_form(g, category), graph),
                ("from_reeb", from_reeb, graph),
                ("diagram_to_json", diagram_to_json, diagram),
                ("diagram_from_json", diagram_from_json,
                 lambda: case.diagram),
                ("cusp_count_closed", cusp_count_closed,
                 lambda: diagram_from_json(case.diagram))):
            row[name + "_s"] = least(fn, fresh)
        g = graph()
        inv = invariants(g, category)
        d = diagram_to_json(from_reeb(g))
        cusps = cusp_count_closed(diagram_from_json(case.diagram))
        if ((inv.z, inv.w) != (case.z, case.w) or d != case.diagram
                or reduce_to_normal_form(g, category).invariants != inv
                or (cusps.count, cusps.cross_check) != (case.z, "ok")):
            sys.exit("error: the surface layer gave a wrong answer")
        row["outputs_sha256"] = hashlib.sha256(
            json.dumps([graph_to_json(g), repr(fiber_profile(g)), repr(inv),
                        d]).encode()).hexdigest()
        out.append(row)
    return out


def bench_cli(gen, rng, src):
    """Wall seconds of each CLI command, one subprocess at a time, labelled
    by its argv with file paths left out, after the interpreter floor and
    the import of the cli module; a command that does not exit 0 stops the
    run."""
    env = {**os.environ, "PYTHONPATH": str(src)}

    def timed(args, label):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], capture_output=True,
                              env=env)
        wall_s = time.perf_counter() - t
        if proc.returncode:
            sys.exit(f"error: {label} exited {proc.returncode}")
        return {"command": label, "wall_s": wall_s}

    def command(argv, label):
        return timed(["-m", "foldcob.cli", *argv], label)

    out = [timed(["-c", "pass"], "python -c pass"),
           timed(["-c", "import foldcob.cli"], "import foldcob.cli")]
    out += [command(argv, " ".join(argv)) for argv in CLI_COMMANDS]
    with tempfile.TemporaryDirectory() as tmp:
        for n in CLI_GRAPH_SIZES:
            case = gen.reeb_case(rng, n, False)
            graph, diagram = Path(tmp, "graph.json"), Path(tmp, "diagram.json")
            graph.write_text(json.dumps(case.doc))
            diagram.write_text(json.dumps(case.diagram))
            cat = ["--category", "unoriented"]
            for argv in (["invariants", "--in", str(graph), *cat],
                         ["reduce", "--in", str(graph), *cat],
                         ["cobordant", "--a", str(graph), "--b", str(graph),
                          *cat],
                         ["cusp", "--in", str(diagram)]):
                out.append(command(argv,
                                   f"{argv[0]} <{case.vertices} vertices>"))
    return out


def sample(src):
    """Every timing once, with the foldcob package in src."""
    sys.path[:0] = [str(src), str(REPO / "perfbench")]
    import gen

    rng = random.Random(SEED)
    return {"matrices": bench_matrices(gen, rng),
            "homology": bench_homology(gen, rng),
            "builders": bench_builders(gen, random.Random(SEED)),
            "express": bench_express(gen, rng),
            "catalogs": bench_catalogs(),
            "surface": bench_surface(gen, random.Random(SEED)),
            "cli": bench_cli(gen, random.Random(SEED), src)}


def _rows(run, key):
    """Every value under key of a run's SNF rows and, prefixed with
    homology_ or homology_z2dual_, of its surface and catalog homology
    rows, in order."""
    return ([row.get(key) for row in run.get("matrices", [])]
            + [row.get(f"{name}_{key}") for row in run.get("homology", [])
               for name in ("homology", "homology_z2dual")]
            + [row.get(f"homology_{key}") for row in run.get("catalogs", [])])


def _ops(run):
    """Every count of OPS in a run, in order, without the nonzeros read
    (which older runs kept among them)."""
    return [ops and {name: ops.get(name) for name in OPS}
            for ops in _rows(run, "ops")]


def _nonzeros(run):
    """The nonzeros that a run's sparse a += q*b calls read, summed."""
    return sum(n or 0 for n in _rows(run, "axpy_nonzeros"))


def _outputs(run):
    """Every surface output hash of a run, in order."""
    return [row.get("outputs_sha256") for row in run.get("surface", [])]


def _merge(samples):
    """One result from samples of the same shape: each timing ``X_s``
    becomes the median ``X_s`` and the least ``X_min_s``; anything else is
    the same in every sample and is kept as it is."""
    first = samples[0]
    if isinstance(first, list):
        return [_merge(list(items)) for items in zip(*samples)]
    if not isinstance(first, dict):
        return first
    out = {}
    for key in first:
        column = [s[key] for s in samples]
        if key.endswith("_s"):
            out[key] = statistics.median(column)
            out[key[:-2] + "_min_s"] = min(column)
        else:
            out[key] = _merge(column)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, action="append",
                    help="directory holding a foldcob package to time; give "
                         "it once per checkout (default: src of this "
                         "repository)")
    ap.add_argument("--label", action="append",
                    help="the label of each --src, in the same order "
                         "(default: change)")
    ap.add_argument("--out", type=Path,
                    help="JSON file that collects the runs by label; "
                         "required unless --once")
    ap.add_argument("--once", action="store_true",
                    help="time each step once with the one --src and print "
                         "the sample as JSON")
    args = ap.parse_args(argv)
    srcs = [p.resolve() for p in args.src or [REPO / "src"]]
    labels = args.label or (["change"] if len(srcs) == 1 else [])
    if len(labels) != len(srcs) or len(set(labels)) != len(labels):
        ap.error("give each --src a --label of its own")
    if args.once:
        if len(srcs) != 1:
            ap.error("--once times one --src")
        print(json.dumps(sample(srcs[0])))
        return
    if args.out is None:
        ap.error("name the JSON file to collect the runs in with --out")
    sides = list(zip(labels, srcs))
    samples = {label: [] for label in labels}
    for r in range(REPEAT):
        for label, src in sides[::-1] if r % 2 else sides:
            proc = subprocess.run(
                [sys.executable, __file__, "--once", "--src", str(src)],
                capture_output=True, text=True)
            if proc.returncode:
                sys.exit(f"error: {label}: {proc.stderr.strip()}")
            samples[label].append(json.loads(proc.stdout))
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    for label in labels:
        run = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "seed": SEED, "repeat": REPEAT, "interleaved": labels,
               **_merge(samples[label])}
        doc.setdefault("runs", {})[label] = run
    doc["same_ops"] = len({json.dumps(_ops(run))
                           for run in doc["runs"].values()}) == 1
    doc["same_outputs"] = len({json.dumps(_outputs(run))
                               for run in doc["runs"].values()}) == 1
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc["runs"], indent=1))
    print("axpy nonzeros read: " + ", ".join(
        f"{label} {_nonzeros(run)}" for label, run in doc["runs"].items()))
    if not doc["same_ops"]:
        print("warning: the labels ran different Smith operations",
              file=sys.stderr)
    if not doc["same_outputs"]:
        print("warning: the labels gave different surface outputs",
              file=sys.stderr)


if __name__ == "__main__":
    main()
