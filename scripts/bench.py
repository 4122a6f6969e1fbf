#!/usr/bin/env python3
"""Layer timings of the integer core (``intmat`` and ``complexes``) and of
the surface layer (``reeb`` and ``diagrams``).

Times, with ``timeit`` and seeded inputs from ``perfbench/gen.py``:

- ``IntMatrix.mul`` (m times its transpose) and ``snf_with_inverses`` on the
  dense, sparse +-1 and incidence families at n = 20, 40, 60, with the
  largest bit length of an entry of u, v, u^-1 or v^-1;
- ``homology`` in every degree of a ~200-cell torus, Klein bottle, RP2 and
  genus-2 complex and of each one's Z2 dual, bypassing the cache;
- ``express_class`` on one reused Klein-bottle presentation;
- ``graph_from_json``, ``invariants``, ``reduce_to_normal_form``,
  ``from_reeb`` and ``diagram_from_json`` on nonorientable
  ``gen.reeb_case`` graphs of 10^3, 10^4 and 10^5 vertices and their
  closed diagrams, each call timed on its own and each run on a freshly
  parsed graph, so that no step reads what an earlier run cached;
- the wall time of one ``python -m foldcob.cli`` subprocess, spawn to
  exit, per subcommand: the catalog commands, ``selftest``, and
  ``invariants``, ``reduce``, ``cobordant`` and ``cusp`` on the
  ``gen.reeb_case`` graphs and diagrams of CLI_GRAPH_SIZES vertices;
  and, as the floors under them, of ``python -c pass`` and of
  ``python -c "import foldcob.cli"``.

Each timing is the median (and the least) of REPEAT runs.  The results
go under ``--label`` into the JSON file ``--out`` (``BENCH_5.json`` at the
repository root by default), next to any other labels already there, so
two checkouts can be compared in one file:

    python3 scripts/bench.py --src OTHER_CHECKOUT/src --label parent --out BENCH_7.json
    python3 scripts/bench.py --label change --out BENCH_7.json
"""

from __future__ import annotations

import argparse
import json
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
SIZES = (20, 40, 60)
CELLS = 200
QUERIES = 200
GRAPH_SIZES = (10**3, 10**4, 10**5)
CLI_GRAPH_SIZES = (10**3, 10**5)
CLI_COMMANDS = (["catalog", "list"], ["catalog", "export", "--id", "V32"],
                ["homology", "--id", "V32", "--deg", "1"],
                ["hyper", "--id", "V32", "--coeff", "Z", "--deg", "1"],
                ["suspension", "--variant", "co_Z"],
                ["identities", "--id", "CO32"], ["selftest"])


def _timed(fn):
    """(median, least) wall seconds of one call of fn."""
    runs = timeit.Timer(fn).repeat(repeat=REPEAT, number=1)
    return statistics.median(runs), min(runs)


def _bits(*matrices):
    return max((abs(x).bit_length() for m in matrices for row in m.entries
                for x in row), default=0)


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
            out.append({"family": family, "rows": m.rows, "cols": m.cols,
                        "mul_s": mul_s[0], "mul_min_s": mul_s[1],
                        "snf_s": snf_s[0], "snf_min_s": snf_s[1],
                        "max_bits": _bits(u, v, uinv, vinv)})
    return out


def _complex(case):
    from foldcob.complexes import Direction, RingTag, make_complex

    degrees = [[(name, RingTag(ring)) for name, ring in deg]
               for deg in case.degrees]
    return make_complex(Direction.HOMOLOGICAL, degrees, case.diffs)


def bench_homology(gen, rng):
    from foldcob.complexes import RingTag, hom_dual, homology

    compute = homology.__wrapped__    # no cache: every run computes
    out = []
    for kind in gen.SURFACES:
        case = gen.surface_case(rng, kind, CELLS)
        cx = _complex(case)
        dual = hom_dual(cx, RingTag.TWO_TORSION)
        row = {"kind": kind, "cells": list(case.cells)}
        for name, c in (("", cx), ("_z2dual", dual)):
            t = _timed(lambda: [compute(c, deg) for deg in range(3)])
            row["homology_s" + name], row["homology_min_s" + name] = t
        out.append(row)
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
            "per_query_s": per_query[0] / QUERIES,
            "per_query_min_s": per_query[1] / QUERIES}


def bench_surface(gen, rng):
    from foldcob.diagrams import diagram_from_json, from_reeb
    from foldcob.reeb import (Category, graph_from_json, invariants,
                              reduce_to_normal_form)

    def timed(runs, name, fn, *args):
        t = time.perf_counter()
        out = fn(*args)
        runs.setdefault(name, []).append(time.perf_counter() - t)
        return out

    out = []
    category = Category.UNORIENTED
    for n in GRAPH_SIZES:
        case = gen.reeb_case(rng, n, False)
        runs = {}
        for _ in range(REPEAT):
            g = timed(runs, "graph_from_json", graph_from_json, case.doc)
            inv = timed(runs, "invariants", invariants, g, category)
            red = timed(runs, "reduce_to_normal_form", reduce_to_normal_form,
                        g, category)
            timed(runs, "from_reeb", from_reeb, graph_from_json(case.doc))
            d = timed(runs, "diagram_from_json", diagram_from_json,
                      case.diagram)
            if ((inv.z, inv.w) != (case.z, case.w) or red.invariants != inv
                    or len(d.cells) != len(case.diagram["cells"])):
                sys.exit("error: the surface layer gave a wrong answer")
        row = {"vertices": case.vertices, "edges": case.edges}
        for name, secs in runs.items():
            row[name + "_s"] = statistics.median(secs)
            row[name + "_min_s"] = min(secs)
        out.append(row)
    return out


def bench_cli(gen, rng, src):
    """Median and least wall seconds of each CLI command, one subprocess at
    a time, labelled by its argv with file paths left out, after the
    interpreter floor and the import of the cli module; a command that does
    not exit 0 stops the run."""
    env = {**os.environ, "PYTHONPATH": str(src)}

    def timed(args, label):
        def once():
            proc = subprocess.run([sys.executable, *args],
                                  capture_output=True, env=env)
            if proc.returncode:
                sys.exit(f"error: {label} exited {proc.returncode}")
        secs = _timed(once)
        return {"command": label, "wall_s": secs[0], "wall_min_s": secs[1]}

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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=REPO / "src",
                    help="directory holding the foldcob package to time")
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", type=Path, default=REPO / "BENCH_5.json",
                    help="JSON file that collects the runs by label")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(REPO / "perfbench")]
    import gen

    rng = random.Random(SEED)
    run = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "seed": SEED, "repeat": REPEAT,
           "matrices": bench_matrices(gen, rng),
           "homology": bench_homology(gen, rng),
           "express": bench_express(gen, rng),
           "surface": bench_surface(gen, random.Random(SEED)),
           "cli": bench_cli(gen, random.Random(SEED), args.src.resolve())}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(run, indent=1))


if __name__ == "__main__":
    main()
