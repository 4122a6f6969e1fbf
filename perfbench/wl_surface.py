"""Workload ``surface``: Reeb graphs through the whole surface layer.

Each graph goes graph_from_json -> invariants -> reduce_to_normal_form ->
from_reeb -> diagram_to_json / diagram_from_json -> cusp_count_closed,
all in this process.  Small graphs (40-120 vertices) show per-call cost,
large ones (about 500 vertices) the scans over vertices times edges.
Half the graphs are orientable and use the oriented category, half are
not and use the unoriented one.
"""

from __future__ import annotations

import random
import statistics
import time

import gen
from run import Outcome, pct, schedule
from spans import Plain, layer_metrics

from foldcob.diagrams import (cusp_count_closed, diagram_from_json,
                              diagram_to_json, from_reeb)
from foldcob.reeb import (Category, graph_from_json, graph_to_json, invariants,
                          reduce_to_normal_form)

CHILDREN_RSS = False
# what each end-to-end metric measures on this workload
ALIASES = {"p50_ms": "surface.small_graph_p50_ms",
           "p90_ms": "surface.small_graph_p90_ms",
           "small_per_s": "surface.small_graphs_per_s",
           "large_per_s": "surface.large_vertices_per_s"}
SIZES = {
    # graphs in the small pool and their vertex range, graphs in the large
    # pool and their vertices, small and large graphs traced
    "full": dict(small=300, small_v=(40, 120), large=8, large_v=500,
                 t_small=40, t_large=2),
    "tiny": dict(small=6, small_v=(10, 20), large=2, large_v=40,
                 t_small=3, t_large=1),
}
SHARES = {"small": 0.4, "large": 0.6}   # of the measured wall time
MIN_SMALL = 100        # p90 then has at least ten samples beyond it


def setup(seed, size):
    p = SIZES[size]
    rng = random.Random(seed)
    small = [gen.reeb_case(rng, n, i % 2 == 0) for i, n in
             enumerate(gen.stratified_sizes(rng, *p["small_v"], p["small"]))]
    large = [gen.reeb_case(rng, p["large_v"], i % 2 == 0) for i in range(p["large"])]
    warm = gen.reeb_case(random.Random(-1), 12, False)
    _pipeline(warm, Plain, "small")
    return small, large, size


def _pipeline(case, caller, cls):
    """Run one graph through the layer, each call through ``caller``
    (a Tracer, a timing Item or Plain), named after the layer function
    and the size class."""
    category = Category.ORIENTED if case.orientable else Category.UNORIENTED
    g = caller.call(f"reeb.graph_from_json.{cls}", graph_from_json, case.doc)
    inv = caller.call(f"reeb.invariants.{cls}", invariants, g, category)
    red = caller.call(f"reeb.reduce_to_normal_form.{cls}", reduce_to_normal_form,
                      g, category)
    d = caller.call(f"diagrams.from_reeb.{cls}", from_reeb, g)
    d_doc = caller.call(f"diagrams.diagram_to_json.{cls}", diagram_to_json, d)
    d2 = caller.call(f"diagrams.diagram_from_json.{cls}", diagram_from_json, d_doc)
    cusp = caller.call(f"diagrams.cusp_count_closed.{cls}", cusp_count_closed, d2)
    return (g, inv, red, d, d_doc, d2, cusp), category


def _check(case, out, category):
    g, inv, red, d, d_doc, d2, cusp = out
    problems = []
    if inv.z != case.z:
        problems.append(f"z {inv.z} != {case.z}")
    if not category.oriented and inv.w != case.w:
        problems.append(f"w {inv.w} != {case.w}")
    n1, n2, n3, n4 = case.pieces
    pairs, rp2 = min(n2, n3), n4 // 2
    want_trace = tuple((m, k) for m, k in (("CANCEL_PAIR", pairs),
                                           ("CANCEL_RP2", rp2),
                                           ("DELETE_SPHERE", n1 + pairs + rp2))
                       if k)
    if red.trace != want_trace:
        problems.append(f"trace {red.trace} != {want_trace}")
    kinds = [v["kind"] for v in graph_to_json(red.canonical)["vertices"]]
    cz = kinds.count("MAX") - kinds.count("MIN")
    cw = kinds.count("DEG2") % 2
    if (cz, cw) != (case.z, 0 if category.oriented else case.w):
        problems.append(f"canonical graph gives {(cz, cw)}")
    if d_doc != case.diagram:
        problems.append("diagram differs from the sweep's diagram")
    if d2 != d:
        problems.append("diagram JSON round trip changed the diagram")
    if cusp.count != case.z or cusp.cross_check != "ok":
        problems.append(f"cusps {cusp.count} {cusp.cross_check}, z {case.z}")
    return problems


def _run_one(case, outcome, caller, cls):
    """The pipeline's outputs, or None when the program raised."""
    try:
        out, category = _pipeline(case, caller, cls)
    except Exception as exc:   # a crash in the program is a failed operation
        outcome.record([f"{type(exc).__name__}: {exc}"], f"graph V={case.vertices}")
        return None
    outcome.record(_check(case, out, category), f"graph V={case.vertices}")
    return out


def measure(inputs, seconds, outcome, timings):
    small, large, size = inputs
    n = {"small": 0, "large": 0}
    min_small = MIN_SMALL if size == "full" else 1
    for cls in schedule(SHARES, seconds,
                        lambda: n["small"] >= min_small and n["large"], timings):
        pool = small if cls == "small" else large
        case = pool[n[cls] % len(pool)]
        item = timings.item()
        _run_one(case, outcome, item, cls)
        timings.add(cls, item, case.vertices)
        n[cls] += 1
    outcome.reuse.append(
        f"surface: {max(0, n['small'] - len(small))} of {n['small']} small "
        f"and {max(0, n['large'] - len(large))} of {n['large']} large "
        "pipeline runs repeat a graph; no layer caches graphs")
    small_t = timings.scaled("small")
    return {
        "p50_ms": 1000 * pct(small_t, 50),
        "p90_ms": 1000 * pct(small_t, 90),
        "small_per_s": 1 / statistics.median(small_t),
        "large_per_s": statistics.median(timings.scaled_rates("large")),
    }


def trace(inputs, tracer, outcome):
    small, large, size = inputs
    p = SIZES[size]
    cases = [(c, "small") for c in small[:p["t_small"]]]
    cases += [(c, "large") for c in large[:p["t_large"]]]
    # each graph runs untraced, then traced: the overhead is the difference
    scratch = Outcome()
    overhead = 0.0
    for n, (case, cls) in enumerate(cases):
        t0 = time.perf_counter()
        _run_one(case, scratch, Plain, cls)
        t1 = time.perf_counter()
        with tracer.span("surface.graph", trace_id=f"graph{n}"):
            out = _run_one(case, outcome, tracer, cls)
        overhead += (time.perf_counter() - t1) - (t1 - t0)
        if out:
            tracer.count("reeb.vertices", case.vertices)
            tracer.count("reeb.edges", case.edges)
            tracer.count("diagrams.cells", len(out[3].cells))
    values = layer_metrics(tracer.spans)
    values.update(tracer.counts)
    values["trace.overhead_s"] = overhead
    return values
