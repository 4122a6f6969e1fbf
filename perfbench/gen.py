"""Seeded input generators for the benchmark.

Everything here is built from a ``random.Random`` passed in by the caller,
so one seed always gives the same inputs.  No generator calls into
``foldcob``: the program under test receives only the documents and
formula dictionaries produced here, and each generator also returns the
expected answer, worked out from the construction itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def stratified_sizes(rng: random.Random, lo: int, hi: int, count: int,
                     strata: int = 9) -> list[int]:
    """``count`` sizes from lo to hi in which every run of ``strata``
    consecutive entries holds each of ``strata`` evenly spaced sizes once,
    so any prefix has nearly the same size mix whatever the seed."""
    grid = [lo + round(k * (hi - lo) / (strata - 1)) for k in range(strata)]
    out = []
    while len(out) < count:
        out += rng.sample(grid, strata)
    return out[:count]


# ---------------------------------------------------------------------------
# Reeb graphs and the closed circle diagrams of the same sweep


@dataclass(frozen=True)
class GraphCase:
    """A Reeb-graph document plus the answers read off its construction."""

    doc: dict            # graph JSON, as ``foldcob.reeb.graph_from_json`` reads it
    diagram: dict        # closed diagram JSON of the same sweep
    orientable: bool
    z: int               # #MAX - #MIN
    w: int               # #DEG2 mod 2
    pieces: tuple        # (n1 capped stars, n2 saddles up, n3 saddles down, n4 DEG2)
    vertices: int
    edges: int


def reeb_case(rng: random.Random, n_vertices: int, orientable: bool) -> GraphCase:
    """An upward sweep over the circles of a regular level.

    Each step opens a circle (MIN), caps one (MAX), splits one (saddle
    with two upper edges), merges two (saddle with two lower edges) or,
    when nonorientable, passes one through a cross-cap (DEG2).  Once
    ``n_vertices`` steps are taken every open circle is capped.  The
    circle count after each step gives the diagram's regular arcs, and
    the circles crossing each critical level give its event components.
    Vertex ids are shuffled integers, the vertex and edge lists are
    shuffled, and values are distinct rationals with random gaps.
    """
    kinds = []
    edges = []
    open_circles = []
    arcs = [0]
    events = []
    n2 = n3 = 0
    # keep the level small relative to the graph so caps follow soon
    cap = max(4, n_vertices // 8)
    while len(kinds) < n_vertices or open_circles:
        if len(kinds) >= n_vertices:
            step = "MAX"
        else:
            choices = ["MIN"] if len(open_circles) < cap else []
            if open_circles:
                choices += ["MAX", "SADDLE_UP"]
                if not orientable:
                    choices.append("DEG2")
            if len(open_circles) >= 2:
                choices.append("SADDLE_DOWN")
            step = rng.choice(choices)
        v = len(kinds)
        before = len(open_circles)
        if step == "MIN":
            kinds.append("MIN")
            open_circles.append(v)
            crossing = before
            cls = "I0"
        elif step == "MAX":
            kinds.append("MAX")
            edges.append((open_circles.pop(rng.randrange(before)), v))
            crossing = before - 1
            cls = "I0"
        elif step == "DEG2":
            kinds.append("DEG2")
            edges.append((open_circles.pop(rng.randrange(before)), v))
            open_circles.append(v)
            crossing = before - 1
            cls = "I2"
        elif step == "SADDLE_UP":
            kinds.append("SADDLE")
            edges.append((open_circles.pop(rng.randrange(before)), v))
            open_circles += [v, v]
            crossing = before - 1
            cls = "I1"
            n2 += 1
        else:
            kinds.append("SADDLE")
            a = open_circles.pop(rng.randrange(before))
            b = open_circles.pop(rng.randrange(before - 1))
            edges += [(a, v), (b, v)]
            open_circles.append(v)
            crossing = before - 2
            cls = "I1"
            n3 += 1
        events.append((cls, crossing + 1))
        arcs.append(len(open_circles))

    n = len(kinds)
    ids = list(range(n))
    rng.shuffle(ids)
    values = []
    t = 0
    for _ in range(n):
        t += rng.randint(1, 5)
        values.append(f"{t}/3")
    vertices = [{"id": ids[i], "value": values[i], "kind": kinds[i]}
                for i in range(n)]
    rng.shuffle(vertices)
    edge_list = [[ids[a], ids[b]] if rng.random() < 0.5 else [ids[b], ids[a]]
                 for a, b in edges]
    rng.shuffle(edge_list)

    cells = [{"arc": {"circles": 0, "arcs": 0}}]
    for i, (cls, components) in enumerate(events):
        cells.append({"event": {"class": cls, "components": components}})
        if i + 1 < len(events):
            cells.append({"arc": {"circles": arcs[i + 1], "arcs": 0}})
    count = {k: kinds.count(k) for k in ("MIN", "MAX", "DEG2")}
    return GraphCase(
        doc={"orientable": orientable, "vertices": vertices, "edges": edge_list},
        diagram={"mode": "CLOSED", "cells": cells},
        orientable=orientable,
        z=count["MAX"] - count["MIN"],
        w=count["DEG2"] % 2,
        pieces=(count["MIN"] + count["MAX"], n2, n3, count["DEG2"]),
        vertices=n,
        edges=len(edge_list))


# ---------------------------------------------------------------------------
# Triangulated closed surfaces

# Betti numbers over Z (free rank, torsion) and over Z2, per degree
SURFACE_HOMOLOGY = {
    "torus": (((1, ()), (2, ()), (1, ())), (1, 2, 1)),
    "klein": (((1, ()), (1, (2,)), (0, ())), (1, 2, 1)),
    "rp2": (((1, ()), (0, (2,)), (0, ())), (1, 1, 1)),
    "genus2": (((1, ()), (4, ()), (1, ())), (1, 4, 1)),
}
SURFACES = tuple(SURFACE_HOMOLOGY)

# the six-vertex projective plane (half of the icosahedron)
_RP2_6 = ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
          (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3))


def _grid(rng, m, n, twist, offset=0):
    """Triangles of an m x n grid on the torus, or on the Klein bottle
    when the second direction wraps with a reflection."""
    def vid(i, j):
        i %= m
        if j == n:
            j = 0
            if twist:
                i = (-i) % m
        return offset + i * n + j
    tris = []
    for i in range(m):
        for j in range(n):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            if rng.random() < 0.5:
                tris += [(a, b, c), (a, c, d)]
            else:
                tris += [(a, b, d), (b, c, d)]
    return tris


def _base(kind, rng):
    if kind == "torus":
        return _grid(rng, 4, 4, False)
    if kind == "klein":
        return _grid(rng, 4, 4, True)
    if kind == "rp2":
        return list(_RP2_6)
    # genus 2: two tori, each with one triangle removed, glued along the
    # boundaries of the removed triangles
    t1 = _grid(rng, 4, 4, False)
    t2 = _grid(rng, 4, 4, False, offset=16)
    hole1, hole2 = t1.pop(0), t2.pop(0)
    glue = dict(zip(hole2, hole1))
    return t1 + [tuple(glue.get(v, v) for v in tri) for tri in t2]


def _cell_count(tris):
    edges = {frozenset(p) for t in tris for p in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2]))}
    verts = {v for t in tris for v in t}
    return len(verts) + len(edges) + len(tris)


def _split_edge(rng, tris):
    """Stellar subdivision of a random edge: one new vertex, +6 cells."""
    t = tris[rng.randrange(len(tris))]
    a, b = rng.sample(t, 2)
    new = 1 + max(v for tri in tris for v in tri)
    out = []
    for tri in tris:
        if a in tri and b in tri:
            c = next(v for v in tri if v not in (a, b))
            out += [(a, new, c), (new, b, c)]
        else:
            out.append(tri)
    return out


@dataclass(frozen=True)
class SurfaceCase:
    kind: str
    degrees: list          # make_complex generator lists, names with ring tag "Z"
    diffs: list            # make_complex formula dictionaries (d1, d2)
    cells: tuple           # (vertices, edges, triangles)


def surface_case(rng: random.Random, kind: str, target_cells: int) -> SurfaceCase:
    """A triangulated closed surface of about ``target_cells`` cells.

    The base triangulation is subdivided at random edges until it has
    ``target_cells`` cells or just over; vertices are then relabelled
    and every generator list is shuffled, so no two instances share a
    complex.  Simplices are oriented by increasing relabelled vertex.
    """
    tris = _base(kind, rng)
    while _cell_count(tris) < target_cells:
        tris = _split_edge(rng, tris)
    verts = sorted({v for t in tris for v in t})
    perm = list(range(len(verts)))
    rng.shuffle(perm)
    relabel = dict(zip(verts, perm))
    tris = [tuple(sorted(relabel[v] for v in t)) for t in tris]
    edges = sorted({(t[i], t[j]) for t in tris for i, j in ((0, 1), (1, 2), (0, 2))})
    vnames = {v: f"v{v}" for v in range(len(verts))}
    enames = {e: f"e{e[0]}_{e[1]}" for e in edges}
    tnames = {t: f"t{t[0]}_{t[1]}_{t[2]}" for t in tris}
    d1 = {enames[e]: {vnames[e[1]]: 1, vnames[e[0]]: -1} for e in edges}
    d2 = {tnames[t]: {enames[(t[1], t[2])]: 1, enames[(t[0], t[2])]: -1,
                      enames[(t[0], t[1])]: 1} for t in tris}
    degrees = [[(name, "Z") for name in names.values()]
               for names in (vnames, enames, tnames)]
    for deg in degrees:
        rng.shuffle(deg)
    return SurfaceCase(kind, degrees, [d1, d2], (len(verts), len(edges), len(tris)))


# ---------------------------------------------------------------------------
# Integer matrices for Smith normal form

MATRIX_FAMILIES = ("dense", "sparse", "incidence")


def matrix_case(rng: random.Random, family: str, n: int) -> list[list[int]]:
    """Rows of a seeded matrix of the named family.

    dense: n x n, entries uniform in [-3, 3];
    sparse: n x n, each entry +-1 with probability 0.2, else 0;
    incidence: n rows, 3n/2 columns, each column one +1 and one -1 in
    distinct random rows (the incidence matrix of a random multigraph).
    """
    if family == "dense":
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    if family == "sparse":
        return [[rng.choice((-1, 1)) if rng.random() < 0.2 else 0
                 for _ in range(n)] for _ in range(n)]
    cols = 3 * n // 2
    rows = [[0] * cols for _ in range(n)]
    for c in range(cols):
        a, b = rng.sample(range(n), 2)
        rows[a][c] = 1
        rows[b][c] = -1
    return rows
