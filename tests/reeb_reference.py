"""Reference formulas for the surface layer, one edge scan per vertex.

These are the direct O(V*E) definitions: every count is read off the
edge list by comparing rational values, vertex by vertex.  The library
computes the same things from one sorted sweep; the differential tests
compare the two.  Nothing here calls into the library's sweep.
"""

from __future__ import annotations

from foldcob.diagrams import (BoundaryMode, CircleFiberDiagram, DiagramEvent,
                              RegularArc)
from foldcob.reeb import (FiberEvent, FiberProfile, PieceMultiset, ReebError,
                          VertexKind)

_EXPECTED_DEGREE = {VertexKind.MIN: 1, VertexKind.MAX: 1,
                    VertexKind.SADDLE: 3, VertexKind.DEG2: 2}
_EVENT_CLASS = {VertexKind.MIN: "I0", VertexKind.MAX: "I0",
                VertexKind.SADDLE: "I1", VertexKind.DEG2: "I2"}


def validate_reeb(g) -> list[str]:
    out = []
    ids = [v.id for v in g.vertices]
    if len(set(ids)) != len(ids):
        repeat = next(i for i in ids if ids.count(i) > 1)
        out.append(f"duplicate vertex ids: {repeat}")
        return out
    byid = {v.id: v for v in g.vertices}
    ordered = sorted(g.vertices, key=lambda v: v.value)
    ties = [(a.id, b.id) for a, b in zip(ordered, ordered[1:])
            if a.value == b.value]
    if ties:
        a, b = ties[0]
        out.append(f"vertex values not distinct: vertices {a} and {b}")
    deg = {v.id: 0 for v in g.vertices}
    unknown = False
    for a, b in g.edges:
        if a not in byid or b not in byid:
            out.append(f"edge ({a},{b}) references unknown vertex")
            unknown = True
            continue
        if byid[a].value == byid[b].value:
            out.append(f"edge ({a},{b}) joins equal values")
        deg[a] += 1
        deg[b] += 1
    if unknown:
        return out
    for v in g.vertices:
        if deg[v.id] != _EXPECTED_DEGREE[v.kind]:
            out.append(f"vertex {v.id}: {v.kind.value} has degree {deg[v.id]}")
    for v in g.vertices:
        if deg[v.id] != _EXPECTED_DEGREE[v.kind]:
            continue
        up = sum(1 for a, b in g.edges if v.id in (a, b)
                 and byid[b if a == v.id else a].value > v.value)
        down = deg[v.id] - up
        if v.kind is VertexKind.MIN and up != 1:
            out.append(f"vertex {v.id}: MIN must have its neighbor above")
        if v.kind is VertexKind.MAX and down != 1:
            out.append(f"vertex {v.id}: MAX must have its neighbor below")
        if v.kind is VertexKind.SADDLE and up not in (1, 2):
            out.append(f"vertex {v.id}: saddle needs edges on both sides")
        if v.kind is VertexKind.DEG2 and (up != 1 or down != 1):
            out.append(f"vertex {v.id}: DEG2 needs one edge on each side")
    if g.orientable and any(v.kind is VertexKind.DEG2 for v in g.vertices):
        out.append("DEG2 vertex in an orientable graph")
    return out


def _require_valid(g):
    bad = validate_reeb(g)
    if bad:
        raise ReebError(bad[0])


def _spans(g):
    byid = {v.id: v for v in g.vertices}
    return [tuple(sorted((byid[a].value, byid[b].value))) for a, b in g.edges]


def saddle_sign(g, v) -> int:
    byid = {w.id: w for w in g.vertices}
    up = sum(1 for a, b in g.edges if v.id in (a, b)
             and byid[b if a == v.id else a].value > v.value)
    return 1 if up == 2 else -1


def fiber_profile(g) -> FiberProfile:
    _require_valid(g)
    spans = _spans(g)
    events = []
    counts = {"I0_o": 0, "I0_e": 0, "I1_o": 0, "I1_e": 0, "I2_o": 0,
              "I2_e": 0}
    for v in sorted(g.vertices, key=lambda w: w.value):
        strict = sum(1 for lo, hi in spans if lo < v.value < hi)
        below = sum(1 for lo, hi in spans if lo < v.value <= hi)
        components = 1 + strict
        parity = "o" if components % 2 == 1 else "e"
        cls = _EVENT_CLASS[v.kind]
        if cls == "I2":
            sign = None
            counts[f"I2_{parity}"] = (counts[f"I2_{parity}"] + 1) % 2
        else:
            sign = 1 if below % 2 == 0 else -1
            counts[f"{cls}_{parity}"] += sign
        events.append(FiberEvent(v.value, cls, parity, sign, components))
    return FiberProfile(tuple(events), counts)


def decompose(g) -> PieceMultiset:
    _require_valid(g)
    n2 = sum(1 for v in g.vertices
             if v.kind is VertexKind.SADDLE and saddle_sign(g, v) == 1)
    n3 = g.count(VertexKind.SADDLE) - n2
    return PieceMultiset(
        n1=g.count(VertexKind.MIN) + g.count(VertexKind.MAX),
        n2=n2, n3=n3, n4=g.count(VertexKind.DEG2))


def from_reeb(g) -> CircleFiberDiagram:
    prof = fiber_profile(g)
    if not prof.events:
        return CircleFiberDiagram(BoundaryMode.CLOSED, (RegularArc(0),))
    spans = _spans(g)
    cells = [RegularArc(0)]
    for i, ev in enumerate(prof.events):
        cells.append(DiagramEvent(ev.fiber_class, ev.components))
        if i + 1 < len(prof.events):
            level = (ev.value + prof.events[i + 1].value) / 2
            circles = sum(1 for lo, hi in spans if lo < level < hi)
            cells.append(RegularArc(circles))
    return CircleFiberDiagram(BoundaryMode.CLOSED, tuple(cells))
