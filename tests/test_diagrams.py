import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldcob.diagrams import (BoundaryMode, CircleFiberDiagram, CuspCount,
                              DiagramError, DiagramEvent, RegularArc,
                              algebraic_counts, cusp_count_boundary,
                              cusp_count_closed, diagram_from_json,
                              diagram_to_json, disjoint_union_diagrams,
                              from_reeb, reverse, validate_diagram)
from foldcob.reeb import (make_graph, random_reeb, sphere_graph, torus_graph,
                          fiber_profile)


def closed(*cells):
    return CircleFiberDiagram(BoundaryMode.CLOSED, cells)


def test_empty_diagram_is_valid():
    assert not validate_diagram(closed(RegularArc(0)))


def test_single_cell_must_be_an_arc():
    assert validate_diagram(closed(DiagramEvent("I0", 1))) == [
        "cell 0: expected arc"]
    d = closed(RegularArc(2))
    assert reverse(d) == d


def test_closed_rejects_boundary_class():
    d = closed(RegularArc(1), DiagramEvent("Ia", 1))
    assert any("boundary class" in v for v in validate_diagram(d))


def test_boundary_rejects_crosscap_class():
    d = CircleFiberDiagram(BoundaryMode.WITH_BOUNDARY,
                           (RegularArc(1, 1), DiagramEvent("I2", 1)))
    assert any("cross-cap" in v for v in validate_diagram(d))


def test_transition_rule_enforced():
    d = closed(RegularArc(1), DiagramEvent("I0", 1),
               RegularArc(1), DiagramEvent("I0", 2))
    assert any("transition" in v for v in validate_diagram(d))


def test_from_reeb_sphere():
    d = from_reeb(sphere_graph())
    assert d.cells == (RegularArc(0), DiagramEvent("I0", 1),
                       RegularArc(1), DiagramEvent("I0", 1))


def test_from_reeb_empty():
    d = from_reeb(make_graph(True, [], []))
    assert d.cells == (RegularArc(0),)
    assert cusp_count_closed(d) == CuspCount(0, "ok", 0, 0)


def test_from_reeb_counts_match_profile():
    for seed in range(60):
        g = random_reeb(seed, 3 + seed % 9, seed % 2 == 0)
        counts = algebraic_counts(from_reeb(g))
        assert counts == {**fiber_profile(g).counts, "Ia_o": 0, "Ia_e": 0}


def test_reverse_negates_counts():
    d = from_reeb(torus_graph())
    c = algebraic_counts(d)
    rc = algebraic_counts(reverse(d))
    for key in ("I0_o", "I0_e", "I1_o", "I1_e"):
        assert rc[key] == -c[key]
    assert reverse(reverse(d)) == d


def test_union_is_valid_and_additive_on_cusp_counts():
    g1 = random_reeb(5, 8, True)
    g2 = random_reeb(9, 6, True)
    d1, d2 = from_reeb(g1), from_reeb(g2)
    u = disjoint_union_diagrams(d1, d2)
    assert not validate_diagram(u)
    assert (cusp_count_closed(u).count
            == cusp_count_closed(d1).count + cusp_count_closed(d2).count)


def test_symmetric_union_has_zero_cusp_count():
    d = from_reeb(random_reeb(3, 10, True))
    u = disjoint_union_diagrams(d, reverse(d))
    res = cusp_count_closed(u)
    assert res.count == 0 and res.cross_check == "ok"


def test_mode_checks():
    d = closed(RegularArc(0))
    with pytest.raises(DiagramError):
        cusp_count_boundary(d)
    b = CircleFiberDiagram(BoundaryMode.WITH_BOUNDARY, (RegularArc(0, 1),))
    with pytest.raises(DiagramError):
        cusp_count_closed(b)
    assert cusp_count_boundary(b).count == 0


def test_retagged_closed_diagram_gives_same_count():
    d = from_reeb(random_reeb(11, 9, True))
    if any(ev.fiber_class == "I2" for ev in d.events()):
        pytest.skip("cross-cap events cannot be re-tagged")
    b = CircleFiberDiagram(BoundaryMode.WITH_BOUNDARY, d.cells)
    assert not validate_diagram(b)
    assert cusp_count_boundary(b).count == cusp_count_closed(d).count
    assert cusp_count_boundary(b).cross_check == "ok"


def test_boundary_count_uses_arc_classes():
    # one circle is born and then merges into the single boundary arc
    b = CircleFiberDiagram(
        BoundaryMode.WITH_BOUNDARY,
        (RegularArc(1, 1), DiagramEvent("I1", 1),
         RegularArc(0, 1), DiagramEvent("I0", 2)))
    assert not validate_diagram(b)
    res = cusp_count_boundary(b)
    assert res == CuspCount(-1, "ok", -1, -1)


def test_json_roundtrip():
    d = from_reeb(torus_graph())
    doc = diagram_to_json(d)
    assert diagram_from_json(doc) == d


def test_json_rejects_malformed():
    with pytest.raises(DiagramError):
        diagram_from_json({"mode": "CLOSED", "cells": [{"nope": {}}]})
    with pytest.raises(DiagramError):
        diagram_from_json({"mode": "OPEN", "cells": []})
    with pytest.raises(DiagramError):
        diagram_from_json("not a diagram")


@st.composite
def _walk_diagrams(draw):
    """A valid CLOSED or WITH_BOUNDARY diagram built by a random walk:
    random events from a start arc, then events back to it."""
    mode = draw(st.sampled_from(BoundaryMode))
    boundary = mode is BoundaryMode.WITH_BOUNDARY
    start = RegularArc(draw(st.integers(0, 3)),
                       draw(st.integers(0, 3)) if boundary else 0)
    arcs, events = [start], []

    def step(cls, after):
        events.append(DiagramEvent(cls, draw(st.integers(1, 6))))
        arcs.append(after)

    classes = ["I0", "I1", "Ia" if boundary else "I2"]
    for _ in range(draw(st.integers(0, 12))):
        here = arcs[-1]
        cls = draw(st.sampled_from(classes))
        if cls == "I2":
            step(cls, here)
        elif cls in ("I0", "I1"):
            dc = draw(st.sampled_from([-1, 1] if here.circles else [1]))
            step(cls, RegularArc(here.circles + dc, here.arcs))
        else:
            # an Ia event changes the total by one, split any way
            total = here.total + draw(st.sampled_from(
                [-1, 1] if here.total else [1]))
            circles = draw(st.integers(0, total))
            step(cls, RegularArc(circles, total - circles))
    while arcs[-1] != start:
        here = arcs[-1]
        if here.circles != start.circles:
            dc = 1 if here.circles < start.circles else -1
            step(draw(st.sampled_from(["I0", "I1"])),
                 RegularArc(here.circles + dc, here.arcs))
        else:
            da = 1 if here.arcs < start.arcs else -1
            step("Ia", RegularArc(here.circles, here.arcs + da))
    cells = [start]
    for ev, after in zip(events, arcs[1:-1] + [None]):
        cells.append(ev)
        if after is not None:
            cells.append(after)
    return CircleFiberDiagram(mode, tuple(cells))


def _reference_counts(d):
    """The counting rule written out per event: the sign is +1 when the
    regular total before the event is even, the parity is that of the
    event's components, and I2 is counted mod 2 per parity."""
    counts = dict.fromkeys(["I0_o", "I0_e", "I1_o", "I1_e", "I2_o", "I2_e",
                            "Ia_o", "Ia_e"], 0)
    for i in range(1, len(d.cells), 2):
        ev, before = d.cells[i], d.cells[i - 1]
        parity = "o" if ev.components % 2 == 1 else "e"
        key = f"{ev.fiber_class}_{parity}"
        if ev.fiber_class == "I2":
            counts[key] = (counts[key] + 1) % 2
            continue
        sign = 1 if (before.circles + before.arcs) % 2 == 0 else -1
        counts[key] += sign
    return counts


@settings(max_examples=300, deadline=None)
@given(_walk_diagrams())
def test_counting_rule_matches_per_event_reference(d):
    assert not validate_diagram(d)
    ref = _reference_counts(d)
    assert algebraic_counts(d) == ref
    lhs = -ref["I0_o"] + ref["I0_e"]
    rhs = -ref["Ia_o"] + ref["Ia_e"] - ref["I1_o"] + ref["I1_e"]
    want = CuspCount(lhs, "ok" if lhs == rhs else "mismatch", lhs, rhs)
    if d.mode is BoundaryMode.CLOSED:
        assert cusp_count_closed(d) == want
        with pytest.raises(DiagramError, match="needs a WITH_BOUNDARY"):
            cusp_count_boundary(d)
    else:
        assert cusp_count_boundary(d) == want
        with pytest.raises(DiagramError, match="needs a CLOSED"):
            cusp_count_closed(d)


@pytest.mark.parametrize("mode, cells, first", [
    ("CLOSED", (), "diagram needs at least one arc"),
    ("CLOSED", (RegularArc(0), DiagramEvent("I0", 1), RegularArc(1)),
     "cell list must alternate arc/event cyclically"),
    ("CLOSED", (RegularArc(-1),), "arc 0: negative component count"),
    ("CLOSED", (RegularArc(0, 1),),
     "arc 0: arc components in a CLOSED diagram"),
    ("CLOSED", (RegularArc(1), DiagramEvent("I2", 0)),
     "event 0: components must be >= 1"),
    ("CLOSED", (RegularArc(1), DiagramEvent("I2", 1), RegularArc(2),
                DiagramEvent("I2", 1)),
     "event 0: I2 transition must keep both counts"),
    ("WITH_BOUNDARY", (RegularArc(1, 1), DiagramEvent("Ia", 1)),
     "event 0: Ia transition must change the total count by 1"),
])
def test_each_diagram_problem_is_reported_first(mode, cells, first):
    d = CircleFiberDiagram(BoundaryMode(mode), cells)
    assert validate_diagram(d)[0] == first


def test_union_with_a_single_arc_shifts_the_other_diagram():
    d = closed(RegularArc(0), DiagramEvent("I0", 1), RegularArc(1),
               DiagramEvent("I0", 1))
    lone = closed(RegularArc(2))
    want = closed(RegularArc(2), DiagramEvent("I0", 3), RegularArc(3),
                  DiagramEvent("I0", 3))
    assert disjoint_union_diagrams(lone, d) == want
    assert disjoint_union_diagrams(d, lone) == want
    boundary = CircleFiberDiagram(BoundaryMode.WITH_BOUNDARY,
                                  (RegularArc(0, 1),))
    with pytest.raises(DiagramError, match="different modes"):
        disjoint_union_diagrams(lone, boundary)


@pytest.mark.parametrize("event", [None, ("I0", 1), RegularArc(1)])
def test_an_event_slot_holds_only_an_event(event):
    d = closed(RegularArc(0), event)
    assert validate_diagram(d) == ["cell 1: expected event"]
    other = closed(RegularArc(0))
    for call in (cusp_count_closed, reverse,
                 lambda x: disjoint_union_diagrams(x, other),
                 lambda x: disjoint_union_diagrams(other, x)):
        with pytest.raises(DiagramError, match="^cell 1: expected event$"):
            call(d)
