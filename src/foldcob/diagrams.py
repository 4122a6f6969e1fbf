"""Circle-valued fiber diagrams for boundary maps to S^1.

A diagram is a cyclic alternating sequence of regular arcs and singular
events, read counterclockwise.  An arc records how many circle and arc
components the regular fiber has; an event records the singular fiber
class and its component count.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from enum import Enum
from functools import cached_property, partial
from itertools import chain, repeat

from .choices import CUSP_C1, CUSP_C2
from .reeb import (ReebGraph, _evaluate, _item_error, _json_list,
                   _parse_enum, _tally, _valid_sweep)


class BoundaryMode(Enum):
    CLOSED = "CLOSED"
    WITH_BOUNDARY = "WITH_BOUNDARY"


class DiagramError(ValueError):
    pass


class RegularArc(namedtuple("RegularArc", "circles arcs", defaults=(0,))):
    __slots__ = ()

    @property
    def total(self) -> int:
        return self.circles + self.arcs


# fiber_class is "I0", "I1", "I2" or "Ia"
DiagramEvent = namedtuple("DiagramEvent", "fiber_class components")


class _Cells(dict):
    """Cells of one kind by their fields, each built once: ``cells[args]``
    is ``kind(*args)``.  Cells are immutable and compare by value, so a
    diagram can hold one object for every equal cell.  ``from_reeb``
    keeps the pair of cells of each distinct sweep event in one too."""

    def __init__(self, kind):
        super().__init__()
        self.kind = kind

    def __missing__(self, args):
        cell = self[args] = self.kind(*args)
        return cell


# cells is (arc, event, arc, event, ...), read cyclically
class CircleFiberDiagram(namedtuple("CircleFiberDiagram", "mode cells")):
    # no __slots__: the instance dict holds the cached check

    def arcs(self):
        return self.cells[0::2]

    def events(self):
        return self.cells[1::2]

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        """What makes the diagram invalid, checked on first use.  The
        diagram is immutable, so the check never goes stale."""
        return tuple(_diagram_problems(self))


_CLASSES = ("I0", "I1", "I2", "Ia")


def validate_diagram(d: CircleFiberDiagram) -> list[str]:
    return list(d._problems)


# what each slot of the cell list holds: arcs at even, events at odd
_SLOTS = ((RegularArc, "arc"), (DiagramEvent, "event"))


def _diagram_problems(d: CircleFiberDiagram) -> list[str]:
    """What makes the diagram invalid, in the order ``validate_diagram``
    reports it: the cell list's shape, then each arc's and each event's
    own problems, and only when there are none, each event's transition
    between its two arcs.  ``_listed`` runs each rule once per distinct
    cell or distinct (arc, event, arc) triple."""
    cells = d.cells
    if len(cells) == 0:
        return ["diagram needs at least one arc"]
    if len(cells) % 2 != 0 and len(cells) != 1:
        return ["cell list must alternate arc/event cyclically"]
    arcs, events = cells[0::2], cells[1::2]
    if not (all(map(isinstance, arcs, repeat(RegularArc)))
            and all(map(isinstance, events, repeat(DiagramEvent)))):
        for i, cell in enumerate(cells):
            kind, name = _SLOTS[i % 2]
            if not isinstance(cell, kind):
                return [f"cell {i}: expected {name}"]
    closed = d.mode is BoundaryMode.CLOSED
    out = (_listed("arc", partial(_arc_rule, closed), arcs)
           + _listed("event", partial(_event_rule, closed), events))
    if out:
        return out
    # event i lies between arc i and arc i + 1, cyclically
    return _listed("event", _transition_rule, arcs, events,
                   arcs[1:] + arcs[:1])


def _listed(name: str, rule, *columns) -> list[str]:
    """The problems ``rule`` finds with the cells at each position of the
    columns, as "<name> i: <problem>" in position order.

    The rule runs once per distinct tuple of cells, in the order they
    first occur; only when it finds a problem are the positions walked.
    Equal cells get one answer, so a cell that the rule cannot compare
    raises the error it would raise at its first position.  When a cell
    has an unhashable field, the rule runs on every position instead.
    The tuples are not kept, so a long diagram adds no objects for the
    cyclic collector to scan."""
    try:
        distinct = dict.fromkeys(zip(*columns))
    except TypeError:
        return [f"{name} {i}: {p}" for i, cells in enumerate(zip(*columns))
                for p in rule(*cells)]
    found = {cells: rule(*cells) for cells in distinct}
    if not any(found.values()):
        return []
    return [f"{name} {i}: {p}" for i, cells in enumerate(zip(*columns))
            for p in found[cells]]


def _arc_rule(closed: bool, arc) -> list[str]:
    out = []
    if arc.circles < 0 or arc.arcs < 0:
        out.append("negative component count")
    if closed and arc.arcs != 0:
        out.append("arc components in a CLOSED diagram")
    return out


def _event_rule(closed: bool, ev) -> list[str]:
    if ev.fiber_class not in _CLASSES:
        return ["class must be one of " + ", ".join(_CLASSES)]
    out = []
    if ev.components < 1:
        out.append("components must be >= 1")
    if ev.fiber_class == "Ia" and closed:
        out.append("boundary class in a CLOSED diagram")
    if ev.fiber_class == "I2" and not closed:
        out.append("cross-cap class outside CLOSED mode")
    return out


def _transition_rule(before, ev, after) -> list[str]:
    dc = after.circles - before.circles
    da = after.arcs - before.arcs
    if ev.fiber_class in ("I0", "I1"):
        if abs(dc) != 1 or da != 0:
            return [f"{ev.fiber_class} transition must change circles by 1 "
                    "and keep arcs"]
    elif ev.fiber_class == "I2":
        if dc != 0 or da != 0:
            return ["I2 transition must keep both counts"]
    elif abs(dc + da) != 1:
        return ["Ia transition must change the total count by 1"]
    return []


def _require_valid(d: CircleFiberDiagram):
    if d._problems:
        raise DiagramError(d._problems[0])


def algebraic_counts(d: CircleFiberDiagram) -> dict:
    """The diagram's events tallied as ``fiber_profile`` tallies a graph's:
    one total per generator label ``<class>_<parity>``, Ia included.

    Sign is +1 when the regular total-component parity goes even to odd
    in the counterclockwise direction.  The cross-cap class I2 does not
    flip parity and is counted mod 2 per parity.  Each distinct (arc,
    event) pair is read once and counted with its number of positions;
    ``from_reeb`` and ``diagram_from_json`` build few distinct cells.
    """
    _require_valid(d)
    # arcs()[i] is the regular level just before events()[i]
    counted = Counter()
    for (before, ev), n in Counter(zip(d.arcs(), d.events())).items():
        counted[ev.fiber_class, ev.components, before.total] += n
    return _tally(counted, _CLASSES)


# cross_check is "ok" or "mismatch"
CuspCount = namedtuple("CuspCount", "count cross_check lhs rhs")


def cusp_count_closed(d: CircleFiberDiagram) -> CuspCount:
    """Algebraic number of cusps read from a closed-fiber diagram.

    Returns -|I0_o| + |I0_e|, cross-checked against -|I1_o| + |I1_e|;
    a mismatch means the diagram is not realizable as a boundary map.
    """
    return _cusp_count(d, BoundaryMode.CLOSED, "closed")


def cusp_count_boundary(d: CircleFiberDiagram) -> CuspCount:
    """Algebraic number of cusps from a boundary-fiber diagram.

    Returns -|I0_o| + |I0_e|, cross-checked against the second
    invariant expression -|Ia_o| + |Ia_e| - |I1_o| + |I1_e|; for
    diagrams without boundary classes this reduces to the closed check.
    """
    return _cusp_count(d, BoundaryMode.WITH_BOUNDARY, "boundary")


def _cusp_count(d: CircleFiberDiagram, mode: BoundaryMode,
                name: str) -> CuspCount:
    if d.mode is not mode:
        raise DiagramError(f"{name} cusp count needs a {mode.value} diagram")
    c = algebraic_counts(d)
    lhs = _evaluate(CUSP_C2, c)
    rhs = -_evaluate(CUSP_C1, c)
    return CuspCount(lhs, "ok" if lhs == rhs else "mismatch", lhs, rhs)


def from_reeb(g: ReebGraph) -> CircleFiberDiagram:
    """Closed diagram of a real-valued function, viewed in the circle.

    The function misses one point of the circle, so the diagram starts
    and ends with an empty arc.
    """
    arcs, events = _Cells(RegularArc), _Cells(DiagramEvent)
    # each sweep event gives the regular level below its critical value,
    # then its fiber; equal events give the same pair of cells
    pairs = _Cells(lambda cls, components, below: (arcs[below, 0],
                                                    events[cls, components]))
    cells = chain.from_iterable(map(pairs.__getitem__, _valid_sweep(g).events))
    return CircleFiberDiagram(BoundaryMode.CLOSED,
                              tuple(cells) or (RegularArc(0),))


def reverse(d: CircleFiberDiagram) -> CircleFiberDiagram:
    """The diagram read in the opposite direction around the circle."""
    _require_valid(d)
    cells = (d.cells[0],) + tuple(reversed(d.cells[1:]))
    return CircleFiberDiagram(d.mode, cells)


def disjoint_union_diagrams(d1: CircleFiberDiagram,
                            d2: CircleFiberDiagram) -> CircleFiberDiagram:
    """Superpose two diagrams on the same circle.

    Each diagram's events keep their cyclic order; while one diagram is
    at an event, the other contributes its base arc to the fiber.
    """
    _require_valid(d1)
    _require_valid(d2)
    if d1.mode is not d2.mode:
        raise DiagramError("cannot combine diagrams of different modes")
    base1, base2 = d1.cells[0], d2.cells[0]

    def shifted(cells, other_base):
        out = []
        for i, cell in enumerate(cells):
            if i % 2 == 0:
                out.append(RegularArc(cell.circles + other_base.circles,
                                      cell.arcs + other_base.arcs))
            else:
                out.append(DiagramEvent(cell.fiber_class,
                                        cell.components + other_base.total))
        return out

    part1 = shifted(d1.cells, base2)
    part2 = shifted(d2.cells, base1)
    if len(d1.cells) == 1:
        cells = part2
    elif len(d2.cells) == 1:
        cells = part1
    else:
        cells = part1 + part2
    d = CircleFiberDiagram(d1.mode, tuple(cells))
    _require_valid(d)
    return d


def diagram_to_json(d: CircleFiberDiagram) -> dict:
    cells = [None] * len(d.cells)
    cells[0::2] = [{"arc": {"circles": a.circles, "arcs": a.arcs}}
                   for a in d.cells[0::2]]
    cells[1::2] = [{"event": {"class": e.fiber_class,
                              "components": e.components}}
                   for e in d.cells[1::2]]
    return {"mode": d.mode.value, "cells": cells}


def _json_int(x, field):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{field} must be an integer, not {type(x).__name__}")
    return x


def diagram_from_json(doc) -> CircleFiberDiagram:
    if not isinstance(doc, dict):
        raise DiagramError("diagram document must be a JSON object")
    try:
        mode = _parse_enum(BoundaryMode, doc["mode"], "mode")
        arcs, events = _Cells(RegularArc), _Cells(DiagramEvent)
        cells = []
        listed = _json_list(doc, "cells")
        try:
            for k, cell in enumerate(listed):
                # a string would pass "arc" in cell as a substring test
                if type(cell) is not dict:
                    raise ValueError("must be an object, not "
                                     f"{type(cell).__name__}")
                if ("arc" in cell) == ("event" in cell):
                    raise ValueError("needs exactly one of arc, event")
                if "arc" in cell:
                    arc = cell["arc"]
                    if type(arc) is not dict:
                        raise ValueError("arc must be an object, not "
                                         f"{type(arc).__name__}")
                    circles = arc["circles"]
                    if type(circles) is not int:
                        circles = _json_int(circles, "circles")
                    n = arc.get("arcs", 0)
                    if type(n) is not int:
                        n = _json_int(n, "arcs")
                    cells.append(arcs[circles, n])
                else:
                    event = cell["event"]
                    if type(event) is not dict:
                        raise ValueError("event must be an object, not "
                                         f"{type(event).__name__}")
                    cls = event["class"]
                    if not isinstance(cls, str):
                        raise ValueError("event class must be a string, not "
                                         f"{type(cls).__name__}")
                    n = event["components"]
                    if type(n) is not int:
                        n = _json_int(n, "components")
                    cells.append(events[cls, n])
        except (KeyError, TypeError, ValueError) as exc:
            raise _item_error("cell", k, exc) from exc
    except KeyError as exc:
        raise DiagramError("malformed diagram document: missing field "
                           f"{exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DiagramError(f"malformed diagram document: {exc}") from exc
    d = CircleFiberDiagram(mode, tuple(cells))
    _require_valid(d)
    return d
