"""Reference diagram check and tally, one position at a time.

``diagram_problems`` walks the cells position by position, as
``diagrams._diagram_problems`` did before it checked each distinct cell
once, with one rule added since: an event slot holds a ``DiagramEvent``
and nothing else.  ``tally`` signs and counts each event on its own.
The differential tests compare the library with both.
"""

from __future__ import annotations

from foldcob.diagrams import BoundaryMode, DiagramEvent, RegularArc

CLASSES = ("I0", "I1", "I2", "Ia")


def diagram_problems(d) -> list[str]:
    out = []
    cells = d.cells
    if len(cells) == 0:
        return ["diagram needs at least one arc"]
    if len(cells) % 2 != 0 and len(cells) != 1:
        return ["cell list must alternate arc/event cyclically"]
    for i, cell in enumerate(cells):
        if i % 2 == 0 and not isinstance(cell, RegularArc):
            return [f"cell {i}: expected arc"]
        if i % 2 == 1 and not isinstance(cell, DiagramEvent):
            return [f"cell {i}: expected event"]
    arcs, events = cells[0::2], cells[1::2]
    for i, arc in enumerate(arcs):
        if arc.circles < 0 or arc.arcs < 0:
            out.append(f"arc {i}: negative component count")
        if d.mode is BoundaryMode.CLOSED and arc.arcs != 0:
            out.append(f"arc {i}: arc components in a CLOSED diagram")
    for i, ev in enumerate(events):
        if ev.fiber_class not in CLASSES:
            out.append(f"event {i}: class must be one of "
                       + ", ".join(CLASSES))
            continue
        if ev.components < 1:
            out.append(f"event {i}: components must be >= 1")
        if ev.fiber_class == "Ia" and d.mode is BoundaryMode.CLOSED:
            out.append(f"event {i}: boundary class in a CLOSED diagram")
        if ev.fiber_class == "I2" and d.mode is not BoundaryMode.CLOSED:
            out.append(f"event {i}: cross-cap class outside CLOSED mode")
    if out:
        return out
    # event i lies between arc i and arc i + 1, cyclically
    for i, ev in enumerate(events):
        before, after = arcs[i], arcs[(i + 1) % len(arcs)]
        dc = after.circles - before.circles
        da = after.arcs - before.arcs
        if ev.fiber_class in ("I0", "I1"):
            if abs(dc) != 1 or da != 0:
                out.append(f"event {i}: {ev.fiber_class} transition must "
                           "change circles by 1 and keep arcs")
        elif ev.fiber_class == "I2":
            if dc != 0 or da != 0:
                out.append(f"event {i}: I2 transition must keep both counts")
        elif abs(dc + da) != 1:
            out.append(f"event {i}: Ia transition must change the "
                       "total count by 1")
    return out


def tally(d) -> dict:
    """Each event on its own: the parity is that of its components, the
    sign +1 when the regular total just before it is even, and I2 is
    counted mod 2 per parity."""
    counts = {f"{cls}_{p}": 0 for cls in CLASSES for p in "oe"}
    for i in range(1, len(d.cells), 2):
        before, ev = d.cells[i - 1], d.cells[i]
        key = f"{ev.fiber_class}_{'o' if ev.components % 2 else 'e'}"
        if ev.fiber_class == "I2":
            counts[key] = (counts[key] + 1) % 2
        else:
            counts[key] += -1 if (before.circles + before.arcs) % 2 else 1
    return counts
