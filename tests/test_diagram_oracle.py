"""The diagram check and tally against the positional reference of
``tests/diagram_reference.py``, on seeded mutations of valid diagrams:
the same problems in the same order and wording, the same exception
where a field cannot be compared, and the same tally on every valid
diagram.  The mutations build cells in Python, so equal cells are
distinct objects, and some fields are bools, floats or lists."""

import random
import sys

import pytest

sys.path.insert(0, "tests")

from foldcob.diagrams import (BoundaryMode, CircleFiberDiagram, DiagramEvent,
                              RegularArc, algebraic_counts, diagram_from_json,
                              diagram_to_json, from_reeb, validate_diagram)
from foldcob.reeb import random_reeb

import diagram_reference as ref

# counts a mutation may write: ints, their bool and float equals, a
# half, and values that cannot be compared with 0 or cannot be hashed
_COUNTS = [0, 1, 2, 3, -1, True, False, 0.0, 1.0, 2.0, 0.5, [1], "1", None]
_CLASSES = ["I0", "I1", "I2", "Ia", "I3", ["I0"], None]


def _outcome(fn, d):
    try:
        return fn(d)
    except Exception as exc:   # the type and the message must agree too
        return type(exc), str(exc)


def _retyped(x, rng):
    """x, or an equal bool or float."""
    if type(x) is int and rng.random() < 0.3:
        return rng.choice([float(x)] + ([bool(x)] if x in (0, 1) else []))
    return x


def _mutate(d, rng):
    """A diagram near d: its cells rebuilt, some fields retyped to equal
    values, and up to two random changes."""
    cells = [RegularArc(_retyped(c.circles, rng), _retyped(c.arcs, rng))
             if isinstance(c, RegularArc)
             else DiagramEvent(c.fiber_class, _retyped(c.components, rng))
             for c in d.cells]
    mode = d.mode
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        i = rng.randrange(len(cells))
        how = rng.randrange(8)
        if how == 0:
            cells[i] = RegularArc(rng.choice(_COUNTS), rng.choice(_COUNTS))
        elif how == 1:
            cells[i] = DiagramEvent(rng.choice(_CLASSES),
                                    rng.choice(_COUNTS))
        elif how == 2:
            cells[i] = rng.choice([None, ("I0", 1), (0, 0)])
        elif how == 3:
            j = rng.randrange(len(cells))
            cells[i], cells[j] = cells[j], cells[i]
        elif how == 4:
            del cells[i]
        elif how == 5:
            cells[i:i] = [RegularArc(1), DiagramEvent("I0", 1)]
        elif how == 6:
            mode = (BoundaryMode.WITH_BOUNDARY
                    if mode is BoundaryMode.CLOSED else BoundaryMode.CLOSED)
        elif isinstance(cells[i], DiagramEvent):
            cells[i] = DiagramEvent(rng.choice(["I0", "I1", "I2", "Ia"]),
                                    cells[i].components)
        if not cells:
            cells = [RegularArc(0)]
    return CircleFiberDiagram(mode, tuple(cells))


@pytest.mark.parametrize("seed", range(8))
def test_diagram_check_and_tally_match_the_reference(seed):
    rng = random.Random(seed)
    valid = 0
    for n in range(150):
        g = random_reeb(rng.randrange(10**6), rng.randrange(0, 40),
                        rng.random() < 0.5)
        d = from_reeb(g)
        if n % 3 == 0:
            # equal cells shared as one object, as the JSON reader builds
            d = diagram_from_json(diagram_to_json(d))
        else:
            d = _mutate(d, rng)
        want = _outcome(ref.diagram_problems, d)
        assert _outcome(validate_diagram, d) == want
        if want == []:
            valid += 1
            assert algebraic_counts(d) == ref.tally(d)
    assert valid > 50


@pytest.mark.parametrize("d", [
    # the same unhashable event at two positions
    CircleFiberDiagram(BoundaryMode.CLOSED,
                       (RegularArc(0), DiagramEvent([1], 1),
                        RegularArc(1), DiagramEvent([1], 1))),
    CircleFiberDiagram(BoundaryMode.CLOSED,
                       (RegularArc([0]), DiagramEvent("I0", 1))),
    # a field that cannot be compared with 0, after a hashable one
    CircleFiberDiagram(BoundaryMode.CLOSED,
                       (RegularArc(0), DiagramEvent("I0", 1),
                        RegularArc("x"), DiagramEvent("I0", 1))),
    # equal counts of three types
    CircleFiberDiagram(BoundaryMode.CLOSED,
                       (RegularArc(0), DiagramEvent("I0", True),
                        RegularArc(1.0), DiagramEvent("I0", 1),
                        RegularArc(True), DiagramEvent("I0", 1.0))),
    # a valid diagram whose equal cells are of different types
    CircleFiberDiagram(BoundaryMode.CLOSED,
                       (RegularArc(0), DiagramEvent("I0", True),
                        RegularArc(1.0), DiagramEvent("I0", 1),
                        RegularArc(False), DiagramEvent("I0", 1.0),
                        RegularArc(True, 0.0), DiagramEvent("I0", 1))),
])
def test_unhashable_and_retyped_fields(d):
    want = _outcome(ref.diagram_problems, d)
    assert _outcome(validate_diagram, d) == want
    if want == []:
        assert algebraic_counts(d) == ref.tally(d)


def test_unhashable_class_is_reported():
    d = CircleFiberDiagram(BoundaryMode.CLOSED,
                           (RegularArc(0), DiagramEvent([1], 1)))
    assert validate_diagram(d) == [
        "event 0: class must be one of I0, I1, I2, Ia"]
