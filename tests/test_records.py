"""The result records are named tuples with value semantics: immutable,
equal and hashed by their fields, printed as ``Name(field=value, ...)``."""

import pickle
from fractions import Fraction

import pytest

from foldcob.catalog import (CocycleReport, CountingIdentity, FiberClass,
                             Hypercohomology, SuspensionMaps)
from foldcob.choices import Category
from foldcob.complexes import (ChainMap, Direction, Generator, MixedComplex,
                               RingTag, Violation, homology, make_complex)
from foldcob.diagrams import (BoundaryMode, CircleFiberDiagram, CuspCount,
                              DiagramEvent, RegularArc)
from foldcob.intmat import IntMatrix
from foldcob.reeb import (FiberEvent, FiberProfile, InvariantVector,
                          PieceMultiset, ReductionResult, Vertex, VertexKind,
                          invariants, make_graph)
from foldcob.selftest import CheckResult


_homology = homology.__wrapped__     # no cache: a new group on every call


def _complex():
    return make_complex(Direction.HOMOLOGICAL,
                        [[("x", RingTag.FREE)], [("y", RingTag.TWO_TORSION)]],
                        [{"y": {"x": 0}}])


def _map():
    return ChainMap(_complex(), _complex(),
                    (IntMatrix.identity(1), IntMatrix.identity(1)))


def _graph():
    return make_graph(True, [(0, 0, "MIN"), (1, 1, "MAX")], [(0, 1)])


# one sample of each record, built afresh on every call
SAMPLES = {
    "IntMatrix": lambda: IntMatrix(2, 2, ((1, 0), (0, 1))),
    "Generator": lambda: Generator("x", RingTag.FREE),
    "MixedComplex": _complex,
    "Violation": lambda: Violation("shape", 1, "differential is 1x2"),
    "AbelianGroupPresentation": lambda: _homology(_complex(), 0),
    "ChainMap": _map,
    "FiberClass": lambda: FiberClass("I0", "o", 1, True),
    "SuspensionMaps": lambda: SuspensionMaps(_map(), _map()),
    "Hypercohomology": lambda: Hypercohomology(
        _homology(_complex(), 1), IntMatrix.identity(1), True),
    "CountingIdentity": lambda: CountingIdentity(
        (("I0_o", 1), ("I1_e", 1)), ()),
    "CocycleReport": lambda: CocycleReport((0, 1), (1, 0), True, False),
    "Vertex": lambda: Vertex(0, Fraction(1, 2), VertexKind.MIN),
    "ReebGraph": _graph,
    "FiberEvent": lambda: FiberEvent(Fraction(0), "I0", "o", 1, 1),
    "FiberProfile": lambda: FiberProfile(
        (FiberEvent(Fraction(0), "I2", "o", None, 1),), {"I2_o": 1}),
    "InvariantVector": lambda: InvariantVector(1, 0, Category.UNORIENTED),
    "PieceMultiset": lambda: PieceMultiset(n1=2, n2=1, n3=1, n4=0),
    "ReductionResult": lambda: ReductionResult(
        InvariantVector(0, 0, Category.ORIENTED), (("DELETE_SPHERE", 2),),
        _graph()),
    "RegularArc": lambda: RegularArc(1),
    "DiagramEvent": lambda: DiagramEvent("I1", 2),
    "CircleFiberDiagram": lambda: CircleFiberDiagram(
        BoundaryMode.CLOSED, (RegularArc(0), DiagramEvent("I0", 1))),
    "CuspCount": lambda: CuspCount(1, "ok", 1, 1),
    "CheckResult": lambda: CheckResult("fixtures", True),
}

_GEN_X = "Generator(name='x', ring=<RingTag.FREE: 'Z'>)"
_CX = ("MixedComplex(direction=<Direction.HOMOLOGICAL: 'homological'>, "
       f"generators=(({_GEN_X},), (Generator(name='y', "
       "ring=<RingTag.TWO_TORSION: 'Z2'>),)), "
       "differentials=(IntMatrix(rows=1, cols=1, entries=((0,),)),))")
_ONE = "IntMatrix(rows=1, cols=1, entries=((1,),))"
_MAP = f"ChainMap(source={_CX}, target={_CX}, matrices=({_ONE}, {_ONE}))"
_GRAPH = ("ReebGraph(orientable=True, vertices=(Vertex(id=0, "
          "value=Fraction(0, 1), kind=<VertexKind.MIN: 'MIN'>), "
          "Vertex(id=1, value=Fraction(1, 1), kind=<VertexKind.MAX: 'MAX'>)), "
          "edges=((0, 1),))")

# the reprs the frozen dataclasses printed, but for the rename of
# AbelianGroupPresentation's _coord_rows to coord_rows
REPRS = {
    "IntMatrix": "IntMatrix(rows=2, cols=2, entries=((1, 0), (0, 1)))",
    "Generator": _GEN_X,
    "MixedComplex": _CX,
    "Violation": "Violation(kind='shape', degree=1, "
                 "detail='differential is 1x2')",
    "AbelianGroupPresentation": "AbelianGroupPresentation(free_rank=1, "
                                "torsion=(), basis_cycles=((1,),), "
                                "coord_rows=((0, ((0, 1),)),))",
    "ChainMap": _MAP,
    "FiberClass": "FiberClass(name='I0', parity='o', codim=1, "
                  "coorientable=True, cusp_class=False)",
    "SuspensionMaps": f"SuspensionMaps(chain={_MAP}, pullback={_MAP})",
    "Hypercohomology": "Hypercohomology(group=AbelianGroupPresentation("
                       "free_rank=0, torsion=(2,), basis_cycles=((1,),), "
                       f"coord_rows=((2, ((0, 1),)),)), comparison={_ONE}, "
                       "comparison_is_isomorphism=True)",
    "CountingIdentity": "CountingIdentity(f_terms=(('I0_o', 1), "
                        "('I1_e', 1)), F_terms=())",
    "CocycleReport": "CocycleReport(image_c1=(0, 1), image_c2=(1, 0), "
                     "c2_hits_cusp_classes=True, c1_plus_c2_closed=False)",
    "Vertex": "Vertex(id=0, value=Fraction(1, 2), "
              "kind=<VertexKind.MIN: 'MIN'>)",
    "ReebGraph": _GRAPH,
    "FiberEvent": "FiberEvent(value=Fraction(0, 1), fiber_class='I0', "
                  "parity='o', sign=1, components=1)",
    "FiberProfile": "FiberProfile(events=(FiberEvent(value=Fraction(0, 1), "
                    "fiber_class='I2', parity='o', sign=None, "
                    "components=1),), counts={'I2_o': 1})",
    "InvariantVector": "InvariantVector(z=1, w=0, "
                       "category=<Category.UNORIENTED: 'unoriented'>)",
    "PieceMultiset": "PieceMultiset(n1=2, n2=1, n3=1, n4=0)",
    "ReductionResult": "ReductionResult(invariants=InvariantVector(z=0, w=0, "
                       "category=<Category.ORIENTED: 'oriented'>), "
                       f"trace=(('DELETE_SPHERE', 2),), canonical={_GRAPH})",
    "RegularArc": "RegularArc(circles=1, arcs=0)",
    "DiagramEvent": "DiagramEvent(fiber_class='I1', components=2)",
    "CircleFiberDiagram": "CircleFiberDiagram(mode=<BoundaryMode.CLOSED: "
                          "'CLOSED'>, cells=(RegularArc(circles=0, arcs=0), "
                          "DiagramEvent(fiber_class='I0', components=1)))",
    "CuspCount": "CuspCount(count=1, cross_check='ok', lhs=1, rhs=1)",
    "CheckResult": "CheckResult(name='fixtures', ok=True, detail='')",
}


@pytest.mark.parametrize("name", SAMPLES)
def test_record_is_a_frozen_value(name):
    a, b = SAMPLES[name](), SAMPLES[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b
    assert tuple.__new__(type(a), (object(), *a[1:])) != a
    if name == "FiberProfile":
        with pytest.raises(TypeError):   # its counts are a dict
            hash(a)
    else:
        # as a frozen dataclass hashed: the hash of the field tuple
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f)
                                                for f in a._fields))
    for f in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))
    assert a == b
    assert repr(a) == REPRS[name]


def test_keywords_and_defaults():
    assert RegularArc(3, arcs=0) == RegularArc(circles=3) == RegularArc(3)
    arc = RegularArc(3)._replace(arcs=1)
    assert type(arc) is RegularArc and arc == RegularArc(3, 1)
    assert FiberClass("I0", "o", 1, True).cusp_class is False
    assert CheckResult("x", True).detail == ""
    assert PieceMultiset(n1=1, n2=2, n3=3, n4=4).n3 == 3
    with pytest.raises(ValueError, match="row count mismatch"):
        IntMatrix(rows=2, cols=1, entries=((1,),))
    with pytest.raises(ValueError, match="column count mismatch"):
        IntMatrix(rows=1, cols=2, entries=((1,),))
    with pytest.raises(ValueError, match="row count mismatch"):
        IntMatrix.identity(2)._replace(rows=3)


def test_mixed_complex_pickles_without_its_hash():
    a = _complex()
    hash(a)
    assert "_hash" in vars(a)
    c = pickle.loads(pickle.dumps(a))
    assert type(c) is MixedComplex and c == a
    assert "_hash" not in vars(c)
    assert hash(c) == hash(a)


def test_reeb_graph_pickles():
    g = _graph()
    z = invariants(g, Category.ORIENTED).z
    h = pickle.loads(pickle.dumps(g))
    assert h == g and repr(h) == repr(g)
    assert invariants(h, Category.ORIENTED).z == z
