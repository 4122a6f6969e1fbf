"""Reeb graphs of stable Morse functions on closed surfaces.

Vertices carry distinct rational critical values.  MIN/MAX vertices
have degree 1, saddles degree 3 (two edges on one side of the critical
value, one on the other), and degree-2 vertices model the nonorientable
cross-cap level; they may occur only when ``orientable`` is False.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter, namedtuple
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .choices import CUSP_C2, Category


class VertexKind(Enum):
    MIN = "MIN"
    MAX = "MAX"
    SADDLE = "SADDLE"
    DEG2 = "DEG2"

    # Enum hashes a member by its name in Python code, which every lookup
    # in a kind-keyed table pays; members are singletons compared by
    # identity, so the identity hash agrees with equality and runs in C.
    __hash__ = object.__hash__


# the members as plain names: reading ``VertexKind.MIN`` in a loop goes
# through the Enum class's attribute lookup on every iteration
_MIN, _MAX, _SADDLE, _DEG2 = VertexKind
# kinds by their JSON value, read without a call of the Enum class
_KIND = {k.value: k for k in VertexKind}


class ReebError(ValueError):
    pass


class CategoryError(ValueError):
    pass


# value is a Fraction, kind a VertexKind
Vertex = namedtuple("Vertex", "id value kind")


class ReebGraph(namedtuple("ReebGraph", "orientable vertices edges")):
    # no __slots__: the instance dict holds the cached sweep

    def count(self, kind: VertexKind) -> int:
        return sum(1 for v in self.vertices if v.kind is kind)

    @cached_property
    def _sweep(self) -> _Sweep:
        """The graph's level sweep, built on first use.  The graph is
        immutable, so the sweep never goes stale."""
        return _Sweep(self)


def make_graph(orientable, vertices, edges) -> ReebGraph:
    """A graph from (id, value, kind) triples and (id, id) edges.  A
    string value is read by ``_parse_frac``, in the grammar of graph
    files; any other value goes to ``Fraction`` as it is."""
    vs = tuple(Vertex(i, _parse_frac(val)[0] if isinstance(val, str)
                      else Fraction(val), VertexKind(kind))
               for i, val, kind in vertices)
    return ReebGraph(orientable, vs, tuple((a, b) for a, b in edges))


# fiber_class is "I0", "I1" or "I2", parity "o" or "e", sign None for I2
FiberEvent = namedtuple("FiberEvent",
                        "value fiber_class parity sign components")
FiberProfile = namedtuple("FiberProfile", "events counts")


_EVENT_CLASS = {_MIN: "I0", _MAX: "I0", _SADDLE: "I1", _DEG2: "I2"}


# each kind's degree, the numbers of its edges that may go up, and what
# a vertex of the right degree lacks when its edges go otherwise
_RULES = {_MIN: (1, (1,), "MIN must have its neighbor above"),
          _MAX: (1, (0,), "MAX must have its neighbor below"),
          _SADDLE: (3, (1, 2), "saddle needs edges on both sides"),
          _DEG2: (2, (1,), "DEG2 needs one edge on each side")}
# the (kind, degree, ups) of every vertex that keeps its rule
_FITS = {(k, d, u) for k, (d, ups, _) in _RULES.items() for u in ups}


def _value_key(x: Fraction):
    """Sort key that orders rationals exactly, mostly without Fraction
    arithmetic: a correctly rounded float never reverses an order, so
    the exact values are compared only when their floats tie."""
    try:
        return x.numerator / x.denominator, x
    except OverflowError:
        return (math.inf if x > 0 else -math.inf), x


class _Sweep:
    """The level sweep of a graph, read by every surface computation.

    Each graph builds its sweep once, as ``ReebGraph._sweep``, and keeps
    it.  The sweep holds no reference back to the graph, so the pair
    forms no reference cycle and is freed with the graph.

    ``problems`` lists what makes the graph invalid, in the order
    ``validate_reeb`` reports it.  Only when there are none does the
    sweep hold the rest.  ``order`` holds the vertices by increasing
    value, ``_value_key`` being the one rule that orders them: the sweep
    sorts by the keys' floats, which ``graph_from_json`` hands in from
    ``_parse_frac`` as p / q of the integers each value is parsed into,
    and only when two floats tie by the whole keys, which compare the
    values exactly.  An edge counts as up at its lower end and as down
    at its upper end, so the edges crossing a regular level are the ups
    minus the downs of the vertices under it: one sort and one pass over
    the edges give every count, in O((V+E) log V).

    The same ordered pass stores ``events``: for each vertex in value
    order, its fiber's (class, components, regular components below),
    as ``_signed`` reads them.  It also counts the totals the invariants
    read: ``kinds``, the number of vertices of each kind, and ``split``,
    the saddles with two upper and with two lower edges.  The signed
    ``tally`` is worked out from ``events`` on first use and kept.
    """

    def __init__(self, g: ReebGraph, floats=None):
        self.problems = problems = []
        vs = g.vertices
        ids, values, kinds = zip(*vs) if vs else ((), (), ())
        index = dict(zip(ids, range(len(vs))))
        if len(index) != len(vs):
            # index keeps an id's last vertex: the first vertex that is
            # not its id's last carries the first repeated id
            repeat = next(x for i, x in enumerate(ids) if index[x] != i)
            problems.append(f"duplicate vertex ids: {_show_id(repeat)}")
            return
        if floats is None:
            floats = [_value_key(x)[0] for x in values]
        # distinct floats order the values exactly and rank them
        rank = floats
        by_value = sorted(range(len(vs)), key=floats.__getitem__)
        if len(set(floats)) < len(vs):
            keys = list(map(_value_key, values))
            by_value = sorted(range(len(vs)), key=keys.__getitem__)
            # ranks in value order; equal values share a rank
            rank = [0] * len(vs)
            r = 0
            tie = None
            for prev, i in zip(by_value, by_value[1:]):
                if keys[i] != keys[prev]:
                    r += 1
                elif tie is None:
                    tie = f"{_show_id(ids[prev])} and {_show_id(ids[i])}"
                rank[i] = r
            if tie:
                problems.append(f"vertex values not distinct: vertices {tie}")
        deg = [0] * len(vs)
        up = [0] * len(vs)
        unknown = False
        for a, b in g.edges:
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                problems.append(f"edge ({_show_id(a)},{_show_id(b)}) "
                                "references unknown vertex")
                unknown = True
                continue
            if rank[i] == rank[j]:
                problems.append(f"edge ({_show_id(a)},{_show_id(b)}) "
                                "joins equal values")
            elif rank[i] < rank[j]:
                up[i] += 1
            else:
                up[j] += 1
            deg[i] += 1
            deg[j] += 1
        if unknown:
            return
        # each distinct (kind, degree, ups) is checked once; only when one
        # breaks a rule are the vertices walked for the messages
        if not set(zip(kinds, deg, up)) <= _FITS:
            sides = []
            for x, kind, d, u in zip(ids, kinds, deg, up):
                degree, ups, lack = _RULES[kind]
                if d != degree:
                    problems.append(f"vertex {_show_id(x)}: {kind.value} "
                                    f"has degree {d}")
                elif u not in ups:
                    sides.append(f"vertex {_show_id(x)}: {lack}")
            # every degree problem comes before every side problem
            problems += sides
        if g.orientable and _DEG2 in kinds:
            problems.append("DEG2 vertex in an orientable graph")
        if problems:
            return
        self.order = list(map(vs.__getitem__, by_value))
        self.events = events = []
        below = 0
        for i in by_value:
            u = up[i]
            down = deg[i] - u
            # the vertex's own component plus every edge through its level
            events.append((_EVENT_CLASS[kinds[i]], 1 + below - down, below))
            below += u - down
        self.kinds = Counter(kinds)
        # only a saddle splitting upwards has two upper edges
        n2 = up.count(2)
        self.split = n2, self.kinds[_SADDLE] - n2

    @cached_property
    def tally(self) -> dict:
        """The graph's fiber cycle in V32, keyed as ``_tally`` keys it.
        Callers share it, so they read it and never change it."""
        return _tally(Counter(self.events))


def _signed(events):
    """Each singular fiber (class, components, regular components before
    it) as (class, components, parity, sign).  The parity is that of its
    components.  I0, I1 and Ia change the regular count by one, with sign
    +1 when its parity goes even to odd; I2 keeps it and has no sign."""
    for cls, components, before in events:
        yield (cls, components, "o" if components % 2 else "e",
               None if cls == "I2" else -1 if before % 2 else 1)


def _tally(counted: dict, classes=("I0", "I1", "I2")) -> dict:
    """The fiber chain of the events counted, a map from each distinct
    (class, components, regular components before) to its number of
    occurrences: one total per generator label ``<class>_<parity>`` of
    the catalogs, in their order.  Each distinct event is signed once by
    ``_signed`` and adds its sign times its count; I2, a Z2 generator,
    adds its count mod 2.  With the default classes the keys are those
    of V32 in degree 1."""
    counts = {f"{cls}_{p}": 0 for cls in classes for p in "oe"}
    for (cls, _, parity, sign), n in zip(_signed(counted), counted.values()):
        key = f"{cls}_{parity}"
        counts[key] = ((counts[key] + n) % 2 if sign is None
                       else counts[key] + sign * n)
    return counts


def _evaluate(cochain, counts: dict) -> int:
    """A cochain of ``choices`` (CUSP_C1 or CUSP_C2) on a tally."""
    return sum(c * counts[label] for label, c in cochain)


def _valid_sweep(g: ReebGraph) -> _Sweep:
    """The sweep of a valid graph; ReebError names its first problem."""
    s = g._sweep
    if s.problems:
        raise ReebError(s.problems[0])
    return s


def _identity(holds: bool, name: str):
    """Check an identity the theory guarantees; unlike ``assert`` it also
    runs under ``python -O``."""
    if not holds:
        raise AssertionError(f"{name} identity failed")


def validate_reeb(g: ReebGraph) -> list[str]:
    return list(g._sweep.problems)


def fiber_profile(g: ReebGraph) -> FiberProfile:
    """One singular-fiber event per vertex, and their tally, which is the
    graph's fiber cycle in V32: ``counts`` has the keys of
    ``catalog(V32).names(1)`` in that order.  A parity-flipping event's
    sign is +1 when the regular-level component parity goes even to odd
    with increasing value."""
    s = _valid_sweep(g)
    return FiberProfile(
        tuple(FiberEvent(v.value, cls, parity, sign, components)
              for v, (cls, components, parity, sign)
              in zip(s.order, _signed(s.events))),
        dict(s.tally))


InvariantVector = namedtuple("InvariantVector", "z w category")


def invariants(g: ReebGraph, category: Category) -> InvariantVector:
    s = _valid_sweep(g)
    if category.oriented and not g.orientable:
        raise CategoryError("oriented category requires an orientable graph")
    kinds = s.kinds
    z = kinds[_MAX] - kinds[_MIN]
    w = 0 if category.oriented else kinds[_DEG2] % 2
    n2, n3 = s.split
    _identity(z == n2 - n3, "strand-count")
    _identity(z == _evaluate(CUSP_C2, s.tally), "signed minimum/maximum")
    return InvariantVector(z, w, category)


# the pieces by kind: n1 capped stars (one extremum), n2 saddles with two
# upper edges, n3 saddles with two lower edges, n4 cross-cap levels
PieceMultiset = namedtuple("PieceMultiset", "n1 n2 n3 n4")


def decompose(g: ReebGraph) -> PieceMultiset:
    s = _valid_sweep(g)
    kinds = s.kinds
    n2, n3 = s.split
    return PieceMultiset(n1=kinds[_MIN] + kinds[_MAX], n2=n2, n3=n3,
                         n4=kinds[_DEG2])


def euler_characteristic(g: ReebGraph) -> int:
    kinds = _valid_sweep(g).kinds
    return kinds[_MIN] + kinds[_MAX] - kinds[_SADDLE] - kinds[_DEG2]


# the normal form's piece for z > 0 and for z < 0: its four kinds in
# value order and its three edges between those positions
_PIECE = {True: (("MIN", "SADDLE", "MAX", "MAX"), ((0, 1), (1, 2), (1, 3))),
          False: (("MIN", "MIN", "SADDLE", "MAX"), ((0, 2), (1, 2), (2, 3)))}


def canonical_graph(z: int, w: int, category: Category) -> ReebGraph:
    """The normal-form graph with the given invariants: |z| copies of the
    piece of z's sign, then for w = 1 one projective-plane level.  Each
    vertex's id is its value."""
    if w not in (0, 1):
        raise ValueError(f"w must be 0 or 1, not {w!r}")
    if w and category.oriented:
        raise CategoryError("an oriented category has no w = 1 graph")
    piece, joins = _PIECE[z > 0]
    n = 4 * abs(z)
    kinds = piece * abs(z)
    edges = [(k + a, k + b) for k in range(0, n, 4) for a, b in joins]
    if w:
        kinds += ("MIN", "DEG2", "MAX")
        edges += [(n, n + 1), (n + 1, n + 2)]
    return make_graph(category.oriented,
                      [(i, i, kind) for i, kind in enumerate(kinds)], edges)


# trace holds one (move, times) pair per move applied
ReductionResult = namedtuple("ReductionResult",
                             "invariants trace canonical")


def reduce_to_normal_form(g: ReebGraph, category: Category) -> ReductionResult:
    """Cancel pieces until only the normal form remains.

    Moves act on the piece multiset: CANCEL_PAIR removes one saddle of
    each kind (leaving a sphere piece), CANCEL_RP2 removes two cross-cap
    pieces (unoriented categories only), DELETE_SPHERE drops a capped
    star.  The surviving data is exactly the invariant vector.
    """
    inv = invariants(g, category)
    pieces = decompose(g)
    pairs = min(pieces.n2, pieces.n3)
    rp2 = pieces.n4 // 2
    moves = (("CANCEL_PAIR", pairs), ("CANCEL_RP2", rp2),
             ("DELETE_SPHERE", pieces.n1 + pairs + rp2))
    return ReductionResult(inv, tuple(m for m in moves if m[1]),
                           canonical_graph(inv.z, inv.w, category))


def cobordant(g1: ReebGraph, g2: ReebGraph, category: Category) -> bool:
    a = invariants(g1, category)
    b = invariants(g2, category)
    return (a.z, a.w) == (b.z, b.w)


def disjoint_union(g1: ReebGraph, g2: ReebGraph) -> ReebGraph:
    """Union with ids relabeled and values re-ranked (order-preserving)."""
    # imported on first use: the graph commands never join graphs
    import heapq
    s1, s2 = _valid_sweep(g1), _valid_sweep(g2)
    newid = ({}, {})
    vertices = []
    # one operand's values are distinct, so a tie in value falls to the
    # side, first operand first, and no two vertices are compared
    merged = heapq.merge(((_value_key(v.value), 0, v) for v in s1.order),
                         ((_value_key(v.value), 1, v) for v in s2.order))
    for rank, (_, side, v) in enumerate(merged):
        newid[side][v.id] = rank
        vertices.append(Vertex(rank, Fraction(rank), v.kind))
    edges = [(ids[a], ids[b]) for ids, g in zip(newid, (g1, g2))
             for a, b in g.edges]
    return ReebGraph(g1.orientable and g2.orientable,
                     tuple(vertices), tuple(edges))


_FLIP = {_MIN: _MAX, _MAX: _MIN, _SADDLE: _SADDLE, _DEG2: _DEG2}


def negate(g: ReebGraph) -> ReebGraph:
    """The graph of the negated function: values flip sign, extrema swap."""
    vertices = tuple(Vertex(v.id, -v.value, _FLIP[v.kind]) for v in g.vertices)
    return ReebGraph(g.orientable, vertices, g.edges)


# the moves that close one open circle at a new vertex: the vertex's kind
# and the number of circles it opens above
_CLOSE_ONE = {"MAX": ("MAX", 0), "DEG2": ("DEG2", 1),
              "SADDLE_UP": ("SADDLE", 2)}


def random_reeb(seed: int, size: int, orientable: bool) -> ReebGraph:
    """Deterministic random valid graph built by an upward sweep.

    Maintains the set of circles of the current regular level; each step
    opens, splits, merges, caps, or (nonorientable case) twists one of
    them, and the sweep ends by capping every open circle.  Each vertex's
    id is its value.
    """
    rng = random.Random(seed)
    vertices = []
    edges = []
    open_circles = []     # vertex id whose upward edge is still open

    def add(kind):
        v = len(vertices)
        vertices.append((v, v, kind))
        return v

    for _ in range(size):
        choices = ["MIN"]
        if open_circles:
            choices += ["MAX", "SADDLE_UP"]
            if not orientable:
                choices.append("DEG2")
        if len(open_circles) >= 2:
            choices.append("SADDLE_DOWN")
        move = rng.choice(choices)
        if move == "MIN":
            open_circles.append(add("MIN"))
        elif move == "SADDLE_DOWN":
            a = open_circles.pop(rng.randrange(len(open_circles)))
            b = open_circles.pop(rng.randrange(len(open_circles)))
            v = add("SADDLE")
            edges += [(a, v), (b, v)]
            open_circles.append(v)
        else:
            kind, opened = _CLOSE_ONE[move]
            below = open_circles.pop(rng.randrange(len(open_circles)))
            v = add(kind)
            edges.append((below, v))
            open_circles += [v] * opened
    while open_circles:
        edges.append((open_circles.pop(), add("MAX")))
    g = make_graph(orientable, vertices, edges)
    _valid_sweep(g)
    return g


def sphere_graph() -> ReebGraph:
    return make_graph(True, [(0, 0, "MIN"), (1, 1, "MAX")], [(0, 1)])


def torus_graph() -> ReebGraph:
    return make_graph(
        True,
        [(0, 0, "MIN"), (1, 1, "SADDLE"), (2, 2, "SADDLE"), (3, 3, "MAX")],
        [(0, 1), (1, 2), (1, 2), (2, 3)])


def projective_plane_graph() -> ReebGraph:
    return make_graph(False, [(0, 0, "MIN"), (1, 1, "DEG2"), (2, 2, "MAX")],
                      [(0, 1), (1, 2)])


def klein_bottle_graph() -> ReebGraph:
    return make_graph(
        False,
        [(0, 0, "MIN"), (1, 1, "DEG2"), (2, 2, "DEG2"), (3, 3, "MAX")],
        [(0, 1), (1, 2), (2, 3)])


def graph_to_json(g: ReebGraph) -> dict:
    vs = sorted(g.vertices, key=lambda v: _value_key(v.value))
    return {
        "orientable": g.orientable,
        "vertices": [{"id": v.id,
                      "value": f"{v.value.numerator}/{v.value.denominator}",
                      "kind": v.kind.value} for v in vs],
        "edges": [list(e) for e in g.edges],
    }


def graph_from_json(doc) -> ReebGraph:
    """The graph of a JSON document, read in one pass and checked.  Each
    value is a JSON integer or a string of the one value grammar of
    ``_parse_frac``, the same on every Python version, and it is read
    exactly, with its float for the sweep; ReebError names the first
    field that is malformed or the graph's first problem."""
    if not isinstance(doc, dict):
        raise ReebError("graph document must be a JSON object")
    try:
        orientable = doc["orientable"]
        if not isinstance(orientable, bool):
            raise ValueError("orientable must be true or false, not "
                             f"{type(orientable).__name__}")
        vertices = []
        floats = []
        listed = _json_list(doc, "vertices")
        try:
            for n, v in enumerate(listed):
                try:
                    i = v["id"]
                except TypeError:
                    raise ValueError("must be an object, not "
                                     f"{type(v).__name__}") from None
                if type(i) is not int and type(i) is not str:
                    i = _parse_id(i)
                value, f = _parse_frac(v["value"])
                floats.append(f)
                raw = v["kind"]
                kind = _KIND.get(raw) if type(raw) is str else None
                vertices.append(Vertex(i, value, kind or _parse_enum(
                    VertexKind, raw, "kind")))
        except (KeyError, TypeError, ValueError) as exc:
            raise _item_error("vertex", n, exc) from exc
        edges = []
        listed = _json_list(doc, "edges")
        try:
            for n, e in enumerate(listed):
                # only a list: a string or an object would unpack too
                if type(e) is not list or len(e) != 2:
                    raise ValueError("must be a pair of vertex ids, a list "
                                     "of two")
                a, b = e
                if type(a) is not int and type(a) is not str:
                    a = _parse_id(a)
                if type(b) is not int and type(b) is not str:
                    b = _parse_id(b)
                edges.append((a, b))
        except (KeyError, TypeError, ValueError) as exc:
            raise _item_error("edge", n, exc) from exc
    except KeyError as exc:
        raise ReebError(f"malformed graph document: missing field {exc}") \
            from exc
    except (TypeError, ValueError) as exc:
        raise ReebError(f"malformed graph document: {exc}") from exc
    g = ReebGraph(orientable, tuple(vertices), tuple(edges))
    # the sweep sorts by the floats of the parse; ``_sweep`` caches it
    g._sweep = _Sweep(g, floats)
    _valid_sweep(g)
    return g


def _json_list(doc: dict, field: str) -> list:
    """doc[field], which must be a JSON list."""
    x = doc[field]
    if type(x) is not list:
        raise ValueError(f"{field} must be a list, not {type(x).__name__}")
    return x


def _item_error(item: str, n: int, exc: Exception) -> ValueError:
    """exc, raised while reading item n of a document's list, as an error
    that names the item: "vertex 3: missing field 'kind'"."""
    if isinstance(exc, KeyError):
        return ValueError(f"{item} {n}: missing field {exc}")
    return ValueError(f"{item} {n}: {exc}")


def _parse_enum(cls, x, field):
    """cls(x); the error names the allowed values instead of echoing x."""
    try:
        return cls(x)
    except ValueError:
        raise ValueError(f"{field} must be one of "
                         + ", ".join(m.value for m in cls)) from None


_MAX_ID_CHARS = 40


def _cut(s: str) -> str:
    return s if len(s) <= _MAX_ID_CHARS else s[:_MAX_ID_CHARS] + "..."


def _show_id(x) -> str:
    """A vertex id as messages show it: long ids are cut short, and one
    with a line break or another unprintable character is shown as its
    repr, so that the message stays one line."""
    s = _cut(str(x))
    return s if s.isprintable() else repr(s)


def _parse_id(x):
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError("vertex id must be an integer or a string, not "
                         f"{type(x).__name__}")
    return x


# Value strings are bounded: a decimal exponent becomes a power of ten,
# so "1e999999999" would take unbounded time and memory.
_MAX_VALUE_CHARS = 1000
_MAX_VALUE_EXPONENT = 1000


# The value grammar, ASCII only, with no spaces or underscores: an integer
# or "p/q", read with int() alone, or else a decimal with an optional
# exponent, read as its digits over a power of ten.
_INT_RATIO = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")
_DECIMAL = re.compile(
    r"([-+]?(?=\.?[0-9])[0-9]*)(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?")


def _parse_frac(s) -> tuple:
    """A JSON value as (Fraction, the float of its ``_value_key``).  The
    value is a JSON integer or a string of the grammar of ``_INT_RATIO``
    and ``_DECIMAL``, parsed into integers p and q; the float is p / q,
    which rounds correctly, so equal values give equal floats however
    they are written.  A string outside the grammar is named by its
    first 40 characters."""
    if isinstance(s, str):
        if len(s) > _MAX_VALUE_CHARS:
            raise ValueError(f"rational value longer than {_MAX_VALUE_CHARS} "
                             "characters")
        ratio = _INT_RATIO.fullmatch(s)
        if ratio is not None:
            p, q = ratio.groups("1")
            p, q = int(p), int(q)
        elif (decimal := _DECIMAL.fullmatch(s)) is None:
            raise ValueError(f"bad rational value {_cut(s)!r}")
        else:
            whole, digits, exp = decimal.groups("0")
            if abs(int(exp)) > _MAX_VALUE_EXPONENT:
                raise ValueError("rational value exponent beyond "
                                 f"+-{_MAX_VALUE_EXPONENT}")
            e = int(exp) - len(digits)
            p, q = int(whole + digits) * 10 ** max(e, 0), 10 ** max(-e, 0)
    elif isinstance(s, int) and not isinstance(s, bool):
        p, q = s, 1
    else:
        raise ValueError(f"bad rational value of type {type(s).__name__}")
    try:
        x = Fraction(p, q)
        # p / q is the only step here that can overflow
        return x, p / q
    except ZeroDivisionError:
        raise ValueError("rational value with zero denominator") from None
    except OverflowError:
        return x, _value_key(x)[0]
