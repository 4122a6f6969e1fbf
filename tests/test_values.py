"""Graph values parse exactly and the same on every supported Python:
``reeb._parse_frac`` reads one ASCII grammar into integers and must
agree, value for value and message for message, with a reference that
gates the characters and then asks ``Fraction(str)``, whose grammar on
those characters is the same on every version; the float it returns with
each value is the one of that value's ``_value_key``.  Rebuilt seeded
graphs round-trip through JSON with every value exact."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foldcob import reeb
from foldcob.reeb import (ReebError, VertexKind, _parse_frac, _value_key,
                          graph_from_json, graph_to_json, invariants,
                          make_graph, random_reeb, Category)

# the only characters a value string may hold
_GATE = set("0123456789+-/.eE")


def _reference_parse_frac(s) -> Fraction:
    """The value grammar by the gate and the bounded Fraction(str) parser.
    On ASCII digits, signs, "/", "." and exponents, with no spaces or
    underscores, every supported version's Fraction(str) reads the same
    strings.  An exponent beyond 1000 is refused without expanding it,
    but only in a string that would parse with a small exponent; any
    other refused string is named by its first 40 characters."""
    if isinstance(s, str):
        if len(s) > 1000:
            raise ValueError("rational value longer than 1000 characters")
        try:
            if not set(s) <= _GATE:
                raise ValueError
            mantissa, e, exponent = s.lower().partition("e")
            beyond = e and abs(int(exponent)) > 1000
            value = Fraction(mantissa + "e0" if beyond else s)
        except ZeroDivisionError:
            raise ValueError("rational value with zero denominator") from None
        except ValueError:
            shown = s if len(s) <= 40 else s[:40] + "..."
            raise ValueError(f"bad rational value {shown!r}") from None
        if beyond:
            raise ValueError("rational value exponent beyond +-1000")
        return value
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    raise ValueError(f"bad rational value of type {type(s).__name__}")


def _parsed_value(s) -> Fraction:
    """The value ``_parse_frac`` reads, after checking its float."""
    value, key = _parse_frac(s)
    assert key == _value_key(value)[0]
    return value


def _outcome(parse, x):
    try:
        value = parse(x)
    except Exception as exc:   # the type and the message must agree too
        return type(exc), str(exc)
    return type(value), value


# ASCII digits and signs, the characters of decimals, exponents and
# underscores, a space, a non-ASCII decimal digit and a superscript digit
_ALPHABET = "0123456789-+/.eE_ ٣²"


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.text(_ALPHABET, max_size=12), st.integers(), st.booleans()))
@example("1/0")
@example("-0/5")
@example("007/003")
@example("-12")
@example("--1")
@example("1/-3")
@example(" 1/3")
@example("1_0/3")
@example("٣/2")
@example("²")
@example("1e1001")
@example("-.5E-1001")
@example("1e_")
@example("1e1__1")
@example("x" * 999)
@example("9" * 1000)
@example("9" * 1001)
@example("-" + "9" * 999)
@example("1/" + "9" * 998)
def test_parse_frac_agrees_with_fraction_str(x):
    assert _outcome(_parsed_value, x) == _outcome(_reference_parse_frac, x)


# strings that the Fraction(str) of some supported versions reads, with
# PEP 515 underscores, spaces or non-ASCII digits: refused on every one
@pytest.mark.parametrize("s", ["1_0", "1e1_0", "1 / 2", "1/ 2", " 4", "١٢",
                               "٣/2"])
def test_strings_outside_the_grammar_are_refused(s):
    with pytest.raises(ValueError) as exc:
        _parse_frac(s)
    assert str(exc.value) == f"bad rational value {s!r}"


# make_graph reads a string value as a graph file does, whatever the
# interpreter's own Fraction(str) would take
@pytest.mark.parametrize("s", ["1_0", " 4"])
def test_make_graph_refuses_strings_outside_the_grammar(s):
    with pytest.raises(ValueError) as exc:
        make_graph(True, [(0, s, "MIN")], [])
    assert str(exc.value) == f"bad rational value {s!r}"


def test_make_graph_reads_values_in_the_grammar():
    g = make_graph(True, [(0, "-1.25", "MIN"), (1, "7/2", "MAX"),
                          (2, 3, "MIN"), (3, Fraction(1, 3), "MAX")], [])
    assert [v.value for v in g.vertices] == [Fraction(-5, 4), Fraction(7, 2),
                                             3, Fraction(1, 3)]
    assert all(type(v.value) is Fraction for v in g.vertices)


@pytest.mark.parametrize("s, value", [
    ("+3/4", Fraction(3, 4)), ("-1.25", Fraction(-5, 4)),
    (".5", Fraction(1, 2)), ("5.", Fraction(5)), ("2e-3", Fraction(1, 500))])
def test_decimal_and_signed_strings_parse_exactly(s, value):
    x, key = _parse_frac(s)
    assert type(x) is Fraction
    assert (x, key) == (value, float(value))


def _reeb_case(rng, n_vertices, orientable):
    """A seeded graph document in the benchmark's form: an upward sweep
    that opens, caps, splits, merges or twists circles, with shuffled
    integer ids, shuffled vertices and edges, edges in either direction
    and values t/3 for increasing integers t.  Returns the document and
    each id's exact value and kind."""
    kinds, edges, open_circles = [], [], []
    cap = max(4, n_vertices // 8)
    while len(kinds) < n_vertices or open_circles:
        if len(kinds) >= n_vertices:
            step = "MAX"
        else:
            choices = ["MIN"] if len(open_circles) < cap else []
            if open_circles:
                choices += ["MAX", "SADDLE_UP"] + ([] if orientable
                                                   else ["DEG2"])
            if len(open_circles) >= 2:
                choices.append("SADDLE_DOWN")
            step = rng.choice(choices)
        v = len(kinds)
        if step == "MIN":
            open_circles.append(v)
        elif step == "SADDLE_DOWN":
            for _ in range(2):
                edges.append((open_circles.pop(
                    rng.randrange(len(open_circles))), v))
            open_circles.append(v)
        else:
            edges.append((open_circles.pop(rng.randrange(len(open_circles))),
                          v))
            open_circles += {"MAX": [], "DEG2": [v], "SADDLE_UP": [v, v]}[step]
        kinds.append("SADDLE" if step.startswith("SADDLE") else step)
    ids = list(range(len(kinds)))
    rng.shuffle(ids)
    t = 0
    want = {}
    vertices = []
    for v, kind in enumerate(kinds):
        t += rng.randint(1, 5)
        want[ids[v]] = (Fraction(t, 3), kind)
        vertices.append({"id": ids[v], "value": f"{t}/3", "kind": kind})
    rng.shuffle(vertices)
    edge_list = [[ids[a], ids[b]] if rng.random() < 0.5 else [ids[b], ids[a]]
                 for a, b in edges]
    rng.shuffle(edge_list)
    return ({"orientable": orientable, "vertices": vertices,
             "edges": edge_list}, want)


@pytest.mark.parametrize("seed", range(12))
def test_benchmark_graphs_round_trip_exactly(seed):
    rng = random.Random(seed)
    doc, want = _reeb_case(rng, rng.choice([40, 120, 500]), seed % 2 == 0)
    g = graph_from_json(doc)
    assert {v.id: (v.value, v.kind.value) for v in g.vertices} == want
    assert sorted(map(tuple, doc["edges"])) == sorted(g.edges)
    out = graph_to_json(g)
    again = graph_from_json(out)
    assert graph_to_json(again) == out
    assert set(again.vertices) == set(g.vertices)
    assert again.edges == g.edges
    kinds = [kind for _, kind in want.values()]
    category = Category.ORIENTED if doc["orientable"] else Category.UNORIENTED
    assert invariants(again, category).z == (kinds.count("MAX")
                                             - kinds.count("MIN"))
    assert all(isinstance(v.kind, VertexKind) for v in again.vertices)


# strings whose outcome graph_from_json must take from _parse_frac: a
# signed zero, leading zeros, a zero numerator, a zero denominator, a
# plus sign, a space, an underscore, two values equal to 2**53 + 1 that
# round to the same float, a value beyond the float range and a string
# over the length bound
_VALUE_CASES = ["-0", "007/3", "0/5", "1/0", "+3", " 4", "1_0",
                "9007199254740993", "9007199254740993/1",
                "1" + "0" * 400 + "/1", "7" * 1001]


def _two_vertex_doc(low, high="1" + "0" * 401):
    return {"orientable": True,
            "vertices": [{"id": 0, "value": low, "kind": "MIN"},
                         {"id": 1, "value": high, "kind": "MAX"}],
            "edges": [[0, 1]]}


@pytest.mark.parametrize("value", _VALUE_CASES)
def test_graph_from_json_reads_each_value_as_parse_frac(value):
    # the expected outcome is _parse_frac's, which the tests above pin
    try:
        want = _parse_frac(value)[0]
    except ValueError as exc:
        with pytest.raises(ReebError) as got:
            graph_from_json(_two_vertex_doc(value))
        assert str(got.value) == f"malformed graph document: vertex 0: {exc}"
        return
    g = graph_from_json(_two_vertex_doc(value))
    assert g.vertices[0].value == want
    assert [v.id for v in g._sweep.order] == [0, 1]


def test_values_equal_beyond_float_precision_are_refused():
    doc = _two_vertex_doc("9007199254740993", "9007199254740993/1")
    with pytest.raises(ReebError, match="^vertex values not distinct: "
                                        "vertices 0 and 1$"):
        graph_from_json(doc)


def _float_tied(doc):
    """doc with every value v moved to 1/3 + v / 10**30: the values keep
    their order, but their floats tie."""
    for v in doc["vertices"]:
        x = Fraction(1, 3) + Fraction(v["value"]) / 10 ** 30
        v["value"] = f"{x.numerator}/{x.denominator}"
    return doc


@pytest.mark.parametrize("seed", range(8))
def test_sweep_order_from_parsed_floats_is_the_value_order(seed):
    rng = random.Random(seed)
    doc = graph_to_json(random_reeb(seed, rng.randrange(1, 60),
                                     seed % 2 == 0))
    for d in (doc, _float_tied(graph_to_json(graph_from_json(doc)))):
        rng.shuffle(d["vertices"])
        g = graph_from_json(d)
        assert g._sweep.order == reeb._Sweep(g).order
        assert g._sweep.events == reeb._Sweep(g).events
