"""Random JSON documents through ``cli.main``, in process.

Every graph and diagram command must either print its answer and exit 0
or print nothing on stdout, one ``error:`` line on stderr and exit 1.
An exception other than the ``ValueError`` that ``main`` turns into that
line escapes the call and fails the test, as it would print a traceback
from the command line.  Each command reads three kinds of document:
arbitrary JSON; documents of its own shape whose fields are mostly, but
not always, of the right kind; and valid documents with up to two fields
replaced by arbitrary JSON or deleted, so that the fuzzing reaches past
the first type check into validation and the computation itself.
Vertex values are also drawn as strings over the value grammar's
characters with an underscore, a space and a non-ASCII digit among them.
Each call must take under 5 s, and its ``error:`` line must stay at most
1000 characters long: ids and values are cut to 40 characters before
they are shown, though an unprintable id is shown as its repr.
"""

import copy
import io
import json
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foldcob.choices import Category
from foldcob.cli import main
from foldcob.diagrams import diagram_to_json, from_reeb
from foldcob.reeb import (graph_to_json, klein_bottle_graph,
                          projective_plane_graph, random_reeb, sphere_graph,
                          torus_graph)

_LEAF = (st.none() | st.booleans() | st.integers() | st.floats()
         | st.text(max_size=6))
_JSON = st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=6), inner,
                                       max_size=4), max_leaves=12)
_SMALL = st.integers(-1, 4)


def _mostly(strategy):
    """Values of strategy, with now and then any JSON value instead."""
    return st.one_of(strategy, strategy, strategy, _JSON)


@st.composite
def _mutated(draw, valid):
    """One of the valid documents with up to two fields, at any depth,
    replaced by arbitrary JSON or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(valid)))
    for _ in range(draw(st.integers(0, 2))):
        node = doc
        while node:
            key = draw(st.sampled_from(
                list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(
                    st.booleans()):
                node = child
                continue
            if draw(st.booleans()):
                node[key] = draw(_JSON)
            else:
                del node[key]
            break
    return doc


_GRAPHS = [sphere_graph(), torus_graph(), projective_plane_graph(),
           klein_bottle_graph()] + [random_reeb(seed, 6, seed % 2 == 0)
                                    for seed in range(4)]
_ID = _mostly(st.integers(0, 6))
# the characters of the value grammar, and an underscore, a space and a
# non-ASCII digit, which it does not allow
_VALUE_TEXT = st.text("0123456789+-/.eE_ ٣", max_size=8)
_VERTEX = _mostly(st.fixed_dictionaries({
    "id": _ID,
    "value": _mostly(st.sampled_from(["0", "1/2", "1", "2", "-3/4", "7"])
                     | st.integers(-2, 8) | _VALUE_TEXT),
    "kind": _mostly(st.sampled_from(["MIN", "MAX", "SADDLE", "DEG2"]))}))
_GRAPH_DOC = st.one_of(
    _JSON,
    st.fixed_dictionaries({
        "orientable": _mostly(st.booleans()),
        "vertices": _mostly(st.lists(_VERTEX, max_size=8)),
        "edges": _mostly(st.lists(_mostly(st.lists(_ID, min_size=2,
                                                   max_size=2)),
                                  max_size=10))}),
    _mutated([graph_to_json(g) for g in _GRAPHS]))

_CELL = _mostly(st.fixed_dictionaries(
    {"arc": _mostly(st.fixed_dictionaries(
        {"circles": _mostly(_SMALL)}, optional={"arcs": _mostly(_SMALL)}))})
    | st.fixed_dictionaries(
        {"event": _mostly(st.fixed_dictionaries(
            {"class": _mostly(st.sampled_from(["I0", "I1", "I2", "Ia"])),
             "components": _mostly(_SMALL)}))}))
_DIAGRAMS = [diagram_to_json(from_reeb(g)) for g in _GRAPHS]
_DIAGRAM_DOC = st.one_of(
    _JSON,
    st.fixed_dictionaries({
        "mode": _mostly(st.sampled_from(["CLOSED", "WITH_BOUNDARY"])),
        "cells": _mostly(st.lists(_CELL, max_size=9))}),
    _mutated(_DIAGRAMS + [{**d, "mode": "WITH_BOUNDARY"}
                          for d in _DIAGRAMS]))

_CATEGORY = st.sampled_from([c.value for c in Category])
_CASES = st.one_of(
    st.tuples(st.sampled_from(["invariants", "reduce"]), _CATEGORY,
              _GRAPH_DOC, st.none()),
    st.tuples(st.just("cobordant"), _CATEGORY, _GRAPH_DOC, _GRAPH_DOC),
    st.tuples(st.just("cusp"), st.none(), _DIAGRAM_DOC, st.none()))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_CASES)
def test_random_documents_exit_0_or_1_with_one_error_line(case):
    command, category, a, b = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path_a, path_b = Path(tmp, "a.json"), Path(tmp, "b.json")
        path_a.write_text(json.dumps(a))
        path_b.write_text(json.dumps(b))
        if command == "cobordant":
            argv = [command, "--a", str(path_a), "--b", str(path_b)]
        else:
            argv = [command, "--in", str(path_a)]
        if category:
            argv += ["--category", category]
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        seconds = time.perf_counter() - start
    assert seconds < 5, f"{command} took {seconds:.1f} s"
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error:")]
    assert len(errors) <= 1
    assert all(len(line) <= 1000 for line in errors)
    assert "Traceback" not in err.getvalue()
