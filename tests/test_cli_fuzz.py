"""Random JSON documents and random argument lists through ``cli.main``,
in process.

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

Argument lists are drawn over the subcommands, their flags, the catalog
ids, the choices of each flag and integers, negative and huge degrees
among them, and now and then any short text; they follow a subcommand's
form with flags dropped, reordered, given a wrong value or an extra
word, or are any words at all.  Paths come from a temporary directory
only: a valid graph and diagram, malformed and empty JSON, a file that
is no UTF-8, a missing file and the directory itself, and the call runs
in that directory, so any other word read as a path stays in it.  ``main`` must
return 0, 1 or 2 within 5 s, with no exception escaping it, and on exit
1 print nothing on stdout and one ``error:`` line on stderr.
"""

import copy
import io
import json
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foldcob.choices import CatalogId, Category
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


# a path token: the name of a file in the temporary directory
_FILES = {"graph.json": json.dumps(graph_to_json(torus_graph())).encode(),
          "diagram.json": json.dumps(_DIAGRAMS[1]).encode(),
          "bad.json": b"{", "empty.json": b"", "latin1.json": b"\xff\xfe"}
_PATH = st.sampled_from([*_FILES, "missing.json", "."]).map(lambda n: ("path", n))
_INT = (st.integers(-3, 5) | st.integers() | st.sampled_from(
    [10**30, -10**30, 2**63, -2**63])).map(str) | st.sampled_from(
    ["-0", "+1", "1.0", "1e3", "٣", "0x1", ""])
_CATALOG_ID = st.sampled_from([c.value for c in CatalogId] + ["v32", ""])
_WORD = st.one_of(
    st.sampled_from(["catalog", "list", "export", "homology", "suspension",
                     "hyper", "invariants", "reduce", "cobordant", "cusp",
                     "identities", "selftest"]),
    st.sampled_from(["--id", "--deg", "--variant", "--coeff", "--in", "--a",
                     "--b", "--category", "-h", "--help", "--", "-", "--x",
                     "--deg=1", "--id=V32"]),
    _CATALOG_ID, _INT, _CATEGORY, st.sampled_from(["co_Z", "full_Z2", "Z", "Z2"]),
    _PATH, st.text(max_size=5))
# each subcommand's words and its flags with the values they take
_FORMS = {
    ("catalog", "list"): (),
    ("catalog", "export"): (("--id", _CATALOG_ID),),
    ("homology",): (("--id", _CATALOG_ID), ("--deg", _INT)),
    ("suspension",): (("--variant", st.sampled_from(["co_Z", "full_Z2"])),),
    ("hyper",): (("--id", st.just("V32") | _CATALOG_ID),
                 ("--coeff", st.sampled_from(["Z", "Z2"])), ("--deg", _INT)),
    ("invariants",): (("--in", _PATH), ("--category", _CATEGORY)),
    ("reduce",): (("--in", _PATH), ("--category", _CATEGORY)),
    ("cobordant",): (("--a", _PATH), ("--b", _PATH),
                     ("--category", _CATEGORY)),
    ("cusp",): (("--in", _PATH),),
    ("identities",): (("--id", st.sampled_from(["CO32", "CUSP32", "BCUSP32"])
                       | _CATALOG_ID),),
    ("selftest",): (),
}


@st.composite
def _formed(draw):
    """A subcommand's argument list with each flag kept nine times in ten,
    its value now and then any word, the flags in any order, and up to two
    words put in anywhere."""
    words = draw(st.sampled_from(sorted(_FORMS)))
    pairs = [(flag, draw(st.one_of(*[value] * 4, _WORD)))
             for flag, value in _FORMS[words]
             if draw(st.integers(0, 9))]
    argv = list(words) + [w for pair in draw(st.permutations(pairs))
                          for w in pair]
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        argv.insert(draw(st.integers(0, len(argv))), draw(_WORD))
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_formed() | st.lists(_WORD, max_size=6))
def test_random_argv_exit_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in _FILES.items():
            Path(tmp, name).write_bytes(data)
        argv = [str(Path(tmp, w[1])) if isinstance(w, tuple) else w
                for w in argv]
        cwd = os.getcwd()
        os.chdir(tmp)    # a word read as a relative path stays in tmp
        try:
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            seconds = time.perf_counter() - start
        finally:
            os.chdir(cwd)
    assert seconds < 5, f"{argv} took {seconds:.1f} s"
    assert code in (0, 1, 2), argv
    if code == 1:
        assert out.getvalue() == ""
        assert [line for line in err.getvalue().splitlines()
                if line.startswith("error:")] == err.getvalue().splitlines()
        assert len(err.getvalue().splitlines()) == 1
