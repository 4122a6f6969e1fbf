"""Each graph is swept once, each diagram, catalog complex and chain map
checked once, however many calls read them, and the cached results cannot
be changed from outside."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import foldcob
from foldcob import complexes, diagrams, reeb, selftest
from foldcob.catalog import (CatalogId, _name_map, catalog,
                             free_approximation, hypercohomology,
                             suspension_map)
from foldcob.cli import main
from foldcob.complexes import (ChainMap, ComplexError, Direction, RingTag,
                               induced_map, make_complex, validate_chain_map)
from foldcob.diagrams import (CircleFiberDiagram, DiagramEvent, RegularArc,
                              BoundaryMode, cusp_count_closed,
                              diagram_from_json, diagram_to_json, from_reeb,
                              validate_diagram)
from foldcob.intmat import IntMatrix
from foldcob.reeb import (Category, decompose, euler_characteristic,
                          fiber_profile, graph_from_json, graph_to_json,
                          invariants, make_graph, random_reeb,
                          reduce_to_normal_form, validate_reeb)


@pytest.fixture
def sweeps(monkeypatch):
    """The number of level sweeps built since the fixture started."""
    n = [0]

    class CountedSweep(reeb._Sweep):
        def __init__(self, *args):
            n[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(reeb, "_Sweep", CountedSweep)
    return n


@pytest.fixture
def checks(monkeypatch):
    """The number of diagram checks run since the fixture started."""
    n = [0]
    problems = diagrams._diagram_problems

    def counted(d):
        n[0] += 1
        return problems(d)

    monkeypatch.setattr(diagrams, "_diagram_problems", counted)
    return n


@pytest.fixture
def map_checks(monkeypatch):
    """The chain maps checked since the fixture started, once per check."""
    checked = []
    violations = complexes._chain_map_violations

    def counted(f):
        checked.append(f)
        return violations(f)

    monkeypatch.setattr(complexes, "_chain_map_violations", counted)
    return checked


@pytest.fixture
def complex_checks(monkeypatch):
    """The catalog complexes checked since the fixture started, once per
    check."""
    checked = []
    module = importlib.import_module("foldcob.catalog")
    validate = module.validate_complex

    def counted(cx):
        checked.append(cx)
        return validate(cx)

    monkeypatch.setattr(module, "validate_complex", counted)
    return checked


@pytest.mark.parametrize("orientable", [True, False])
def test_surface_pipeline_sweeps_each_graph_once(sweeps, orientable):
    doc = graph_to_json(random_reeb(5, 60, orientable))
    category = Category.ORIENTED if orientable else Category.UNORIENTED
    sweeps[0] = 0
    g = graph_from_json(doc)
    invariants(g, category)
    reduce_to_normal_form(g, category)
    fiber_profile(g)
    from_reeb(g)
    assert sweeps[0] == 1


@pytest.mark.parametrize("orientable", [True, False])
def test_graph_totals_come_from_the_sweep_once(monkeypatch, orientable):
    g = random_reeb(7, 80, orientable)
    category = Category.ORIENTED if orientable else Category.UNORIENTED
    tallies, identities = [], []
    tally, identity = reeb._tally, reeb._identity

    def counted_tally(*args):
        tallies.append(args)
        return tally(*args)

    def counted_identity(holds, name):
        identities.append(name)
        identity(holds, name)

    def no_count(self, kind):
        raise AssertionError("ReebGraph.count pass")

    monkeypatch.setattr(reeb, "_tally", counted_tally)
    monkeypatch.setattr(reeb, "_identity", counted_identity)
    monkeypatch.setattr(reeb.ReebGraph, "count", no_count)
    for _ in range(2):
        invariants(g, category)
        decompose(g)
        reduce_to_normal_form(g, category)
        euler_characteristic(g)
    assert len(tallies) == 1
    # the reads are cached, the identities are checked on every call
    per_round = ["strand-count", "signed minimum/maximum"] * 2
    assert identities == per_round * 2


def test_cobordant_command_sweeps_each_graph_once(sweeps, capsys, tmp_path):
    paths = []
    for seed in (1, 2):
        path = tmp_path / f"g{seed}.json"
        path.write_text(json.dumps(graph_to_json(random_reeb(seed, 30, True))))
        paths.append(str(path))
    sweeps[0] = 0
    assert main(["cobordant", "--a", paths[0], "--b", paths[1],
                 "--category", "oriented"]) == 0
    capsys.readouterr()
    assert sweeps[0] == 2


def test_diagram_is_checked_once(checks):
    doc = diagram_to_json(from_reeb(random_reeb(5, 60, False)))
    checks[0] = 0
    d = diagram_from_json(doc)
    cusp_count_closed(d)
    cusp_count_closed(d)
    assert checks[0] == 1


def test_diagram_of_a_graph_is_checked_by_its_first_reader(checks):
    d = from_reeb(random_reeb(5, 60, False))
    assert checks[0] == 0
    cusp_count_closed(d)
    validate_diagram(d)
    assert checks[0] == 1


def test_validate_reeb_returns_a_copy():
    bad = make_graph(True, [(0, 0, "SADDLE")], [])
    problems = validate_reeb(bad)
    assert problems
    validate_reeb(bad).clear()
    assert validate_reeb(bad) == problems
    good = make_graph(True, [(0, 0, "MIN"), (1, 1, "MAX")], [(0, 1)])
    validate_reeb(good).append("tampered")
    assert validate_reeb(good) == []
    assert invariants(good, Category.ORIENTED).z == 0


def test_validate_diagram_returns_a_copy():
    bad = CircleFiberDiagram(BoundaryMode.CLOSED,
                             (RegularArc(0), DiagramEvent("I0", 1)))
    problems = validate_diagram(bad)
    assert problems
    validate_diagram(bad).clear()
    assert validate_diagram(bad) == problems
    good = from_reeb(random_reeb(5, 20, True))
    validate_diagram(good).append("tampered")
    assert validate_diagram(good) == []
    assert cusp_count_closed(good).cross_check == "ok"


_TAMPER = """
assert False, "asserts are on"
from foldcob.reeb import Category, invariants, make_graph
g = make_graph(True, [(0, 0, "MIN"), (1, 1, "SADDLE"), (2, 2, "MAX"),
                      (3, 3, "MAX")], [(0, 1), (1, 2), (1, 3)])
g._sweep.split = 0, 1   # the saddle now reads as having two lower edges
invariants(g, Category.ORIENTED)
"""


def test_identities_fire_under_python_O():
    # -O strips assert statements; the identity checks must still run
    src = str(Path(foldcob.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", _TAMPER],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode != 0
    assert "strand-count identity failed" in proc.stderr


def test_six_hyper_results_check_each_chain_map_once(map_checks):
    free_approximation.cache_clear()
    _name_map.cache_clear()
    v32 = catalog(CatalogId.V32)
    for coeff in RingTag:
        for deg in range(3):
            hypercohomology(v32, coeff, deg)
    # the collapse map once, and one dualized collapse map per ring
    assert len(map_checks) <= 3
    assert len({id(f) for f in map_checks}) == len(map_checks)


@pytest.mark.parametrize("variant", ["co_Z", "full_Z2"])
def test_suspension_map_checks_each_of_its_maps_once(map_checks, variant):
    suspension_map.cache_clear()
    _name_map.cache_clear()
    maps = suspension_map(variant)
    for _ in range(2):
        assert suspension_map(variant) is maps
        for f in (maps.chain, maps.pullback):
            assert validate_chain_map(f) == []
            induced_map(f, 1)
    assert sorted(map(id, map_checks)) == sorted(
        [id(maps.chain), id(maps.pullback)])


def test_co32_and_its_aliases_are_checked_once(complex_checks):
    catalog.cache_clear()
    ids = (CatalogId.CO32, CatalogId.CO32_ORI, CatalogId.SCO32,
           CatalogId.SCO32_ORI)
    assert len({id(catalog(cid)) for cid in ids}) == 1
    # CO32 is the dual of V32, so building it checks V32 first
    assert [id(cx) for cx in complex_checks] == [
        id(catalog(CatalogId.V32)), id(catalog(CatalogId.CO32))]


def test_selftest_checks_each_catalog_object_once(monkeypatch):
    checked = []
    module = importlib.import_module("foldcob.catalog")
    validate = module.validate_complex

    def counted(cx):
        checked.append(cx)
        return validate(cx)

    monkeypatch.setattr(module, "validate_complex", counted)
    catalog.cache_clear()
    selftest.check_catalog_validity()
    # 12 ids, of which CO32_ORI, SCO32 and SCO32_ORI return the CO32 object
    assert len(checked) == 9
    assert len({id(cx) for cx in checked}) == 9
    assert {id(catalog(cid)) for cid in CatalogId} == {id(cx) for cx in checked}


def _line(coeff):
    """Z -> Z, multiplication by coeff, as a complex in degrees 0 and 1."""
    return make_complex(Direction.HOMOLOGICAL,
                        [[("x", RingTag.FREE)], [("y", RingTag.FREE)]],
                        [{"y": {"x": coeff}}])


def test_validate_chain_map_returns_a_copy(map_checks):
    a, b = _line(2), _line(3)
    ident = (IntMatrix.identity(1), IntMatrix.identity(1))
    bad = ChainMap(a, b, ident)
    problems = validate_chain_map(bad)
    assert problems and problems[0].kind == "chain-map square fails"
    validate_chain_map(bad).clear()
    assert validate_chain_map(bad) == problems
    with pytest.raises(ComplexError, match="not a chain map"):
        induced_map(bad, 0)
    good = ChainMap(a, a, ident)
    validate_chain_map(good).append("tampered")
    assert validate_chain_map(good) == []
    assert induced_map(good, 0) == IntMatrix.identity(1)
    assert [id(f) for f in map_checks] == [id(bad), id(good)]
