import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import foldcob
from foldcob import cli
from foldcob.cli import main
from foldcob.diagrams import diagram_to_json, from_reeb
from foldcob.reeb import (graph_to_json, projective_plane_graph, sphere_graph,
                          torus_graph)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homology_contract(capsys):
    code, out, _ = run(capsys, "homology", "--id", "V32", "--deg", "1")
    assert code == 0
    assert out == '{"free_rank":2,"torsion":[2]}\n'


# The basis-dependent outputs: the suspension matrices are written in the
# homology bases the Smith reduction picks, so a change of pivoting shows
# here first.  Expected stdout is byte for byte the recorded CLI contract.
@pytest.mark.parametrize("argv, expected", [
    (["suspension", "--variant", "co_Z"],
     '{"h1_matrix":[[-1,-1],[0,-1],[-1,0]],"variant":"co_Z"}\n'),
    (["suspension", "--variant", "full_Z2"],
     '{"h1_matrix":[[0,1,0],[0,1,1],[0,1,0],[1,0,0],[1,0,0]],'
     '"variant":"full_Z2"}\n'),
    (["hyper", "--id", "V32", "--coeff", "Z", "--deg", "0"],
     '{"comparison_iso":true,"free_rank":1,"torsion":[]}\n'),
    (["hyper", "--id", "V32", "--coeff", "Z", "--deg", "1"],
     '{"comparison_iso":true,"free_rank":2,"torsion":[]}\n'),
    (["hyper", "--id", "V32", "--coeff", "Z", "--deg", "2"],
     '{"comparison_iso":false,"free_rank":20,"torsion":[2]}\n'),
    (["hyper", "--id", "V32", "--coeff", "Z2", "--deg", "0"],
     '{"comparison_iso":true,"free_rank":0,"torsion":[2]}\n'),
    (["hyper", "--id", "V32", "--coeff", "Z2", "--deg", "1"],
     '{"comparison_iso":true,"free_rank":0,"torsion":[2,2,2]}\n'),
    (["hyper", "--id", "V32", "--coeff", "Z2", "--deg", "2"],
     '{"comparison_iso":false,"free_rank":0,"torsion":'
     '[2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2]}\n'),
])
def test_basis_dependent_stdout(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == expected


# The catalog tables as exported, byte for byte: the n=2 catalogs are
# truncations of the n=3 ones, so a change in how any table is built
# shows here.
@pytest.mark.parametrize("cid, expected", [
    ("CO32",
     '{"degrees":3,"differentials":[{"from":0,"matrix":[[1,-1],[1,-1],[1,'
     '-1],[1,-1]],"to":1},{"from":1,"matrix":[[1,1,-1,-1],[-1,-1,1,1]],'
     '"to":2}],"direction":"cohomological","generators":[[{"name":"0",'
     '"parity":"o","ring":"Z"},{"name":"0","parity":"e","ring":"Z"}],'
     '[{"name":"I0","parity":"o","ring":"Z"},{"name":"I0","parity":"e",'
     '"ring":"Z"},{"name":"I1","parity":"o","ring":"Z"},{"name":"I1",'
     '"parity":"e","ring":"Z"}],[{"name":"II01","parity":"o","ring":"Z"},'
     '{"name":"II01","parity":"e","ring":"Z"}]],"id":"CO32"}\n'),
    ("CO32_ORI",
     '{"degrees":3,"differentials":[{"from":0,"matrix":[[1,-1],[1,-1],[1,'
     '-1],[1,-1]],"to":1},{"from":1,"matrix":[[1,1,-1,-1],[-1,-1,1,1]],'
     '"to":2}],"direction":"cohomological","generators":[[{"name":"0",'
     '"parity":"o","ring":"Z"},{"name":"0","parity":"e","ring":"Z"}],'
     '[{"name":"I0","parity":"o","ring":"Z"},{"name":"I0","parity":"e",'
     '"ring":"Z"},{"name":"I1","parity":"o","ring":"Z"},{"name":"I1",'
     '"parity":"e","ring":"Z"}],[{"name":"II01","parity":"o","ring":"Z"},'
     '{"name":"II01","parity":"e","ring":"Z"}]],"id":"CO32_ORI"}\n'),
    ("SCO32",
     '{"degrees":3,"differentials":[{"from":0,"matrix":[[1,-1],[1,-1],[1,'
     '-1],[1,-1]],"to":1},{"from":1,"matrix":[[1,1,-1,-1],[-1,-1,1,1]],'
     '"to":2}],"direction":"cohomological","generators":[[{"name":"0",'
     '"parity":"o","ring":"Z"},{"name":"0","parity":"e","ring":"Z"}],'
     '[{"name":"I0","parity":"o","ring":"Z"},{"name":"I0","parity":"e",'
     '"ring":"Z"},{"name":"I1","parity":"o","ring":"Z"},{"name":"I1",'
     '"parity":"e","ring":"Z"}],[{"name":"II01","parity":"o","ring":"Z"},'
     '{"name":"II01","parity":"e","ring":"Z"}]],"id":"SCO32"}\n'),
    ("SCO32_ORI",
     '{"degrees":3,"differentials":[{"from":0,"matrix":[[1,-1],[1,-1],[1,'
     '-1],[1,-1]],"to":1},{"from":1,"matrix":[[1,1,-1,-1],[-1,-1,1,1]],'
     '"to":2}],"direction":"cohomological","generators":[[{"name":"0",'
     '"parity":"o","ring":"Z"},{"name":"0","parity":"e","ring":"Z"}],'
     '[{"name":"I0","parity":"o","ring":"Z"},{"name":"I0","parity":"e",'
     '"ring":"Z"},{"name":"I1","parity":"o","ring":"Z"},{"name":"I1",'
     '"parity":"e","ring":"Z"}],[{"name":"II01","parity":"o","ring":"Z"},'
     '{"name":"II01","parity":"e","ring":"Z"}]],"id":"SCO32_ORI"}\n'),
    ("CO21",
     '{"degrees":2,"differentials":[{"from":0,"matrix":[[1,-1],[1,-1],[1,'
     '-1],[1,-1]],"to":1}],"direction":"cohomological",'
     '"generators":[[{"name":"0","parity":"o","ring":"Z"},{"name":"0",'
     '"parity":"e","ring":"Z"}],[{"name":"I0","parity":"o","ring":"Z"},'
     '{"name":"I0","parity":"e","ring":"Z"},{"name":"I1","parity":"o",'
     '"ring":"Z"},{"name":"I1","parity":"e","ring":"Z"}]],"id":"CO21"}\n'),
    ("C32_Z2",
     '{"degrees":3,"differentials":[{"from":0,"matrix":[[1,1],[1,1],[1,1],'
     '[1,1],[0,0],[0,0]],"to":1},{"from":1,"matrix":[[0,0,0,0,0,0],[0,0,0,0,'
     '0,0],[1,1,1,1,0,0],[1,1,1,1,0,0],[0,0,0,0,1,1],[0,0,0,0,1,1],[0,0,0,0,'
     '0,0],[0,0,0,0,0,0],[0,0,0,0,1,1],[0,0,0,0,1,1],[0,0,0,0,0,0],[0,0,0,0,'
     '0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,'
     '0,0],[0,0,0,0,0,0],[0,0,0,0,1,1],[0,0,0,0,1,1],[0,0,0,0,0,0],[0,0,0,0,'
     '0,0]],"to":2}],"direction":"cohomological","generators":[[{"name":"0",'
     '"parity":"o","ring":"Z2"},{"name":"0","parity":"e","ring":"Z2"}],'
     '[{"name":"I0","parity":"o","ring":"Z2"},{"name":"I0","parity":"e",'
     '"ring":"Z2"},{"name":"I1","parity":"o","ring":"Z2"},{"name":"I1",'
     '"parity":"e","ring":"Z2"},{"name":"I2","parity":"o","ring":"Z2"},'
     '{"name":"I2","parity":"e","ring":"Z2"}],[{"name":"II00","parity":"o",'
     '"ring":"Z2"},{"name":"II00","parity":"e","ring":"Z2"},{"name":"II01",'
     '"parity":"o","ring":"Z2"},{"name":"II01","parity":"e","ring":"Z2"},'
     '{"name":"II02","parity":"o","ring":"Z2"},{"name":"II02","parity":"e",'
     '"ring":"Z2"},{"name":"II11","parity":"o","ring":"Z2"},{"name":"II11",'
     '"parity":"e","ring":"Z2"},{"name":"II12","parity":"o","ring":"Z2"},'
     '{"name":"II12","parity":"e","ring":"Z2"},{"name":"II22","parity":"o",'
     '"ring":"Z2"},{"name":"II22","parity":"e","ring":"Z2"},{"name":"II3",'
     '"parity":"o","ring":"Z2"},{"name":"II3","parity":"e","ring":"Z2"},'
     '{"name":"II4","parity":"o","ring":"Z2"},{"name":"II4","parity":"e",'
     '"ring":"Z2"},{"name":"II5","parity":"o","ring":"Z2"},{"name":"II5",'
     '"parity":"e","ring":"Z2"},{"name":"II6","parity":"o","ring":"Z2"},'
     '{"name":"II6","parity":"e","ring":"Z2"},{"name":"II7","parity":"o",'
     '"ring":"Z2"},{"name":"II7","parity":"e","ring":"Z2"}]],'
     '"id":"C32_Z2"}\n'),
    ("C32_Z2_SIMPLE",
     '{"degrees":3,"differentials":[{"from":0,"matrix":[[1,1],[1,1],[1,1],'
     '[1,1],[0,0],[0,0]],"to":1},{"from":1,"matrix":[[0,0,0,0,0,0],[0,0,0,0,'
     '0,0],[1,1,1,1,0,0],[1,1,1,1,0,0],[0,0,0,0,1,1],[0,0,0,0,1,1],[0,0,0,0,'
     '0,0],[0,0,0,0,0,0],[0,0,0,0,1,1],[0,0,0,0,1,1],[0,0,0,0,0,0],[0,0,0,0,'
     '0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,'
     '0,0],[0,0,0,0,0,0],[0,0,0,0,0,0],[0,0,0,0,0,0]],"to":2}],'
     '"direction":"cohomological","generators":[[{"name":"0","parity":"o",'
     '"ring":"Z2"},{"name":"0","parity":"e","ring":"Z2"}],[{"name":"I0",'
     '"parity":"o","ring":"Z2"},{"name":"I0","parity":"e","ring":"Z2"},'
     '{"name":"I1","parity":"o","ring":"Z2"},{"name":"I1","parity":"e",'
     '"ring":"Z2"},{"name":"I2","parity":"o","ring":"Z2"},{"name":"I2",'
     '"parity":"e","ring":"Z2"}],[{"name":"II00","parity":"o","ring":"Z2"},'
     '{"name":"II00","parity":"e","ring":"Z2"},{"name":"II01","parity":"o",'
     '"ring":"Z2"},{"name":"II01","parity":"e","ring":"Z2"},{"name":"II02",'
     '"parity":"o","ring":"Z2"},{"name":"II02","parity":"e","ring":"Z2"},'
     '{"name":"II11","parity":"o","ring":"Z2"},{"name":"II11","parity":"e",'
     '"ring":"Z2"},{"name":"II12","parity":"o","ring":"Z2"},{"name":"II12",'
     '"parity":"e","ring":"Z2"},{"name":"II22","parity":"o","ring":"Z2"},'
     '{"name":"II22","parity":"e","ring":"Z2"},{"name":"II3","parity":"o",'
     '"ring":"Z2"},{"name":"II3","parity":"e","ring":"Z2"},{"name":"II4",'
     '"parity":"o","ring":"Z2"},{"name":"II4","parity":"e","ring":"Z2"},'
     '{"name":"II5","parity":"o","ring":"Z2"},{"name":"II5","parity":"e",'
     '"ring":"Z2"},{"name":"II7","parity":"o","ring":"Z2"},{"name":"II7",'
     '"parity":"e","ring":"Z2"}]],"id":"C32_Z2_SIMPLE"}\n'),
    ("C21_Z2",
     '{"degrees":2,"differentials":[{"from":0,"matrix":[[1,1],[1,1],[1,1],'
     '[1,1],[0,0],[0,0]],"to":1}],"direction":"cohomological",'
     '"generators":[[{"name":"0","parity":"o","ring":"Z2"},{"name":"0",'
     '"parity":"e","ring":"Z2"}],[{"name":"I0","parity":"o","ring":"Z2"},'
     '{"name":"I0","parity":"e","ring":"Z2"},{"name":"I1","parity":"o",'
     '"ring":"Z2"},{"name":"I1","parity":"e","ring":"Z2"},{"name":"I2",'
     '"parity":"o","ring":"Z2"},{"name":"I2","parity":"e","ring":"Z2"}]],'
     '"id":"C21_Z2"}\n'),
    ("V32",
     '{"degrees":3,"differentials":[{"from":1,"matrix":[[1,1,1,1,0,0],[-1,'
     '-1,-1,-1,0,0]],"to":0},{"from":2,"matrix":[[0,0,1,-1,0,0,0,0,0,0,0,0,'
     '0,0,0,0,0,0,0,0,0,0],[0,0,1,-1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],'
     '[0,0,-1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],[0,0,-1,1,0,0,0,0,0,0,'
     '0,0,0,0,0,0,0,0,0,0,0,0],[0,0,0,0,1,1,0,0,1,1,0,0,0,0,0,0,0,0,1,1,0,'
     '0],[0,0,0,0,1,1,0,0,1,1,0,0,0,0,0,0,0,0,1,1,0,0]],"to":1}],'
     '"direction":"homological","generators":[[{"name":"0","parity":"o",'
     '"ring":"Z"},{"name":"0","parity":"e","ring":"Z"}],[{"name":"I0",'
     '"parity":"o","ring":"Z"},{"name":"I0","parity":"e","ring":"Z"},'
     '{"name":"I1","parity":"o","ring":"Z"},{"name":"I1","parity":"e",'
     '"ring":"Z"},{"name":"I2","parity":"o","ring":"Z2"},{"name":"I2",'
     '"parity":"e","ring":"Z2"}],[{"name":"II00","parity":"o","ring":"Z2"},'
     '{"name":"II00","parity":"e","ring":"Z2"},{"name":"II01","parity":"o",'
     '"ring":"Z"},{"name":"II01","parity":"e","ring":"Z"},{"name":"II02",'
     '"parity":"o","ring":"Z2"},{"name":"II02","parity":"e","ring":"Z2"},'
     '{"name":"II11","parity":"o","ring":"Z2"},{"name":"II11","parity":"e",'
     '"ring":"Z2"},{"name":"II12","parity":"o","ring":"Z2"},{"name":"II12",'
     '"parity":"e","ring":"Z2"},{"name":"II22","parity":"o","ring":"Z2"},'
     '{"name":"II22","parity":"e","ring":"Z2"},{"name":"II3","parity":"o",'
     '"ring":"Z2"},{"name":"II3","parity":"e","ring":"Z2"},{"name":"II4",'
     '"parity":"o","ring":"Z2"},{"name":"II4","parity":"e","ring":"Z2"},'
     '{"name":"II5","parity":"o","ring":"Z2"},{"name":"II5","parity":"e",'
     '"ring":"Z2"},{"name":"II6","parity":"o","ring":"Z2"},{"name":"II6",'
     '"parity":"e","ring":"Z2"},{"name":"II7","parity":"o","ring":"Z2"},'
     '{"name":"II7","parity":"e","ring":"Z2"}]],"id":"V32"}\n'),
    ("F32",
     '{"degrees":3,"differentials":[{"from":1,"matrix":[[1,1,1,1,0,0],[-1,'
     '-1,-1,-1,0,0]],"to":0},{"from":2,"matrix":[[0,0,1,-1,0,0,0,0,0,0,0,0,'
     '0,0,0,0,0,0,0,0,0,0,0],[0,0,1,-1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,'
     '0],[0,0,-1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],[0,0,-1,1,0,0,0,0,'
     '0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],[0,0,0,0,1,1,0,0,1,1,0,0,0,0,0,0,0,0,1,'
     '1,0,0,2],[0,0,0,0,1,1,0,0,1,1,0,0,0,0,0,0,0,0,1,1,0,0,0]],"to":1}],'
     '"direction":"homological","generators":[[{"name":"0","parity":"o",'
     '"ring":"Z"},{"name":"0","parity":"e","ring":"Z"}],[{"name":"I0",'
     '"parity":"o","ring":"Z"},{"name":"I0","parity":"e","ring":"Z"},'
     '{"name":"I1","parity":"o","ring":"Z"},{"name":"I1","parity":"e",'
     '"ring":"Z"},{"name":"I2","parity":"o","ring":"Z"},{"name":"I2",'
     '"parity":"e","ring":"Z"}],[{"name":"II00","parity":"o","ring":"Z"},'
     '{"name":"II00","parity":"e","ring":"Z"},{"name":"II01","parity":"o",'
     '"ring":"Z"},{"name":"II01","parity":"e","ring":"Z"},{"name":"II02",'
     '"parity":"o","ring":"Z"},{"name":"II02","parity":"e","ring":"Z"},'
     '{"name":"II11","parity":"o","ring":"Z"},{"name":"II11","parity":"e",'
     '"ring":"Z"},{"name":"II12","parity":"o","ring":"Z"},{"name":"II12",'
     '"parity":"e","ring":"Z"},{"name":"II22","parity":"o","ring":"Z"},'
     '{"name":"II22","parity":"e","ring":"Z"},{"name":"II3","parity":"o",'
     '"ring":"Z"},{"name":"II3","parity":"e","ring":"Z"},{"name":"II4",'
     '"parity":"o","ring":"Z"},{"name":"II4","parity":"e","ring":"Z"},'
     '{"name":"II5","parity":"o","ring":"Z"},{"name":"II5","parity":"e",'
     '"ring":"Z"},{"name":"II6","parity":"o","ring":"Z"},{"name":"II6",'
     '"parity":"e","ring":"Z"},{"name":"II7","parity":"o","ring":"Z"},'
     '{"name":"II7","parity":"e","ring":"Z"},{"name":"A","parity":null,'
     '"ring":"Z"}]],"id":"F32"}\n'),
    ("CUSP32",
     '{"degrees":3,"differentials":[{"from":0,"matrix":[[1,-1],[1,-1],[1,'
     '-1],[1,-1]],"to":1},{"from":1,"matrix":[[1,1,-1,-1],[-1,-1,1,1],[0,-1,'
     '1,0],[1,0,0,-1]],"to":2}],"direction":"cohomological",'
     '"generators":[[{"name":"0","parity":"o","ring":"Z"},{"name":"0",'
     '"parity":"e","ring":"Z"}],[{"name":"I0","parity":"o","ring":"Z"},'
     '{"name":"I0","parity":"e","ring":"Z"},{"name":"I1","parity":"o",'
     '"ring":"Z"},{"name":"I1","parity":"e","ring":"Z"}],[{"name":"II01",'
     '"parity":"o","ring":"Z"},{"name":"II01","parity":"e","ring":"Z"},'
     '{"name":"IIa","parity":"o","ring":"Z"},{"name":"IIa","parity":"e",'
     '"ring":"Z"}]],"id":"CUSP32"}\n'),
    ("BCUSP32",
     '{"degrees":3,"differentials":[{"from":0,"matrix":[[1,-1],[1,-1],[1,'
     '-1],[1,-1],[1,-1],[1,-1]],"to":1},{"from":1,"matrix":[[1,1,-1,-1,0,0],'
     '[-1,-1,1,1,0,0],[-1,-1,0,0,1,1],[1,1,0,0,-1,-1],[0,0,-1,-1,1,1],[0,0,'
     '1,1,-1,-1],[0,1,-1,0,0,0],[-1,0,0,1,0,0],[0,0,0,1,0,-1],[0,0,-1,0,1,'
     '0],[0,1,0,0,-1,0],[-1,0,0,0,0,1]],"to":2}],'
     '"direction":"cohomological","generators":[[{"name":"0","parity":"o",'
     '"ring":"Z"},{"name":"0","parity":"e","ring":"Z"}],[{"name":"I0",'
     '"parity":"o","ring":"Z"},{"name":"I0","parity":"e","ring":"Z"},'
     '{"name":"I1","parity":"o","ring":"Z"},{"name":"I1","parity":"e",'
     '"ring":"Z"},{"name":"Ia","parity":"o","ring":"Z"},{"name":"Ia",'
     '"parity":"e","ring":"Z"}],[{"name":"II01","parity":"o","ring":"Z"},'
     '{"name":"II01","parity":"e","ring":"Z"},{"name":"II0a","parity":"o",'
     '"ring":"Z"},{"name":"II0a","parity":"e","ring":"Z"},{"name":"II1a",'
     '"parity":"o","ring":"Z"},{"name":"II1a","parity":"e","ring":"Z"},'
     '{"name":"IIa","parity":"o","ring":"Z"},{"name":"IIa","parity":"e",'
     '"ring":"Z"},{"name":"IIb","parity":"o","ring":"Z"},{"name":"IIb",'
     '"parity":"e","ring":"Z"},{"name":"IIg","parity":"o","ring":"Z"},'
     '{"name":"IIg","parity":"e","ring":"Z"}]],"id":"BCUSP32"}\n'),
])
def test_catalog_export_stdout(capsys, cid, expected):
    code, out, _ = run(capsys, "catalog", "export", "--id", cid)
    assert code == 0
    assert out == expected


def test_catalog_list_and_export_deterministic(capsys):
    code, out1, _ = run(capsys, "catalog", "export", "--id", "BCUSP32")
    assert code == 0
    code, out2, _ = run(capsys, "catalog", "export", "--id", "BCUSP32")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["degrees"] == 3
    assert len(doc["generators"][2]) == 12
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "V32" in json.loads(out)["catalogs"]


def test_invariants_oriented_omits_w(capsys, tmp_path):
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(graph_to_json(sphere_graph())))
    code, out, _ = run(capsys, "invariants", "--in", str(path),
                       "--category", "oriented")
    assert code == 0
    assert out == '{"z":0}\n'
    code, out, _ = run(capsys, "invariants", "--in", str(path),
                       "--category", "unoriented")
    assert code == 0
    assert json.loads(out) == {"z": 0, "w": 0}


def test_cobordant(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(graph_to_json(torus_graph())))
    b.write_text(json.dumps(graph_to_json(sphere_graph())))
    code, out, _ = run(capsys, "cobordant", "--a", str(a), "--b", str(b),
                       "--category", "oriented")
    assert code == 0
    assert json.loads(out) == {"cobordant": True}


def test_reduce_emits_trace_and_canonical(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(graph_to_json(torus_graph())))
    code, out, _ = run(capsys, "reduce", "--in", str(path),
                       "--category", "oriented")
    assert code == 0
    doc = json.loads(out)
    assert doc["z"] == 0
    assert {t["move"] for t in doc["trace"]} == {"CANCEL_PAIR",
                                                 "DELETE_SPHERE"}
    assert doc["canonical"]["vertices"] == []


def test_cusp_command(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(diagram_to_json(from_reeb(sphere_graph()))))
    code, out, _ = run(capsys, "cusp", "--in", str(path))
    assert code == 0
    assert json.loads(out) == {"cusps": 0, "cross_check": "ok"}


def test_identities_command(capsys):
    code, out, _ = run(capsys, "identities", "--id", "BCUSP32")
    assert code == 0
    doc = json.loads(out)
    assert doc["cocycle_check"] is True
    assert len(doc["identities"]) == 6


def test_invalid_graph_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"orientable": True,
                                "vertices": [{"id": 0, "value": "0/1",
                                              "kind": "SADDLE"}],
                                "edges": []}))
    code, out, err = run(capsys, "invariants", "--in", str(path),
                         "--category", "oriented")
    assert code == 1
    assert out == ""
    assert "SADDLE" in err


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run(capsys, "homology", "--id", "V32", "--deg", "1",
                     "--bogus")
    assert code == 2
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_unreadable_file_exits_1(capsys, tmp_path):
    code, _, err = run(capsys, "cusp", "--in", str(tmp_path / "missing.json"))
    assert code == 1
    assert "cannot read" in err
    # bytes that are not UTF-8: the line names the file, not the codec
    path = tmp_path / "f.json"
    path.write_bytes(b"\xff\xfe{}")
    err = cli_file_error(path, "invariants", "--category", "oriented")
    assert err.startswith(f"error: cannot read {path}: ")


def test_selftest_runs_clean(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


def _rp2_doc_with(edit):
    doc = graph_to_json(projective_plane_graph())
    edit(doc)
    return doc


@pytest.mark.parametrize("doc, needle", [
    # a string "false" must not pass as a boolean (bool("false") is True)
    (_rp2_doc_with(lambda d: d.update(orientable="false")),
     "orientable must be"),
    (_rp2_doc_with(lambda d: d["vertices"][0].update(value=True)),
     "bad rational value"),
    (_rp2_doc_with(lambda d: d["vertices"][0].update(id=[0])),
     "vertex id must be"),
    (_rp2_doc_with(lambda d: d.update(edges=[[[0], 1], [1, 2]])),
     "vertex id must be"),
    # Fraction("1/0") raises ZeroDivisionError, not ValueError
    (_rp2_doc_with(lambda d: d["vertices"][0].update(value="1/0")),
     "zero denominator"),
])
def test_mistyped_graph_exits_1_without_traceback(tmp_path, doc, needle):
    assert needle in cli_input_error(tmp_path, doc, "invariants",
                                     "--category", "unoriented")


def cli_input_error(tmp_path, doc, *argv):
    """Run the CLI in a fresh interpreter on doc; it must exit 1 with one
    error line on stderr and no traceback.  Returns that line."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return cli_file_error(path, *argv)


def _env():
    """The environment of a fresh interpreter that imports this foldcob."""
    src = str(Path(foldcob.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def cli_file_error(path, *argv):
    """cli_input_error on a file as it stands."""
    proc = subprocess.run(
        [sys.executable, "-m", "foldcob.cli", argv[0], "--in", str(path),
         *argv[1:]],
        capture_output=True, text=True, env=_env(), timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    return proc.stderr


def _diagram_with(event=None, arc=None):
    return {"mode": "CLOSED", "cells": [
        {"arc": {"circles": 0, **(arc or {})}},
        {"event": {"class": "I0", "components": 1, **(event or {})}},
        {"arc": {"circles": 1}},
        {"event": {"class": "I0", "components": 1}}]}


@pytest.mark.parametrize("doc, needle", [
    # a list class used to escape as an unhashable-type TypeError
    (_diagram_with(event={"class": [1]}), "class must be a string, not list"),
    # 1.9 used to be truncated to 1 and "1" and true accepted as 1
    (_diagram_with(event={"components": 1.9}),
     "components must be an integer, not float"),
    (_diagram_with(event={"components": "1"}),
     "components must be an integer, not str"),
    (_diagram_with(arc={"circles": True}),
     "circles must be an integer, not bool"),
    (_diagram_with(arc={"arcs": 0.0}), "arcs must be an integer, not float"),
])
def test_mistyped_diagram_exits_1_without_traceback(tmp_path, doc, needle):
    assert needle in cli_input_error(tmp_path, doc, "cusp")


def test_rational_error_line_is_bounded(tmp_path):
    doc = _rp2_doc_with(lambda d: d["vertices"][0].update(value=[0] * 20000))
    line = cli_input_error(tmp_path, doc, "invariants", "--category",
                           "unoriented")
    assert "bad rational value of type list" in line
    assert len(line) < 200


def _long_edge_id(d):
    d["edges"].append([0, "x" * 20000])


def _long_duplicate_id(d):
    for v in d["vertices"][:2]:
        v["id"] = "x" * 100_000


# enum values and ids are named or cut short, never echoed whole
@pytest.mark.parametrize("doc, argv, needle", [
    ({**_diagram_with(), "mode": [0] * 20000}, ["cusp"],
     "mode must be one of CLOSED, WITH_BOUNDARY"),
    (_rp2_doc_with(lambda d: d["vertices"][0].update(kind="K" * 20000)),
     ["invariants", "--category", "unoriented"],
     "kind must be one of MIN, MAX, SADDLE, DEG2"),
    (_rp2_doc_with(_long_edge_id), ["invariants", "--category", "unoriented"],
     "references unknown vertex"),
    (_diagram_with(event={"class": "C" * 100_000}), ["cusp"],
     "class must be one of I0, I1, I2, Ia"),
    (_rp2_doc_with(_long_duplicate_id),
     ["invariants", "--category", "unoriented"],
     "duplicate vertex ids: " + "x" * 40 + "..."),
], ids=["mode", "kind", "edge-id", "event-class", "duplicate-id"])
def test_input_error_line_is_bounded(tmp_path, doc, argv, needle):
    line = cli_input_error(tmp_path, doc, *argv)
    assert needle in line
    assert len(line.encode()) < 200


# an id with a line break is shown as its repr, so the error stays one line
@pytest.mark.parametrize("edit, needle", [
    (lambda d: [v.update(id="a\nb") for v in d["vertices"][:2]],
     "duplicate vertex ids: 'a\\nb'"),
    (lambda d: d["edges"].append([0, "a\nb"]),
     "edge (0,'a\\nb') references unknown vertex"),
], ids=["duplicate-id", "unknown-vertex"])
def test_unprintable_id_error_is_one_line(tmp_path, capsys, edit, needle):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_rp2_doc_with(edit)))
    code, out, err = run(capsys, "invariants", "--in", str(path),
                         "--category", "unoriented")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


def _rp2_text_with(edit):
    return json.dumps(_rp2_doc_with(edit))


_HUGE_VALUE = json.dumps(graph_to_json(projective_plane_graph())).replace(
    '"0/1"', "9" * 5000, 1)


# each used to leak a Python message: a list index, an unpacking or an
# int() digit-limit error, or a bare KeyError echo
@pytest.mark.parametrize("text, argv, needle, leak", [
    (_rp2_text_with(lambda d: d.update(
        vertices=[[v["id"], v["value"], v["kind"]] for v in d["vertices"]])),
     ["invariants", "--category", "unoriented"],
     "vertex 0: must be an object, not list", "indices"),
    (_rp2_text_with(lambda d: d.update(edges=[0, 1])),
     ["invariants", "--category", "unoriented"],
     "edge 0: must be a pair of vertex ids", "unpack"),
    (_rp2_text_with(lambda d: d["edges"].append([0, 1, 2])),
     ["invariants", "--category", "unoriented"],
     "edge 2: must be a pair of vertex ids", "unpack"),
    (json.dumps({k: v for k, v in _diagram_with().items() if k != "mode"}),
     ["cusp"], "missing field 'mode'", "document: 'mode'"),
    (_HUGE_VALUE, ["invariants", "--category", "unoriented"],
     "JSON number with too many digits", "set_int_max_str_digits"),
    # these named nothing: the first problem names its vertex or cell
    (_rp2_text_with(lambda d: d["vertices"][2].update(id=1)),
     ["invariants", "--category", "unoriented"],
     "duplicate vertex ids: 1", "references"),
    (_rp2_text_with(lambda d: d["vertices"][2].update(value="1/1")),
     ["invariants", "--category", "unoriented"],
     "vertex values not distinct: vertices 1 and 2", "joins equal values"),
    (_rp2_text_with(lambda d: d["vertices"][1].pop("kind")),
     ["invariants", "--category", "unoriented"],
     "vertex 1: missing field 'kind'", "document: missing"),
    (json.dumps({"mode": "CLOSED", "cells": [{"arc": {"circles": 0}},
                                              {"event": {"class": "I0"}}]}),
     ["cusp"], "cell 1: missing field 'components'", "document: missing"),
    (_rp2_text_with(lambda d: d["vertices"][1].update(value="1/0")),
     ["invariants", "--category", "unoriented"],
     "vertex 1: rational value with zero denominator", "document: rational"),
    (_rp2_text_with(lambda d: d["vertices"][2].update(value=2.5)),
     ["invariants", "--category", "unoriented"],
     "vertex 2: bad rational value of type float", "document: bad"),
    (_rp2_text_with(lambda d: d["vertices"][1].update(value="1e99999")),
     ["invariants", "--category", "unoriented"],
     "vertex 1: rational value exponent beyond +-1000", "document: rational"),
    (_rp2_text_with(lambda d: d["vertices"][2].update(kind="TOP")),
     ["invariants", "--category", "unoriented"],
     "vertex 2: kind must be one of MIN, MAX, SADDLE, DEG2", "document: kind"),
    (_rp2_text_with(lambda d: d["vertices"][1].update(id=1.0)),
     ["invariants", "--category", "unoriented"],
     "vertex 1: vertex id must be an integer or a string, not float",
     "document: vertex id"),
    (_rp2_text_with(lambda d: d.update(edges=[[0, 1], [1.0, 2]])),
     ["invariants", "--category", "unoriented"],
     "edge 1: vertex id must be an integer or a string, not float",
     "document: vertex id"),
    (json.dumps(_diagram_with(arc={"circles": "0"})), ["cusp"],
     "cell 0: circles must be an integer, not str", "document: circles"),
    (json.dumps(_diagram_with(event={"class": 1})), ["cusp"],
     "cell 1: event class must be a string, not int", "document: event"),
    (json.dumps(_diagram_with(event={"components": True})), ["cusp"],
     "cell 1: components must be an integer, not bool",
     "document: components"),
    # these echoed the whole value or an int() or Fraction() message
    (_rp2_text_with(lambda d: d["vertices"][0].update(value="x" * 999)),
     ["invariants", "--category", "unoriented"],
     "vertex 0: bad rational value '" + "x" * 40 + "...'", "Fraction:"),
    (_rp2_text_with(lambda d: d["vertices"][0].update(value="1e1__1")),
     ["invariants", "--category", "unoriented"],
     "vertex 0: bad rational value '1e1__1'", "int()"),
], ids=["vertex-list", "bare-int-edges", "edge-triple", "no-mode",
        "5000-digit-int", "duplicate-id", "tied-values", "vertex-field",
        "cell-field", "zero-denominator", "float-value", "value-exponent",
        "vertex-kind", "vertex-id", "edge-end", "cell-circles", "event-class",
        "cell-components", "999-char-value", "value-exponent-underscores"])
def test_input_error_names_the_field(tmp_path, text, argv, needle, leak):
    path = tmp_path / "doc.json"
    path.write_text(text)
    line = cli_file_error(path, *argv)
    assert needle in line
    assert leak not in line
    # no case echoes its input at length or a Python parser's message
    assert len(line.encode()) < 200
    assert "int()" not in line and "Fraction:" not in line


def _two_vertex_doc(edge):
    return {"orientable": True, "edges": [edge], "vertices": [
        {"id": "a", "value": "0", "kind": "MIN"},
        {"id": "b", "value": "1", "kind": "MAX"}]}


# a string or an object of two unpacks like a pair, and used to be read as
# the edge from its two characters or its two keys
@pytest.mark.parametrize("edge", ["ab", {"a": 1, "b": 2}], ids=["str", "obj"])
def test_edge_must_be_a_list_of_two(tmp_path, edge):
    line = cli_input_error(tmp_path, _two_vertex_doc(edge), "invariants",
                           "--category", "oriented")
    assert "edge 0: must be a pair of vertex ids, a list of two" in line


# each used to leak "'int' object is not iterable" or "argument of type
# 'int' is not iterable"
@pytest.mark.parametrize("doc, argv, needle", [
    (_rp2_doc_with(lambda d: d.update(vertices=7)),
     ["invariants", "--category", "unoriented"],
     "vertices must be a list, not int"),
    (_rp2_doc_with(lambda d: d.update(edges={"0": 1})),
     ["invariants", "--category", "unoriented"],
     "edges must be a list, not dict"),
    ({**_diagram_with(), "cells": 3}, ["cusp"], "cells must be a list, not int"),
    ({**_diagram_with(), "cells": [{"arc": {"circles": 0}}, 5]}, ["cusp"],
     "cell 1: must be an object, not int"),
    ({**_diagram_with(), "cells": ["arc"]}, ["cusp"],
     "cell 0: must be an object, not str"),
    ({**_diagram_with(), "cells": [{"arc": 0}]}, ["cusp"],
     "cell 0: arc must be an object, not int"),
    ({**_diagram_with(), "cells": [{"arc": {"circles": 0}}, {"event": [1]}]},
     ["cusp"], "cell 1: event must be an object, not list"),
    # a cell with both used to be read as its arc, the event dropped
    ({"mode": "CLOSED", "cells": [{
        "arc": {"circles": 0}, "event": {"class": "I0", "components": 1}}]},
     ["cusp"], "cell 0: needs exactly one of arc, event"),
    ({**_diagram_with(), "cells": [{"arcs": {"circles": 0}}]}, ["cusp"],
     "cell 0: needs exactly one of arc, event"),
], ids=["vertices", "edges", "cells", "int-cell", "str-cell", "int-arc",
        "list-event", "arc-and-event", "neither"])
def test_non_container_names_the_field(tmp_path, doc, argv, needle):
    line = cli_input_error(tmp_path, doc, *argv)
    assert needle in line
    assert "iterable" not in line and "subscriptable" not in line


@pytest.mark.parametrize("argv", [["invariants", "--category", "unoriented"],
                                  ["cusp"]])
def test_deeply_nested_json_exits_1_without_traceback(tmp_path, argv):
    # json.load recurses once per level and raises RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert "nested too deeply" in cli_file_error(path, *argv)


@pytest.mark.parametrize("deg", ["7", "-1"])
def test_homology_degree_out_of_range_exits_1(capsys, deg):
    code, out, err = run(capsys, "homology", "--id", "CO32", "--deg", deg)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: degree {deg} out of range")
    assert err.count("\n") == 1


# -- what a subcommand loads ---------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
BASE = {"foldcob", "foldcob.choices", "foldcob.cli"}
LOADS = {"base": BASE,
         "algebra": BASE | {"foldcob.intmat", "foldcob.complexes",
                            "foldcob.catalog"},
         "graph": BASE | {"foldcob.reeb"},
         "cusp": BASE | {"foldcob.reeb", "foldcob.diagrams"}}
LOADS["selftest"] = LOADS["algebra"] | LOADS["cusp"] | {"foldcob.selftest"}


def _fresh(code, *args):
    """Run code in a fresh interpreter, at this one's optimization level;
    returns the last line of its stdout, read as JSON."""
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-c", code, *args],
        capture_output=True, text=True, env=_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# the records are named tuples, so no command imports dataclasses or
# inspect: either one, if loaded, shows up in this list
LOADED = """
import json, sys
from foldcob import cli
code = cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("foldcob")
                        or m in ("dataclasses", "inspect"))))
sys.exit(code)
"""


def _command_files(tmp_path):
    """A graph file and a closed and a bounded diagram file."""
    files = {"graph": tmp_path / "graph.json",
             "closed": tmp_path / "closed.json",
             "bounded": tmp_path / "bounded.json"}
    files["graph"].write_text(json.dumps(graph_to_json(torus_graph())))
    diagram = diagram_to_json(from_reeb(sphere_graph()))
    files["closed"].write_text(json.dumps(diagram))
    files["bounded"].write_text(json.dumps({**diagram,
                                            "mode": "WITH_BOUNDARY"}))
    return {k: str(v) for k, v in files.items()}


@pytest.mark.parametrize("argv, layers", [
    (["catalog", "list"], "base"),
    (["catalog", "export", "--id", "CO32"], "algebra"),
    (["homology", "--id", "V32", "--deg", "1"], "algebra"),
    (["hyper", "--id", "V32", "--coeff", "Z2", "--deg", "1"], "algebra"),
    (["suspension", "--variant", "full_Z2"], "algebra"),
    (["identities", "--id", "BCUSP32"], "algebra"),
    (["invariants", "--in", "{graph}", "--category", "unoriented"], "graph"),
    (["reduce", "--in", "{graph}", "--category", "oriented"], "graph"),
    (["cobordant", "--a", "{graph}", "--b", "{graph}", "--category",
      "oriented"], "graph"),
    (["cusp", "--in", "{closed}"], "cusp"),
    (["selftest"], "selftest"),
], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else v)
def test_command_loads_only_its_layers(tmp_path, argv, layers):
    files = _command_files(tmp_path)
    got = _fresh(LOADED, *[a.format(**files) for a in argv])
    assert set(got) == LOADS[layers]


def test_bare_import_loads_no_submodule():
    got = _fresh("""
import importlib, json, sys
import foldcob
bare = sorted(m for m in sys.modules if m.startswith("foldcob"))
# importing the submodule catalog leaves foldcob.catalog the function
module = importlib.import_module("foldcob.catalog")
# a layer submodule is an attribute of the package, imported on first read
layer = foldcob.reeb is sys.modules["foldcob.reeb"]
print(json.dumps([bare, foldcob.catalog is module.catalog, layer]))
""")
    assert got == [["foldcob"], True, True]


# the public names of the package, by the submodule that defines them
PUBLIC = {
    "catalog": ("CatalogId", "CountingIdentity", "FiberClass", "catalog",
                "counting_identities", "cusp_cocycle_check", "fiber_classes",
                "free_approximation", "hypercohomology", "suspension_map"),
    "complexes": ("AbelianGroupPresentation", "ChainMap", "ComplexError",
                  "Direction", "Generator", "MixedComplex", "NotACycleError",
                  "RingTag", "express_class", "hom_dual", "homology",
                  "induced_is_isomorphism", "induced_map", "make_complex",
                  "validate_chain_map", "validate_complex", "zero_complex"),
    "diagrams": ("BoundaryMode", "CircleFiberDiagram", "CuspCount",
                 "DiagramError", "DiagramEvent", "RegularArc",
                 "algebraic_counts", "cusp_count_boundary",
                 "cusp_count_closed", "diagram_from_json", "diagram_to_json",
                 "disjoint_union_diagrams", "from_reeb", "reverse",
                 "validate_diagram"),
    "intmat": ("IntMatrix", "snf_with_inverses"),
    "reeb": ("Category", "CategoryError", "FiberProfile", "InvariantVector",
             "PieceMultiset", "ReebError", "ReebGraph", "Vertex",
             "VertexKind", "canonical_graph", "cobordant", "decompose",
             "disjoint_union", "euler_characteristic", "fiber_profile",
             "graph_from_json", "graph_to_json", "invariants",
             "klein_bottle_graph", "make_graph", "negate",
             "projective_plane_graph", "random_reeb",
             "reduce_to_normal_form", "sphere_graph", "torus_graph",
             "validate_reeb"),
}


def test_public_api():
    names = [n for group in PUBLIC.values() for n in group]
    assert sorted(foldcob.__all__) == sorted(names)
    for module, group in PUBLIC.items():
        mod = importlib.import_module(f"foldcob.{module}")
        for name in group:
            assert getattr(foldcob, name) is getattr(mod, name), name
    assert set(names) <= set(dir(foldcob))
    star = {}
    exec("from foldcob import *", star)
    star.pop("__builtins__")
    assert star == {n: getattr(foldcob, n) for n in names}
    # the layer submodules stay attributes of the package
    for module in ("complexes", "diagrams", "intmat", "reeb"):
        assert getattr(foldcob, module) is sys.modules[f"foldcob.{module}"]


def test_unknown_public_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        foldcob.no_such_name
    with pytest.raises(ImportError):
        exec("from foldcob import no_such_name", {})
    with pytest.raises(AttributeError):
        cli.no_such_name
    with pytest.raises(AttributeError):
        cli.reeb


# -- the span driver's contract ------------------------------------------

def _driver_layer_calls():
    """The cli globals that perfbench/cli_driver.py wraps in spans."""
    tree = ast.parse((ROOT / "perfbench" / "cli_driver.py").read_text(
        encoding="utf-8"))
    for node in tree.body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if isinstance(target, ast.Name) and target.id == "LAYER_CALLS":
            return ast.literal_eval(node.value)
    raise AssertionError("cli_driver.py has no LAYER_CALLS")


def test_driver_names_resolve_on_cli():
    names = _driver_layer_calls()
    assert len(names) == 11
    for name in names:
        assert getattr(cli, name) is getattr(foldcob, name), name


@pytest.mark.parametrize("name, argv", [
    ("catalog", ["catalog", "export", "--id", "V32"]),
    ("homology", ["homology", "--id", "V32", "--deg", "1"]),
    ("hypercohomology", ["hyper", "--id", "V32", "--coeff", "Z", "--deg",
                         "1"]),
    ("suspension_map", ["suspension", "--variant", "co_Z"]),
    ("graph_from_json", ["cobordant", "--a", "{graph}", "--b", "{graph}",
                         "--category", "oriented"]),
    ("invariants", ["invariants", "--in", "{graph}", "--category",
                    "oriented"]),
    ("reduce_to_normal_form", ["reduce", "--in", "{graph}", "--category",
                               "oriented"]),
    ("cobordant", ["cobordant", "--a", "{graph}", "--b", "{graph}",
                   "--category", "oriented"]),
    ("diagram_from_json", ["cusp", "--in", "{closed}"]),
    ("cusp_count_closed", ["cusp", "--in", "{closed}"]),
    ("cusp_count_boundary", ["cusp", "--in", "{bounded}"]),
])
def test_command_calls_the_wrapper_set_on_cli(monkeypatch, capsys, tmp_path,
                                              name, argv):
    files = _command_files(tmp_path)
    argv = [a.format(**files) for a in argv]
    _, want, _ = run(capsys, *argv)
    real, calls = getattr(cli, name), []

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == want
    assert calls


# -- usage ---------------------------------------------------------------

IDS = ("{CO32,CO32_ORI,SCO32,SCO32_ORI,CO21,C32_Z2,C32_Z2_SIMPLE,C21_Z2,V32,"
       "F32,CUSP32,BCUSP32}")
CATEGORIES = "{oriented,unoriented,simple_oriented,simple_unoriented}"


@pytest.mark.parametrize("argv, choices", [
    ([], None), (["catalog"], None), (["catalog", "list"], None),
    (["catalog", "export"], IDS), (["homology"], IDS),
    (["suspension"], "{co_Z,full_Z2}"), (["hyper"], "{V32}"),
    (["invariants"], CATEGORIES), (["reduce"], CATEGORIES),
    (["cobordant"], CATEGORIES), (["cusp"], None),
    (["identities"], "{CO32,CUSP32,BCUSP32}"), (["selftest"], None),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_help_exits_0_and_lists_the_choices(capsys, argv, choices):
    code, out, _ = run(capsys, *argv, "--help")
    assert code == 0
    assert out.startswith("usage: foldcob")
    if choices:
        assert choices in out


@pytest.mark.parametrize("argv", [
    ["catalog", "export", "--id", "v32"],
    ["homology", "--id", "NOPE", "--deg", "1"],
    ["identities", "--id", "V32"],
    ["invariants", "--in", "g.json", "--category", "oriented_simple"],
])
def test_bad_choice_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "invalid choice" in err


def test_golden_stdout(capsys):
    """The fixed command mix of the cli benchmark workload, byte for byte."""
    golden = json.loads((ROOT / "perfbench" / "golden_cli.json").read_text(
        encoding="utf-8"))
    assert len(golden) > 50
    for argv, want in golden:
        assert run(capsys, *argv)[:2] == (0, want), argv
