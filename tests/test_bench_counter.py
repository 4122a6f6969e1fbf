"""The operation counter of ``scripts/bench.py`` against the Smith engine.

``_count_ops`` wraps methods of ``intmat._Work`` and ``intmat._axpy`` by
name; if the engine's internals move, the counts go to zero or the call
fails, and the benchmark's ``same_ops`` check would then compare nothing.
"""

import importlib.util
import random
from pathlib import Path

from foldcob.complexes import RingTag, hom_dual

ROOT = Path(__file__).resolve().parents[1]


def _bench():
    spec = importlib.util.spec_from_file_location(
        "bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_count_ops_counts_a_z2_dual_homology(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    bench = _bench()
    import gen

    cx = bench._complex(gen.surface_case(random.Random(0), "klein", 40))
    dual = hom_dual(cx, RingTag.TWO_TORSION)
    group, run, basis = bench._homology_runs(dual, range(3))
    ops, nonzeros = bench._count_ops(run)
    assert set(ops) == set(bench.OPS)
    assert all(ops[name] > 0 for name in bench.OPS), ops
    assert nonzeros > 0
    assert bench._count_ops(run) == (ops, nonzeros)
    # the groups first, then the basis: the basis reductions alone
    group_ops = bench._count_ops(group)[0]
    basis_ops = bench._count_ops(basis())[0]
    assert {name: group_ops[name] + basis_ops[name]
            for name in bench.OPS} == ops
    assert bench._count_ops(basis())[0] == basis_ops
