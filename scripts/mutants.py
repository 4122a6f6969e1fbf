#!/usr/bin/env python3
"""Mutation gate: each seeded fault must be caught by its named tests.

Usage: python3 scripts/mutants.py

A mutant is a literal patch, a file with an old text that occurs in it
exactly once and the new text that replaces it, plus the tests that
must catch it.  Each mutant is applied to a fresh copy of the tree in a
temporary directory, and its tests run there (``python -m pytest`` with
``PYTHONPATH=src``).  The tests of every mutant are first run on an
unmutated copy, where they must pass, so that a failure counts only
against the mutant.

Writes the commit of the tree, whether the tracked files differ from
it, and per mutant the tests that failed (those that caught it) to
MUTANTS.json at the root of the tree.  Prints one line per mutant and
exits 1 if any mutant SURVIVED, and 2 if an old text does not occur
exactly once or the tests fail without a mutant.  Standard library only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

Mutant = namedtuple("Mutant", "name file old new tests")

MUTANTS = (
    Mutant("lift-accepts-odd", "src/foldcob/complexes.py",
           "        if i not in slot or e % 2:\n",
           "        if i not in slot:\n",
           ("tests/test_complex_check.py", "tests/test_complexes.py",
            "tests/test_lazy_homology.py")),
    Mutant("check-skips-composite", "src/foldcob/complexes.py",
           "            if _lift(cx, mid, col) is None:\n",
           "            if False:\n",
           ("tests/test_complex_check.py", "tests/test_complexes.py",
            "tests/test_lazy_homology.py")),
    Mutant("torsion-to-free-reports-nothing", "src/foldcob/complexes.py",
           "    return [(r, c) for c, (g, col) in enumerate(",
           "    return [] if True else [(r, c) for c, (g, col) in enumerate(",
           ("tests/test_complex_check.py", "tests/test_complexes.py")),
    Mutant("hom-dual-not-mod-2", "src/foldcob/complexes.py",
           "                    x %= 2\n",
           "                    pass\n",
           ("tests/test_sparse_builders.py", "tests/test_catalog.py")),
    Mutant("hom-dual-renumbers-by-old-index", "src/foldcob/complexes.py",
           "                    dual_cols[new[tgt][r]].append((k, x))\n",
           "                    dual_cols[new[tgt][r]].append((c, x))\n",
           ("tests/test_catalog.py", "tests/test_cli.py")),
    Mutant("make-complex-keeps-zero-pair", "src/foldcob/complexes.py",
           "            tuple(sorted([(r, x) for r, x in col.items() if x]))\n",
           "            tuple(sorted([(r, x) for r, x in col.items()]))\n",
           ("tests/test_sparse_builders.py",)),
    Mutant("nearest-quotient-ties-up", "src/foldcob/intmat.py",
           "    return q + 1 if 2 * abs(r) > abs(p) else q\n",
           "    return q + 1 if 2 * abs(r) >= abs(p) else q\n",
           ("tests/test_intmat.py", "tests/test_snf_sparse.py")),
    Mutant("tally-i2-not-mod-2", "src/foldcob/reeb.py",
           "        counts[key] = ((counts[key] + n) % 2 if sign is None\n",
           "        counts[key] = ((counts[key] + n) if sign is None\n",
           ("tests/test_diagram_oracle.py", "tests/test_sweep.py",
            "tests/test_reeb.py")),
    Mutant("v32-sign-flipped", "src/foldcob/catalog.py",
           '    "II01_o": {"I0_o": 1, "I0_e": 1, "I1_o": -1, "I1_e": -1},\n',
           '    "II01_o": {"I0_o": 1, "I0_e": 1, "I1_o": 1, "I1_e": -1},\n',
           ("tests/test_catalog.py",)),
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".perfbench_work")


def _commit() -> dict:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip()
    try:
        commit = git("rev-parse", "HEAD") or None
        return {"commit": commit, "dirty": commit and bool(
            git("status", "--porcelain", "--untracked-files=no"))}
    except OSError:     # no git: the tree is recorded without its commit
        return {"commit": None, "dirty": None}


def _check_patch(m: Mutant) -> str | None:
    """Why the mutant cannot be applied to the tree, or None."""
    n = (ROOT / m.file).read_text(encoding="utf-8").count(m.old)
    return None if n == 1 else f"old text occurs {n} times in {m.file}"


def _run(tree: Path, tests) -> list[str] | None:
    """The failing tests of a run in tree, or None if every test passed."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
           "no:cacheprovider", *tests]
    try:
        res = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                             text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [f"timeout after {TIMEOUT_S} s"]
    if res.returncode == 0:
        return None
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0]
              for line in res.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed or [f"pytest exited {res.returncode}"]


def _copy(dest: Path, m: Mutant | None = None) -> Path:
    shutil.copytree(ROOT, dest, ignore=_IGNORE)
    if m is not None:
        path = dest / m.file
        path.write_text(path.read_text(encoding="utf-8").replace(m.old, m.new),
                        encoding="utf-8")
    return dest


def main() -> int:
    bad = [(m.name, why) for m in MUTANTS if (why := _check_patch(m))]
    for name, why in bad:
        print(f"BAD PATCH {name}: {why}")
    if bad:
        return 2
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        failed = _run(_copy(Path(tmp) / "clean"), tests)
        if failed:
            print(f"the tests fail without a mutant: {failed[:5]}")
            return 2
        results, survivors = {}, []
        for i, m in enumerate(MUTANTS):
            caught = _run(_copy(Path(tmp) / f"m{i}", m), m.tests) or []
            results[m.name] = {"file": m.file, "tests": list(m.tests),
                               "caught_by": caught}
            if not caught:
                survivors.append(m.name)
            print(f"{'caught' if caught else 'SURVIVED'} {m.name}"
                  + (f" ({len(caught)} failing tests)" if caught else ""))
    (ROOT / "MUTANTS.json").write_text(json.dumps(
        {**_commit(), "mutants": results}, indent=1) + "\n", encoding="utf-8")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
