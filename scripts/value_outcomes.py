#!/usr/bin/env python3
"""Check that graph values parse the same under several Python versions.

Usage: python3 scripts/value_outcomes.py PYTHON [PYTHON...]

The cases are the arguments of every ``@example`` in
``tests/test_values.py`` and the items of every ``pytest.mark.parametrize``
there that lists them in place (the first item of each tuple).  Each
interpreter given runs ``reeb._parse_frac`` on each case, with ``-B``
and the ``src`` of this repository, and the outcome is the value as
``p/q`` or the error's type and text.  Prints one line per case with its
outcome under the first interpreter, then one line per interpreter with
its version and whether all its outcomes are the same; exits 1 if any
differ.  Needs only the standard library.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def cases() -> list:
    """The value cases of tests/test_values.py, in the file's order."""
    tree = ast.parse((REPO / "tests" / "test_values.py").read_text("utf-8"))
    out = []
    for fn in tree.body:
        for dec in getattr(fn, "decorator_list", ()):
            if not isinstance(dec, ast.Call):
                continue
            name = ast.unparse(dec.func)
            if name == "example":
                args = dec.args
            elif (name == "pytest.mark.parametrize"
                  and isinstance(dec.args[1], ast.List)):
                args = dec.args[1].elts
            else:
                continue
            for arg in args:
                x = eval(compile(ast.Expression(arg), "<case>", "eval"),
                         {"Fraction": Fraction})
                out.append(x[0] if isinstance(x, tuple) else x)
    return out


def outcomes(values) -> list:
    """_parse_frac's outcome on each value, as a string."""
    from foldcob.reeb import _parse_frac
    out = []
    for x in values:
        try:
            value, _ = _parse_frac(x)
        except Exception as exc:   # the type and the message must agree too
            out.append(f"{type(exc).__name__}: {exc}")
        else:
            out.append(f"{value.numerator}/{value.denominator}")
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--one"]:
        print(json.dumps([sys.version.split()[0], outcomes(cases())]))
        return 0
    if not argv or argv[0].startswith("-"):
        sys.exit(__doc__.strip().splitlines()[2])
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    runs = [json.loads(subprocess.run(
        [python, "-B", __file__, "--one"], env=env, check=True,
        capture_output=True, text=True).stdout) for python in argv]
    first = runs[0][1]
    for x, outcome in zip(cases(), first):
        shown = repr(x) if len(repr(x)) <= 40 else repr(x)[:40] + "..."
        print(f"{shown:44} {outcome[:80]}")
    for version, got in runs:
        print(f"Python {version}: {'same' if got == first else 'DIFFERS'}")
    return int(any(got != first for _, got in runs))


if __name__ == "__main__":
    sys.exit(main())
