#!/usr/bin/env python3
"""Count the code lines of each ``foldcob`` module and of the package.

Usage: python3 scripts/code_lines.py [package-dir]

A code line is a physical line that holds part of a token other than a
comment: blank lines, comment-only lines and docstrings (the leading
string of a module, class or function) are left out, and a statement or
string spread over several lines counts each of them.  Prints one
``<module> <lines>`` row per module, sorted by name, then ``total``.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = {n for t in tokens if t.type not in _NOT_CODE
             for n in range(t.start[0], t.end[0] + 1)}
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else
                Path(__file__).resolve().parent.parent / "src" / "foldcob")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.stem} {n}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
