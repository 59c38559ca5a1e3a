#!/usr/bin/env python3
"""Count the lines of every module under ``src/``: all lines, and lines of code.

Lines of code leave out blank lines, lines that hold only a comment, and the
lines of docstrings (a module's, a class's or a function's first statement
when it is a string).  A line counts as code when a token other than a
comment starts, ends or runs through it, so the lines of any other
multi-line string count.

Usage: python3 scripts/src_lines.py [ROOT]

ROOT is a checkout of this repository (default: the one holding this
script).  Prints one row per module, by path under ``src/``, and a total row.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(all lines, lines of code) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main() -> None:
    ap = argparse.ArgumentParser(description="Lines and lines of code of each module under src/.")
    ap.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    src = ap.parse_args().root / "src"
    rows = [(path.relative_to(src).as_posix(), *count(path.read_text()))
            for path in sorted(src.rglob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")


if __name__ == "__main__":
    main()
