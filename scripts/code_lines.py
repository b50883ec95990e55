#!/usr/bin/env python3
"""Count the code lines of a Python source tree: no blank lines, comments or docstrings.

Usage, from the root of a checkout:

    python3 scripts/code_lines.py            # src/, the total only
    python3 scripts/code_lines.py src --files

A line counts when it holds a token other than a comment. Docstrings (the
string that opens a module, class or function body) do not count, however
many lines they span. Prints one line per file with `--files`, then the
total.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of `source` that hold code outside docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", nargs="?", type=Path, default=ROOT / "src",
                    help="directory to count (default: src/ of this checkout)")
    ap.add_argument("--files", action="store_true", help="print each file's count too")
    args = ap.parse_args(argv)
    total = 0
    for path in sorted(args.root.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        if args.files:
            print(f"{count:6d} {path.relative_to(args.root)}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
