#!/usr/bin/env python3
"""Count the lines and the code lines of Python files.

For each file given (a directory stands for every ``*.py`` file below
it, in sorted order), and in total, prints the number of lines and the
number of code lines: lines that hold at least one token that is not a
comment and not part of a docstring.  Blank lines, comment lines and
docstring lines are therefore not code.  A docstring is the string that
opens a module, class or function body, as :func:`ast.get_docstring`
reads it.

Usage: python scripts/code_lines.py src/latcomb [more files or directories]
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(first := node.body[0], ast.Expr) \
                and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one file's text."""
    docstrings = docstring_starts(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def python_files(paths: list[str]) -> list[Path]:
    files = []
    for name in paths:
        path = Path(name)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    args = parser.parse_args()
    total_lines = total_code = 0
    for path in python_files(args.paths):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {path}")
    print(f"{total_lines:6d} {total_code:6d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
