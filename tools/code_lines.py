"""Print the code lines of each module in src/quopitsim, their total, and
the production total: every module but `oracle`, whose references only
tests and `check` run.

A code line is a line that holds part of a token other than a comment, a
line break or indentation, and lies outside every docstring (module, class
and function), so comments, docstrings and blank lines do not count.

    python tools/code_lines.py [package directory]
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else (
        Path(__file__).resolve().parents[1] / "src" / "quopitsim")
    total = production = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        if path.name != "oracle.py":
            production += count
        print(f"{path.name:20} {count:5}")
    print(f"{'total':20} {total:5}")
    print(f"{'production':20} {production:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
