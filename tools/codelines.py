"""Count the code lines of each module of a source tree.

    python tools/codelines.py DIR [PARENT_DIR]

A code line is a line that holds a token of the program: blank lines,
comments and docstrings (the string that opens a module, class or function
body) do not count, and a statement over several lines counts each of them.
Each ``*.py`` file directly in DIR is counted, then the total. With
PARENT_DIR, each row also gives that module's count there and the change;
a module in only one of the two counts 0 in the other.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def count_dir(path: Path) -> dict[str, int]:
    return {f.name: code_lines(f.read_text(encoding="utf-8"))
            for f in sorted(path.glob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python tools/codelines.py DIR [PARENT_DIR]", file=sys.stderr)
        return 2
    counts = count_dir(Path(argv[0]))
    if len(argv) == 1:
        for name, count in counts.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(counts.values()):6d}  total")
        return 0
    parent = count_dir(Path(argv[1]))
    print(f"{'code':>6}  {'parent':>6}  {'delta':>6}  module")
    for name in sorted(counts.keys() | parent.keys()):
        new, old = counts.get(name, 0), parent.get(name, 0)
        print(f"{new:6d}  {old:6d}  {new - old:+6d}  {name}")
    new, old = sum(counts.values()), sum(parent.values())
    print(f"{new:6d}  {old:6d}  {new - old:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
