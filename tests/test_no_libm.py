"""No libm function on an output path: every module of ``continuumsim`` is
read as an AST, and a use of float arithmetic that IEEE 754 does not require
to be correctly rounded fails the test, so that runs replay bit for bit on
any platform whose floats are IEEE 754 doubles."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "continuumsim"

# Correctly rounded (sqrt), exact (fsum, ldexp, isfinite) or constants.
MATH_ALLOWED = frozenset({"sqrt", "fsum", "isfinite", "ldexp", "inf", "nan"})


def _int_literal(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is int


def libm_uses(source: str) -> list[str]:
    """Each use in ``source`` of a ``math`` name outside ``MATH_ALLOWED``, of
    the ``pow`` builtin, or of ``**`` other than an int literal to a
    non-negative int literal (int ``**`` a negative int is a float ``pow``),
    as ``line: what``."""
    tree = ast.parse(source)
    math_names = {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.Import) for alias in node.names
                  if alias.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{node.lineno}: from math import {alias.name}"
                      for alias in node.names if alias.name not in MATH_ALLOWED]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_names and node.attr not in MATH_ALLOWED):
            found.append(f"{node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.Name) and node.id == "pow":
            found.append(f"{node.lineno}: pow")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            base = node.left if isinstance(node, ast.BinOp) else node.target
            if not (_int_literal(base) and _int_literal(node.right) and node.right.value >= 0):
                found.append(f"{node.lineno}: **")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_libm(path):
    assert libm_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "import math\nx = math.log(2.0)",
    "import math as m\nf = m.cos",
    "from math import sin",
    "x = 2.0 ** -53",
    "x = 2 ** -53",
    "y = 3\nx = y ** 2",
    "x = 1.5\nx **= 2",
    "x = pow(2.0, 0.5)",
    "from operator import sub\nys = list(map(pow, [1.5], [2]))",
])
def test_the_guard_finds_each_libm_use(source):
    assert len(libm_uses(source)) == 1


def test_the_guard_passes_exact_arithmetic():
    assert libm_uses("import math\nx = math.sqrt(math.fsum([1.0, 2.0 * 3.0]) / 4.0)\n"
                     "y = math.inf if math.isfinite(x) else math.nan\n"
                     "z = math.ldexp(x, 2**6) + 0x1 * 2**64 + 1.1102230246251565e-16") == []
