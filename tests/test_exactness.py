"""No floating point and no sampling anywhere in the package: every
module is scanned.

The scan refuses a float or complex literal, true division (``/`` or
``/=``), a call to ``float``, ``round`` or ``complex``, an import of a
module built on inexact or rational arithmetic, and an import of
``random``: every claim is enumerated, none is sampled.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ringline"
BANNED_CALLS = {"float", "round", "complex"}
BANNED_MODULES = {"math", "cmath", "fractions", "decimal", "statistics", "random"}


def inexact(source: str) -> list[str]:
    """Each inexact construct in ``source``, as "line N: what"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        what = None
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = f"literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "true division"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in BANNED_CALLS
        ):
            what = f"call to {node.func.id}"
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            what = next((f"import {n}" for n in names if n.split(".")[0] in BANNED_MODULES), None)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in BANNED_MODULES:
                what = f"import from {node.module}"
        if what is not None:
            found.append(f"line {node.lineno}: {what}")
    return found


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_module_is_exact(path):
    assert inexact(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 2j",
        "x = 1 / 2",
        "x = 4\nx /= 2",
        "x = float(3)",
        "x = round(7, 1)",
        "x = complex(1, 1)",
        "import math",
        "import os, fractions",
        "from decimal import Decimal",
        "from statistics import mean",
        "def f():\n    import cmath",
        "from random import Random",
    ],
)
def test_scan_refuses_each_inexact_construct(source):
    assert inexact(source)


def test_scan_accepts_integer_arithmetic():
    assert inexact("x = 7 // 2 + 3 % 2 - 2 ** 3\nx //= 2\nimport itertools") == []
