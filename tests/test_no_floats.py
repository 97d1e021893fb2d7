"""The package computes exactly and deterministically: no floats and no rng.

An AST scan of every module in ``src/maxflex`` fails on a float or complex
literal, on the name ``float``, on any ``math`` function or constant outside
the integer-valued ones (``sqrt``, ``log``, ``exp``, ``pi`` and the like),
and on importing ``random``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "maxflex"

#: The math names that return an int for int (or Fraction) arguments.
INTEGER_MATH = {
    "ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "prod", "trunc"
}


def forbidden_uses(tree):
    for node in ast.walk(tree):
        where = getattr(node, "lineno", None)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield where, "literal %r" % node.value
        elif isinstance(node, ast.Name) and node.id == "float":
            yield where, "name float"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in INTEGER_MATH:
                    yield where, "from math import %s" % alias.name
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                yield where, "from random import %s" % alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    yield where, "import random"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            yield where, "math.%s" % node.attr


def test_no_float_literal_name_or_math_function_in_the_package():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [
        "%s:%s: %s" % (path.name, line, what)
        for path in modules
        for line, what in forbidden_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_scan_sees_each_kind_of_float():
    source = (
        "from math import gcd, sqrt\n"
        "import math, random\n"
        "from random import randrange\n"
        "x = 0.5 + float(2) + math.log(3) + math.isqrt(4)\n"
    )
    kinds = [what for _line, what in forbidden_uses(ast.parse(source))]
    assert sorted(kinds) == sorted(
        [
            "from math import sqrt",
            "literal 0.5",
            "name float",
            "math.log",
            "import random",
            "from random import randrange",
        ]
    )
