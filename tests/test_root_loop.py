"""Every root sweep of the package runs through one loop.

An AST scan of every module in ``src/maxflex`` lists the functions that call
``root_packets``; the only one allowed is ``geometry._at_roots``, which runs
a step at each root of a packet under ``with_splitting``.  The intersection
sweeps and point division reach roots through it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "maxflex"


def callers(tree, name):
    """The innermost named function around each call of ``name``, by line."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == name:
                found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def callers_of(name):
    """Every "module.function" in ``src/maxflex`` that calls ``name``, sorted."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    return sorted(
        "%s.%s" % (path.stem, where)
        for path in modules
        for _line, where in callers(ast.parse(path.read_text(), str(path)), name)
    )


def test_root_packets_is_called_only_in_at_roots():
    assert callers_of("root_packets") == ["geometry._at_roots"]


def test_the_scan_sees_each_kind_of_call():
    source = (
        "def a():\n"
        "    root_packets(f, k)\n"
        "def b():\n"
        "    def inner(tw):\n"
        "        return polysolve.root_packets(f, tw)\n"
        "    return inner\n"
        "root_packets(g, k)\n"
        "other(root_packets)\n"
    )
    assert callers(ast.parse(source), "root_packets") == [(2, "a"), (5, "inner"), (7, None)]
