"""Every arrangement spec carries its lattice, and the group law checks each
operand once.

An AST scan of every module in ``src/maxflex``, the one of
``test_root_loop``, pins the single routes.  No module reads a spec's
``has_abstract``: there is no spec without classes to ask about.  The
residuals are plain formulas, and their callers are the places that test
the operands: ``ec_add``, ``_origin_residual``, ``_third_intersection`` and,
for the flex check, ``EllipticStructure.__init__``.  ``_third_intersection``,
which tests a line from outside the law, is called only by
``line_cubic_residual``.  ``_line_frame`` is gone from the package; a
tangent's second point is ``_second_point`` everywhere.
"""

import ast

from test_root_loop import SRC, callers_of


def _parsed():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    return [ast.parse(path.read_text(), str(path)) for path in modules]


def test_no_module_reads_has_abstract():
    read = [
        node
        for tree in _parsed()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "has_abstract"
    ]
    assert read == []


def test_line_frame_is_gone():
    defined = {
        node.name
        for tree in _parsed()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert "_second_point" in defined
    assert "_line_frame" not in defined


def test_third_intersection_is_called_only_by_line_cubic_residual():
    assert callers_of("_third_intersection") == ["geometry.line_cubic_residual"]


def test_the_tangent_residual_is_called_only_where_operands_are_tested():
    assert callers_of("_tangent_residual") == [
        "geometry.__init__",
        "geometry._origin_residual",
        "geometry._third_intersection",
        "geometry.ec_add",
    ]


def test_the_chord_residual_is_called_only_where_operands_are_tested():
    assert callers_of("_chord_residual") == [
        "geometry._origin_residual",
        "geometry._third_intersection",
        "geometry.ec_add",
    ]
