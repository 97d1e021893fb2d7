"""Every arrangement spec carries its lattice, and the group law checks each
operand once.

An AST scan of every module in ``src/maxflex``, the one of
``test_root_loop``, pins the single routes.  No module reads a spec's
``has_abstract``: there is no spec without classes to ask about.  The
residuals are plain formulas, and their callers are the places that test
the operands: ``ec_add``, ``_origin_residual``, ``line_cubic_residual``,
which tests a line from outside the law, and, for the flex check,
``EllipticStructure.__init__``.  ``_third_intersection``, the layer that
``line_cubic_residual`` once forwarded to, is folded into it.
``_line_frame`` is gone from the package; a tangent's second point is
``_second_point`` everywhere.
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


def defined_functions():
    """The name of every function defined anywhere in ``src/maxflex``."""
    return {
        node.name
        for tree in _parsed()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_line_frame_is_gone():
    defined = defined_functions()
    assert "_second_point" in defined
    assert "_line_frame" not in defined


def test_third_intersection_is_folded_into_line_cubic_residual():
    defined = defined_functions()
    assert "line_cubic_residual" in defined
    assert "_third_intersection" not in defined
    assert callers_of("_third_intersection") == []


def test_the_tangent_residual_is_called_only_where_operands_are_tested():
    assert callers_of("_tangent_residual") == [
        "geometry.__init__",
        "geometry._origin_residual",
        "geometry.ec_add",
        "geometry.line_cubic_residual",
    ]


def test_the_chord_residual_is_called_only_where_operands_are_tested():
    assert callers_of("_chord_residual") == [
        "geometry._origin_residual",
        "geometry.ec_add",
        "geometry.line_cubic_residual",
    ]
