"""One way to build an elliptic structure, and one shape of intersection record.

Every EllipticStructure certifies itself: the cubic is smooth, the origin is
on it and the origin's tangent is maximal.  Smoothness is kept on the curve
and carried by ``PlaneCurve.embedded``, so a structure moved to another
tower re-runs only the origin's tangency.  An AST scan of every module in
``src/maxflex``, the one of ``test_one_backend``, finds no call that passes a
``check`` or ``multiplicities`` keyword, and the signatures of
``EllipticStructure`` and ``intersection_points`` take none.
"""

import ast
from inspect import signature

import pytest

from maxflex import QQ, PlaneCurve, ProjPoint, SingularPoint, UniPoly, extend_field, geometry
from maxflex.catalog import catalog_entry, fermat_witness, fermat_witness_spec
from maxflex.geometry import EllipticStructure, WrongFlex, intersection_points, is_smooth_curve
from maxflex.reproductions import run_reproduction

from test_one_backend import _parsed


def _sweeps(monkeypatch):
    calls = []
    sweep = geometry._smooth_sweep
    monkeypatch.setattr(geometry, "_smooth_sweep", lambda c: calls.append(c) or sweep(c))
    return calls


def test_no_call_passes_a_check_or_multiplicities_keyword():
    passed = [
        (kw.arg, node.lineno)
        for tree in _parsed()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg in ("check", "multiplicities")
    ]
    assert passed == []


def test_the_signatures_take_no_switch():
    assert list(signature(EllipticStructure).parameters) == ["cubic", "origin"]
    assert list(signature(intersection_points).parameters) == ["c", "d", "tower"]


def test_appendix_triangle_certifies_its_cubic(monkeypatch):
    calls = _sweeps(monkeypatch)
    assert run_reproduction("appendix-triangle").ok
    assert len(calls) == 1


def test_an_embedded_structure_carries_its_smoothness(monkeypatch):
    e = catalog_entry("90c3").build(64)["structure"]
    tw = extend_field(QQ, UniPoly.from_rationals(QQ, [1, 0, 1]), name="i", irreducible=True)
    calls = _sweeps(monkeypatch)
    moved = e.embedded(tw)
    assert moved.cubic._smooth is True
    assert calls == []


def test_a_carried_singular_answer_refuses_the_structure(monkeypatch):
    # y^2 z = x^3 + x^2 z has a node at [0:0:1]; [0:1:0] is its flex
    nodal = PlaneCurve(QQ, 3, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1})
    assert is_smooth_curve(nodal) is False
    tw = extend_field(QQ, UniPoly.from_rationals(QQ, [-2, 0, 1]), name="s", irreducible=True)
    calls = _sweeps(monkeypatch)
    with pytest.raises(SingularPoint, match="not smooth"):
        EllipticStructure(nodal.embedded(tw), ProjPoint(tw, [0, 1, 0]))
    assert calls == []


def test_a_non_flex_alternate_origin_is_refused():
    witness = fermat_witness(64)
    with pytest.raises(WrongFlex):
        fermat_witness_spec(witness, origin=witness["triangle"].vertices[0])
