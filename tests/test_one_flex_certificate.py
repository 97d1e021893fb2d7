"""One flex certificate: every stated flex is a structure's origin.

``catalog.fermat_offline_flexes`` yields its six stated Fermat flexes,
building ``EllipticStructure(cubic, p)`` for each as it is reached, and
reads the tangent off the structure; the cubic's smoothness is already kept
on the curve, so each
flex costs one gradient, one residual and one comparison.  A stated point
off the cubic raises LineNotIncident, and one whose tangent is not maximal
raises WrongFlex.  The AST scans of ``test_one_backend`` find no second
on-cubic, tangent or residual test in it, and no definition left of the
single-caller layers that were folded into their callers.
"""

from types import SimpleNamespace

import pytest

from maxflex import LineNotIncident, PlaneCurve, line_cubic_residual
from maxflex.catalog import catalog_entry, fermat_offline_flexes
from maxflex.fields import TowerElement
from maxflex.geometry import WrongFlex

from test_one_backend import defined_functions
from test_root_loop import callers_of


@pytest.fixture(scope="module")
def fermat_data():
    return catalog_entry("fermat").build()


def test_one_call_counts(monkeypatch, fermat_data):
    """While each flex was tested on the cubic three times and took a second
    gradient for its tangent, one call took 259 products and 99 zero tests."""
    count = {"products": 0, "zero tests": 0}

    def counted(key, method):
        def wrapper(*args):
            count[key] += 1
            return method(*args)

        return wrapper

    mul = counted("products", TowerElement.__mul__)
    monkeypatch.setattr(TowerElement, "__mul__", mul)
    monkeypatch.setattr(TowerElement, "__rmul__", mul)
    monkeypatch.setattr(TowerElement, "is_zero", counted("zero tests", TowerElement.is_zero))
    flexes = list(fermat_offline_flexes(fermat_data))
    assert len(flexes) == 6
    assert 0 < count["products"] <= 133
    assert 0 < count["zero tests"] <= 51


def test_each_line_is_the_inflectional_tangent_at_its_flex(fermat_data):
    # the independent route: the tangent's residual is p again
    cubic = fermat_data["structure"].cubic
    for p, line in fermat_offline_flexes(fermat_data):
        assert cubic.contains(p)
        assert line_cubic_residual(cubic, line, p, p) == p


def test_a_stated_point_off_the_cubic_is_refused(fermat_data):
    # w = 2 states [-1:0:2] third, and -1 + 8 is not 0
    data = dict(fermat_data, w=fermat_data["tower"].rational(2))
    with pytest.raises(LineNotIncident):
        list(fermat_offline_flexes(data))


def test_a_stated_point_that_is_not_a_flex_is_refused(fermat_data):
    # x^3 + y^3 + z^3 + x^2 y is smooth and holds [-1:0:1], which is no flex
    tower = fermat_data["tower"]
    cubic = PlaneCurve(tower, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (2, 1, 0): 1})
    data = dict(fermat_data, structure=SimpleNamespace(cubic=cubic))
    with pytest.raises(WrongFlex):
        list(fermat_offline_flexes(data))


def test_the_folded_layers_are_not_defined():
    defined = defined_functions()
    for name in ("_third_intersection", "fermat_torsion_frame", "_series_eval_bipoly"):
        assert name not in defined


def test_the_flexes_are_certified_only_as_structures():
    where = "catalog.fermat_offline_flexes"
    assert where in callers_of("EllipticStructure")
    for name in ("contains", "tangent_line", "line_cubic_residual"):
        assert where not in callers_of(name)
