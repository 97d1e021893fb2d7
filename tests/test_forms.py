"""Form-level sums (Hessian and first polar) against a sympy oracle.

The oracle differentiates and takes determinants symbolically in sympy, so
it shares no code path with the exponent-dict arithmetic it checks.
"""

import pytest

from maxflex import QQ, PlaneCurve, ProjPoint, hessian
from maxflex.catalog import catalog_entry
from maxflex.geometry import polar_curve

sympy = pytest.importorskip("sympy")

X, Y, Z = sympy.symbols("x y z")


def rational(element):
    q = element.as_rational()
    return sympy.Rational(q.numerator, q.denominator)


def as_sympy(curve):
    """The form of a curve with rational coefficients as a sympy expression."""
    return sympy.expand(
        sum(rational(c) * X**i * Y**j * Z**k for (i, j, k), c in curve.form.items())
    )


def oracle_hessian(expr):
    return sympy.expand(sympy.hessian(expr, (X, Y, Z)).det())


def oracle_polar(expr, q):
    return sympy.expand(sum(qi * sympy.diff(expr, v) for qi, v in zip(q, (X, Y, Z))))


CUBICS = {
    "fermat": lambda: PlaneCurve(QQ, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}),
    "cyclic": lambda: catalog_entry("cyclic").build()["cubic"],
    "90c3": lambda: catalog_entry("90c3").build()["structure"].cubic,
}


@pytest.mark.parametrize("name", sorted(CUBICS))
def test_hessian_matches_sympy_determinant(name):
    c = CUBICS[name]()
    got = as_sympy(hessian(c))
    want = oracle_hessian(as_sympy(c))
    assert want != 0
    # equal up to a nonzero scalar: the ratio is a constant
    ratio = sympy.cancel(got / want)
    assert ratio.is_number and ratio != 0


@pytest.mark.parametrize("name", sorted(CUBICS))
def test_polar_matches_sympy_directional_derivative(name):
    c = CUBICS[name]()
    q = ProjPoint(QQ, [2, 0, -3])  # one zero coordinate
    got = as_sympy(polar_curve(c, q))
    want = oracle_polar(as_sympy(c), [rational(v) for v in q.coords])
    assert sympy.expand(got - want) == 0
