"""The element layer's tower guards: identity first, equality behind it.

Elements, polynomials, points and curves take a value of the very same
tower object without calling ``FieldTower.__eq__``.  A value of an equal but
distinct tower object still combines, a value of a different tower still
raises ``ValueError`` on every route, and a tower's stored ``height`` stays
read-only.  A default clubsuit-d2 run makes fewer than 2,000 tower equality
calls; it made 22,181 when every guard compared levels.
"""

from fractions import Fraction

import pytest

from maxflex import QQ, FieldTower, UniPoly, poly_gcd
from maxflex.geometry import EllipticStructure, PlaneCurve, ProjPoint, _coerce_elem
from maxflex.reproductions import run_reproduction


def quadratic(c):
    """Q[t0]/(t0^2 - c)."""
    return QQ.extend(UniPoly.from_rationals(QQ, [-c, 0, 1]))


TOWER = quadratic(2)
#: Towers equal to TOWER, each a distinct object.
TWINS = {
    "rebuilt": FieldTower(TOWER.levels),
    "recapped": TOWER.with_cap(2 * TOWER.degree_cap),
    "read back": FieldTower.from_data(TOWER.to_data()),
}


@pytest.mark.parametrize("twin", list(TWINS))
def test_values_of_an_equal_distinct_tower_combine(twin):
    twin = TWINS[twin]
    assert twin is not TOWER and twin == TOWER
    a, b = TOWER.generator(), twin.generator() + 1
    same_b = TOWER.element(b.rep)
    for got, want in [
        (a + b, a + same_b),
        (a - b, a - same_b),
        (b - a, same_b - a),
        (a * b, a * same_b),
        (a / b, a / same_b),
    ]:
        assert got.rep == want.rep
    assert (a * b).tower is TOWER
    assert a + 1 == b and b == a + 1
    assert UniPoly(TOWER, [b, a]).coeffs == UniPoly(TOWER, [same_b, a]).coeffs
    f, g = UniPoly(TOWER, [-a, 1]), UniPoly(twin, [-b + 1, 1])
    assert poly_gcd(f, g) == f
    assert _coerce_elem(TOWER, b) is b
    assert ProjPoint(TOWER, [a, b, 1]) == ProjPoint(twin, [a, b, 1])
    line = PlaneCurve.line(TOWER, [a, b, 1])
    assert line.embedded(twin) is line
    assert line.contains(ProjPoint(twin, [b, -a, 0]))


def test_values_of_a_different_tower_raise():
    """Q(sqrt 3) has a level of the same name with another modulus."""
    other = quadratic(3)
    a, c = TOWER.generator(), other.generator()
    assert other.levels[0].name == TOWER.levels[0].name and other != TOWER
    fermat = {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
    e = EllipticStructure(PlaneCurve(TOWER, 3, fermat), ProjPoint(TOWER, [1, -1, 0]))
    flexes = ([1, 0, -1], [0, 1, -1])
    # the table now holds a sum keyed by the reps these flexes have over either tower
    e.add(*(ProjPoint(TOWER, f) for f in flexes))
    routes = [
        lambda: a + c,
        lambda: a - c,
        lambda: c - a,
        lambda: a * c,
        lambda: a / c,
        lambda: a == c,
        lambda: a + QQ.one(),
        lambda: UniPoly(TOWER, [a, c]),
        lambda: poly_gcd(UniPoly(TOWER, [a, 1]), UniPoly(other, [c, 1])),
        lambda: TOWER.extend(UniPoly(other, [c, 0, 1])),
        lambda: _coerce_elem(TOWER, c),
        lambda: ProjPoint(TOWER, [a, c, 1]),
        lambda: ProjPoint(TOWER, [a, 1, 1]) == ProjPoint(other, [c, 1, 1]),
        lambda: PlaneCurve.line(TOWER, [a, c, 1]),
        lambda: e.add(*(ProjPoint(other, f) for f in flexes)),
    ]
    for route in routes:
        with pytest.raises(ValueError):
            route()


def test_height_is_stored_and_read_only():
    split = quadratic(Fraction(1)).split(0, [-1, 1])[0]
    towers = [QQ, TOWER, split, *TWINS.values(), TOWER.extend(UniPoly(TOWER, [-3, 0, 1]))]
    for t in towers:
        assert t.height == len(t.levels)
        with pytest.raises(AttributeError):
            t.height = t.height + 1
        with pytest.raises(AttributeError):
            del t.height
        assert t.height == len(t.levels)


def test_clubsuit_d2_makes_few_tower_equality_calls(monkeypatch):
    eq = FieldTower.__eq__
    calls = []

    def counted_eq(self, other):
        calls.append("eq")
        return eq(self, other)

    def counted_ne(self, other):
        calls.append("ne")
        return not eq(self, other)

    monkeypatch.setattr(FieldTower, "__eq__", counted_eq)
    monkeypatch.setattr(FieldTower, "__ne__", counted_ne)
    assert run_reproduction("clubsuit-d2").ok
    assert 0 < len(calls) < 2000
