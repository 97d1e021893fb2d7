"""Weierstrass models, division polynomials, and torsion search on 90c3."""

import random
from fractions import Fraction

import pytest

from maxflex import (
    QQ,
    ArrangementSpec,
    ComponentData,
    DivisionPolynomials,
    EllipticStructure,
    LineNotIncident,
    PlaneCurve,
    ProjPoint,
    TorsionClass,
    UniPoly,
    ec_add,
    ec_mul,
    ec_neg,
    halve_point,
    line_cubic_residual,
    line_through,
    point_order,
    poly_gcd,
    rational_points_of_order,
    rational_roots,
    weierstrass_model,
)
from maxflex import geometry, weierstrass
from maxflex.catalog import (
    bigon_points,
    catalog_entry,
    cyclic_flex_origins,
    fermat_t1,
    fermat_triangle,
)
from maxflex.weierstrass import WeierstrassModel, curve_y_solutions, divide_point
from oracles import psi_torsion_points, walked_order


def structure_90c3(cap=64):
    return catalog_entry("90c3").build(cap)["structure"]


def test_model_recovers_the_curve():
    e = structure_90c3()
    m = weierstrass_model(e)
    a = [x.as_rational() for x in (m.a1, m.a2, m.a3, m.a4, m.a6)]
    assert a == [1, -1, 1, -122, 1721]
    assert not m.discriminant().is_zero()


def test_model_of_fermat_has_rational_invariants():
    base = QQ.with_cap(64)
    cubic = PlaneCurve(base, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    e = EllipticStructure(cubic, ProjPoint(base, [1, -1, 0]))
    m = weierstrass_model(e)
    assert not m.discriminant().is_zero()
    # the transform carries the model curve back onto the source cubic
    pt = m.point_to_source(None)
    assert pt == e.origin


def test_doubling_numerator_identity():
    e = structure_90c3()
    div = DivisionPolynomials(weierstrass_model(e))
    b2, b4, b6, b8 = weierstrass_model(e).b_invariants()
    phi2 = div.multiplication_numerator(2)
    want = UniPoly(QQ, (-b8, -2 * b6, -b4, QQ.zero(), QQ.one()))
    assert phi2 == want


def test_division_polynomial_degrees():
    e = structure_90c3()
    div = DivisionPolynomials(weierstrass_model(e))
    assert div.raw(3).degree == 4
    assert div.raw(4).degree == 6
    assert div.raw(12).degree == 70


def test_four_torsion_inside_twelve_torsion():
    e = structure_90c3()
    div = DivisionPolynomials(weierstrass_model(e))
    g = poly_gcd(div.raw(12), div.raw(4))
    assert g.degree >= 1
    # in fact the whole 4-division polynomial divides
    assert (div.raw(12) % div.raw(4)).is_zero()


def test_rational_torsion_orders_4_and_12():
    e = structure_90c3()
    m = weierstrass_model(e)
    pts4 = rational_points_of_order(m, 4)
    pts12 = rational_points_of_order(m, 12)
    assert pts4 and pts12
    assert {x.as_rational() for x, _y in pts4} == {Fraction(9)}
    for pt, r in ((pts4[0], 4), (pts12[0], 12)):
        assert m.order(pt, 24) == r
        # the chord-tangent law on the source curve agrees
        P = m.point_to_source(pt)
        assert point_order(e, P, 24) == r


def test_rational_torsion_points_come_in_a_pinned_order():
    # curve_y_solutions returns its two y-values in set order, which follows
    # TowerElement.__hash__, and bigon_points takes the first point of order
    # r; this pins the order the reports were recorded with
    m = weierstrass_model(structure_90c3())
    div = DivisionPolynomials(m)
    got = {
        n: [(x.as_rational(), y.as_rational()) for x, y in rational_points_of_order(m, n)]
        for n in (2, 3, 4, 6, 8, 12)
    }
    assert got == {
        2: [(-15, 7)],
        3: [(1, 39), (1, -41)],
        4: [(9, 31), (9, -41)],
        6: [(21, 79), (21, -101)],
        8: [],
        12: [(-9, -41), (-9, 49), (81, -761), (81, 679)],
    }
    # the x-coordinates found are those of the stripped
    # exact-order polynomial that carry a rational y
    for n, pts in got.items():
        reference = [
            x
            for x, _m in rational_roots(div.exact_order_poly(n))
            if curve_y_solutions(m, m.tower.rational(x))
        ]
        assert list(dict.fromkeys(x for x, _y in pts)) == reference, n


def test_the_90c3_build_searches_each_prime_power_once(monkeypatch):
    # order 12 is found from orders 4 and 3, so with order 4 asked for
    # first the build searches psi_4 and psi_3 once each
    roots = weierstrass.rational_roots
    searched = []
    monkeypatch.setattr(
        weierstrass, "rational_roots", lambda poly: searched.append(poly.degree) or roots(poly)
    )
    torsion = catalog_entry("90c3").build()["rational_torsion"]
    assert sorted(searched) == [4, 6]
    monkeypatch.undo()
    m = weierstrass_model(structure_90c3())
    assert torsion == {r: rational_points_of_order(m, r) for r in (4, 12)}


def test_twelve_torsion_generator_via_reduced_division_polynomial():
    e = structure_90c3()
    m = weierstrass_model(e)
    g = rational_points_of_order(m, 12)[0]
    P = m.point_to_source(g)
    assert ec_mul(e, 12, P) == e.origin
    for n in range(1, 12):
        assert ec_mul(e, n, P) != e.origin


def _order_twelve_point():
    e = structure_90c3()
    m = weierstrass_model(e)
    return e, m.point_to_source(rational_points_of_order(m, 12)[0])


def _repeated_sum(e, terms):
    acc = e.origin
    for n, p in terms:
        step = p if n > 0 else ec_neg(e, p)
        for _ in range(abs(n)):
            acc = ec_add(e, acc, step)
    return acc


def test_ec_mul_matches_repeated_addition(monkeypatch):
    e, P = _order_twelve_point()
    for n in range(-13, 14):
        assert ec_mul(e, n, P) == _repeated_sum(e, [(n, P)]), n
    # the model's double-and-add agrees with n-fold addition and, like
    # ec_mul, makes no doubling past the top bit
    m = weierstrass_model(e)
    p = m.point_from_source(P)
    sums = {}
    for n in range(-13, 14):
        acc = None
        for _ in range(abs(n)):
            acc = m.add(acc, p if n > 0 else m.neg(p))
        sums[n] = acc
    add = WeierstrassModel.add
    calls = []
    monkeypatch.setattr(
        WeierstrassModel, "add", lambda self, p1, p2: calls.append(1) or add(self, p1, p2)
    )
    for n, want in sums.items():
        calls.clear()
        assert m.mul(n, p) == want, n
        k = abs(n)
        assert len(calls) == (k.bit_length() + bin(k).count("1") - 1 if k else 0), n


def test_ec_mul_rejects_a_point_off_the_cubic():
    e = structure_90c3()
    off = ProjPoint(QQ, [1, 2, 3])
    assert not e.cubic.contains(off)
    for n in (1, -1, 2, 7):
        with pytest.raises(LineNotIncident):
            ec_mul(e, n, off)
    assert ec_mul(e, 0, off) == e.origin


def test_component_point_matches_the_divisor_sum():
    e, P = _order_twelve_point()
    Q = ec_mul(e, 5, P)
    divisor = [(P, 1), (Q, 2)]
    # m = 1 forces the zero class
    comp = ComponentData(1, 1, divisor, TorsionClass(12, (0, 0)))
    spec = ArrangementSpec(3, [comp], structure=e)
    assert spec.component_point(0) == _repeated_sum(e, [(1, P), (2, Q)])
    assert spec.component_point(0) == ec_mul(e, 11, P)


def test_no_rational_eight_torsion():
    e = structure_90c3()
    m = weierstrass_model(e)
    assert rational_points_of_order(m, 8) == []


def test_halving_reaches_order_eight():
    e = structure_90c3(cap=128)
    m = weierstrass_model(e)
    base = rational_points_of_order(m, 4)[0]
    found = halve_point(m, base)
    assert found
    tw, pt = found[0]
    assert tw.absolute_degree <= 8
    m2 = m.embedded(tw)
    assert m2.order(pt, 16) == 8
    assert m2.mul(2, pt) is not None


@pytest.mark.parametrize("n", [2, 3])
def test_halving_a_rational_double_stays_rational(n):
    # nP has the rational preimages P and P + T, T a rational point of
    # order n: their y-discriminants are rational squares, so both come from
    # the direct y-branch without a square root extension
    m = weierstrass_model(structure_90c3())
    p = rational_points_of_order(m, 12)[0]
    t = rational_points_of_order(m, n)[0]
    target = m.mul(n, p)
    found = divide_point(m, n, target, "d")
    rational = [pt for tw, pt in found if tw == m.tower]
    assert p in rational and m.add(p, t) in rational
    for tw, c in found:
        target_tw = tuple(v.embedded(tw) for v in target)
        assert m.embedded(tw).mul(n, c) == target_tw


def test_signed_preimage_refuses_what_is_not_a_preimage():
    m = weierstrass_model(structure_90c3())
    g = rational_points_of_order(m, 12)[0]
    t2 = rational_points_of_order(m, 2)[0]
    assert weierstrass.signed_preimage(m, 2, g, m.mul(2, g)) == g
    assert weierstrass.signed_preimage(m, 2, g, m.mul(-2, g)) == m.neg(g)
    # off the model; n * pt at infinity (t2 with n = 2, g with n = 12);
    # x(2g) is not x(g)
    assert weierstrass.signed_preimage(m, 2, (g[0], g[1] + 1), m.mul(2, g)) is None
    assert weierstrass.signed_preimage(m, 2, t2, g) is None
    assert weierstrass.signed_preimage(m, 12, g, g) is None
    assert weierstrass.signed_preimage(m, 2, g, g) is None


def test_exact_order_poly_strips_lower_orders():
    e = structure_90c3()
    div = DivisionPolynomials(weierstrass_model(e))
    e12 = div.exact_order_poly(12)
    assert e12.degree == 48
    for d in (2, 3, 4, 6):
        strip = div.doubling_cubic if d == 2 else div.raw(d)
        assert poly_gcd(e12, strip).degree == 0


# -- the chord-tangent law against the Weierstrass formulas --------------------

def _model_pairs(model, pool, rng, count):
    """Each pool point with itself, its negative and the origin, then random pairs."""
    pairs = [(None, None)]
    for p in pool:
        pairs += [(p, p), (p, model.neg(p)), (p, None), (None, p)]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(count)]
    return pairs


def _assert_chord_tangent_matches_model(e, model, pairs):
    for p, q in pairs:
        got = ec_add(e, model.point_to_source(p), model.point_to_source(q))
        assert got == model.point_to_source(model.add(p, q)), (p, q)


def test_chord_tangent_matches_weierstrass_on_rational_90c3_points():
    e = structure_90c3()
    m = weierstrass_model(e)
    g = rational_points_of_order(m, 12)[0]
    points = [m.mul(k, g) for k in range(12)]
    assert points[0] is None and len({m.point_to_source(p) for p in points}) == 12
    _assert_chord_tangent_matches_model(e, m, [(p, q) for p in points for q in points])


def test_chord_tangent_matches_weierstrass_over_the_halving_tower():
    data = catalog_entry("90c3").build(128)
    tw, e, P, _Q = bigon_points(data, 8)
    base = weierstrass_model(data["structure"])
    g12 = tuple(c.embedded(tw) for c in rational_points_of_order(base, 12)[0])
    m = base.embedded(tw)
    p8 = m.point_from_source(P)
    pool = [m.mul(k, p8) for k in range(1, 8)] + [g12, m.add(g12, p8)]
    _assert_chord_tangent_matches_model(e, m, _model_pairs(m, pool, random.Random(8), 16))


def test_chord_tangent_matches_weierstrass_on_the_fermat_triangle():
    data = catalog_entry("fermat").build(64)
    tw, e, tri = fermat_triangle(data)
    m = weierstrass_model(data["structure"]).embedded(tw)
    pool = [m.point_from_source(v) for v in tri.vertices + (fermat_t1(data).embedded(tw),)]
    _assert_chord_tangent_matches_model(e, m, _model_pairs(m, pool, random.Random(9), 8))


def test_residual_refuses_points_off_the_line_or_cubic_and_non_tangents():
    e, P = _order_twelve_point()
    Q = ec_mul(e, 5, P)
    line = line_through(P, Q)
    # the chord through P and Q is not tangent at P, so 2P is no divisor on it
    with pytest.raises(LineNotIncident, match="not tangent"):
        line_cubic_residual(e.cubic, line, P, P)
    with pytest.raises(LineNotIncident, match="off the line"):
        line_cubic_residual(e.cubic, line, P, ec_mul(e, 2, P))
    off = ProjPoint(QQ, [a + b for a, b in zip(P.coords, Q.coords)])
    assert line.contains(off) and not e.cubic.contains(off)
    with pytest.raises(LineNotIncident, match="off the cubic"):
        line_cubic_residual(e.cubic, line, P, off)


# -- rational torsion one prime power at a time, orders by prime descent -------

#: a-invariants [a1, a2, a3, a4, a6] of curves with rational Z/6 torsion
Z6_CURVES = {"14a1": (1, 0, 1, 4, -6), "30a1": (1, 0, 1, 1, 2)}


def _model_of(a_invariants):
    one, zero = QQ.one(), QQ.zero()
    identity = [[one if i == j else zero for j in range(3)] for i in range(3)]
    return WeierstrassModel(QQ, tuple(QQ.rational(a) for a in a_invariants), identity)


@pytest.mark.parametrize(
    "label, orders",
    [("90c3", (2, 3, 4, 6, 12)), ("14a1", range(2, 13)), ("30a1", range(2, 13))],
)
def test_rational_torsion_by_prime_powers_matches_psi_n(label, orders):
    if label == "90c3":
        m = weierstrass_model(structure_90c3())
    else:
        m = _model_of(Z6_CURVES[label])
    found = {n: rational_points_of_order(m, n) for n in orders}
    for n, pts in found.items():
        assert pts == psi_torsion_points(m, n), n
    assert sum(len(pts) for pts in found.values()) == (11 if label == "90c3" else 5)


def test_order_by_descent_matches_the_walk_on_both_group_laws():
    e = structure_90c3()
    m = weierstrass_model(e)
    pool = [pt for n in (2, 3, 4, 6, 12) for pt in rational_points_of_order(m, n)]

    def model_walk(p, bound):
        return walked_order(p, bound, m.add, lambda a: a is None)

    def chord_walk(p, bound):
        return walked_order(p, bound, lambda a, b: ec_add(e, a, b), lambda a: a == e.origin)

    for pt in pool:
        r = model_walk(pt, 12)
        P = m.point_to_source(pt)
        # a multiple of the order, bounds past it that it does not divide,
        # and a bound below it
        for bound, want in ((24, r), (r, r), (r + 1, r), (2 * r + 1, r), (r - 1, None)):
            assert m.order(pt, bound) == model_walk(pt, bound) == want, (r, bound)
            assert point_order(e, P, bound) == chord_walk(P, bound) == want, (r, bound)


def test_order_of_an_appendix_coordinate_point_takes_four_sums(monkeypatch):
    data = catalog_entry("cyclic").build(64)
    origin, tw = cyclic_flex_origins(data)[0]
    e = EllipticStructure(data["cubic"].embedded(tw), origin)
    p = ProjPoint(tw, [1, 0, 0])
    add = geometry.ec_add
    calls = []
    monkeypatch.setattr(geometry, "ec_add", lambda *args: calls.append(1) or add(*args))
    assert point_order(e, p, 9) == 9
    assert len(calls) <= 4

    def walk(bound):
        return walked_order(
            p, bound, lambda a, b: geometry.ec_add(e, a, b), lambda a: a == e.origin
        )

    calls.clear()
    assert walk(9) == 9
    assert len(calls) == 8
    for bound in (18, 10, 8):
        assert point_order(e, p, bound) == walk(bound), bound


def test_order_of_the_90c3_generator_forms_no_sum_twice(monkeypatch):
    entry = catalog_entry("90c3").build()
    e = entry["structure"]
    P = entry["model"].point_to_source(entry["rational_torsion"][12][0])
    add = geometry.ec_add
    operands = []

    def counted(e, a, b):
        operands.append((repr(a.to_data()), repr(b.to_data())))
        return add(e, a, b)

    monkeypatch.setattr(geometry, "ec_add", counted)
    assert point_order(e, P, 12) == 12
    # the 2-part forms 2P, 3P, 6P and 12P, and the 3-part only 4P and 8P:
    # its 4P + 8P is the 12P the ladder already holds
    assert len(operands) == len(set(operands)) == 6
