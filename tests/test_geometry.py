"""Projective curve geometry: hessians, group law, multiplicities, interpolation."""

import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import pytest

from maxflex import (
    QQ,
    CommonComponent,
    EllipticStructure,
    LineNotIncident,
    NoSolution,
    PlaneCurve,
    ProjPoint,
    SingularPoint,
    UniPoly,
    ZeroDivisorEncountered,
    branch_series,
    catalog,
    ec_add,
    ec_mul,
    ec_neg,
    extend_field,
    flex_points,
    hessian,
    interpolate_curve_with_divisor,
    intersection_multiplicity,
    intersection_points,
    line_cubic_residual,
    line_through,
    point_order,
    run_reproduction,
    tangent_line,
    tangents_through,
)
from maxflex import geometry
from maxflex.fields import with_splitting
from maxflex.geometry import _fulton, is_smooth_curve
from maxflex.weierstrass import rational_points_of_order, weierstrass_model

from counting import count_calls
from oracles import (
    former_ec_add,
    form_value,
    local_quotient_dimension,
    polar_residual,
    series_eval_bipoly,
    with_multiplicities,
)


def fermat(tower=QQ):
    return PlaneCurve(tower, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})


def cyclic_cubic(tower=QQ):
    return PlaneCurve(tower, 3, {(2, 1, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1})


def omega_tower():
    return extend_field(
        QQ, UniPoly.from_rationals(QQ, [1, 1, 1]), name="w", irreducible=True
    )


def fermat_structure():
    k = omega_tower()
    cubic = fermat(k)
    origin = ProjPoint(k, [k.one(), -k.one(), k.zero()])
    return k, EllipticStructure(cubic, origin)


# -- hessian ------------------------------------------------------------------

def test_hessian_of_fermat_is_216_xyz():
    h = hessian(fermat())
    assert set(h.form) == {(1, 1, 1)}
    assert h.coefficient((1, 1, 1)).as_rational() == 216


def test_hessian_vanishes_on_flexes():
    # one record per conjugate packet; a zero test at the packet's generic
    # root holds at every root, so this covers all nine flexes
    c = cyclic_cubic()
    h = hessian(c)
    for rec in intersection_points(c, h, QQ):
        assert h.embedded(rec.tower).evaluate(rec.point).is_zero()
        assert c.embedded(rec.tower).evaluate(rec.point).is_zero()


def test_hessian_commutes_with_coordinate_rotation():
    c = cyclic_cubic()
    h = hessian(c)
    rotated = PlaneCurve(QQ, 3, {(k, i, j): v for (i, j, k), v in h.form.items()})
    c_rot = PlaneCurve(QQ, 3, {(k, i, j): v for (i, j, k), v in c.form.items()})
    assert hessian(c_rot).form.keys() == rotated.form.keys()


# -- flexes --------------------------------------------------------------------

def test_fermat_has_the_nine_stated_flexes():
    flexes = flex_points(fermat(), QQ)
    assert sum(rec.orbit for rec in flexes) == 9
    # families [-1:0:a], [0:-1:a], [-1:a:0] with a^3 = 1, counted by orbit
    families = {0: 0, 1: 0, 2: 0}
    for rec in flexes:
        p = rec.point
        zero_axes = [i for i in range(3) if p.coords[i].is_zero()]
        assert len(zero_axes) == 1
        families[zero_axes[0]] += rec.orbit
        cube = [c * c * c for c in p.coords]
        nonzero = [i for i in range(3) if i not in zero_axes]
        assert (cube[nonzero[0]] + cube[nonzero[1]]).is_zero()
    assert families == {0: 3, 1: 3, 2: 3}


def test_fermat_flexes_over_the_cube_roots_of_unity():
    # above Q no rational roots are split off: each packet, reducible over
    # Q(w) or not, is adjoined whole, and no zero divisor may escape
    entry = catalog.catalog_entry("fermat").build()
    k = entry["tower"]
    flexes = flex_points(entry["structure"].cubic, k)
    assert sum(rec.orbit for rec in flexes) == 9
    for rec in flexes:
        assert rec.orbit == rec.tower.absolute_degree // k.absolute_degree


def test_cyclic_flexes_are_one_packet_of_orbit_nine():
    tower = QQ.with_cap(64)
    c = cyclic_cubic(tower)
    [rec] = flex_points(c, tower)
    assert rec.orbit == 9 and rec.tower.absolute_degree == 9
    origins = catalog.cyclic_flex_origins({"cubic": c, "tower": tower})
    assert origins == [(rec.point, rec.tower)]


# -- tangents and residuals ------------------------------------------------------

def test_tangent_at_fermat_flexes():
    k, e = fermat_structure()
    w = k.generator()
    t1 = ProjPoint(k, [k.one(), -w, k.zero()])
    line = tangent_line(e.cubic, t1).normalized()
    # x + w^2 y = 0
    assert (line.coefficient((0, 1, 0)) - w * w).is_zero()
    assert line.coefficient((0, 0, 1)).is_zero()
    line_o = tangent_line(e.cubic, e.origin).normalized()
    assert (line_o.coefficient((0, 1, 0)) - k.one()).is_zero()


def test_tangents_through_the_corner_are_packets_over_small_towers():
    # the three tangents x + c y (c^3 = 1) through [0:0:1] come from the one
    # packet x^3 + 1 on z = 0, adjoined once over Q(w)
    k, e = fermat_structure()
    lines = tangents_through(e.cubic, ProjPoint(k, [0, 0, 1]), k)
    assert sum(line.tower.absolute_degree // k.absolute_degree for line in lines) == 3
    assert all(line.tower.absolute_degree <= 6 for line in lines)


def test_tangent_of_line_is_itself():
    line = PlaneCurve.line(QQ, (QQ.rational(2), QQ.rational(-3), QQ.rational(1)))
    p = ProjPoint(QQ, [1, 1, 1])
    assert line.contains(p)
    t = tangent_line(line, p).normalized()
    assert t == line.normalized() or t.form.keys() == line.normalized().form.keys()


def test_proportional_forms_with_unequal_supports():
    line = PlaneCurve.line(QQ, (2, -3, 1))
    assert geometry._proportional_forms(line, line.scale(QQ.rational(-5)))
    assert not geometry._proportional_forms(line, PlaneCurve.line(QQ, (2, -3, 2)))
    # a term in one form alone, on either side and at either end of the keys
    for other in ((2, -3, 0), (0, -3, 1), (2, 0, 1)):
        b = PlaneCurve.line(QQ, other)
        assert not geometry._proportional_forms(line, b)
        assert not geometry._proportional_forms(b, line)
    assert not geometry._proportional_forms(line, PlaneCurve(QQ, 2, {(2, 0, 0): 1}))
    # a lone coefficient that is a zero divisor is tested, not taken as nonzero
    t = QQ.extend(UniPoly.from_rationals(QQ, [-1, 0, 1]), name="t")

    def lone(tw):
        a = PlaneCurve.line(tw, (tw.generator() - tw.one(), tw.one(), tw.zero()))
        return geometry._proportional_forms(a, PlaneCurve.line(tw, (0, 2, 0)))

    with pytest.raises(ZeroDivisorEncountered):
        lone(t)
    assert sorted(r for _tw, r in with_splitting(t, lone)) == [False, True]


def test_singular_point_raises():
    nodal = PlaneCurve(QQ, 3, {(2, 0, 1): 1, (0, 2, 1): -1, (3, 0, 0): -1})
    p = ProjPoint(QQ, [0, 0, 1])
    with pytest.raises(SingularPoint):
        tangent_line(nodal, p)


def test_collinear_flex_residual():
    k, e = fermat_structure()
    w = k.generator()
    t1 = ProjPoint(k, [k.one(), -w, k.zero()])
    line = line_through(e.origin, t1)
    r = line_cubic_residual(e.cubic, line, e.origin, t1)
    assert r == ProjPoint(k, [k.one(), -(w * w), k.zero()])


def test_tangent_residual_is_minus_two():
    # non-flex point: residual of the tangent equals <-2>P
    k, e = fermat_structure()
    # a non-torsion-looking point on x^3+y^3+z^3: [1 : a : b] with 1+a^3+b^3=0
    # use the third intersection of a chord of two flexes shifted: simpler,
    # double a 9-ish point derived from line intersections
    w = k.generator()
    t1 = ProjPoint(k, [k.one(), -w, k.zero()])
    p = ec_add(e, t1, ProjPoint(k, [k.zero(), -k.one(), k.one()]))
    line = tangent_line(e.cubic, p)
    r = line_cubic_residual(e.cubic, line, p, p)
    assert r == ec_mul(e, -2, p)


def test_flex_tangent_residual_is_the_flex():
    k, e = fermat_structure()
    r = line_cubic_residual(e.cubic, e.origin_tangent, e.origin, e.origin)
    assert r == e.origin


def test_line_not_incident_raises():
    k, e = fermat_structure()
    off = ProjPoint(k, [k.one(), k.zero(), k.zero()])
    with pytest.raises(LineNotIncident):
        line_cubic_residual(e.cubic, e.origin_tangent, off, off)


# -- group law ------------------------------------------------------------------

def test_group_identity_and_inverse():
    k, e = fermat_structure()
    w = k.generator()
    t1 = ProjPoint(k, [k.one(), -w, k.zero()])
    assert ec_add(e, t1, e.origin) == t1
    assert ec_add(e, t1, ec_neg(e, t1)) == e.origin
    assert ec_mul(e, 0, t1) == e.origin


def test_doubling_t1_on_fermat():
    k, e = fermat_structure()
    w = k.generator()
    t1 = ProjPoint(k, [k.one(), -w, k.zero()])
    assert ec_add(e, t1, t1) == ProjPoint(k, [k.one(), -(w * w), k.zero()])
    assert ec_mul(e, 3, t1) == e.origin


@pytest.mark.parametrize("n", [2, 3, 5, -2])
def test_ec_mul_tests_its_operand_in_the_law(n, monkeypatch):
    """Past n = 1 the operand is tested where it enters the law, by
    ``ec_neg`` or the first doubling, and never by a separate evaluation."""
    k, e = fermat_structure()
    t1 = ProjPoint(k, [k.one(), -k.generator(), k.zero()])
    want = ec_mul(e, n, t1)
    calls = []
    contains = PlaneCurve.contains
    monkeypatch.setattr(
        PlaneCurve, "contains", lambda self, p: calls.append(p) or contains(self, p)
    )
    fresh = EllipticStructure(e.cubic, e.origin)  # an empty table over the same tower
    assert ec_mul(fresh, n, t1) == want
    assert calls == []


@pytest.mark.parametrize("n", [1, -1, 2, 3, -2, 5])
def test_ec_mul_refuses_a_point_off_the_cubic(n):
    k, e = fermat_structure()
    off = ProjPoint(k, [k.one(), k.zero(), k.zero()])
    with pytest.raises(LineNotIncident):
        ec_mul(e, n, off)


def test_point_orders():
    k, e = fermat_structure()
    w = k.generator()
    t1 = ProjPoint(k, [k.one(), -w, k.zero()])
    assert point_order(e, e.origin, 5) == 1
    assert point_order(e, t1, 9) == 3


# -- Fulton multiplicities ---------------------------------------------------------

def test_transverse_lines_multiplicity():
    l1 = PlaneCurve.line(QQ, (QQ.one(), QQ.zero(), QQ.zero()))
    l2 = PlaneCurve.line(QQ, (QQ.zero(), QQ.one(), QQ.zero()))
    p = ProjPoint(QQ, [0, 0, 1])
    assert intersection_multiplicity(l1, l2, p) == 1


def test_triangle_vertex_multiplicity():
    c = cyclic_cubic()
    tri = PlaneCurve(QQ, 3, {(1, 1, 1): 1})
    p = ProjPoint(QQ, [1, 0, 0])
    assert intersection_multiplicity(c, tri, p) == 3


def test_flex_tangent_multiplicity_three():
    k, e = fermat_structure()
    assert intersection_multiplicity(e.cubic, e.origin_tangent, e.origin) == 3


def test_fulton_symmetry_and_oracle():
    rng = random.Random(23)
    instances = []
    # assorted affine pairs at the origin, multiplicities 1..6
    instances.append(({(0, 1): Fraction(1)}, {(1, 0): Fraction(1)}))  # 1
    instances.append(({(0, 1): Fraction(1), (2, 0): Fraction(-1)},
                      {(0, 1): Fraction(1)}))  # 2
    instances.append(({(0, 1): Fraction(1), (3, 0): Fraction(-1)},
                      {(0, 1): Fraction(1)}))  # 3
    instances.append(({(0, 1): Fraction(1), (2, 0): Fraction(-1)},
                      {(0, 1): Fraction(1), (2, 0): Fraction(-1), (4, 0): Fraction(1)}))  # 4
    instances.append(({(0, 1): Fraction(1), (5, 0): Fraction(-1)},
                      {(0, 1): Fraction(1)}))  # 5
    instances.append(({(0, 1): Fraction(1), (6, 0): Fraction(-1)},
                      {(0, 1): Fraction(1)}))  # 6
    expected = [1, 2, 3, 4, 5, 6]
    for (ft, gt), want in zip(instances, expected):
        F = _homogenize(ft)
        G = _homogenize(gt)
        p = ProjPoint(QQ, [0, 0, 1])
        m1 = intersection_multiplicity(F, G, p)
        m2 = intersection_multiplicity(G, F, p)
        assert m1 == m2 == want
        assert local_quotient_dimension(ft, gt) == want


def test_fulton_matches_local_algebra_on_random_pairs():
    # seeded affine pairs through the origin of degree <= 4 with small
    # coefficients; the local terms are often sparse, so tangencies and
    # singular points occur as well as transverse crossings
    rng = random.Random(4051)
    origin = ProjPoint(QQ, [0, 0, 1])
    seen = set()
    checked = 0
    while checked < 60:
        pair = []
        for _ in range(2):
            degree = rng.randint(1, 4)
            terms = {}
            for i in range(degree + 1):
                for j in range(degree + 1 - i):
                    c = rng.choice([0, 0, 0, 0, 1, -1, 2, -2])
                    if c and 0 < i + j:
                        terms[(i, j)] = Fraction(c)
            if not terms:
                break
            pair.append(terms)
        if len(pair) < 2:
            continue
        ft, gt = pair
        F, G = _homogenize(ft), _homogenize(gt)
        try:
            m1 = intersection_multiplicity(F, G, origin)
        except CommonComponent:
            continue
        assert intersection_multiplicity(G, F, origin) == m1
        assert local_quotient_dimension(ft, gt) == m1
        seen.add(m1)
        checked += 1
    assert max(seen) >= 5  # the sweep is not all transverse crossings


def test_fulton_refuses_a_shared_component_other_than_v():
    # u - uv and 2u^3 share the line u = 0 through the origin; the count
    # would grow without end, so passing the Bezout number must raise
    F = _homogenize({(1, 0): Fraction(1), (1, 1): Fraction(-1)})
    G = _homogenize({(3, 0): Fraction(2)})
    origin = ProjPoint(QQ, [0, 0, 1])
    with pytest.raises(CommonComponent):
        intersection_multiplicity(F, G, origin)
    with pytest.raises(CommonComponent):
        intersection_multiplicity(G, F, origin)


def _fulton_at(c, d, p):
    """Fulton's recursion at p called directly, past the tangent rule."""
    u0, v0 = p.affine()
    F = c.dehomogenize(p.chart).translate(u0, v0)
    G = d.dehomogenize(p.chart).translate(u0, v0)
    return _fulton(F, G, c.tower, c.degree * d.degree)


@pytest.mark.parametrize(
    "r, cap",
    [(4, 64), (12, 64), (4, 128), (8, 128), (12, 128), (24, 128)],
    ids=["default-r4", "default-r12", "extended-r4", "extended-r8", "extended-r12", "extended-r24"],
)
def test_tangent_rule_matches_fulton_on_the_bigon_arrangements(r, cap):
    """Every intersection point of the clubsuit-d2 arrangements (cubic,
    flex tangent, two conics), at the default and the extended radii and
    caps: the tangent rule answers most of them, so Fulton stays checked
    on the points it no longer serves."""
    entry = catalog.catalog_entry("90c3").build(cap)
    _tower, e, p, q = catalog.bigon_points(entry, r)
    pieces = [e.cubic, e.origin_tangent, *catalog.bigon_conics(e, p, q)]
    seen = set()
    for i, j in combinations(range(len(pieces)), 2):
        for rec in intersection_points(pieces[i], pieces[j], e.tower):

            def both(tw, rec=rec, c=pieces[i], d=pieces[j]):
                pt, c, d = rec.point.embedded(tw), c.embedded(tw), d.embedded(tw)
                return intersection_multiplicity(c, d, pt), _fulton_at(c, d, pt)

            for _tw, (fast, slow) in with_splitting(rec.tower, both, e.tower.height):
                assert fast == slow
                seen.add(slow)
    assert seen == {1, 3, 5}  # crossings, the flex tangent and the conic contacts


def _homogenize(terms):
    deg = max(i + j for i, j in terms)
    form = {(i, j, deg - i - j): c for (i, j), c in terms.items()}
    return PlaneCurve(QQ, deg, form)


def test_common_component_detected():
    l1 = PlaneCurve.line(QQ, (QQ.one(), QQ.one(), QQ.zero()))
    prod = l1 * PlaneCurve.line(QQ, (QQ.one(), QQ.zero(), QQ.one()))
    p = ProjPoint(QQ, [1, -1, 0])
    with pytest.raises(CommonComponent):
        intersection_multiplicity(l1, prod, p)


# -- intersection enumeration -------------------------------------------------------

def test_two_lines_intersect_once():
    l1 = PlaneCurve.line(QQ, (QQ.one(), QQ.rational(2), QQ.rational(3)))
    l2 = PlaneCurve.line(QQ, (QQ.rational(2), QQ.rational(-1), QQ.one()))
    recs = with_multiplicities(l1, l2, QQ)
    assert len(recs) == 1
    assert recs[0].multiplicity == 1 and recs[0].orbit == 1


def test_cubic_triangle_intersections():
    recs = with_multiplicities(cyclic_cubic(), PlaneCurve(QQ, 3, {(1, 1, 1): 1}), QQ)
    assert sorted(r.multiplicity for r in recs) == [3, 3, 3]
    assert sum(r.multiplicity * r.orbit for r in recs) == 9


# Pinned output of intersection_points, read through with_multiplicities: per
# record the point reps, the multiplicity, the orbit and the tower's data, in
# order.  Each case reaches a different branch of the z = 0 sweep; a refactor
# of the sweeps leaves them as they are.
RECORD_CASES = {
    # no x^2 term: both conics pass through [1:0:0], and both through [-1:1:0]
    "through-1-0-0": (
        {(1, 1, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1},
        {(1, 1, 0): 1, (0, 2, 0): 1, (1, 0, 1): 1},
    ),
    # x^2 + y^2 vanishes on both conics at the conjugate pair (+-i : 1 : 0)
    "packet-on-z0": (
        {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1},
        {(2, 0, 0): 1, (0, 2, 0): 1, (1, 0, 1): 1},
    ),
    # z (x - y) contains the line z = 0
    "contains-z0": (
        {(1, 0, 1): 1, (0, 1, 1): -1},
        {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -2},
    ),
    "fermat-hessian": (None, None),
    # Res_y has the x-packet (x^2 - 2)(x^2 + x - 1), which splits in the y-fiber:
    # above x^2 = 2 the fiber gcd is one, above x^2 + x = 1 it is y + x
    "split-in-x-packet": (
        {(2, 1, 0): 1, (0, 1, 2): -2, (0, 0, 3): -1},
        {(2, 1, 0): 1, (0, 1, 2): -2, (3, 0, 0): 1, (1, 0, 2): -2},
    ),
}

PINNED_RECORDS = {
    "through-1-0-0": [
        (["1/1", "0/1", "0/1"], 1, 1, []),
        (["1/1", "-1/1", "0/1"], 1, 1, []),
        ([["1/1", "0/1"], ["0/1", "-1/1"], ["-1/1", "0/1"]], 1, 2,
         [{"minpoly": ["-1/1", "-1/1", "1/1"], "name": "y0"}]),
    ],
    "packet-on-z0": [
        ([["1/1", "0/1"], ["0/1", "-1/1"], ["0/1", "0/1"]], 1, 2,
         [{"minpoly": ["1/1", "0/1", "1/1"], "name": "w0"}]),
        (["1/1", "0/1", "-1/1"], 2, 1, []),
    ],
    "contains-z0": [
        ([["1/1", "0/1"], ["0/1", "-1/1"], ["0/1", "0/1"]], 1, 2,
         [{"minpoly": ["1/1", "0/1", "1/1"], "name": "w0"}]),
        (["1/1", "1/1", "-1/1"], 1, 1, []),
        (["1/1", "1/1", "1/1"], 1, 1, []),
    ],
    "fermat-hessian": [
        (["1/1", "-1/1", "0/1"], 1, 1, []),
        ([["1/1", "0/1"], ["1/1", "-1/1"], ["0/1", "0/1"]], 1, 2,
         [{"minpoly": ["1/1", "-1/1", "1/1"], "name": "w0"}]),
        (["1/1", "0/1", "-1/1"], 1, 1, []),
        (["0/1", "1/1", "-1/1"], 1, 1, []),
        ([["0/1", "0/1"], ["1/1", "0/1"], ["1/1", "-1/1"]], 1, 2,
         [{"minpoly": ["1/1", "-1/1", "1/1"], "name": "y0"}]),
        ([["1/1", "0/1"], ["0/1", "0/1"], ["1/1", "-1/1"]], 1, 2,
         [{"minpoly": ["1/1", "-1/1", "1/1"], "name": "x0"}]),
    ],
    "split-in-x-packet": [
        (["0/1", "1/1", "0/1"], 6, 1, []),
        (["1/1", "-1/1", "1/1"], 1, 1, []),
        ([["1/1", "0/1"], ["-1/1", "0/1"], ["1/1", "1/1"]], 1, 2,
         [{"minpoly": ["-1/1", "1/1", "1/1"], "name": "x0"}]),
    ],
}


@pytest.mark.parametrize("name", sorted(RECORD_CASES))
def test_intersection_records_match_the_pinned_list(name):
    c_terms, d_terms = RECORD_CASES[name]
    if c_terms is None:
        c = fermat()
        d = hessian(c)
    else:
        c = PlaneCurve(QQ, max(map(sum, c_terms)), c_terms)
        d = PlaneCurve(QQ, max(map(sum, d_terms)), d_terms)
    recs = with_multiplicities(c, d, QQ)
    got = [(r.point.to_data(), r.multiplicity, r.orbit, r.tower.to_data()) for r in recs]
    assert got == PINNED_RECORDS[name]


@pytest.mark.parametrize(
    "c_terms, d_terms, message",
    [
        # z x and z y: z divides both curves
        ({(1, 0, 1): 1}, {(0, 1, 1): 1}, "z divides both"),
        # x (x - z) and x (x + z) are unions of lines through [0:1:0]
        ({(2, 0, 0): 1, (1, 0, 1): -1}, {(2, 0, 0): 1, (1, 0, 1): 1}, "vertical line"),
        # x (y - z) and x (y + z): Res_y is -2 x^2, and x = 0 is on both
        ({(1, 1, 0): 1, (1, 0, 1): -1}, {(1, 1, 0): 1, (1, 0, 1): 1}, "x = const"),
    ],
)
def test_intersection_points_refuses_a_shared_component(c_terms, d_terms, message):
    c = PlaneCurve(QQ, 2, c_terms)
    d = PlaneCurve(QQ, 2, d_terms)
    with pytest.raises(CommonComponent, match=message):
        intersection_points(c, d, QQ)


def test_bezout_on_random_pairs():
    rng = random.Random(97)
    checked = 0
    while checked < 12:
        d1, d2 = rng.choice([(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)])
        c = _random_curve(rng, d1)
        d = _random_curve(rng, d2)
        try:
            recs = with_multiplicities(c, d, QQ)
        except CommonComponent:
            continue
        assert sum(r.multiplicity * r.orbit for r in recs) == d1 * d2
        checked += 1


def _random_curve(rng, degree):
    terms = {}
    for i in range(degree + 1):
        for j in range(degree - i + 1):
            v = rng.randint(-3, 3)
            if v:
                terms[(i, j, degree - i - j)] = Fraction(v)
    if not terms:
        terms[(degree, 0, 0)] = Fraction(1)
    return PlaneCurve(QQ, degree, terms)


# -- branch series -------------------------------------------------------------------

def test_branch_series_of_line():
    line = PlaneCurve.line(QQ, (QQ.one(), QQ.zero(), QQ.zero()))  # x = 0
    p = ProjPoint(QQ, [0, 0, 1])
    s = branch_series(line, p, 4)
    assert all(c.is_zero() for c in s.u_series)
    assert s.v_series[1].as_rational() == 1


def test_branch_series_vanishes_to_order():
    c = cyclic_cubic()
    p = ProjPoint(QQ, [1, 0, 0])
    order = 6
    s = branch_series(c, p, order)
    local = c.dehomogenize(s.chart)
    vals = series_eval_bipoly(local, s.u_series, s.v_series, order, QQ)
    assert all(v.is_zero() for v in vals[: order + 1])


def test_tangent_composition_order_at_flex_and_nonflex():
    # flex: tangent composed with the cubic's branch vanishes to order exactly 3
    k, e = fermat_structure()
    s = branch_series(e.cubic, e.origin, 5)
    tl = e.origin_tangent.dehomogenize(s.chart)
    vals = series_eval_bipoly(tl, s.u_series, s.v_series, 5, k)
    orders = [i for i, v in enumerate(vals) if not v.is_zero()]
    assert orders and orders[0] == 3
    # order-9 non-flex point on the cyclic cubic: exactly 2
    c = cyclic_cubic()
    p = ProjPoint(QQ, [1, 0, 0])
    s2 = branch_series(c, p, 5)
    t2 = tangent_line(c, p).dehomogenize(s2.chart)
    vals2 = series_eval_bipoly(t2, s2.u_series, s2.v_series, 5, QQ)
    orders2 = [i for i, v in enumerate(vals2) if not v.is_zero()]
    assert orders2 and orders2[0] == 2
    assert intersection_multiplicity(c, tangent_line(c, p), p) == 2


# -- interpolation ---------------------------------------------------------------------

def test_interpolate_line_through_collinear_triple():
    k, e = fermat_structure()
    w = k.generator()
    t1 = ProjPoint(k, [k.one(), -w, k.zero()])
    t2 = ProjPoint(k, [k.one(), -(w * w), k.zero()])
    line = interpolate_curve_with_divisor(e, [(e.origin, 1), (t1, 1), (t2, 1)], 1)
    assert line.degree == 1
    for p in (e.origin, t1, t2):
        assert line.contains(p)


def test_interpolate_group_law_obstruction():
    k, e = fermat_structure()
    w = k.generator()
    t1 = ProjPoint(k, [k.one(), -w, k.zero()])
    t2 = ProjPoint(k, [k.zero(), -k.one(), k.one()])
    with pytest.raises(NoSolution):
        interpolate_curve_with_divisor(e, [(e.origin, 1), (t1, 1), (t2, 1)], 1)


def test_interpolate_refuses_a_zero_multiplicity():
    k, e = fermat_structure()
    t1 = ProjPoint(k, [k.one(), -k.generator(), k.zero()])
    with pytest.raises(ValueError, match="positive"):
        interpolate_curve_with_divisor(e, [(e.origin, 3), (t1, 0)], 1)

# -- smoothness ---------------------------------------------------------------------------

def test_smoothness_certification():
    assert is_smooth_curve(fermat())
    nodal = PlaneCurve(QQ, 3, {(2, 0, 1): 1, (0, 2, 1): -1, (3, 0, 0): -1})
    assert not is_smooth_curve(nodal)
    with pytest.raises(SingularPoint):
        EllipticStructure(nodal, ProjPoint(QQ, [1, 1, 1]))


# -- the gradient route of the group law against its references ----------------

SHAPES = ("q", "t4-1", "t2-9-1")
#: Hypothesis examples per tower shape; the Fermat tower's operations cost most.
EXAMPLES = {"q": 40, "t4-1": 20, "t2-9-1": 8}


def _hypothesis():
    """hypothesis' given and strategies, and a seeded profile for n examples.

    A test that calls this is skipped where hypothesis is not installed.
    """
    hyp = pytest.importorskip("hypothesis")

    def profile(n):
        return hyp.settings(
            max_examples=n,
            derandomize=True,
            database=None,
            deadline=None,
            suppress_health_check=[hyp.HealthCheck.too_slow, hyp.HealthCheck.filter_too_much],
        )

    return hyp.given, profile, hyp.strategies


@lru_cache(maxsize=None)
def catalog_shape(shape):
    """A structure on one of the catalog's tower shapes, with points on it.

    ``q``: 90c3 over Q with multiples of a rational point of order 12.
    ``t4-1``: the [4,1] halving tower with the bi-gon points P, Q of order 8
    and 2P.  ``t2-9-1``: the Fermat witness with the triangle vertices, T1
    and 2T1.  Each list ends with the origin.
    """
    entry = catalog.catalog_entry("90c3").build()
    if shape == "q":
        e = entry["structure"]
        model = weierstrass_model(e)
        g = model.point_to_source(rational_points_of_order(model, 12)[0])
        points = [g]
        for _ in range(3):
            points.append(ec_add(e, points[-1], g))
    elif shape == "t4-1":
        _tower, e, p, q = catalog.bigon_points(entry, 8)
        points = [p, q, ec_add(e, p, p)]
    else:
        wit = catalog.fermat_witness()
        e = wit["structure"]
        points = list(wit["triangle"].vertices) + [wit["T1"], wit["2T1"]]
    return e, points + [e.origin]


def _monomials(degree):
    return [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree - i + 1)]


def test_evaluate_matches_a_nested_fraction_oracle():
    given, profile, st = _hypothesis()
    small = st.fractions(min_value=-30, max_value=30, max_denominator=7)

    @profile(60)
    @given(st.data())
    def run(data):
        degree = data.draw(st.integers(0, 4))
        terms = data.draw(st.dictionaries(st.sampled_from(_monomials(degree)), small))
        coords = data.draw(st.lists(small, min_size=3, max_size=3))
        if not any(terms.values()):
            return  # the zero form is no curve
        curve = PlaneCurve(QQ, degree, terms)
        assert curve.evaluate(coords).as_rational() == form_value(terms, coords)
        if any(coords):
            point = ProjPoint(QQ, coords)
            at = [c.as_rational() for c in point.coords]
            assert curve.evaluate(point).as_rational() == form_value(terms, at)

    run()


@pytest.mark.parametrize("shape", SHAPES)
def test_euler_relation_on_random_points(shape):
    """grad C(p).p = d C(p) for random forms and points over each tower."""
    given, profile, st = _hypothesis()
    tower = catalog_shape(shape)[0].tower
    gens = [tower.generator(i) for i in range(tower.height)]
    small = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    element = st.lists(small, min_size=tower.height + 1, max_size=tower.height + 1).map(
        lambda qs: sum((q * g for q, g in zip(qs[1:], gens)), tower.rational(qs[0]))
    )

    @profile(EXAMPLES[shape])
    @given(st.data())
    def run(data):
        degree = data.draw(st.integers(1, 4))
        terms = data.draw(
            st.dictionaries(st.sampled_from(_monomials(degree)), element, min_size=1)
        )
        coords = data.draw(st.lists(element, min_size=3, max_size=3))
        try:
            curve = PlaneCurve(tower, degree, terms)
        except ValueError:
            return  # every coefficient is zero: the zero form is no curve
        points = [coords]
        try:
            points.append(ProjPoint(tower, coords))
        except (ValueError, ZeroDivisorEncountered):
            pass  # no projective point, or its lead coordinate is a zero divisor
        for point in points:
            at = point.coords if isinstance(point, ProjPoint) else coords
            lhs = sum((g * c for g, c in zip(curve.gradient(point), at)), tower.zero())
            assert lhs.rep == (curve.evaluate(point) * degree).rep
            assert curve.evaluate(point).rep == form_value(terms, at).rep

    run()


def _same_point(a, b):
    return [c.rep for c in a.coords] == [c.rep for c in b.coords]


@pytest.mark.parametrize("shape", SHAPES)
def test_residual_matches_the_polar_curve_reference(shape):
    """Every chord and every tangent of the shape's points, both routes."""
    e, points = catalog_shape(shape)
    cubic = e.cubic
    for p, q in combinations_with_replacement(points, 2):
        if p == q:
            line = tangent_line(cubic, p)
            # the same point twice, and an equal point built anew
            pairs = [(p, p), (p, ProjPoint(p.tower, p.coords))]
        else:
            line = line_through(p, q)
            pairs = [(p, q), (q, p)]
        for a, b in pairs:
            assert _same_point(line_cubic_residual(cubic, line, a, b), polar_residual(cubic, line, a, b))


@pytest.mark.parametrize("shape", SHAPES)
def test_residual_refusals_match_the_polar_curve_reference(shape):
    e, points = catalog_shape(shape)
    cubic = e.cubic
    tower = cubic.tower
    p, q, s = points[0], points[1], points[-2]
    off = ProjPoint(tower, [1, 2, 5])
    assert not cubic.contains(off)
    cases = [
        (line_through(p, s), p, q, "point off the line"),
        (line_through(p, off), p, off, "point off the cubic"),
        (line_through(off, p), off, p, "point off the cubic"),
        (line_through(p, s), p, p, "line is not tangent at the point"),
    ]
    for line, a, b, message in cases:
        with pytest.raises(LineNotIncident) as got:
            line_cubic_residual(cubic, line, a, b)
        with pytest.raises(LineNotIncident) as want:
            polar_residual(cubic, line, a, b)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value) == message


def test_tangent_line_refuses_a_point_of_a_constant_form():
    # Euler's relation reads 0 = 0 C(p) on a constant; the form has no zeros
    with pytest.raises(LineNotIncident):
        tangent_line(PlaneCurve(QQ, 0, {(0, 0, 0): 2}), ProjPoint(QQ, [1, 0, 0]))


def _law_counts(monkeypatch, shape):
    """Tower products, inverses and zero tests of the four sums (p, q),
    (p, p), (q, q) and (q, p) on a shape's first two points: counts, not
    timings, so they hold on any machine."""
    e, (p, q, *_rest) = catalog_shape(shape)
    count = count_calls(monkeypatch, ("products", "inverses", "zero tests"))
    for a, b in [(p, q), (p, p), (q, q), (q, p)]:
        ec_add(e, a, b)
    return count


def test_ec_add_multiplication_count_on_the_halving_tower(monkeypatch):
    """Before the group law took one gradient per point, these four sums took
    1758 multiplications (373 or 506 each); while each sum built its lines,
    374 products, 12 inverses and 92 zero tests; while the residuals
    re-tested their operands, 278 products and 42 zero tests."""
    count = _law_counts(monkeypatch, "t4-1")
    assert 0 < count["products"] <= 262
    assert 0 < count["inverses"] <= 8
    assert 0 < count["zero tests"] <= 34


def test_ec_add_counts_on_the_fermat_witness_tower(monkeypatch):
    """While each sum built its lines, 270 products, 12 inverses and 100
    zero tests; while the residuals re-tested their operands, 178 products
    and 46 zero tests."""
    count = _law_counts(monkeypatch, "t2-9-1")
    assert 0 < count["products"] <= 162
    assert 0 < count["inverses"] <= 8
    assert 0 < count["zero tests"] <= 38


@pytest.mark.parametrize("shape", SHAPES)
def test_ec_add_matches_the_route_that_built_lines(shape):
    """Every ordered pair of the shape's points, the doublings and the
    origin included: the same point, rep for rep."""
    e, points = catalog_shape(shape)
    for a in points:
        for b in points:
            assert _same_point(ec_add(e, a, b), former_ec_add(e, a, b))


@pytest.mark.parametrize("shape", SHAPES)
def test_tangent_second_point_is_on_the_tangent_off_the_chart(shape):
    """B = e_c x L for the tangent L at each point, c the point's chart."""
    e, points = catalog_shape(shape)
    for p in points:
        line = geometry._tangent_gradient(e.cubic, p)
        B = geometry._second_point(line, p.chart)
        assert sum((x * y for x, y in zip(line, B)), e.tower.zero()).is_zero()
        assert B[p.chart].is_zero()
        assert not all(x.is_zero() for x in B)


def test_clubsuit_d2_runs_fulton_only_where_tangents_meet(monkeypatch):
    """A count, not a timing: the default run's fingerprint sweeps made 44
    Fulton calls before the tangent rule, 30 of them at plain crossings."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _fulton(*args)

    monkeypatch.setattr(geometry, "_fulton", counted)
    assert run_reproduction("clubsuit-d2").ok
    assert 0 < calls[0] <= 14


def test_ec_add_takes_three_gradients_on_the_halving_tower(monkeypatch):
    """One gradient per point of the law: a doubling reuses the tangent's,
    and every step through the origin reads the structure's.  Before, a
    doubling took 5 and a chord 4."""
    e, (p, q, _double, _origin) = catalog_shape("t4-1")
    calls = [0]
    gradient = geometry.PlaneCurve.gradient

    def counted(self, point):
        calls[0] += 1
        return gradient(self, point)

    monkeypatch.setattr(geometry.PlaneCurve, "gradient", counted)
    taken = []
    for a, b in [(p, p), (p, q)]:
        calls[0] = 0
        ec_add(e, a, b)
        taken.append(calls[0])
    assert taken == [3, 3]


# -- the structure's table of sums --------------------------------------------

def _count_sums(monkeypatch):
    """Every ``ec_add`` call from now on, through each maxflex module that
    holds the function (catalog and reproductions import it by name)."""
    add = geometry.ec_add
    calls = []

    def counted(e, p, q):
        calls.append(1)
        return add(e, p, q)

    for name, module in list(sys.modules.items()):
        if name == "maxflex" or name.startswith("maxflex."):
            for attr, value in list(vars(module).items()):
                if value is add:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize(
    "name, most",
    # 11, 12 and 32 sums when each composite operation formed its own
    [("fermat-existence", 9), ("appendix-triangle", 8), ("clubsuit-d2", 17)],
)
def test_reproductions_form_each_sum_once_per_structure(name, most, monkeypatch):
    calls = _count_sums(monkeypatch)
    assert run_reproduction(name).ok
    assert 0 < len(calls) <= most


@pytest.mark.parametrize("shape", SHAPES)
def test_table_sums_are_symmetric_and_match_the_weierstrass_law(shape, monkeypatch):
    e0, points = catalog_shape(shape)
    e = EllipticStructure(e0.cubic, e0.origin)
    m = weierstrass_model(e)
    calls = _count_sums(monkeypatch)
    pairs = list(combinations_with_replacement(points, 2))
    for p, q in pairs:
        got = e.add(p, q)
        assert e.add(q, p) is got
        assert got == ec_add(e, q, p)
        want = m.add(m.point_from_source(p), m.point_from_source(q))
        assert got == m.point_to_source(want), (p, q)
    # the table formed each pair's sum once; the reversed pair read it
    assert len(calls) == len(pairs)


def _split_pending_fermat():
    """The Fermat cubic over Q[t]/(t^2 - 1), not known to be a product of
    two fields, with p = (1:0:-1) and a point q that is p where t = 1 and
    the origin (1:-1:0) where t = -1: deciding p == q meets a zero divisor."""
    tw = extend_field(QQ, UniPoly.from_rationals(QQ, [-1, 0, 1]), name="t")
    t = tw.generator()
    e = EllipticStructure(fermat(tw), ProjPoint(tw, [1, -1, 0]))
    p = ProjPoint(tw, [1, 0, -1])
    q = ProjPoint(tw, [1, (t - 1) / 2, -(t + 1) / 2])
    return tw, e, p, q


def test_a_zero_divisor_stores_no_sum(monkeypatch):
    tw, e, p, q = _split_pending_fermat()
    calls = _count_sums(monkeypatch)
    for _ in range(2):
        with pytest.raises(ZeroDivisorEncountered):
            e.add(p, q)
    assert len(calls) == 2 and not e._sums


def test_a_structure_embedded_into_a_split_branch_starts_empty(monkeypatch):
    tw, e, p, q = _split_pending_fermat()
    twice = e.add(p, p)
    assert len(e._sums) == 1
    calls = _count_sums(monkeypatch)
    # the factor branch has t = 1, where q = p; the other t = -1, where q = O
    for branch, want in zip(tw.split(0, [-1, 1]), (twice, p)):
        eb = e.embedded(branch)
        assert eb is not e and not eb._sums
        pb, qb = p.embedded(branch), q.embedded(branch)
        got = eb.add(pb, qb)
        assert eb.add(qb, pb) is got
        assert got == want.embedded(branch)
    assert len(calls) == 2 and len(e._sums) == 1
