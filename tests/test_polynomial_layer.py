"""The polynomial and series layer against its former routes, and its costs.

Each route computes a uniquely defined value, so the former route in
``oracles`` must give the same reps on the same input:

- ``resultant_bivariate`` (a subresultant remainder sequence) against
  ``sylvester_resultant`` (the Bareiss determinant of the Sylvester matrix),
  over Q, Q(w) and the [4,1] halving tower, on pairs that take every branch
  of the sequence: deg f < deg g with both degrees odd, remainders whose
  degree drops by two or more (delta >= 2), shared factors and constants;
- ``BiPoly.translate`` (Taylor shifts by synthetic division) against
  ``binomial_translate``, on cubics and conics over Q, Q(w) and the Fermat
  [2,9,1] tower;
- ``branch_series`` (one power table filled column by column) against
  ``branch_series_by_orders``, at the bi-gon points of orders 4, 12 and 8;
- the sweep's fibre F(x, v), the v-columns each evaluated at x by Horner's
  rule, against ``specialize_by_powers``, and ``BiPoly.v_columns`` against
  ``v_columns_by_filter``, over Q, Q(w), [4,1] and [2,9,1], on forms with an
  empty middle column and at x = 0.

The counts pin what the new routes cost at the r = 4 bi-gon point of 90c3:
tower products through ``tests/counting.py``, and the resultant's rep
products and divisions.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from counting import count_calls
from oracles import (
    binomial_translate,
    branch_series_by_orders,
    specialize_by_powers,
    sylvester_resultant,
    v_columns_by_filter,
)

from maxflex import QQ, UniPoly, catalog, fields, geometry, polysolve
from maxflex.geometry import BiPoly, branch_series
from maxflex.polysolve import resultant_bivariate, resultant_univariate


@lru_cache(maxsize=None)
def tower(shape):
    if shape == "q":
        return QQ
    if shape == "q-w":
        return QQ.extend(UniPoly.from_rationals(QQ, [1, 1, 1]), name="w", irreducible=True)
    if shape == "t4-1":
        return catalog.bigon_points(catalog.catalog_entry("90c3").build(), 8)[0]
    return catalog.fermat_witness()["tower"]


def element(rng, t, terms=2):
    """A seeded value of t: rational multiples of products of generator powers."""
    x = t.zero()
    for _ in range(terms):
        m = t.rational(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        for i, lv in enumerate(t.levels):
            m = m * t.generator(i) ** rng.randrange(lv.degree)
        x = x + m
    return x


def poly(rng, t, degree):
    """A UniPoly of the given degree with seeded coefficients, -1 for zero."""
    if degree < 0:
        return UniPoly(t, ())
    coeffs = [element(rng, t, rng.randint(0, 2)) for _ in range(degree)]
    lead = t.zero()
    while lead.is_zero():
        lead = element(rng, t)
    return UniPoly(t, coeffs + [lead])


def columns(rng, t, du, dx, step=1):
    """The u-columns of a polynomial of u-degree du: each column a UniPoly in
    x of degree at most dx, and only every ``step``-th power of u present."""
    return [
        poly(rng, t, rng.randint(0, dx)) if j % step == 0 else UniPoly(t, ())
        for j in range(du + 1)
    ]


def times(a, b):
    """The product of two column lists as polynomials in u."""
    t = a[0].tower
    out = [UniPoly(t, ())] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def resultant_pairs(t, rng, count):
    """Column pairs covering every branch of the remainder sequence."""
    pairs = []
    for _ in range(count):
        df, dg = rng.randint(0, 4), rng.randint(0, 4)
        pairs.append((columns(rng, t, df, 2), columns(rng, t, dg, 2)))
    # deg f < deg g with both odd: the sign of the initial swap
    for df, dg in ((1, 3), (3, 5), (1, 5)):
        pairs.append((columns(rng, t, df, 2), columns(rng, t, dg, 1)))
    # even in u: every remainder drops its degree by two, so delta = 2
    for df, dg in ((6, 4), (4, 2), (2, 6), (6, 2)):
        pairs.append((columns(rng, t, df, 1, step=2), columns(rng, t, dg, 1, step=2)))
    # a shared factor: the resultant is zero
    shared = columns(rng, t, 1, 1)
    pairs.append((times(shared, columns(rng, t, 2, 1)), times(shared, columns(rng, t, 1, 1))))
    # constants in u, and a zero argument
    pairs.append((columns(rng, t, 0, 2), columns(rng, t, 3, 1)))
    pairs.append((columns(rng, t, 3, 1), columns(rng, t, 0, 2)))
    pairs.append((columns(rng, t, 0, 2), columns(rng, t, 0, 2)))
    pairs.append(([UniPoly(t, ())], columns(rng, t, 2, 1)))
    return pairs


@pytest.mark.parametrize("shape, seed, count", [("q", 1, 60), ("q-w", 2, 16), ("t4-1", 3, 8)])
def test_subresultant_matches_the_sylvester_determinant(shape, seed, count):
    t = tower(shape)
    rng = random.Random(seed)
    zeros = 0
    for f, g in resultant_pairs(t, rng, count):
        got = resultant_bivariate(f, g, t)
        assert got.tower is t
        assert got.coeffs == sylvester_resultant(f, g, t).coeffs, (f, g)
        zeros += got.is_zero()
    assert zeros >= 2


def test_univariate_resultant_matches_the_sylvester_determinant():
    t = tower("q-w")
    rng = random.Random(4)
    for df in range(5):
        for dg in range(5):
            f, g = poly(rng, t, df), poly(rng, t, dg)
            cols = [[UniPoly(t, (c,)) for c in p.coeffs] for p in (f, g)]
            want = sylvester_resultant(*cols, t)
            assert resultant_univariate(f, g).rep == want.coefficient(0).rep


def plane_form(rng, t, degree):
    """A seeded affine form of total degree ``degree`` with some terms absent."""
    terms = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if rng.random() < 0.7:
                terms[(i, j)] = element(rng, t, rng.randint(1, 2))
    terms[(degree, 0)] = element(rng, t)
    return BiPoly(t, terms)


def reps(F):
    return {k: c.rep for k, c in F.terms.items()}


@pytest.mark.parametrize("shape, seed, count", [("q", 5, 12), ("q-w", 6, 8), ("t2-9-1", 7, 3)])
def test_taylor_shift_matches_the_binomial_expansion(shape, seed, count):
    t = tower(shape)
    rng = random.Random(seed)
    for degree in (2, 3):
        for n in range(count):
            F = plane_form(rng, t, degree)
            a = t.zero() if n == 0 else element(rng, t)
            b = element(rng, t)
            assert reps(F.translate(a, b)) == reps(binomial_translate(F, a, b))
            assert reps(F.translate(b, a)) == reps(binomial_translate(F, b, a))


def column_forms(rng, t, count):
    """Seeded forms over t: plane forms of degree 2 to 4, and forms whose
    v-degree 2 column has no v-degree 1 column below it."""
    forms = [plane_form(rng, t, 2 + n % 3) for n in range(count)]
    for _ in range(2):
        terms = {(i, j): element(rng, t) for i in range(3) for j in (0, 2) if rng.random() < 0.8}
        terms[(rng.randint(0, 2), 2)] = element(rng, t)
        forms.append(BiPoly(t, terms))
    return forms


@pytest.mark.parametrize(
    "shape, seed, count", [("q", 8, 12), ("q-w", 9, 6), ("t4-1", 10, 4), ("t2-9-1", 11, 3)]
)
def test_column_evaluation_matches_the_power_table(shape, seed, count):
    t = tower(shape)
    rng = random.Random(seed)
    empty_middle = 0
    for n, F in enumerate(column_forms(rng, t, count)):
        cols = F.v_columns()
        assert [c.coeffs for c in cols] == [c.coeffs for c in v_columns_by_filter(F)]
        empty_middle += len(cols) == 3 and cols[1].is_zero()
        for x in (t.zero(), element(rng, t)):
            fibre = UniPoly(t, [c.evaluate(x) for c in cols])
            assert fibre.coeffs == specialize_by_powers(F, x).coeffs, (F.terms, x)
        # the sweep's fibres read columns of the base tower inside an extension
        if n == 0 and shape != "q":
            G = plane_form(rng, QQ, 3)
            x = element(rng, t)
            fibre = UniPoly(t, [c.embedded(t).evaluate(x) for c in G.v_columns()])
            assert fibre.coeffs == specialize_by_powers(G.embedded(t), x).coeffs
    assert empty_middle >= 1


@lru_cache(maxsize=None)
def bigon(r):
    tw, E, P, Q = catalog.bigon_points(catalog.catalog_entry("90c3").build(64), r)
    return tw, E, P, Q, catalog.bigon_conics(E, P, Q)


@pytest.mark.parametrize("r", [4, 12, 8])
def test_branch_series_match_the_series_built_order_by_order(r):
    _tw, E, P, Q, (c1, c2) = bigon(r)
    for curve, point in ((E.cubic, P), (E.cubic, Q), (c1, P), (c2, Q)):
        s = branch_series(curve, point, 4)
        us, vs = branch_series_by_orders(curve, point, 4)
        assert [x.rep for x in s.u_series] == [x.rep for x in us]
        assert [x.rep for x in s.v_series] == [x.rep for x in vs]


def test_translate_cost_at_the_r4_point(monkeypatch):
    _tw, E, P, _Q, _conics = bigon(4)
    u0, v0 = P.affine()
    F = E.cubic.dehomogenize(P.chart)
    count = count_calls(monkeypatch, ["products"])
    F.translate(u0, v0)
    assert count["products"] <= 14  # 83 by binomial expansion


def test_branch_series_cost_at_the_r4_point(monkeypatch):
    _tw, E, P, _Q, _conics = bigon(4)
    count = count_calls(monkeypatch, ["products"])
    branch_series(E.cubic, P, 4)
    assert count["products"] <= 39  # 219 with a power table per order


def test_cubic_conic_resultant_costs_at_the_r4_point(monkeypatch):
    tw, E, _P, _Q, (c1, _c2) = bigon(4)
    F, G = E.cubic.dehomogenize(2), c1.dehomogenize(2)
    count = count_calls(
        monkeypatch, [], [("rmul", fields, "_rmul"), ("divmod", fields, "_pl_divmod")]
    )
    res = resultant_bivariate(F.v_columns(), G.v_columns(), tw)
    assert res.degree == 6
    # 118 products and 14 divisions by the Bareiss determinant
    assert count == {"rmul": 56, "divmod": 1}


def test_the_former_routes_are_gone():
    assert not hasattr(polysolve, "det_bareiss_poly")
    assert not hasattr(geometry, "_compose_coefficient")
    assert not hasattr(geometry.BiPoly, "specialize_u")
    assert not hasattr(geometry, "_powers")
