"""The norm inverse at height 2 against the remainder sequence alone.

Over Q(w)[v]/(f), with w^2 + p w + q marked irreducible and f rational,
``fields._rinv`` inverts a as its conjugate over the norm N(a) = a abar,
which lies in Q[v]/(f); when N(a) is no unit there it falls back to the
remainder sequence.  Every inverse and every zero divisor is compared with
``oracles.euclid_inverse``, that sequence alone: on the Fermat witness tower
[2,9,1], which reaches the route through its linear level, on seeded towers
Q(w)[v]/(f) with denominators, f of degree 2 to 4 and reducible or not, and
on a tower whose f splits over Q(w) only, where N(a) is 0 for a zero
divisor.  A level 1 that is not marked irreducible never takes the route,
so a zero divisor there still splits level 0; nor does a level 2 whose
modulus is not constant in level 1, and the [4,1] halving tower and Q never
reach it.
"""

from fractions import Fraction
from math import isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import euclid_inverse  # noqa: E402

from maxflex import (  # noqa: E402
    QQ,
    DegenerateModulus,
    UniPoly,
    ZeroDivisorEncountered,
    catalog,
    fields,
    poly_gcd,
)

PROFILE = dict(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def outcome(route, x):
    """The inverse rep, or for a zero divisor its level and factor."""
    t = x.tower
    try:
        return ("inverse", route(t.levels, t.height, x.rep))
    except ZeroDivisorEncountered as err:
        return ("zero divisor", err.level, err.factor)


def assert_as_oracle(x):
    """``_rinv`` makes of x what the remainder sequence alone makes of it;
    returns the kind of outcome."""
    got = outcome(fields._rinv, x)
    assert got == outcome(euclid_inverse, x)
    if got[0] == "inverse":
        assert (x * x.tower.element(got[1])).rep == x.tower.one().rep
    return got[0]


def count_routes(monkeypatch):
    """A list that gets one entry per call of the norm route."""
    calls = []
    route = fields._rinv_by_norm

    def counted(line, a):
        calls.append(a)
        return route(line, a)

    monkeypatch.setattr(fields, "_rinv_by_norm", counted)
    return calls


def witness_pool():
    wit = catalog.fermat_witness()
    points = list(wit["triangle"].vertices) + [wit["T1"], wit["2T1"]]
    return wit["tower"], [c for p in points for c in p.affine() if not c.is_zero()]


def test_the_witness_tower_inverts_by_norm_as_the_oracle(monkeypatch):
    tower, pool = witness_pool()
    calls = count_routes(monkeypatch)
    n = len(pool)
    values = list(pool)
    for i in range(n):
        a, b = pool[i], pool[(3 * i + 1) % n]
        values += [a + b + i + 1, a * b - Fraction(i + 1, 3), a - 2 * b]
    for x in values:
        assert assert_as_oracle(x) == "inverse"
    assert len(calls) >= len(values) - len(pool)


def test_the_route_runs_on_the_witness_tower_and_not_on_the_halving_tower(monkeypatch):
    t291, pool = witness_pool()
    t41 = catalog.bigon_points(catalog.catalog_entry("90c3").build(), 8)[0]
    w = t41.generator(0)
    assert fields._norm_line(t291.levels) is not None
    calls = count_routes(monkeypatch)
    for x in (w * w + w + 3, w * w * w - 2 * w + 1, w + Fraction(1, 7)):
        assert assert_as_oracle(x) == "inverse"
    assert QQ.rational(Fraction(-5, 3)).invert().as_rational() == Fraction(-3, 5)
    assert calls == []
    x = pool[0] + pool[1] + 1
    x.invert()
    assert len(calls) == 1
    # the gcd's leading-coefficient inverses take it too
    f = UniPoly(t291, [pool[2] + 1, t291.one()])
    g = poly_gcd(f * UniPoly(t291, [pool[3] - 1, 2]), f * UniPoly(t291, [pool[4], 3]))
    assert g == f and len(calls) > 1


def test_a_reducible_level_one_never_takes_the_route(monkeypatch):
    base = QQ.extend(UniPoly.from_rationals(QQ, [-1, 0, 1]))
    tower = base.extend(UniPoly(base, [-2, 0, 0, 1]))
    assert fields._norm_line(tower.levels) is None
    calls = count_routes(monkeypatch)
    t, x = tower.generator(0), tower.generator()
    a = (t - 1) * x + 3
    with pytest.raises(ZeroDivisorEncountered) as err:
        a.invert()
    assert err.value.level == 0
    assert assert_as_oracle(a) == "zero divisor"
    assert calls == []


def test_a_modulus_not_constant_in_level_one_never_takes_the_route(monkeypatch):
    """v^2 - i over Q(i): conjugation moves f, so the sequence over Q(i) runs."""
    base = QQ.extend(UniPoly.from_rationals(QQ, [1, 0, 1]), irreducible=True)
    tower = base.extend(UniPoly(base, [-base.generator(), 0, 1]))
    assert fields._norm_line(tower.levels) is None
    calls = count_routes(monkeypatch)
    i, v = tower.generator(0), tower.generator()
    for a in (v + i, (2 * i + 1) * v - 3, (i - 1) * v + Fraction(1, 2) * i):
        assert assert_as_oracle(a) == "inverse"
    assert calls == []


def test_a_modulus_that_splits_over_the_base_falls_back_with_a_zero_norm(monkeypatch):
    """v^2 + 1 over Q(i) is (v - i)(v + i): N(v - i) = v^2 + 1 = 0."""
    base = QQ.extend(UniPoly.from_rationals(QQ, [1, 0, 1]), irreducible=True)
    tower = base.extend(UniPoly.from_rationals(base, [1, 0, 1]))
    calls = count_routes(monkeypatch)
    i, v = tower.generator(0), tower.generator()
    for a in (v - i, (v + i) * (3 * v - Fraction(1, 2)), (v - i) * (i + 2)):
        assert assert_as_oracle(a) == "zero divisor"
    assert assert_as_oracle(v + 2 * i + 1) == "inverse"
    assert len(calls) == 4


@st.composite
def norm_towers(draw):
    """(Q(w)[v]/(f), factors): w^2 + p w + q has no rational root and is
    marked irreducible, and f is monic rational of degree 2 to 4, drawn
    either whole (no factors listed) or as a product of its listed rational
    factors."""
    small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    p, q = draw(small), draw(small)
    disc = p * p - 4 * q
    assume(disc < 0 or not _is_square(disc))
    base = QQ.extend(UniPoly.from_rationals(QQ, [q, p, 1]), irreducible=True)
    if draw(st.booleans()):
        f, factors = UniPoly.from_rationals(QQ, [1]), []
        for _ in range(draw(st.integers(2, 3))):
            n = draw(st.integers(1, 2))
            g = UniPoly.from_rationals(QQ, [draw(small) for _ in range(n)] + [1])
            f, factors = f * g, factors + [g]
        assume(f.degree <= 4)
    else:
        d = draw(st.integers(2, 4))
        f, factors = UniPoly.from_rationals(QQ, [draw(small) for _ in range(d)] + [1]), []
    try:
        tower = base.extend(UniPoly.from_rationals(base, f.rational_coeffs()))
    except DegenerateModulus:
        assume(False)
    return tower, [UniPoly.from_rationals(tower, g.rational_coeffs()) for g in factors]


def _is_square(r):
    r = Fraction(r)
    return r >= 0 and all(isqrt(n) ** 2 == n for n in (r.numerator, r.denominator))


def test_seeded_norm_towers_invert_and_split_as_the_oracle(monkeypatch):
    calls = count_routes(monkeypatch)
    seen = set()
    small = st.fractions(min_value=-9, max_value=9, max_denominator=6)

    @settings(max_examples=60, **PROFILE)
    @given(norm_towers(), st.lists(small, min_size=8, max_size=8), st.integers(0, 3))
    def run(drawn, qs, pick):
        tower, factors = drawn
        w, v = tower.generator(0), tower.generator()
        d = tower.levels[1].degree
        a = tower.zero()
        for j in range(d):
            a = a + (qs[2 * j] + qs[2 * j + 1] * w) * v ** j
        assume(a.rep != tower.zero().rep)
        if factors and pick:
            a = a * factors[pick % len(factors)].evaluate(v)
            assume(a.rep != tower.zero().rep)
        seen.add(assert_as_oracle(a))

    run()
    assert seen == {"inverse", "zero divisor"}
    assert calls
