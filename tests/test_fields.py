"""Field tower arithmetic, polynomial utilities, and dynamic splitting."""

import random
from fractions import Fraction

import pytest

from maxflex import (
    QQ,
    BudgetExceeded,
    DegenerateModulus,
    FieldTower,
    UniPoly,
    ZeroDivisorEncountered,
    extend_field,
    invert,
    poly_gcd,
    root_packets,
    squarefree_part,
    with_splitting,
)
from maxflex import fields
from maxflex.catalog import bigon_points, catalog_entry, cyclic_flex_origins, fermat_witness
from maxflex.combinatorics import concurrent_line_triples
from maxflex.fields import _UNIT_PRIMES, _certified_unit, _is_szero, _unit_frame, rep_to_data


def qpoly(*coeffs):
    return UniPoly.from_rationals(QQ, coeffs)


def test_gcd_with_zero_is_monic():
    f = qpoly(2, 0, 4)  # 4t^2 + 2
    zero = UniPoly(QQ, ())
    g = poly_gcd(f, zero)
    assert g.rational_coeffs() == [Fraction(1, 2), Fraction(0), Fraction(1)]


def test_gcd_shared_linear_factor():
    f = qpoly(-1, 0, 1)
    g = qpoly(-1, 1)
    assert poly_gcd(f, g).rational_coeffs() == [Fraction(-1), Fraction(1)]


def test_squarefree_part_removes_repeated_root():
    f = qpoly(1, -2, 1)  # (t-1)^2
    assert squarefree_part(f).rational_coeffs() == [Fraction(-1), Fraction(1)]


def test_squarefree_part_keeps_squarefree():
    f = qpoly(9, -3, 1)
    assert squarefree_part(f) == f


def test_squarefree_part_idempotent_on_squares():
    f = qpoly(3, 1, 0, 2)
    assert squarefree_part(f * f) == squarefree_part(f)


def test_extend_by_quadratic_gives_root():
    k = extend_field(QQ, qpoly(9, -3, 1), name="b")
    b = k.generator()
    assert (b * b - (3 * b - k.rational(9))).is_zero()


def test_extend_by_degree_six_modulus():
    f = qpoly(1, 3, -75, -236, 2193, 84, 1)
    k = extend_field(QQ, f, name="u")
    assert k.absolute_degree == 6
    u = k.generator()
    assert f.embedded(k).evaluate(u).is_zero()


def test_extend_rejects_linear_modulus():
    with pytest.raises(DegenerateModulus):
        extend_field(QQ, qpoly(-5, 1))


def test_extend_rejects_non_squarefree():
    with pytest.raises(DegenerateModulus):
        extend_field(QQ, qpoly(1, -2, 1))


def test_extend_rejects_over_budget():
    small = QQ.with_cap(4)
    with pytest.raises(BudgetExceeded):
        extend_field(small, UniPoly.from_rationals(small, [1, 0, 0, 0, 0, 1]))
    # the packet of t^3 - 2 is adjoined whole
    with pytest.raises(BudgetExceeded, match="tower degree 3 exceeds cap 2"):
        root_packets(qpoly(-2, 0, 0, 1), QQ.with_cap(2))


def test_invert_identity():
    k = extend_field(QQ, qpoly(9, -3, 1), name="b")
    assert (invert(k.one()) - k.one()).is_zero()


def test_invert_beta_in_quadratic_field():
    k = extend_field(QQ, qpoly(9, -3, 1), name="b")
    b = k.generator()
    binv = invert(b)
    assert (b * binv - k.one()).is_zero()
    # extended Euclid gives (3 - b) / 9
    assert (binv - (k.rational(3) - b) * Fraction(1, 9)).is_zero()


def test_invert_zero_divisor_reports_factor():
    k = QQ.extend(qpoly(-1, 0, 1), name="t")
    t = k.generator()
    with pytest.raises(ZeroDivisorEncountered) as info:
        invert(t - k.one())
    err = info.value
    assert err.level == 0
    mod = UniPoly(QQ, list(k.levels[0].modulus))
    factor = UniPoly(QQ, list(err.factor))
    assert 1 <= factor.degree < mod.degree
    assert (mod % factor).is_zero()


def test_split_degrees_sum():
    k = QQ.extend(qpoly(-1, 0, 1), name="t")
    try:
        invert(k.generator() - k.one())
    except ZeroDivisorEncountered as err:
        b1, b2 = k.branches_for(err)
    assert b1.levels[0].degree + b2.levels[0].degree == k.levels[0].degree


def test_with_splitting_covers_both_branches():
    k = QQ.extend(qpoly(-1, 0, 1), name="t")

    def job(tower):
        x = tower.generator() - tower.one()
        return "zero" if x.is_zero() else "unit"

    results = sorted(r for _tw, r in with_splitting(k, job))
    assert results == ["unit", "zero"]


def test_field_axioms_randomized():
    k = extend_field(QQ, qpoly(9, -3, 1), name="b", irreducible=True)
    b = k.generator()
    rng = random.Random(11)

    def sample():
        return k.rational(rng.randint(-9, 9)) + b * rng.randint(-9, 9)

    for _ in range(60):
        x, y, z = sample(), sample(), sample()
        assert ((x + y) + z - (x + (y + z))).is_zero()
        assert (x * (y + z) - (x * y + x * z)).is_zero()
        assert (x * y - y * x).is_zero()
        if not x.is_zero():
            assert (x * invert(x) - k.one()).is_zero()


def test_squarefree_divides_and_has_simple_roots():
    rng = random.Random(5)
    for _ in range(25):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(2, 6))]
        coeffs.append(Fraction(rng.randint(1, 4)))
        f = UniPoly(QQ, coeffs)
        s = squarefree_part(f)
        assert (f % s).is_zero()
        assert poly_gcd(s, s.derivative()).degree == 0


def test_nested_tower_arithmetic():
    k1 = extend_field(QQ, qpoly(9, -3, 1), name="b", irreducible=True)
    k2 = extend_field(k1, UniPoly.from_rationals(k1, [-2, 0, 1]), name="s")
    s = k2.generator()
    b = k1.generator().embedded(k2)
    x = (s + b) * (s - b)
    # s^2 = 2, so x = 2 - b^2 = 2 - (3b - 9) = 11 - 3b
    expect = k2.rational(11) - 3 * b
    assert (x - expect).is_zero()


def test_tower_serialization_round_trip():
    k1 = extend_field(QQ, qpoly(9, -3, 1), name="b")
    k2 = extend_field(k1, UniPoly.from_rationals(k1, [-2, 0, 1]), name="s")
    data = k2.to_data()
    back = FieldTower.from_data(data)
    assert back.levels[0].modulus == k2.levels[0].modulus
    assert back.levels[1].modulus == k2.levels[1].modulus
    assert data[0]["minpoly"][0] == "9/1"


def test_tower_from_data_checks_each_level_like_extend():
    # a split leaves a monic linear level, which reads back as it was
    k = extend_field(QQ, qpoly(-1, 0, 1), name="b")
    lin, _ = k.split(0, [Fraction(-1), Fraction(1)])
    k2 = extend_field(lin, UniPoly.from_rationals(lin, [-2, 0, 1]), name="s")
    back = FieldTower.from_data(k2.to_data())
    assert [lv.modulus for lv in back.levels] == [lv.modulus for lv in k2.levels]
    assert not any(lv.irreducible for lv in back.levels)
    bad = (
        ["1/1", "2/1", "1/1"],  # (t+1)^2: not squarefree
        ["1/1", "0/1", "2/1"],  # not monic
        ["1/1", "2/1", "0/1"],  # zero leading coefficient
        ["1/1", "2/1"],  # linear, not monic
        ["1/1", "0/1"],  # a constant
    )
    for minpoly in bad:
        with pytest.raises(DegenerateModulus):
            FieldTower.from_data([{"name": "t", "minpoly": minpoly}])


def test_rationals_cross_the_boundary_as_fractions():
    x = QQ.rational(Fraction(-6, 4))
    assert type(x.as_rational()) is Fraction and x.as_rational() == Fraction(-3, 2)
    assert rep_to_data(x.rep) == "-3/2"
    assert rep_to_data(QQ.rational(5).rep) == "5/1"
    coeffs = qpoly(Fraction(1, 2), 0, 3).rational_coeffs()
    assert coeffs == [Fraction(1, 2), 0, 3]
    assert all(type(c) is Fraction for c in coeffs)
    # a split factor may be given as ints, Fractions or elements
    k = extend_field(QQ, qpoly(-1, 0, 1), name="b")
    by_int = k.split(0, [-1, 1])
    assert by_int == k.split(0, [Fraction(-1), Fraction(1)])
    assert by_int == k.split(0, [QQ.rational(-1), QQ.one()])


def test_minimal_polynomial_of_generator():
    k = extend_field(QQ, qpoly(9, -3, 1), name="b")
    mp = k.generator().minimal_polynomial()
    assert mp.rational_coeffs() == [Fraction(9), Fraction(-3), Fraction(1)]


# -- the trivial linear level a split leaves ----------------------------------
# Expected values were recorded from the extended-Euclid inverse that ran at
# such a level before it was inverted as its one coefficient.


def _split_left_tower():
    low = QQ.extend(qpoly(-1, 0, 1), name="t")  # t^2 - 1 is reducible
    top = low.extend(UniPoly.from_rationals(low, [-4, 0, 1]), name="s")
    lin, _ = top.split(1, UniPoly.from_rationals(low, [-2, 1]).coeffs)
    assert [lv.degree for lv in lin.levels] == [2, 1]
    return lin


def test_linear_level_invert_matches_previous_results():
    lin = _split_left_tower()
    t, s = lin.generator(0), lin.generator(1)
    cases = [
        (s, [["1/2", "0/1"]]),
        (t + 2, [["2/3", "-1/3"]]),
        (t * Fraction(3, 5) + s, [["50/91", "-15/91"]]),
        (s - t, [["2/3", "1/3"]]),
    ]
    for x, want in cases:
        assert rep_to_data(x.invert().rep) == want
        assert (x * x.invert()).rep == lin.one().rep
        assert x.is_zero() is False


def test_linear_level_invert_of_zero_raises():
    lin = _split_left_tower()
    x = lin.generator(1) - 2  # s = 2 on this branch
    with pytest.raises(ZeroDivisionError):
        x.invert()
    assert x.is_zero() is True


def test_linear_level_reports_lower_zero_divisor_like_the_prefix():
    lin = _split_left_tower()
    x = lin.generator(0) - 1
    prefix = FieldTower(lin.levels[:1])
    with pytest.raises(ZeroDivisorEncountered) as below:
        (prefix.generator(0) - 1).invert()
    for probe in (x.invert, x.is_zero):
        with pytest.raises(ZeroDivisorEncountered) as info:
            probe()
        assert info.value.level == 0 == below.value.level
        assert [rep_to_data(c) for c in info.value.factor] == ["-1/1", "1/1"]
        assert info.value.factor == below.value.factor


# -- units certified mod p ----------------------------------------------------
# ``is_zero`` proves a value a unit from the images of its numerators and the
# top modulus over GF(p) before it falls back to the exact inverse.


@pytest.fixture(scope="module")
def witness():
    return fermat_witness()


def _catalog_towers(witness):
    """The [2,9,1] Fermat witness tower, the [4,1] halving tower and the
    degree-9 cyclic flex tower, with proper factors of the degree-9 flex
    modulus (t^3 - 3t - 1 and its cofactor) to probe zero divisors."""
    tw4 = bigon_points(catalog_entry("90c3").build(), 8)[0]
    [(_pt, flex)] = cyclic_flex_origins(catalog_entry("cyclic").build())
    t = flex.generator()
    zero_divisors = [t**3 - 3 * t - 1, t**6 + 3 * t**4 - 2 * t**3 + 9 * t**2 - 3 * t + 1]
    return [(witness["tower"], []), (tw4, []), (flex, zero_divisors)]


def _seeded_element(tower, rng):
    x = tower.zero()
    for _ in range(rng.randint(1, 4)):
        term = tower.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for i, lv in enumerate(tower.levels):
            term = term * tower.generator(i) ** rng.randrange(lv.degree)
        x = x + term
    return x


def test_certified_units_invert_and_is_zero_agrees_with_invert(witness):
    rng = random.Random(11)
    for tower, zero_divisors in _catalog_towers(witness):
        assert not all(lv.irreducible for lv in tower.levels)
        elements = [_seeded_element(tower, rng) for _ in range(40)]
        elements += [z * _seeded_element(tower, rng) for z in zero_divisors for _ in range(3)]
        certified = raised = 0
        for x in elements:
            if _is_szero(x.rep, tower.height):
                continue
            unit = _certified_unit(tower.levels, x.rep)
            try:
                inv = x.invert()
            except ZeroDivisorEncountered as err:
                assert not unit
                with pytest.raises(ZeroDivisorEncountered) as got:
                    x.is_zero()
                assert (got.value.level, got.value.factor) == (err.level, err.factor)
                raised += 1
                continue
            assert (x * inv).rep == tower.one().rep
            assert x.is_zero() is False
            certified += unit
        assert certified >= 30
        assert raised >= len(zero_divisors)


def _reducible_quartic(base):
    return UniPoly(base, [base.rational(c) for c in (4, 0, -5, 0, 1)])  # (t^2 - 1)(t^2 - 4)


@pytest.mark.parametrize("below", [None, "certified", "uncertified", "branch"])
def test_zero_divisor_still_raises_its_factor(below):
    # t - 1 divides the top modulus: the images mod p share the root 1, so
    # no certificate is found and the exact inverse reports the factor t - 1
    if below is None:
        tower = QQ.extend(_reducible_quartic(QQ), name="t")
    else:
        low = QQ.extend(qpoly(-2, 0, 1), name="s", irreducible=below == "certified")
        tower = low.extend(_reducible_quartic(low), name="t")
        if below == "branch":
            tower = tower.split(1, [-1, 0, 1])[0]  # the branch t^2 - 1
            assert tower.levels[1].degree == 2
    x = tower.generator() - 1
    assert not _certified_unit(tower.levels, x.rep)
    with pytest.raises(ZeroDivisorEncountered) as err:
        x.is_zero()
    assert err.value.level == tower.height - 1
    want = ["-1/1", "1/1"] if below is None else [["-1/1", "0/1"], ["1/1", "0/1"]]
    assert [rep_to_data(c) for c in err.value.factor] == want
    assert (tower.generator() - 3).is_zero() is False


def test_certificate_skips_a_prime_dividing_a_modulus_denominator():
    p = _UNIT_PRIMES[0]
    # (t - 1/p)(t - 2): its cleared leading coefficient is p
    tower = QQ.extend(qpoly(Fraction(2, p), -2 - Fraction(1, p), 1), name="t")
    t = tower.generator()
    assert _unit_frame(tower.levels, 1)[0] == _UNIT_PRIMES[1]
    for x in (t, t - 3, t * t + Fraction(1, p)):
        assert _certified_unit(tower.levels, x.rep)
        assert x.is_zero() is False
    for root in (Fraction(1, p), Fraction(2)):
        with pytest.raises(ZeroDivisorEncountered) as err:
            (t - root).is_zero()
        want = ["%d/%d" % (-root.numerator, root.denominator), "1/1"]
        assert [rep_to_data(c) for c in err.value.factor] == want


def test_concurrency_determinants_run_no_inverse_above_height_one(witness, monkeypatch):
    calls = []
    inner = fields._rinv

    def counting(levels, h, a):
        calls.append(h)
        return inner(levels, h, a)

    monkeypatch.setattr(fields, "_rinv", counting)
    assert witness["tower"].height == 3
    assert list(concurrent_line_triples(witness["lines"])) == []
    assert [h for h in calls if h >= 2] == []
