"""Dynamic evaluation under deliberately reducible moduli, and moving values
between related towers."""

import random
from fractions import Fraction

import pytest

from maxflex import (
    QQ,
    PlaneCurve,
    ProjPoint,
    UniPoly,
    ZeroDivisorEncountered,
    intersection_points,
    intersection_multiplicity,
    weierstrass_model,
    with_splitting,
)
from maxflex.catalog import catalog_entry


def test_uniform_arithmetic_covers_all_factors():
    # modulus (t - 1)(t - 3)(t^2 - 2): inverting x - 2 succeeds uniformly
    # (2 is no root), so no split fires; the characteristic polynomial of the
    # computed value must then vanish at the value taken in every factor
    mod = (
        UniPoly.from_rationals(QQ, [-1, 1])
        * UniPoly.from_rationals(QQ, [-3, 1])
        * UniPoly.from_rationals(QQ, [-2, 0, 1])
    )
    tower = QQ.extend(mod.monic(), name="t")

    def job(tw):
        x = tw.generator()
        val = (x - tw.rational(2)).invert() + x * x
        return val.minimal_polynomial()

    results = with_splitting(tower, job)
    assert len(results) == 1  # no zero divisor was ever met
    mp = results[0][1]
    for r in (Fraction(1), Fraction(3)):
        v = 1 / (r - 2) + r * r
        assert mp.evaluate(v).is_zero()


def test_splits_partition_degrees_repeatedly():
    # (t^2 - 1)(t^2 - 4) splits down to four linear branches under probing
    mod = UniPoly.from_rationals(QQ, [4, 0, -5, 0, 1])
    tower = QQ.extend(mod, name="t")

    def classify(tw):
        x = tw.generator()
        for c in (1, -1, 2, -2):
            if (x - tw.rational(c)).is_zero():
                return c
        return None

    results = with_splitting(tower, classify)
    values = sorted(r for _tw, r in results if r is not None)
    assert values == [-2, -1, 1, 2]


def test_intersections_at_infinity():
    # two conics meeting at [1:0:0] and [0:1:0] plus two affine points
    c1 = PlaneCurve(QQ, 2, {(1, 1, 0): 1, (0, 0, 2): -1})  # xy = z^2
    c2 = PlaneCurve(QQ, 2, {(1, 1, 0): 1, (0, 0, 2): -4})  # xy = 4z^2
    recs = intersection_points(c1, c2, QQ)
    assert sum(r.multiplicity * r.orbit for r in recs) == 4
    pts = {tuple(str(c.rep) for c in r.point.coords) for r in recs}
    assert ("1", "0", "0") in pts and ("0", "1", "0") in pts


def test_multiplicity_at_infinity_tangency():
    # the parabolas v = u^2 and v = u^2 + 1 meet only at [0:1:0], with
    # contact exhausting the whole Bezout number
    p1 = PlaneCurve(QQ, 2, {(0, 1, 1): 1, (2, 0, 0): -1})
    p2 = PlaneCurve(QQ, 2, {(0, 1, 1): 1, (2, 0, 0): -1, (0, 0, 2): 1})
    inf = ProjPoint(QQ, [0, 1, 0])
    assert intersection_multiplicity(p1, p2, inf) == 4
    recs = intersection_points(p1, p2, QQ)
    assert sum(r.multiplicity * r.orbit for r in recs) == 4
    assert all(r.point == inf for r in recs)


def test_bezout_cubic_times_cubic():
    rng = random.Random(1234)
    done = 0
    while done < 2:
        terms = {}
        for i in range(4):
            for j in range(4 - i):
                v = rng.randint(-2, 2)
                if v:
                    terms[(i, j, 3 - i - j)] = Fraction(v)
        if not terms:
            continue
        c = PlaneCurve(QQ, 3, terms)
        d = PlaneCurve(QQ, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
        try:
            recs = intersection_points(c, d, QQ)
        except Exception:
            continue
        assert sum(r.multiplicity * r.orbit for r in recs) == 9
        done += 1


def test_with_splitting_cutoff_reraises_below_base_height():
    # Q[t]/(t^2 - 1)[s]/(s^2 - 4): both levels are reducible
    low = QQ.extend(UniPoly.from_rationals(QQ, [-1, 0, 1]), name="t")
    tower = low.extend(UniPoly.from_rationals(low, [-4, 0, 1]), name="s")

    def t_is_one(tw):
        return (tw.generator(0) - tw.one()).is_zero()

    def s_is_two(tw):
        return (tw.generator(1) - tw.rational(2)).is_zero()

    with pytest.raises(ZeroDivisorEncountered) as err:
        with_splitting(tower, t_is_one, base_height=1)
    assert err.value.level == 0
    assert sorted(r for _tw, r in with_splitting(tower, t_is_one)) == [False, True]
    results = with_splitting(tower, s_is_two, base_height=1)
    assert sorted(r for _tw, r in results) == [False, True]
    assert all(tw.levels[0] == tower.levels[0] for tw, _r in results)


def _i_tower():
    return QQ.extend(UniPoly.from_rationals(QQ, [1, 0, 1]), name="i")


def _structure_over_i():
    return catalog_entry("90c3").build()["structure"].embedded(_i_tower())


@pytest.mark.parametrize(
    "make, methods",
    [
        (lambda: _i_tower().generator(), ("embedded", "migrated")),
        (lambda: UniPoly(_i_tower(), [_i_tower().generator(), 1]), ("embedded", "migrated")),
        (lambda: ProjPoint(_i_tower(), [1, _i_tower().generator(), 0]), ("embedded", "migrated")),
        (lambda: _structure_over_i().cubic, ("embedded", "migrated")),
        (_structure_over_i, ("embedded", "migrated")),
        # a Weierstrass model is only ever embedded, never migrated
        (lambda: weierstrass_model(_structure_over_i()), ("embedded",)),
    ],
    ids=["TowerElement", "UniPoly", "ProjPoint", "PlaneCurve", "EllipticStructure",
         "WeierstrassModel"],
)
def test_same_tower_move_is_identity(make, methods):
    x = make()
    for method in methods:
        assert getattr(x, method)(x.tower) is x
    # Q(sqrt 2) does not extend Q(i): embedding still refuses it
    other = QQ.extend(UniPoly.from_rationals(QQ, [-2, 0, 1]), name="r")
    with pytest.raises(ValueError, match="prefix-compatible"):
        x.embedded(other)
