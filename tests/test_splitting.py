"""Dynamic evaluation under deliberately reducible moduli, and moving values
between related towers.

Residues moved into split branches are compared, on seeded hypothesis
draws, with ``oracles.former_reduce_inplace``, the former reduction."""

import random
from fractions import Fraction

import pytest

from maxflex import (
    QQ,
    PlaneCurve,
    ProjPoint,
    UniPoly,
    ZeroDivisorEncountered,
    fields,
    intersection_multiplicity,
    weierstrass_model,
    with_splitting,
)
from maxflex.catalog import catalog_entry
from maxflex.fields import rep_to_data
from maxflex.geometry import BiPoly
from oracles import with_multiplicities


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
    recs = with_multiplicities(c1, c2, QQ)
    assert sum(r.multiplicity * r.orbit for r in recs) == 4
    pts = {tuple(str(c.as_rational()) for c in r.point.coords) for r in recs}
    assert ("1", "0", "0") in pts and ("0", "1", "0") in pts


def test_multiplicity_at_infinity_tangency():
    # the parabolas v = u^2 and v = u^2 + 1 meet only at [0:1:0], with
    # contact exhausting the whole Bezout number
    p1 = PlaneCurve(QQ, 2, {(0, 1, 1): 1, (2, 0, 0): -1})
    p2 = PlaneCurve(QQ, 2, {(0, 1, 1): 1, (2, 0, 0): -1, (0, 0, 2): 1})
    inf = ProjPoint(QQ, [0, 1, 0])
    assert intersection_multiplicity(p1, p2, inf) == 4
    recs = with_multiplicities(p1, p2, QQ)
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
            recs = with_multiplicities(c, d, QQ)
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


def test_normalized_line_splits_on_a_zero_divisor_lead():
    # over Q[t]/(t^2 - 1) the lead t - 1 of (t - 1)x + y + 3z is a zero divisor
    tower = QQ.extend(UniPoly.from_rationals(QQ, [-1, 0, 1]), name="t")

    def line(tw):
        return PlaneCurve.line(tw, [tw.generator() - tw.one(), tw.one(), tw.rational(3)])

    with pytest.raises(ZeroDivisorEncountered):
        line(tower).normalized()
    results = with_splitting(tower, lambda tw: line(tw).normalized())
    assert len(results) == 2
    leads = set()
    for tw, normal in results:
        lead = max(normal.form)
        assert normal.form[lead] == tw.one()
        assert normal.contains(ProjPoint(tw, [0, -3, 1]))
        leads.add(lead)
    # at t = 1 the x-term vanishes and y leads; at t = -1 it is -2x
    assert leads == {(1, 0, 0), (0, 1, 0)}


def _i_tower():
    return QQ.extend(UniPoly.from_rationals(QQ, [1, 0, 1]), name="i")


def _structure_over_i():
    return catalog_entry("90c3").build()["structure"].embedded(_i_tower())


@pytest.mark.parametrize(
    "make",
    [
        lambda: _i_tower().generator(),
        lambda: UniPoly(_i_tower(), [_i_tower().generator(), 1]),
        lambda: BiPoly(_i_tower(), {(1, 0): _i_tower().generator(), (0, 2): 1}),
        lambda: ProjPoint(_i_tower(), [1, _i_tower().generator(), 0]),
        lambda: _structure_over_i().cubic,
        _structure_over_i,
        lambda: weierstrass_model(_structure_over_i()),
    ],
    ids=["TowerElement", "UniPoly", "BiPoly", "ProjPoint", "PlaneCurve", "EllipticStructure",
         "WeierstrassModel"],
)
def test_same_tower_move_is_identity(make):
    x = make()
    assert x.embedded(x.tower) is x
    # Q(sqrt 2) does not extend Q(i): embedding still refuses it
    other = QQ.extend(UniPoly.from_rationals(QQ, [-2, 0, 1]), name="r")
    with pytest.raises(ValueError, match="prefix-compatible"):
        x.embedded(other)


def _quadratic(tower, constant, name):
    """tower[name]/(name^2 - constant)."""
    return tower.extend(UniPoly(tower, [-constant, 0, 1]), name=name)


def test_split_below_two_upper_levels_keeps_their_relations():
    # Q[a][b][c] with a^2 = 1, b^2 = a + 3, c^2 = b + 5: splitting on a - 1
    # moves the moduli of b and c, each at its own height
    ta = _quadratic(QQ, 1, "a")
    tb = _quadratic(ta, ta.generator() + 3, "b")
    tc = _quadratic(tb, tb.generator() + 5, "c")
    a, b, c = (tc.generator(k) for k in range(3))
    v = c * b + a * Fraction(2, 3)

    def check(tw):
        a, b, c = (tw.generator(k) for k in range(3))
        assert (c * c - b - 5).is_zero()
        assert (b * b - a - 3).is_zero()
        assert v.embedded(tw) == c * b + a * Fraction(2, 3)
        return (a - 1).is_zero()

    results = with_splitting(tc, check)
    assert sorted(r for _tw, r in results) == [False, True]
    for tw, _r in results:
        assert [lv.degree for lv in tw.levels] == [1, 2, 2]


def test_embedded_reaches_branches_as_the_old_two_step_route():
    # reps recorded with ``migrated`` and ``embedded(...).migrated(...)``
    # before the two moves became one
    t4 = QQ.extend(UniPoly.from_rationals(QQ, [4, 0, -5, 0, 1]), name="t")
    t = t4.generator()
    x = t ** 3 + t * Fraction(2, 3) + Fraction(1, 5)
    br1, br4 = t4.split(0, [-1, 0, 1])
    up = t4.extend(UniPoly(t4, [-(t + 7), 0, 1]), name="u")
    up1, up4 = up.split(0, [-1, 0, 1])
    lin1, _lin = br1.split(0, [-1, 1])
    u, tu = up.generator(), up.generator(0)
    y = u * tu + u * Fraction(3, 4) - tu * tu
    over_br1 = _quadratic(br1, br1.generator() + 7, "u")
    cases = [
        (x, br1, ["1/5", "5/3"]),
        (x, br4, ["1/5", "14/3"]),
        (x, up1, [["1/5", "5/3"], ["0/1", "0/1"]]),
        (x, up4, [["1/5", "14/3"], ["0/1", "0/1"]]),
        (x, lin1, ["28/15"]),
        (y, up1, [["-1/1", "0/1"], ["3/4", "1/1"]]),
        (x, over_br1, [["1/5", "5/3"], ["0/1", "0/1"]]),
    ]
    for value, tower, want in cases:
        assert rep_to_data(value.embedded(tower).rep) == want
    # two steps and one step agree
    assert x.embedded(br1).embedded(lin1).rep == x.embedded(lin1).rep


def test_embedded_refuses_an_unrelated_level_of_the_same_name():
    # Q[x0]/(x0^2 - 2) and Q[x0]/(x0^2 - 3) have the same height and name
    r2 = _quadratic(QQ, 2, "x0")
    r3 = _quadratic(QQ, 3, "x0")
    with pytest.raises(ValueError, match="prefix-compatible"):
        r2.generator().embedded(r3)
    with pytest.raises(ValueError, match="prefix-compatible"):
        UniPoly(r2, []).embedded(r3)  # even with no coefficient to move
    # nor does a branch of one tower accept values of a sibling branch
    t4 = QQ.extend(UniPoly.from_rationals(QQ, [4, 0, -5, 0, 1]), name="t")
    br1, br4 = t4.split(0, [-1, 0, 1])
    with pytest.raises(ValueError, match="prefix-compatible"):
        br1.generator().embedded(br4)
    with pytest.raises(ValueError, match="prefix-compatible"):
        br1.generator().embedded(_quadratic(br4, 5, "u"))
    # a branch is no prefix of its parent either
    with pytest.raises(ValueError, match="prefix-compatible"):
        br1.generator().embedded(t4)


# -- residues moved into split branches, against the former reduction ---------

def _former_reduced_rep(dst, rep, h, low):
    """``fields._reduced_rep`` with ``oracles.former_reduce_inplace``."""
    from oracles import former_reduce_inplace

    if h == low:
        return rep
    coeffs = [_former_reduced_rep(dst, c, h - 1, low) for c in fields._coeffs(rep, h)]
    former_reduce_inplace(dst, h - 1, coeffs, dst[h - 1].modulus)
    return fields._join(dst, h, coeffs)


def _split_cases():
    """(tower, branch, lowest split level) for the towers of this module's
    splits, down to linear branches, and for Q[t]/((t^2 - 1)(t^2 - 4)) with
    u^2 = t + 7 above it."""
    t3 = QQ.extend(
        (UniPoly.from_rationals(QQ, [-1, 1]) * UniPoly.from_rationals(QQ, [-3, 1])
         * UniPoly.from_rationals(QQ, [-2, 0, 1])).monic(),
        name="t",
    )
    one, rest = t3.split(0, [-1, 1])
    t4 = QQ.extend(UniPoly.from_rationals(QQ, [4, 0, -5, 0, 1]), name="t")
    br1, br4 = t4.split(0, [-1, 0, 1])
    up = _quadratic(t4, t4.generator() + 7, "u")
    up1, up4 = up.split(0, [-1, 0, 1])
    ts = _quadratic(_quadratic(QQ, 1, "t"), 4, "s")
    ta = _quadratic(QQ, 1, "a")
    tb = _quadratic(ta, ta.generator() + 3, "b")
    tc = _quadratic(tb, tb.generator() + 5, "c")
    return (
        [(t3, br, 0) for br in (one, rest, *rest.split(0, [-3, 1]))]
        + [(t4, br, 0) for br in (br1, br4, *br1.split(0, [-1, 1]), *br4.split(0, [2, 1]))]
        + [(up, br, 0) for br in (up1, up4, *up1.split(0, [1, 1]))]
        + [(ts, br, 0) for br in ts.split(0, [-1, 1])]
        + [(ts, br, 1) for br in ts.split(1, [-2, 1])]
        + [(tc, br, 0) for br in tc.split(0, [-1, 1])]
    )


def _monomials(tower):
    """Every product of generator powers below the level degrees."""
    out = [tower.one()]
    for k, lv in enumerate(tower.levels):
        g = tower.generator(k)
        out = [m * g ** e for m in out for e in range(lv.degree)]
    return out


def test_reduced_rep_matches_the_former_reduction():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    cases = [(src, dst, low, _monomials(src)) for src, dst, low in _split_cases()]
    frac = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**4))

    @hyp.settings(max_examples=30, derandomize=True, database=None, deadline=None,
                  suppress_health_check=[hyp.HealthCheck.too_slow])
    @hyp.given(st.data())
    def check(data):
        for src, dst, low, monomials in cases:
            cs = data.draw(st.lists(frac, min_size=len(monomials), max_size=len(monomials)))
            x = sum((m * c for m, c in zip(monomials, cs)), src.zero())
            h = src.height
            want = _former_reduced_rep(dst.levels, x.rep, h, low)
            assert fields._reduced_rep(dst.levels, x.rep, h, low) == want
            assert x.embedded(dst).rep == want

    check()
