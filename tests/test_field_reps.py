"""Tower reps against a nested-Fraction reference, and their canonical form.

Elements are drawn with a seeded, bounded hypothesis profile on the three
tower shapes the catalog builds (Q, the [4,1] halving tower and the Fermat
[2,9,1] tower), on two towers with a linear level below a quadratic top, and
on random two-level towers.  Every result is compared
with ``oracles.NestedTower``, which shares no code with ``maxflex.fields``;
inverses and gcds also with ``oracles.xgcd_inverse`` and
``oracles.euclid_gcd``, the former rep-level routes, on those towers and on
two split-pending ones; gcds over Q also with sympy's gcd, on the division
polynomials of 90c3; minimal polynomials are compared with sympy's
characteristic polynomial of the multiplication matrix.  The numerator
helpers are compared, result for result, with their former comprehension
forms in ``oracles`` on numerators drawn at every int-height of the three
catalog shapes and at the quadratic top of [2,9,2]; products also on random
two-level towers that take every branch of the reduction.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, sub

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import (  # noqa: E402
    NestedTower,
    euclid_gcd,
    former_zany,
    former_zdiv,
    former_zmul,
    former_zop,
    former_zscale,
    former_zz_pseudo_divmod,
    xgcd_inverse,
)

from maxflex import (  # noqa: E402
    QQ,
    DegenerateModulus,
    FieldTower,
    UniPoly,
    ZeroDivisorEncountered,
    catalog,
    fields,
    poly_gcd,
)
from maxflex.fields import rep_from_data, rep_to_data  # noqa: E402

PROFILE = dict(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
SHAPES = ("q", "t4-1", "t2-9-1")
#: Towers with a linear level below a quadratic top: a split branch of
#: Q[t]/(t^2 - 1) and the [4,1] halving tower, each extended by s^2 - t - 2.
LINEAR_BELOW_TOP = ("t1-2", "t4-1-2")
#: Split-pending towers: (v^2 - 2)(v^2 - 3) over Q(w), w^2 + w + 1 = 0, and
#: v^2 - u over Q[u]/(u^2 - 1), whose lower level splits.
SPLIT_PENDING = ("split-top", "split-below")
#: Examples per test and shape; the Fermat tower's operations cost the most.
EXAMPLES = {
    "q": 40, "t4-1": 40, "t2-9-1": 12, "t1-2": 40, "t4-1-2": 20, "random": 40,
    "split-top": 40, "split-below": 40,
}


@lru_cache(maxsize=None)
def shape_tower(shape):
    if shape == "q":
        return QQ
    if shape == "t4-1":
        return catalog.bigon_points(catalog.catalog_entry("90c3").build(), 8)[0]
    if shape == "t2-9-1":
        return catalog.fermat_witness()["tower"]
    if shape == "t2-9-2":
        # the witness tower's [2,9] prefix under s^2 - t1 - 2: a product at
        # int-height 3 reduces there and sums the products below
        base = FieldTower(shape_tower("t2-9-1").levels[:2])
        return base.extend(UniPoly(base, [-base.generator(1) - 2, 0, base.one()]))
    if shape == "split-top":
        base = QQ.extend(UniPoly.from_rationals(QQ, [1, 1, 1]), irreducible=True)
        return base.extend(UniPoly.from_rationals(base, [6, 0, -5, 0, 1]))
    if shape == "split-below":
        base = QQ.extend(UniPoly.from_rationals(QQ, [-1, 0, 1]))
        return base.extend(UniPoly(base, [-base.generator(), 0, base.one()]))
    if shape == "t1-2":
        base = QQ.extend(UniPoly.from_rationals(QQ, [-1, 0, 1])).split(0, [-1, 1])[0]
    elif shape == "t4-1-1-2":
        # [4,1] under s^2 - 1, split on s - 1: two linear levels in a row
        t41 = shape_tower("t4-1")
        base = t41.extend(UniPoly(t41, [-1, 0, 1])).split(2, [-1, 1])[0]
    else:
        base = shape_tower("t4-1")
    return base.extend(UniPoly(base, [-base.generator(0) - 2, 0, base.one()]))


def coeff_lists(n):
    q = st.fractions(min_value=-40, max_value=40, max_denominator=12)
    return st.lists(q, min_size=n, max_size=n)


def to_data(x, h):
    if h == 0:
        return "%d/%d" % (x.numerator, x.denominator)
    return [to_data(c, h - 1) for c in x]


def element(tower, ref, qs, k=None):
    """The same value in the tower under test and in the reference; with k, a
    value of the height-k prefix (len(qs) its degree), constant above it."""
    h = tower.height
    k = h if k is None else k
    x = ref.unflat(list(qs), k)
    for j in range(k + 1, h + 1):
        x = [x] + [ref.zero(j - 1) for _ in range(ref.degree(j) - 1)]
    return tower.element(rep_from_data(tower.levels, h, to_data(x, h))), x


def ints_of(Z, k):
    if k == 0:
        return [Z]
    return [x for z in Z for x in ints_of(z, k - 1)]


def assert_canonical(tower, x):
    """den > 0, gcd(den, numerators) == 1, shape, and a lossless round trip."""
    rep, h = x.rep, tower.height
    den, Z = rep
    ints = ints_of(Z, h)
    assert isinstance(den, int) and den > 0
    assert len(ints) == tower.absolute_degree
    assert all(isinstance(v, int) for v in ints)
    assert gcd(den, *ints) == 1
    assert rep_from_data(tower.levels, h, rep_to_data(rep)) == rep


def assert_same(tower, ref, x, want):
    assert_canonical(tower, x)
    assert ref.parse(rep_to_data(x.rep), tower.height) == want


def check_ring_ops(tower, ref, qa, qb, qc):
    h = tower.height
    a, ra = element(tower, ref, qa)
    b, rb = element(tower, ref, qb)
    c, rc = element(tower, ref, qc)
    for x in (a, b, c):
        assert_canonical(tower, x)
    assert_same(tower, ref, a + b, ref.add(ra, rb, h))
    assert_same(tower, ref, a - b, ref.sub(ra, rb, h))
    assert_same(tower, ref, -a, ref.sub(ref.zero(h), ra, h))
    assert_same(tower, ref, a * b, ref.mul(ra, rb, h))
    # one value reached two ways has one rep and one hash
    left, right = (a + b) * c, a * c + b * c
    assert left.rep == right.rep and hash(left) == hash(right)
    zero = a * b - b * a
    assert zero.rep == tower.zero().rep and hash(zero) == hash(tower.zero())


def inverse_outcome(route, tower, rep):
    """What an inverse route makes of a rep: the inverse, or the error with,
    for a zero divisor, its level and factor."""
    try:
        return ("inverse", route(tower.levels, tower.height, rep))
    except ZeroDivisorEncountered as err:
        return ("zero divisor", err.level, err.factor)
    except ZeroDivisionError:
        return ("zero",)


def assert_sound_split(tower, level, factor):
    """The factor raised is a proper factor of that level's modulus."""
    sub = FieldTower(tower.levels[:level])
    mod = UniPoly(sub, tower.levels[level].modulus)
    factor = UniPoly(sub, factor)
    assert 1 <= factor.degree < mod.degree
    assert (mod % factor).is_zero()


def check_invert(tower, ref, qa):
    check_inverse_of(tower, ref, *element(tower, ref, qa))


def check_inverse_of(tower, ref, a, ra):
    """``invert`` against the reference, and against the former route rep for
    rep, zero divisor for zero divisor; returns the kind of outcome."""
    got = inverse_outcome(fields._rinv, tower, a.rep)
    assert got == inverse_outcome(xgcd_inverse, tower, a.rep)
    if got[0] == "zero":
        assert ref.is_zero(ra, tower.height)
    elif got[0] == "zero divisor":
        assert_sound_split(tower, *got[1:])
    else:
        want = ref.inverse(ra, tower.height)
        assert want is not None
        assert_same(tower, ref, tower.element(got[1]), want)
    return got[0]


@pytest.mark.parametrize("shape", SHAPES)
def test_ring_ops_match_reference_on_catalog_shapes(shape):
    tower = shape_tower(shape)
    ref = NestedTower(tower.to_data())
    n = tower.absolute_degree

    @settings(max_examples=EXAMPLES[shape], **PROFILE)
    @given(coeff_lists(n), coeff_lists(n), coeff_lists(n))
    def run(qa, qb, qc):
        check_ring_ops(tower, ref, qa, qb, qc)

    run()


@pytest.mark.parametrize("shape", SHAPES)
def test_invert_matches_reference_on_catalog_shapes(shape):
    tower = shape_tower(shape)
    ref = NestedTower(tower.to_data())

    @settings(max_examples=EXAMPLES[shape], **PROFILE)
    @given(coeff_lists(tower.absolute_degree))
    def run(qa):
        check_invert(tower, ref, qa)

    run()


def split_factors(shape, tower):
    """1 and factors of the reducible modulus of a split-pending tower."""
    v, low = tower.generator(), tower.generator(0)
    if shape == "split-top":
        return [tower.one(), v * v - 2, v * v - 3, (v * v - 2) * (low + 1)]
    return [tower.one(), low - 1, low + 1, v - 1]


@pytest.mark.parametrize("shape", SPLIT_PENDING)
def test_invert_on_split_pending_towers_splits_as_the_former_route(shape):
    """Values times a factor of a reducible modulus are zero divisors: the
    level and factor raised are the former route's."""
    tower = shape_tower(shape)
    ref = NestedTower(tower.to_data())
    h = tower.height
    factors = split_factors(shape, tower)
    seen = set()

    @settings(max_examples=EXAMPLES[shape], **PROFILE)
    @given(coeff_lists(tower.absolute_degree), st.sampled_from(factors))
    def run(qa, factor):
        a, ra = element(tower, ref, qa)
        rf = ref.parse(rep_to_data(factor.rep), h)
        seen.add(check_inverse_of(tower, ref, a * factor, ref.mul(ra, rf, h)))

    run()
    assert {"inverse", "zero divisor"} <= seen


def gcd_outcome(gcd, f, g):
    """What a gcd route makes of two polynomials: the monic gcd's reps, or a
    zero divisor's level and factor."""
    try:
        return ("gcd", list(gcd(f, g)))
    except ZeroDivisorEncountered as err:
        return ("zero divisor", err.level, err.factor)


def check_poly_gcd(tower, ref, qr, qs, qu):
    check_poly_gcd_of(tower, ref, *(element(tower, ref, q) for q in (qr, qs, qu)))


def check_poly_gcd_of(tower, ref, *roots):
    """gcd((x - r)(x - s), (x - r)(x - u)) against the reference Euclid, and
    against the former route rep for rep, zero divisor for zero divisor;
    returns the kind of outcome."""
    h = tower.height
    f = [UniPoly(tower, [-x, tower.one()]) for x, _ in roots]
    rf = [[ref.sub(ref.zero(h), r, h), ref.one(h)] for _, r in roots]

    def rmul(p, q):
        out = [ref.zero(h) for _ in range(len(p) + len(q) - 1)]
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] = ref.add(out[i + j], ref.mul(x, y, h), h)
        return out

    a, b = f[0] * f[1], f[0] * f[2]
    got = gcd_outcome(lambda p, q: poly_gcd(p, q).coeffs, a, b)
    former = gcd_outcome(lambda p, q: euclid_gcd(tower.levels, h, list(p.coeffs), list(q.coeffs)),
                         a, b)
    assert got == former
    if got[0] == "zero divisor":
        assert_sound_split(tower, *got[1:])
    else:
        want = ref.poly_gcd(rmul(rf[0], rf[1]), rmul(rf[0], rf[2]), h)
        assert want is not None
        assert [ref.parse(rep_to_data(c), h) for c in got[1]] == want
    return got[0]


@pytest.mark.parametrize("shape", SHAPES)
def test_poly_gcd_matches_reference_on_catalog_shapes(shape):
    tower = shape_tower(shape)
    ref = NestedTower(tower.to_data())
    n = tower.absolute_degree

    @settings(max_examples=EXAMPLES[shape] // 4, **PROFILE)
    @given(coeff_lists(n), coeff_lists(n), coeff_lists(n))
    def run(qr, qs, qu):
        check_poly_gcd(tower, ref, qr, qs, qu)

    run()


@pytest.mark.parametrize("shape", SPLIT_PENDING)
def test_poly_gcd_on_split_pending_towers_splits_as_the_former_route(shape):
    """gcd((x - r)(x - s), (x - r)(x - u)) with u - s a value times a factor of
    a reducible modulus: the first remainder's leading coefficient is u - s,
    so the gcd meets a zero divisor unless the factor is 1, and the level and
    factor raised are the former route's."""
    tower = shape_tower(shape)
    ref = NestedTower(tower.to_data())
    h = tower.height
    factors = split_factors(shape, tower)
    n = tower.absolute_degree
    seen = set()

    @settings(max_examples=EXAMPLES[shape] // 2, **PROFILE)
    @given(coeff_lists(n), coeff_lists(n), coeff_lists(n), st.sampled_from(factors))
    def run(qr, qs, qz, factor):
        r, s, (z, rz) = (element(tower, ref, q) for q in (qr, qs, qz))
        rf = ref.parse(rep_to_data(factor.rep), h)
        u = (s[0] + z * factor, ref.add(s[1], ref.mul(rz, rf, h), h))
        seen.add(check_poly_gcd_of(tower, ref, r, s, u))

    run()
    assert {"gcd", "zero divisor"} <= seen


def test_poly_gcd_over_q_matches_sympy_on_the_90c3_division_polynomials(monkeypatch):
    """Every gcd that ``exact_order_poly(8)`` and ``exact_order_poly(12)`` take
    on 90c3's Weierstrass model, in its squarefree parts and in stripping the
    lower division polynomials, against sympy's gcd made monic."""
    sympy = pytest.importorskip("sympy")
    from maxflex import weierstrass

    calls = []

    def recorded(f, g):
        got = poly_gcd(f, g)
        calls.append((f.rational_coeffs(), g.rational_coeffs(), got.rational_coeffs()))
        return got

    div = weierstrass.DivisionPolynomials(catalog.catalog_entry("90c3").build()["model"])
    monkeypatch.setattr(fields, "poly_gcd", recorded)
    monkeypatch.setattr(weierstrass, "poly_gcd", recorded)
    div.exact_order_poly(8)
    div.exact_order_poly(12)
    assert len(calls) >= 8 and any(len(got) > 1 for *_, got in calls)
    x = sympy.Symbol("x")

    def poly(qs):
        return sympy.Poly([sympy.Rational(q.numerator, q.denominator) for q in reversed(qs)], x,
                          domain="QQ")

    for f, g, got in calls:
        want = sympy.gcd(poly(f), poly(g)).monic()
        assert got == [Fraction(int(c.p), int(c.q)) for c in reversed(want.all_coeffs())]


@pytest.mark.parametrize("shape", SHAPES + LINEAR_BELOW_TOP)
def test_products_with_a_rational_or_lower_operand_match_reference(shape):
    """Products that the shortcuts take: a rational operand in either order,
    operands whose values lie below the top level, and linear levels."""
    tower = shape_tower(shape)
    ref = NestedTower(tower.to_data())
    h = tower.height

    @settings(max_examples=EXAMPLES[shape], **PROFILE)
    @given(st.integers(0, h), st.data())
    def run(k, data):
        prefix_degree = FieldTower(tower.levels[:k]).absolute_degree
        x, rx = element(tower, ref, data.draw(coeff_lists(prefix_degree)), k)
        y, ry = element(tower, ref, data.draw(coeff_lists(tower.absolute_degree)))
        q, rq = element(tower, ref, data.draw(coeff_lists(1)), 0)
        for (a, ra), (b, rb) in ((x, rx), (y, ry)), ((q, rq), (y, ry)), ((q, rq), (x, rx)):
            want = ref.mul(ra, rb, h)
            assert_same(tower, ref, a * b, want)
            assert_same(tower, ref, b * a, want)
        assert_same(tower, ref, x * x, ref.mul(rx, rx, h))

    run()


def test_rational_products_skip_the_multiply_and_linear_levels_pass_through(monkeypatch):
    """A product of two rationals runs no integer multiply, and a generic
    product on [4,1] multiplies and reduces once, at int-height 1, with no
    sum at the linear level above it."""
    zmul, zop = fields._zmul, fields._zop
    heights, sums = [], []

    def counted_zmul(levels, k, A, B):
        heights.append(k)
        return zmul(levels, k, A, B)

    def counted_zop(op, A, B, k):
        sums.append(k)
        return zop(op, A, B, k)

    towers = [shape_tower(shape) for shape in ("t4-1", "t2-9-1")]
    rationals = [(t.rational(Fraction(3, 7)), t.rational(-14)) for t in towers]
    g = towers[0].generator(0)
    a, b, want = g + 1, g * g - 3, g ** 3 + g * g - 3 * g - 3
    monkeypatch.setattr(fields, "_zmul", counted_zmul)
    monkeypatch.setattr(fields, "_zop", counted_zop)
    assert [(x * y).as_rational() for x, y in rationals] == [-6, -6]
    assert heights == []
    assert (a * b).rep == want.rep
    assert heights == [2, 1] and sums == []


def test_poly_gcd_on_the_fermat_tower_inverts_once_per_division(monkeypatch):
    """gcd((x + r)(x + s), (x + r)(x + u)) over [2,9,1], with r, s and u sums
    of the witness's point coordinates, as in the benchmark's kernels: one
    top-level inverse per remainder step, and none more for the monic result.
    Each remainder step trims its remainder once, so the trims of lists of
    top-height numerators count the steps."""
    wit = catalog.fermat_witness()
    tower = wit["tower"]
    pool = [c for p in list(wit["triangle"].vertices) + [wit["T1"], wit["2T1"]]
            for c in p.affine() if not c.is_zero()]
    rinv, ztrim = fields._rinv, fields._ztrim
    counts = {"inverses": 0, "steps": 0}

    def counted_rinv(levels, h, a):
        counts["inverses"] += h == tower.height
        return rinv(levels, h, a)

    def counted_ztrim(v, k):
        counts["steps"] += k == tower.height
        return ztrim(v, k)

    monkeypatch.setattr(fields, "_rinv", counted_rinv)
    monkeypatch.setattr(fields, "_ztrim", counted_ztrim)
    n = len(pool)
    for i in range(4):
        r, s, u = (pool[(3 * i + j) % n] + pool[(5 * i + 2 * j + 1) % n] + j + 1 for j in range(3))
        f = UniPoly(tower, [r, tower.one()])
        counts.update(inverses=0, steps=0)
        g = poly_gcd(f * UniPoly(tower, [s, tower.one()]), f * UniPoly(tower, [u, tower.one()]))
        assert g == f
        assert counts == {"inverses": 2, "steps": 2}


@st.composite
def two_level_towers(draw):
    """Data of a random tower Q[t]/(f)[s]/(g), f over Q and g over Q[t]."""
    small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    d1 = draw(st.integers(2, 3))
    d2 = draw(st.integers(2, 3))
    f = [to_data(q, 0) for q in draw(st.lists(small, min_size=d1, max_size=d1))]
    g = [
        [to_data(q, 0) for q in draw(st.lists(small, min_size=d1, max_size=d1))]
        for _ in range(d2)
    ]
    return [
        {"name": "t", "minpoly": f + ["1/1"]},
        {"name": "s", "minpoly": g + [["1/1"]]},
    ]


def build(data):
    try:
        return FieldTower.from_data(data)
    except (DegenerateModulus, ZeroDivisorEncountered):
        assume(False)


@settings(max_examples=EXAMPLES["random"], **PROFILE)
@given(two_level_towers(), st.data())
def test_ops_match_reference_on_random_two_level_towers(data, draw):
    tower = build(data)
    ref = NestedTower(tower.to_data())
    n = tower.absolute_degree
    qa, qb, qc = (draw.draw(coeff_lists(n)) for _ in range(3))
    check_ring_ops(tower, ref, qa, qb, qc)
    check_invert(tower, ref, qa)
    check_invert(tower, ref, qb)
    check_poly_gcd(tower, ref, qa, qb, qc)


def sympy_minimal_polynomial(ref, x, h):
    """Squarefree part of the characteristic polynomial of x, monic."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    m = sympy.Matrix(ref.matrix(x, h)) if h else sympy.Matrix([[x]])
    p = sympy.Poly(m.charpoly(t).as_expr(), t, domain="QQ")
    p = sympy.Poly(sympy.sqf_part(p.as_expr()), t, domain="QQ").monic()
    return [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]


@pytest.mark.parametrize("shape", SHAPES)
def test_minimal_polynomial_matches_sympy_on_catalog_shapes(shape):
    tower = shape_tower(shape)
    ref = NestedTower(tower.to_data())

    @settings(max_examples=6, **PROFILE)
    @given(coeff_lists(tower.absolute_degree))
    def run(qa):
        a, ra = element(tower, ref, qa)
        got = a.minimal_polynomial().rational_coeffs()
        assert got == sympy_minimal_polynomial(ref, ra, tower.height)

    run()


@settings(max_examples=10, **PROFILE)
@given(two_level_towers(), st.data())
def test_minimal_polynomial_matches_sympy_on_random_two_level_towers(data, draw):
    tower = build(data)
    ref = NestedTower(tower.to_data())
    a, ra = element(tower, ref, draw.draw(coeff_lists(tower.absolute_degree)))
    try:
        got = a.minimal_polynomial().rational_coeffs()
    except ZeroDivisorEncountered:
        assume(False)
    assert got == sympy_minimal_polynomial(ref, ra, tower.height)


#: (shape, int-height) pairs for the numerator helpers: Q, then every
#: int-height above it of the [4,1] and [2,9,1] towers, the quadratic top of
#: [2,9,2], and quadratic tops over one or two linear levels above [4].
NUMERATOR_HEIGHTS = [
    ("q", 0), ("t4-1", 1), ("t4-1", 2), ("t2-9-1", 1), ("t2-9-1", 2), ("t2-9-1", 3),
    ("t2-9-2", 3), ("t4-1-2", 3), ("t4-1-1-2", 4),
]
BIG = st.integers(-10**12, 10**12)
#: Scale factors and exact divisors: 1 (which ``_zscale`` returns early on),
#: -1 and integers of either sign.
FACTORS = st.sampled_from((1, -1)) | st.integers(2, 10**9) | st.integers(-10**9, -2)


def numerators(levels, k):
    """Reduced numerators at int-height k on ``levels``, zero entries common."""
    if k == 0:
        return BIG | st.just(0)
    entry = numerators(levels, k - 1) | st.just(fields._zlevel(levels, k - 1).zero)
    return st.tuples(*[entry] * levels[k - 1].degree)


def dense_numerators(levels, k):
    """Numerators at int-height k whose integers are all nonzero, so that a
    product runs at every level."""
    if k == 0:
        return BIG.filter(bool)
    return st.tuples(*[dense_numerators(levels, k - 1)] * levels[k - 1].degree)


@pytest.mark.parametrize("shape, k", NUMERATOR_HEIGHTS)
def test_numerator_helpers_match_their_former_forms(shape, k):
    levels = shape_tower(shape).levels
    nums = numerators(levels, k)

    @settings(max_examples=60, **PROFILE)
    @given(nums, nums, FACTORS)
    def run(A, B, c):
        assert fields._zany(A, k) == former_zany(A, k)
        assert fields._zany(B, k) == former_zany(B, k)
        for op in (add, sub):
            assert fields._zop(op, A, B, k) == former_zop(op, A, B, k)
        assert fields._zscale(A, c, k) == former_zscale(A, c, k)
        scaled = former_zscale(A, c, k)
        assert fields._zdiv(scaled, c, k) == former_zdiv(scaled, c, k) == A
        g = fields._zcontent(A, k, 0)
        if g > 1:
            assert fields._zdiv(A, g, k) == former_zdiv(A, g, k)
        assert fields._zmul(levels, k, A, B) == former_zmul(levels, k, A, B)

    run()


@pytest.mark.parametrize("shape", ["t4-1-2", "t4-1-1-2"])
def test_products_reduce_nothing_at_a_linear_level(shape, monkeypatch):
    """A product over a linear level sums the raw products of the level
    below it and reduces each sum there: no reduction runs at the linear
    level, whose scale is that of the level below."""
    levels = shape_tower(shape).levels
    h = len(levels)
    reduce = fields._zreduce
    at = []

    def counted(levels, k, P):
        at.append(levels[k - 1].degree)
        return reduce(levels, k, P)

    monkeypatch.setattr(fields, "_zreduce", counted)
    nums = dense_numerators(levels, h)

    @settings(max_examples=EXAMPLES["t4-1-2"], **PROFILE)
    @given(nums, nums)
    def run(A, B):
        assert fields._zmul(levels, h, A, B) == former_zmul(levels, h, A, B)

    run()
    assert sorted(set(at)) == [2, 4]


@st.composite
def product_towers(draw):
    """Data of a random tower Q[t]/(f)[s]/(g) on which a product takes every
    branch of the reduction: f has a non-integral constant term, so level 1
    scales by step != 1, and g has a lower coefficient constant in t (a
    scaling) and one that is not (a product at level 1)."""
    data = draw(two_level_towers())
    f, g = data[0]["minpoly"], data[1]["minpoly"]
    nonzero = st.integers(-5, 5).filter(bool)
    f[0] = to_data(Fraction(2 * draw(st.integers(-3, 3)) + 1, 2), 0)
    g[0] = [to_data(Fraction(draw(nonzero)), 0)] + ["0/1"] * (len(f) - 2)
    g[1] = [g[1][0], to_data(Fraction(draw(nonzero)), 0)] + g[1][2:]
    return data


@settings(max_examples=EXAMPLES["random"], **PROFILE)
@given(product_towers(), st.data())
def test_products_match_their_former_form_on_random_two_level_towers(data, draw):
    levels = build(data).levels
    assert fields._zlevel(levels, 1).step != 1
    assert {type(m) for _, m in fields._zlevel(levels, 2).terms} == {int, tuple}
    for k in (1, 2):
        A, B = (draw.draw(numerators(levels, k)) for _ in range(2))
        assert fields._zmul(levels, k, A, B) == former_zmul(levels, k, A, B)


@settings(max_examples=200, **PROFILE)
@given(st.lists(BIG, min_size=1, max_size=9), st.lists(BIG, max_size=5), FACTORS)
def test_pseudo_division_matches_its_former_form(f, g, lead):
    g = g + [lead]
    assert fields._zz_pseudo_divmod(f, g) == former_zz_pseudo_divmod(f, g)
