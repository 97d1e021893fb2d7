"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact (integer/rational arithmetic throughout); the time
bounds are part of the criteria.  The quartic-extension cases run under the
``extended`` marker, excluded from the default run.
"""

import random
import time
from fractions import Fraction
from math import gcd

import pytest

from maxflex import (
    QQ,
    CommonComponent,
    PlaneCurve,
    ProjPoint,
    WeightVector,
    ZeroVector,
    cover_order,
    ec_add,
    intersection_multiplicity,
    reduce_weights,
    run_reproduction,
    splitting_number,
    torsion_order,
)
from maxflex.catalog import (
    bigon_conics,
    bigon_points,
    catalog_entry,
    cyclic_flex_origins,
    fermat_witness,
    fermat_witness_spec,
)
from maxflex.combinatorics import admissible_permutations, fingerprint
from maxflex.geometry import EllipticStructure
from maxflex.torsion import ArrangementSpec, ComponentData, TorsionClass

from oracles import local_quotient_dimension, with_multiplicities


def _stamp(label, t0, bound):
    elapsed = time.monotonic() - t0
    assert elapsed < bound, "%s exceeded its %.0fs budget (%.1fs)" % (
        label,
        bound,
        elapsed,
    )
    print("%s: PASS (%.1fs)" % (label, elapsed))


def _require(report, *labels):
    passed = {c["label"]: c["passed"] for c in report.checks}
    assert report.ok, report.render()
    for label in labels:
        assert passed.get(label), "missing or failed check %r" % label


def test_criterion_1_triangle_triple():
    t0 = time.monotonic()
    report = run_reproduction("thm-main1")
    _require(
        report,
        "group-type-1",
        "group-type-2",
        "group-type-3",
        "uniform-image-1-at-(1,1)",
        "uniform-image-2-at-(1,1)",
        "pair-1-2",
        "pair-1-3",
        "pair-2-3",
    )
    _stamp("criterion-1 triangle-triple", t0, 1.0)


def test_criterion_2_tangent_triangle_pair():
    t0 = time.monotonic()
    report = run_reproduction("thm-main2")
    _require(
        report, "n-(1,2,1)", "n-(2,1,1)", "orders-spec4", "orders-spec5",
        "pair-4-5", "mode", "multiset-1", "multiset-2",
    )
    _stamp("criterion-2 tangent-triangle-pair", t0, 1.0)


def test_criterion_3_contact_tables():
    t0 = time.monotonic()
    report = run_reproduction("clubsuit-tables")
    _require(
        report,
        "d2-r4", "d2-r8", "d2-r12", "d2-r24",
        "d3-r7", "d3-r21", "d3-r63",
        "d2-rejects-divisors-of-3d", "d3-rejects-divisors-of-3d",
    )
    _stamp("criterion-3 contact-tables", t0, 1.0)


def test_criterion_4_fermat_witness():
    t0 = time.monotonic()
    report = run_reproduction("fermat-existence")
    _require(
        report,
        "flex-count",
        "flex-families",
        "rational-flexes",
        "double-of-T1",
        "tangents-through-corner-count",
        "tangent-product-x3-plus-y3",
        "witness-gate-no-three-concurrent",
        "witness-orders",
    )
    _stamp("criterion-4 fermat-witness", t0, 30.0)


def test_criterion_5_coordinate_triangle():
    t0 = time.monotonic()
    report = run_reproduction("appendix-triangle")
    _require(
        report,
        "residual-chain-closes",
        "line-union-is-xyz",
        "computable-flex-origins",
        "coordinate-point-orders",
    )
    _stamp("criterion-5 coordinate-triangle", t0, 60.0)


def test_criterion_6_bigon_pair():
    t0 = time.monotonic()
    report = run_reproduction("clubsuit-d2")
    _require(
        report,
        "rational-order-4-found",
        "rational-order-12-found",
        "clauses-r4",
        "clauses-r12",
        "line-augmented-order-r4",
        "line-augmented-order-r12",
        "fingerprints-equal-r4-r12",
        "admissible-r4-r12",
        "pair-r4-r12",
        "bare-bigon-orders",
    )
    _stamp("criterion-6 bigon-pair", t0, 300.0)


@pytest.mark.extended
def test_criterion_6_extended_four_tuple():
    t0 = time.monotonic()
    report = run_reproduction("clubsuit-d2", extended=True)
    _require(
        report,
        "clauses-r8",
        "clauses-r24",
        "line-augmented-order-r8",
        "line-augmented-order-r24",
        "four-tuple-orders",
        "pair-r4-r8",
        "pair-r8-r12",
        "pair-r12-r24",
        "pair-r8-r24",
    )
    _stamp("criterion-6-extended four-tuple", t0, 1800.0)


# ---------------------------------------------------------------------------
# criterion 7: property suites
# ---------------------------------------------------------------------------

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


def test_criterion_7a_bezout_on_random_pairs():
    t0 = time.monotonic()
    rng = random.Random(100)
    shapes = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]
    checked = 0
    while checked < 50:
        d1, d2 = shapes[checked % len(shapes)]
        c = _random_curve(rng, d1)
        d = _random_curve(rng, d2)
        try:
            recs = with_multiplicities(c, d, QQ)
        except CommonComponent:
            continue
        total = sum(r.multiplicity * r.orbit for r in recs)
        assert total == d1 * d2, (c.form, d.form, total)
        checked += 1
    _stamp("criterion-7a bezout-random-pairs", t0, 200.0)


def _affine_terms_at(curve, d_curve, point):
    """Dehomogenized, origin-translated Fraction term dicts for the oracle."""
    chart = point.chart
    u0, v0 = point.affine()
    F = curve.dehomogenize(chart).translate(u0, v0)
    G = d_curve.dehomogenize(chart).translate(u0, v0)
    def to_fractions(bp):
        return {k: c.as_rational() for k, c in bp.terms.items()}
    return to_fractions(F), to_fractions(G)


def test_criterion_7b_fulton_matches_local_algebra_oracle():
    t0 = time.monotonic()
    instances = []
    # synthetic local pairs covering multiplicities one through six
    synth = [
        ({(0, 1): Fraction(1)}, {(1, 0): Fraction(1)}),
        ({(0, 1): Fraction(1), (2, 0): Fraction(-1)}, {(0, 1): Fraction(1)}),
        ({(0, 1): Fraction(1), (3, 0): Fraction(-1)}, {(0, 1): Fraction(1)}),
        (
            {(0, 1): Fraction(1), (2, 0): Fraction(-1)},
            {(0, 1): Fraction(1), (2, 0): Fraction(-1), (4, 0): Fraction(1)},
        ),
        ({(0, 1): Fraction(1), (5, 0): Fraction(-1)}, {(0, 1): Fraction(1)}),
        ({(0, 1): Fraction(1), (6, 0): Fraction(-1)}, {(0, 1): Fraction(1)}),
    ]
    for ft, gt in synth:
        deg_f = max(i + j for i, j in ft)
        deg_g = max(i + j for i, j in gt)
        F = PlaneCurve(QQ, deg_f, {(i, j, deg_f - i - j): c for (i, j), c in ft.items()})
        G = PlaneCurve(QQ, deg_g, {(i, j, deg_g - i - j): c for (i, j), c in gt.items()})
        p = ProjPoint(QQ, [0, 0, 1])
        instances.append((F, G, p, ft, gt))
    # catalog instances at rational points: bigon contacts and triangle vertex
    entry = catalog_entry("90c3").build(64)
    tw, e, P, Q = bigon_points(entry, 4)
    c1, c2 = bigon_conics(e, P, Q)
    for curve_pair, pt in (((e.cubic, c1), P), ((e.cubic, c1), Q),
                           ((e.cubic, c2), P), ((e.cubic, c2), Q)):
        a, b = curve_pair
        ft, gt = _affine_terms_at(a, b, pt)
        instances.append((a, b, pt, ft, gt))
    cubic = PlaneCurve(QQ, 3, {(2, 1, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1})
    tri = PlaneCurve(QQ, 3, {(1, 1, 1): 1})
    vertex = ProjPoint(QQ, [1, 0, 0])
    ft, gt = _affine_terms_at(cubic, tri, vertex)
    instances.append((cubic, tri, vertex, ft, gt))
    for F, G, p, ft, gt in instances:
        fulton = intersection_multiplicity(F, G, p)
        assert fulton <= 6
        assert fulton == local_quotient_dimension(ft, gt)
        assert fulton == intersection_multiplicity(G, F, p)
    _stamp("criterion-7b fulton-vs-local-algebra", t0, 120.0)


def _triples_check(e, pool, rng, count):
    for _ in range(count):
        a, b, c = (rng.choice(pool) for _ in range(3))
        left = ec_add(e, ec_add(e, a, b), c)
        right = ec_add(e, a, ec_add(e, b, c))
        assert left == right


def test_criterion_7c_group_law_associativity():
    t0 = time.monotonic()
    rng = random.Random(500)
    # 90c3: the twelve rational torsion points
    entry = catalog_entry("90c3").build(64)
    e = entry["structure"]
    from maxflex.weierstrass import rational_points_of_order, weierstrass_model

    model = weierstrass_model(e)
    pool = [e.origin]
    for r in (2, 3, 4, 6, 12):
        for pt in rational_points_of_order(model, r):
            pool.append(model.point_to_source(pt))
    assert len(pool) == 12
    _triples_check(e, pool, rng, 100)
    # Fermat: the nine flexes over Q(w)
    data = catalog_entry("fermat").build(64)
    ef = data["structure"]
    k = data["tower"]
    w = data["w"]
    units = [k.one(), w, w * w]
    flex_pool = []
    for alpha in units:
        for coords in (
            [-k.one(), k.zero(), alpha],
            [k.zero(), -k.one(), alpha],
            [-k.one(), alpha, k.zero()],
        ):
            flex_pool.append(ProjPoint(k, coords))
    _triples_check(ef, flex_pool, rng, 100)
    # cyclic cubic: multiples of a coordinate point over a flex origin
    data = catalog_entry("cyclic").build(64)
    origin, tw = cyclic_flex_origins(data)[0]
    cubic = data["cubic"].embedded(tw)
    ec = EllipticStructure(cubic, origin)
    seed = ProjPoint(tw, [1, 0, 0])
    cyc_pool = [ec.origin]
    acc = seed
    for _ in range(8):
        cyc_pool.append(acc)
        acc = ec_add(ec, acc, seed)
    _triples_check(ec, cyc_pool, rng, 100)
    _stamp("criterion-7c group-law-associativity", t0, 300.0)


def _random_abstract_spec(rng):
    k = rng.randint(1, 4)
    modulus = rng.choice([4, 6, 9, 12])
    comps = []
    for i in range(k):
        m = rng.choice([d for d in (1, 2, 3, 4, 6) if modulus % d == 0])
        d = rng.randint(1, 4)
        if (3 * d) % m:
            m = 1
        cls = TorsionClass(
            modulus, (rng.randrange(modulus), rng.randrange(modulus))
        ).scale(modulus // m)
        comps.append(
            ComponentData(
                d, m, [("c%d_%d" % (i, j), m) for j in range(3 * d // m)], cls
            )
        )
    return ArrangementSpec(3, comps)


def _random_weights(rng, k, box=12):
    while True:
        cand = [rng.randrange(box) for _ in range(k)]
        g = 0
        for x in cand:
            g = gcd(g, x)
        if g == 1:
            return WeightVector(cand)


def test_criterion_7d_splitting_number_identity():
    t0 = time.monotonic()
    rng = random.Random(4242)
    done = 0
    while done < 500:
        spec = _random_abstract_spec(rng)
        a = _random_weights(rng, spec.k)
        na = cover_order(spec, a)
        o = torsion_order(spec, a)
        assert splitting_number(spec, a) * o == na
        done += 1
    _stamp("criterion-7d splitting-identity", t0, 60.0)


def test_criterion_7e_weight_reduction_identity():
    t0 = time.monotonic()
    rng = random.Random(31415)
    verified = 0
    while verified < 100:
        spec = _random_abstract_spec(rng)
        a = _random_weights(rng, spec.k)
        try:
            b, kappa = reduce_weights(spec, a)
        except ZeroVector:
            # the class is zero; its order is one by definition
            assert torsion_order(spec, a) == 1
            continue
        na, nb = cover_order(spec, a), cover_order(spec, b)
        assert nb % na == 0
        mod = spec.lattice_modulus()
        ta = TorsionClass(mod, (0, 0))
        tb = TorsionClass(mod, (0, 0))
        for x, comp in zip(a, spec.components):
            ta = ta + comp.cls.rescaled(mod).scale(x * comp.m // na)
        for x, comp in zip(b, spec.components):
            tb = tb + comp.cls.rescaled(mod).scale(x * comp.m // nb)
        assert ta == tb.scale(kappa * nb // na)
        verified += 1
    _stamp("criterion-7e weight-reduction-identity", t0, 60.0)


def test_criterion_7f_flex_independence_on_fermat():
    t0 = time.monotonic()
    witness = fermat_witness(64)
    tower = witness["tower"]
    spec_o = fermat_witness_spec(witness)
    alt = ProjPoint(tower, [tower.zero(), -tower.one(), tower.one()])
    spec_alt = fermat_witness_spec(witness, origin=alt)
    for w in (WeightVector((1, 2, 1)), WeightVector((2, 1, 1)), WeightVector((1, 1, 2))):
        assert torsion_order(spec_o, w) == torsion_order(spec_alt, w)
    _stamp("criterion-7f flex-independence", t0, 120.0)


def test_criterion_7g_admissible_set_laws():
    t0 = time.monotonic()
    one, zero = QQ.one(), QQ.zero()
    cubic = PlaneCurve(QQ, 3, {(2, 1, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1})
    lines = [
        PlaneCurve.line(QQ, (zero, one, zero)),
        PlaneCurve.line(QQ, (one, zero, zero)),
        PlaneCurve.line(QQ, (zero, zero, one)),
    ]
    grouping = [[1], [2], [3]]
    prints = [
        fingerprint([cubic] + lines),
        fingerprint([cubic] + [lines[1], lines[2], lines[0]]),
        fingerprint([cubic] + [lines[2], lines[0], lines[1]]),
    ]

    def compose(r2, r1):
        return tuple(r2[r1[j]] for j in range(len(r1)))

    def inverse(r):
        return tuple(sorted(range(len(r)), key=lambda j: r[j]))

    for fa in prints:
        s = admissible_permutations(fa, fa, grouping)
        assert tuple(range(3)) in s
        for r1 in s:
            assert inverse(r1) in s
            for r2 in s:
                assert compose(r2, r1) in s
    a12 = admissible_permutations(prints[0], prints[1], grouping)
    a23 = admissible_permutations(prints[1], prints[2], grouping)
    a13 = admissible_permutations(prints[0], prints[2], grouping)
    assert a12 and a23 and a13
    for r1 in a12:
        assert inverse(r1) in admissible_permutations(prints[1], prints[0], grouping)
        for r2 in a23:
            assert compose(r2, r1) in a13
    # conservativity: relabeled copies of an arrangement are always recognized
    rng = random.Random(9)
    for _ in range(5):
        perm = list(range(3))
        rng.shuffle(perm)
        shuffled = fingerprint([cubic] + [lines[perm[i]] for i in range(3)])
        adm = admissible_permutations(prints[0], shuffled, grouping)
        inv = inverse(tuple(perm))
        assert tuple(perm) in adm or inv in adm
    # the bigon arrangements: identity is the only grouped permutation
    entry = catalog_entry("90c3").build(64)
    tw4, e4, p4, q4 = bigon_points(entry, 4)
    c14, c24 = bigon_conics(e4, p4, q4)
    f4 = fingerprint([e4.cubic, e4.origin_tangent, c14, c24])
    s = admissible_permutations(f4, f4, [[1], [2, 3]])
    assert s == {(0, 1)}
    _stamp("criterion-7g admissible-set-laws", t0, 240.0)
