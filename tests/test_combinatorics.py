"""Fingerprints, admissible permutations, incidence reports, bigon clauses."""

import json
import random

import pytest

import maxflex.combinatorics
import maxflex.reproductions
from maxflex import (
    QQ,
    CommonComponent,
    FieldTower,
    PlaneCurve,
    ProjPoint,
    UniPoly,
    admissible_permutations,
    check_incidence,
    fingerprint,
    run_reproduction,
    verify_bigon,
)
from maxflex.catalog import bigon_conics, bigon_points, catalog_entry, fermat_witness
from maxflex.combinatorics import _point_key, concurrent_line_triples

from counting import count_calls
from oracles import (
    assert_matches_sweeps,
    bigon_clauses,
    former_concurrent_line_triples,
    sweep_profiles,
)


def cyclic_cubic():
    return PlaneCurve(QQ, 3, {(2, 1, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1})


def coordinate_lines():
    one, zero = QQ.one(), QQ.zero()
    return [
        PlaneCurve.line(QQ, (zero, one, zero)),  # y = 0, tangent at [1:0:0]
        PlaneCurve.line(QQ, (one, zero, zero)),  # x = 0, tangent at [0:0:1]
        PlaneCurve.line(QQ, (zero, zero, one)),  # z = 0, tangent at [0:1:0]
    ]


def bigon_package(r, cap=64):
    entry = catalog_entry("90c3").build(cap)
    tw, e, p, q = bigon_points(entry, r)
    c1, c2 = bigon_conics(e, p, q)
    return e, p, q, c1, c2


def test_single_cubic_has_empty_fingerprint():
    f = fingerprint([cyclic_cubic()])
    data = json.loads(f.canonical())
    assert data["points"] == []
    assert data["pieces"] == [[3, True]]


def test_cubic_plus_triangle_fingerprint():
    f = fingerprint([cyclic_cubic()] + coordinate_lines())
    data = json.loads(f.canonical())
    # three vertices: cubic tangent (mult 2) + crossing line (mult 1 each)
    triple = [rec for rec in data["points"] if len(rec) == 3]
    assert len(triple) == 3
    conc = f.concurrency_records()
    assert len(conc) == 3
    for pieces, pairs, orbit in conc:
        assert len(pieces) == 3 and orbit == 1


def test_fingerprint_invariant_under_relabeling():
    cubic = cyclic_cubic()
    lines = coordinate_lines()
    f1 = fingerprint([cubic] + lines)
    f2 = fingerprint([cubic] + [lines[2], lines[0], lines[1]])
    assert f1 == f2


def test_admissible_contains_relabeling_and_identity():
    cubic = cyclic_cubic()
    lines = coordinate_lines()
    f1 = fingerprint([cubic] + lines)
    f2 = fingerprint([cubic] + [lines[1], lines[2], lines[0]])
    grouping = [[1], [2], [3]]
    adm = admissible_permutations(f1, f2, grouping)
    assert adm  # combinatorially equivalent
    # identity present in the self set; the triangle is vertex-cycled, so the
    # self set is the full cyclic relabeling family at least
    self_adm = admissible_permutations(f1, f1, grouping)
    assert (0, 1, 2) in self_adm


def test_admissible_sets_compose_and_invert():
    cubic = cyclic_cubic()
    lines = coordinate_lines()
    arrangements = [
        [cubic] + lines,
        [cubic] + [lines[1], lines[2], lines[0]],
        [cubic] + [lines[2], lines[0], lines[1]],
    ]
    prints = [fingerprint(a) for a in arrangements]
    grouping = [[1], [2], [3]]

    def compose(r2, r1):
        return tuple(r2[r1[j]] for j in range(len(r1)))

    a12 = admissible_permutations(prints[0], prints[1], grouping)
    a23 = admissible_permutations(prints[1], prints[2], grouping)
    a13 = admissible_permutations(prints[0], prints[2], grouping)
    a21 = admissible_permutations(prints[1], prints[0], grouping)
    for r1 in a12:
        # inverse law
        inv = tuple(sorted(range(len(r1)), key=lambda j: r1[j]))
        assert inv in a21
        for r2 in a23:
            assert compose(r2, r1) in a13
    # the self set is a subgroup
    s = admissible_permutations(prints[0], prints[0], grouping)
    for r1 in s:
        inv = tuple(sorted(range(len(r1)), key=lambda j: r1[j]))
        assert inv in s
        for r2 in s:
            assert compose(r2, r1) in s


def test_bigon_fingerprints_equal_and_identity_admissible():
    e4, p4, q4, c14, c24 = bigon_package(4)
    e12, p12, q12, c112, c212 = bigon_package(12)
    f4 = fingerprint([e4.cubic, e4.origin_tangent, c14, c24])
    f12 = fingerprint([e12.cubic, e12.origin_tangent, c112, c212])
    assert f4 == f12
    assert admissible_permutations(f4, f12, [[1], [2, 3]]) == {(0, 1)}
    # a conic and a line can never trade places
    assert admissible_permutations(f4, f12, [[1], [2], [3]]) == {
        (0, 1, 2),
        (0, 2, 1),
    } or admissible_permutations(f4, f12, [[1], [2], [3]]) <= {
        (0, 1, 2),
        (0, 2, 1),
    }


def test_check_incidence_two_lines():
    one, zero = QQ.one(), QQ.zero()
    l1 = PlaneCurve.line(QQ, (one, zero, zero))
    l2 = PlaneCurve.line(QQ, (zero, one, zero))
    report = check_incidence([l1, l2])
    assert report["transversal_pairs"] == [(0, 1)]
    assert report["tangencies"] == []
    assert report["concurrent_line_triples"] == []


def test_check_incidence_cyclic_triangle():
    report = check_incidence([cyclic_cubic()] + coordinate_lines())
    # each tangent line meets the cubic with multiplicity two at its vertex
    assert sorted(report["tangencies"]) == [(0, 1, 2), (0, 2, 2), (0, 3, 2)]
    assert sorted(report["triple_points"]) == [[0, 1, 2], [0, 1, 3], [0, 2, 3]]
    # the three coordinate lines are concurrent nowhere
    assert report["concurrent_line_triples"] == []


def test_check_incidence_flags_concurrent_lines():
    one, zero = QQ.one(), QQ.zero()
    pencil = [
        PlaneCurve.line(QQ, (one, zero, zero)),
        PlaneCurve.line(QQ, (zero, one, zero)),
        PlaneCurve.line(QQ, (one, one, zero)),
    ]
    report = check_incidence(pencil)
    assert report["concurrent_line_triples"] == [(0, 1, 2)]


AXES = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_concurrency_matches_the_cofactor_determinant_on_the_witness_lines():
    lines = fermat_witness()["lines"]
    assert list(concurrent_line_triples(lines)) == former_concurrent_line_triples(lines) == []
    # two more lines through the meet of lines 0 and 1
    tw = lines[0].tower
    a, b = ([line.coefficient(x) for x in AXES] for line in lines[:2])
    pencil = [PlaneCurve.line(tw, [u + c * v for u, v in zip(a, b)]) for c in (2, -3)]
    planted = lines + pencil
    got = list(concurrent_line_triples(planted))
    assert got == former_concurrent_line_triples(planted)
    assert got == [(0, 1, 6), (0, 1, 7), (0, 6, 7), (1, 6, 7)]


def _int_cross(u, v):
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


@pytest.mark.parametrize("seed", range(8))
def test_concurrency_matches_the_cofactor_determinant_on_seeded_lines(seed):
    """Random lines over Q with concurrent triples planted: lines through
    the meet of two others, and three lines through one random point."""
    rng = random.Random(seed)

    def coeffs():
        return [rng.randint(-6, 6) for _ in range(3)]

    rows = [coeffs() for _ in range(rng.randint(3, 6))]
    for _ in range(rng.randint(1, 2)):
        i, j = rng.sample(range(len(rows)), 2)
        s, t = rng.randint(-3, 3), rng.randint(1, 3)
        rows.append([s * u + t * v for u, v in zip(rows[i], rows[j])])
    point = coeffs()
    rows += [_int_cross(point, coeffs()) for _ in range(3)]
    rng.shuffle(rows)
    lines = [PlaneCurve.line(QQ, r) for r in rows if any(r)]
    got = list(concurrent_line_triples(lines))
    assert got == former_concurrent_line_triples(lines)
    assert got


def bigon_fingerprint(e, c1, c2):
    return fingerprint([e.cubic, e.origin_tangent, c1, c2])


def test_verify_bigon_clauses_pass():
    e, p, q, c1, c2 = bigon_package(4)
    report = verify_bigon(bigon_fingerprint(e, c1, c2), p, q)
    assert report["all"]
    assert report["contact_pattern"] and report["pairwise_transversal"]
    assert report["empty_triple_intersection"]


@pytest.mark.parametrize("r", [4, 12])
def test_verify_bigon_matches_the_curve_by_curve_oracle(r):
    e, p, q, c1, c2 = bigon_package(r)
    fp = bigon_fingerprint(e, c1, c2)
    assert verify_bigon(fp, p, q) == bigon_clauses(e.cubic, e.origin_tangent, c1, c2, p, q)
    # with P and Q swapped each conic has the wrong contact at each point
    fp_report = verify_bigon(fp, q, p)
    oracle = bigon_clauses(e.cubic, e.origin_tangent, c1, c2, q, p)
    assert fp_report == oracle
    assert not fp_report["contact_pattern"] and not fp_report["all"]


def test_equal_conics_share_a_component():
    e, p, q, c1, c2 = bigon_package(4)
    with pytest.raises(CommonComponent):
        fingerprint([e.cubic, e.origin_tangent, c1, c1])


def test_verify_bigon_runs_no_second_sweep(monkeypatch):
    e, p, q, c1, c2 = bigon_package(4)
    fp = bigon_fingerprint(e, c1, c2)

    def refuse(*args, **kwargs):
        raise AssertionError("verify_bigon swept the curves again")

    for name in ("_infinity_records", "_affine_records", "resultant_bivariate",
                 "intersection_multiplicity", "is_smooth_curve"):
        monkeypatch.setattr(maxflex.combinatorics, name, refuse)
    assert verify_bigon(fp, p, q)["all"]


def test_each_profiled_pair_takes_one_multiplicity(monkeypatch):
    e, p, q, c1, c2 = bigon_package(4)
    real = maxflex.combinatorics.intersection_multiplicity
    calls = []

    def counting(c, d, point):
        calls.append(point)
        return real(c, d, point)

    monkeypatch.setattr(maxflex.combinatorics, "intersection_multiplicity", counting)
    fp = bigon_fingerprint(e, c1, c2)
    # one call per pair of pieces at each built point, not one per sweep
    # through it; a counted record takes none
    built = [entry for key, entry in fp.points.items() if key[0] != "counted"]
    assert len(calls) == sum(len(entry["pairs"]) for entry in built) == 7


def _arrangement(name):
    if name == "cyclic-triangle":
        return [cyclic_cubic()] + coordinate_lines()
    e, p, q, c1, c2 = bigon_package(int(name[len("bigon-r"):]))
    return [e.cubic, e.origin_tangent, c1, c2]


@pytest.mark.parametrize("name", ["bigon-r4", "bigon-r12", "cyclic-triangle"])
def test_profiles_match_the_every_sweep_oracle(name):
    pieces = _arrangement(name)
    fp = fingerprint(pieces)
    assert_matches_sweeps(fp.points, sweep_profiles(pieces, pieces[0].tower))


def test_clubsuit_d2_adjoins_one_field(monkeypatch):
    # the smoothness sweep's one quadratic; every record of the l0-c1, l0-c2
    # and c1-c2 sweeps is counted over Q, and the cubic-conic points are rational
    count = count_calls(monkeypatch, (), [("extensions", FieldTower, "extend")])
    assert run_reproduction("clubsuit-d2").ok
    assert count["extensions"] == 1


def test_a_key_met_twice_raises(monkeypatch):
    monkeypatch.setattr(maxflex.combinatorics, "_point_key", lambda point, base, orbit: "one")
    with pytest.raises(CommonComponent, match="share one key"):
        fingerprint([cyclic_cubic()] + coordinate_lines())


def test_clubsuit_d2_builds_one_fingerprint_per_radius(monkeypatch):
    built = []

    def counting(pieces, tower=None):
        built.append(len(pieces))
        return fingerprint(pieces, tower)

    monkeypatch.setattr(maxflex.reproductions, "fingerprint", counting)
    assert run_reproduction("clubsuit-d2").ok
    assert built == [4, 4]  # radii 4 and 12


def test_point_key_separates_when_u_plus_7v_is_rational():
    # at [1 : 7r : -r] with r^2 = 2 the chart coordinates are u = 7r, v = -r,
    # so u + 7v = 0 is rational and the key must move on to u + 8v = -r
    k = QQ.extend(UniPoly.from_rationals(QQ, [-2, 0, 1]), name="r")
    r = k.generator()
    key = _point_key(ProjPoint(k, [1, 7 * r, -r]), QQ, 2)
    kind, (chart, m, mp_u, mp_v, mp_w) = key
    assert (kind, chart, m) == ("orbit", 0, 8)
    assert len(mp_w) == 3  # w = -r has a quadratic minimal polynomial
    # the conjugate point has the same key, the other orbit a different one
    assert _point_key(ProjPoint(k, [1, -7 * r, r]), QQ, 2) == key
    other = _point_key(ProjPoint(k, [1, 7 * r, r]), QQ, 2)
    assert other[1][1] == 7 and other != key
