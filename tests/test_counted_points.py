"""The fingerprint counts a sweep's two-piece transversal points and builds
the rest: one arrangement per fallback, each against ``sweep_profiles``.

A sweep counts, with no extension, the simple roots of Res_y(F_i, F_j)
where a leading y-coefficient is nonzero and no other piece's resultant
with F_i vanishes, and, when one piece is the line z = 0, the roots of the
other piece's squarefree restriction of full degree, coprime to every other
restriction.  Each case below breaks one of these conditions, so that
points must be built; the counted records of every case must stand for the
oracle's other points.
"""

import random

import pytest

from maxflex import QQ, MaxflexError, PlaneCurve, UniPoly, fingerprint

from oracles import assert_matches_sweeps, sweep_profiles


def curve(terms):
    degree = sum(next(iter(terms)))
    return PlaneCurve(QQ, degree, terms)


def _counted_orbits(fp, pair):
    return sorted(
        entry["orbit"] for key, entry in fp.points.items()
        if key[0] == "counted" and key[1] == pair
    )


CASES = {
    # y z = x^2 and the circle x^2 + y^2 = 2 y z are tangent at (0, 0) and
    # cross at (+-1, 1): R = x^2 (x^2 - 1) keeps its double root built
    "tangent-conics": (
        [{(0, 1, 1): 1, (2, 0, 0): -1}, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 1, 1): -2}],
        {(0, 1): [2]},
    ),
    # the circle and circle + x (x + y) cross at (0, +-1), one fibre
    "one-fibre": (
        [{(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1},
         {(2, 0, 0): 2, (1, 1, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1}],
        {(0, 1): [2]},
    ),
    # the lines y = 0, x = 0 and x = y meet at the origin
    "third-piece": (
        [{(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1},
         {(0, 1, 0): 1}, {(1, 0, 0): 1}, {(1, 0, 0): 1, (0, 1, 0): -1}],
        {(1, 2): [], (1, 3): [], (2, 3): []},
    ),
    # Res_y(x y - z^2, x y - 2 z^2) = -x: a simple root where both leading
    # y-coefficients vanish, over a fibre with no common point
    "both-leads-vanish": (
        [{(1, 1, 0): 1, (0, 0, 2): -1}, {(1, 1, 0): 1, (0, 0, 2): -2}],
        {(0, 1): []},
    ),
    # x y + z^2 and x y + z^2 + x z: the restrictions to z = 0 share the
    # simple root of [0:1:0], where I_p = 3
    "restrictions-share-a-simple-root": (
        [{(1, 1, 0): 1, (0, 0, 2): 1}, {(1, 1, 0): 1, (0, 0, 2): 1, (1, 0, 1): 1}],
        {(0, 1): []},
    ),
    # the same with x^2 added to the first, so that [1:0:0] is on one only;
    # the one affine point (1, -2) is counted
    "restrictions-share-a-simple-root-off-100": (
        [{(1, 1, 0): 1, (0, 0, 2): 1, (2, 0, 0): 1},
         {(1, 1, 0): 1, (0, 0, 2): 1, (1, 0, 1): 1}],
        {(0, 1): [1]},
    ),
    # z = 0 and x y + y^2 + z^2 meet at [-1:1:0] and at [1:0:0]
    "100-on-both": (
        [{(1, 1, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, {(0, 0, 1): 1}],
        {(0, 1): []},
    ),
    # z = 0 is tangent to y z = x^2 at [0:1:0]
    "line-tangent": (
        [{(0, 1, 1): 1, (2, 0, 0): -1}, {(0, 0, 1): 1},
         {(2, 0, 0): 1, (0, 2, 0): -4, (0, 0, 2): 1}],
        {(0, 1): [], (1, 2): [2]},
    ),
    # x^2 - x y + z^2 passes through [1:1:0], a point of z = 0 and
    # x^2 - y^2 + z^2
    "third-piece-at-infinity": (
        [{(2, 0, 0): 1, (0, 2, 0): -1, (0, 0, 2): 1}, {(0, 0, 1): 1},
         {(2, 0, 0): 1, (1, 1, 0): -1, (0, 0, 2): 1}],
        {(0, 1): [], (1, 2): []},
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_fallback_builds_what_it_cannot_count(name):
    forms, counted = CASES[name]
    pieces = [curve(terms) for terms in forms]
    fp = fingerprint(pieces)
    assert_matches_sweeps(fp.points, sweep_profiles(pieces, QQ))
    for pair, orbits in counted.items():
        assert _counted_orbits(fp, pair) == orbits


def test_a_bigon_pair_counts_its_points():
    # x^2 + y^2 = 4 and x y = 1 cross at the four roots of x^4 - 4 x^2 + 1:
    # one counted record, nothing built
    pieces = [curve({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -4}),
              curve({(1, 1, 0): 1, (0, 0, 2): -1})]
    fp = fingerprint(pieces)
    assert [key[0] for key in fp.points] == ["counted"]
    assert_matches_sweeps(fp.points, sweep_profiles(pieces, QQ))


def test_a_zero_divisor_in_the_count_builds_the_sweep():
    # over Q(s), s^2 = 1 and not split, the count of the (0, 2) sweep meets
    # the zero divisor s - 1, so that sweep is built; the built route meets
    # none, and the fingerprint is whole
    t = QQ.extend(UniPoly.from_rationals(QQ, [-1, 0, 1]), name="s")
    s = t.generator()
    pieces = [PlaneCurve(t, 2, {(0, 2, 0): s, (1, 1, 0): -1, (2, 0, 0): 1}),
              PlaneCurve(t, 1, {(0, 0, 1): 1, (1, 0, 0): 3 - s}),
              PlaneCurve(t, 2, {(0, 1, 1): 1, (0, 2, 0): -1, (1, 0, 1): 2})]
    fp = fingerprint(pieces)
    assert_matches_sweeps(fp.points, sweep_profiles(pieces, t))
    assert _counted_orbits(fp, (0, 2)) == []


def _random_piece(rng):
    degree = rng.choice((1, 1, 2, 2, 2))
    monomials = [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    while True:
        terms = {m: rng.choice((-2, -1, 1, 2)) for m in monomials if rng.random() < 0.55}
        if terms:
            return curve(terms)


def test_random_lines_and_conics_match_the_oracle():
    rng = random.Random(41)
    compared = 0
    for _ in range(40):
        pieces = [_random_piece(rng) for _ in range(rng.choice((2, 3, 4)))]
        if rng.random() < 0.3:
            pieces.insert(1, curve({(0, 0, 1): 1}))
        try:
            oracle = sweep_profiles(pieces, QQ)
        except MaxflexError as err:  # a shared component
            with pytest.raises(type(err)):
                fingerprint(pieces)
            continue
        fp = fingerprint(pieces)
        assert_matches_sweeps(fp.points, oracle)
        compared += 1
    assert compared == 35
