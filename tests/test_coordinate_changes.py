"""Every bi-gon claim survives a change of coordinates.

The reports compute in one chart configuration, where the flex tangent l0
is the line z = 0.  Here each bi-gon is moved by an invertible rational 3x3 map M: a form F becomes
F(M X) and a point p becomes M^-1 p.  The moved arrangement must give the
unmoved canonical fingerprint, a true ``verify_bigon`` at the moved P and
Q, conics that re-interpolate on the moved cubic to the moved conics, and
profiles that agree with the every-sweep oracle ``sweep_profiles``: the
built records one by one, the counted ones after orbit expansion.  The
maps are the 6 coordinate permutations and 6 seeded integer maps, which move
l0 off z = 0 and put points on shared fibres and at [1:0:0], where the
fingerprint falls back to building its points (Chen, Cheung and Yiu,
"Metamorphic testing", HKUST-CS98-01, 1998).
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from maxflex import PlaneCurve, ProjPoint, fingerprint, verify_bigon
from maxflex.catalog import bigon_conics, bigon_points, catalog_entry
from maxflex.geometry import EllipticStructure, _proportional_forms

from oracles import assert_matches_sweeps, sweep_profiles


def _det(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _inverse(m):
    d = Fraction(_det(m))
    return [
        [
            (m[(c + 1) % 3][(r + 1) % 3] * m[(c + 2) % 3][(r + 2) % 3]
             - m[(c + 1) % 3][(r + 2) % 3] * m[(c + 2) % 3][(r + 1) % 3]) / d
            for c in range(3)
        ]
        for r in range(3)
    ]


MAPS = [
    [[int(perm[r] == c) for c in range(3)] for r in range(3)]
    for perm in permutations(range(3))
]
_rng = random.Random(13)
while len(MAPS) < 12:
    m = [[_rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
    if _det(m):
        MAPS.append(m)


def moved_curve(c, m):
    """The form c(M X), expanded monomial by monomial."""
    t = c.tower
    rows = [{(1, 0, 0): m[r][0], (0, 1, 0): m[r][1], (0, 0, 1): m[r][2]} for r in range(3)]
    out = {}
    for exps, coeff in c.form.items():
        term = {(0, 0, 0): coeff}
        for r, e in enumerate(exps):
            for _ in range(e):
                nxt = {}
                for a, ca in term.items():
                    for b, cb in rows[r].items():
                        if cb:
                            k = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
                            nxt[k] = nxt.get(k, t.zero()) + ca * t.rational(cb)
                term = nxt
        for k, v in term.items():
            out[k] = out.get(k, t.zero()) + v
    return PlaneCurve(t, c.degree, {k: v for k, v in out.items() if not v.is_zero()})


def moved_point(p, m_inv):
    t = p.tower
    return ProjPoint(t, [
        sum((p.coords[s] * t.rational(m_inv[r][s]) for s in range(3)), t.zero())
        for r in range(3)
    ])


_BIGONS = {}


def _bigon(r):
    """The bi-gon at radius r, its fingerprint's canonical form kept."""
    if r not in _BIGONS:
        entry = catalog_entry("90c3").build(128)
        _tw, e, p, q = bigon_points(entry, r)
        c1, c2 = bigon_conics(e, p, q)
        canonical = fingerprint([e.cubic, e.origin_tangent, c1, c2]).canonical()
        _BIGONS[r] = (e, p, q, c1, c2, canonical)
    return _BIGONS[r]


def _check_moved(r, m):
    e, p, q, c1, c2, canonical = _bigon(r)
    m_inv = _inverse(m)
    cubic = moved_curve(e.cubic, m)
    pieces = [cubic, moved_curve(e.origin_tangent, m), moved_curve(c1, m), moved_curve(c2, m)]
    mp, mq = moved_point(p, m_inv), moved_point(q, m_inv)
    moved = EllipticStructure(cubic, moved_point(e.origin, m_inv))
    r1, r2 = bigon_conics(moved, mp, mq)
    assert _proportional_forms(r1, pieces[2]) and _proportional_forms(r2, pieces[3])
    fp = fingerprint(pieces)
    assert fp.canonical() == canonical
    assert verify_bigon(fp, mp, mq)["all"]
    assert_matches_sweeps(fp.points, sweep_profiles(pieces, e.tower))


@pytest.mark.parametrize("r", [4, 12])
@pytest.mark.parametrize("k", range(len(MAPS)))
def test_a_moved_bigon_keeps_its_fingerprint(r, k):
    _check_moved(r, MAPS[k])


@pytest.mark.extended
@pytest.mark.parametrize("r", [8, 24])
@pytest.mark.parametrize("k", range(len(MAPS)))
def test_a_moved_bigon_over_a_halving_tower_keeps_its_fingerprint(r, k):
    _check_moved(r, MAPS[k])


def test_the_seeded_maps_move_l0_off_the_line_at_infinity():
    e = _bigon(4)[0]
    assert set(e.origin_tangent.form) == {(0, 0, 1)}
    moved = [moved_curve(e.origin_tangent, m) for m in MAPS[6:]]
    assert all(set(line.form) != {(0, 0, 1)} for line in moved)
