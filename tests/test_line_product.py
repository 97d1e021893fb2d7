"""Products on the rational line, and reps serialized in one pass.

At int-height 2 over a quadratic level 1 w^2 + p w + q, with every
coefficient of level 2's modulus f constant in level 1, ``fields._zmul``
multiplies a = U + V w by b on the line Q[v]/(f): three integer products,
w^2 folded in with level 1's denominators cleared, and each half reduced by
the line's table.  Its result must be the very integers that the stepwise
route gives, ``oracles.stepwise_zmul``: on the Fermat witness tower [2,9,1],
which reaches the line through its linear level, and on seeded towers
Q(w)[v]/(f) whose p and q carry denominators, level 1 reducible or marked
irreducible and f rational of degree 2 to 9 with denominators.  Only the
norm inverse needs level 1 marked irreducible.  A level 2 whose modulus is
not constant in level 1 has no line.

``rep_to_data`` reduces and formats a rep's entries in one pass over its flat
numerators; its output must be that of the former nesting,
``oracles.nested_rep_data``, on seeded reps at every height.
"""

import json
import random
from fractions import Fraction
from math import isqrt

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import nested_rep_data, stepwise_zmul  # noqa: E402

from maxflex import QQ, DegenerateModulus, UniPoly, catalog, fields  # noqa: E402
from maxflex.fields import rep_to_data  # noqa: E402

PROFILE = dict(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def count_line_products(monkeypatch):
    """A list that gets one entry per product on a line."""
    calls = []
    product = fields._zline_mul

    def counted(line, A, B):
        calls.append(A)
        return product(line, A, B)

    monkeypatch.setattr(fields, "_zline_mul", counted)
    return calls


def test_witness_products_on_the_line_are_the_stepwise_products(monkeypatch):
    wit = catalog.fermat_witness()
    tower = wit["tower"]
    points = list(wit["triangle"].vertices) + [wit["T1"], wit["2T1"]]
    pool = [c for p in points for c in p.affine() if not c.is_zero()]
    levels = tower.levels
    assert [lv.degree for lv in levels] == [2, 9, 1]
    calls = count_line_products(monkeypatch)
    n = len(pool)
    values = pool + [pool[i] * pool[(i + 1) % n] + i for i in range(n)]
    for i, a in enumerate(values):
        for b in values[i:]:
            A, B = a.rep[1], b.rep[1]
            assert fields._zmul(levels, 3, A, B) == stepwise_zmul(levels, A, B)
    assert len(calls) >= len(values) * (len(values) + 1) // 2


def _is_square(r):
    r = Fraction(r)
    return r >= 0 and all(isqrt(n) ** 2 == n for n in (r.numerator, r.denominator))


@st.composite
def line_towers(draw):
    """Q[w]/(w^2 + p w + q)[v]/(f): q has a denominator, so level 1's is not
    1; w^2 + p w + q is either a product of two rational factors and not
    marked, or has no rational root and is marked irreducible; f is monic
    rational of degree 2 to 9 with denominators."""
    small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    if draw(st.booleans()):
        r1, r2 = draw(small), draw(small)
        assume(r1 != r2 and (r1 * r2).denominator > 1)
        p, q, irreducible = -(r1 + r2), r1 * r2, False
    else:
        p = draw(small)
        q = Fraction(draw(st.integers(-20, 20)), draw(st.integers(2, 6)))
        assume(q.denominator > 1 and not _is_square(p * p - 4 * q))
        irreducible = True
    base = QQ.extend(UniPoly.from_rationals(QQ, [q, p, 1]), irreducible=irreducible)
    d = draw(st.integers(2, 9))
    coeffs = [draw(st.fractions(min_value=-9, max_value=9, max_denominator=27)) for _ in range(d)]
    try:
        return base.extend(UniPoly.from_rationals(base, coeffs + [1]))
    except DegenerateModulus:
        assume(False)


def numerators(size):
    entry = st.integers(-10**9, 10**9)
    return st.tuples(*[entry | st.just(0)] * size)


def test_seeded_line_towers_multiply_as_the_stepwise_route(monkeypatch):
    calls = count_line_products(monkeypatch)
    seen = set()

    @settings(max_examples=60, **PROFILE)
    @given(line_towers(), st.data())
    def run(tower, data):
        levels = tower.levels
        assert fields._zlevel(levels, 1).scale != 1
        assert fields._zline(levels) is not None
        assert (fields._norm_line(levels) is not None) is levels[0].irreducible
        size = fields._zlevel(levels, 2).size
        for _ in range(3):
            A, B = data.draw(numerators(size)), data.draw(numerators(size))
            assert fields._zmul(levels, 2, A, B) == stepwise_zmul(levels, A, B)
        seen.add((levels[0].irreducible, levels[1].degree))

    run()
    assert {irreducible for irreducible, _ in seen} == {False, True}
    assert {2, 9} <= {d for _, d in seen}
    assert len(calls) >= 3 * len(seen)


def test_a_level_two_not_constant_in_level_one_has_no_line(monkeypatch):
    """v^3 - w v - 1/2 over Q(w): conjugation moves f, so products reduce
    step by step."""
    base = QQ.extend(UniPoly.from_rationals(QQ, [1, 1, 1]), irreducible=True)
    tower = base.extend(UniPoly(base, [Fraction(-1, 2), -base.generator(), 0, 1]))
    assert fields._zline(tower.levels) is None
    calls = count_line_products(monkeypatch)
    w, v = tower.generator(0), tower.generator()
    a, b = (w + 2) * v * v - 3 * v + w, (Fraction(1, 3) * w - 1) * v * v + v - 5 * w
    A, B = a.rep[1], b.rep[1]
    assert fields._zmul(tower.levels, 2, A, B) == stepwise_zmul(tower.levels, A, B)
    assert (a * b).rep == (b * a).rep
    assert calls == []


#: Level degrees of reps at every height: Q, a quadratic, the Fermat prefix
#: [2,9], the witness tower [2,9,1] with its linear top, the unsplit [2,9,2],
#: and [4,1,1,2] and [3,1,2] with linear levels inside.
DEGREES = [(), (2,), (5,), (2, 9), (2, 9, 1), (2, 9, 2), (4, 1, 1, 2), (3, 1, 2)]


def seeded_reps(rng, degrees, count):
    """``count`` reps with the given level degrees: den 1, 19683 or random,
    entries of mixed sizes and signs with zeros among them."""
    size = 1
    for d in degrees:
        size *= d
    for i in range(count):
        den = (1, 19683, rng.randint(2, 10**6))[i % 3]
        entries = [rng.choice((0, rng.randint(-50, 50), rng.randint(-10**30, 10**30)))
                   for _ in range(size)]
        if not degrees:
            yield (den, entries[0])
        elif len(degrees) == 1:
            yield (den, tuple(entries))
        else:
            yield (den, tuple(entries), degrees)


@pytest.mark.parametrize("degrees", DEGREES)
def test_reps_serialize_as_the_former_nesting(degrees):
    rng = random.Random(40 + len(degrees))
    for rep in seeded_reps(rng, degrees, 300):
        got = rep_to_data(rep)
        assert json.dumps(got) == json.dumps(nested_rep_data(rep))
