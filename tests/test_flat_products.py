"""A tower product reduces one flat list of integers.

``_zraw`` returns a raw product as one flat list of ints, in the layout of
a value, and ``_zreduce`` takes each top coefficient off that list, scales
the rest with one ``map`` and subtracts entry by entry.  Neither calls the
slice helpers ``_zscale``, ``_zop`` or ``_zjoin``.  A product on the Fermat
witness tower [2,9,1] runs on its rational line and reaches neither, so the
claim is shown on the trisection's unsplit y-level [2,9,2] above it: its
products sum the raw products at int-height 2 and reduce there and at 3,
and no call of a slice helper comes from ``_zraw`` or ``_zreduce``.

A [2,9,1] product itself makes three integer products on the line
(``_zz_mul``) and no ``_zraw`` call at int-height 2.
"""

import random
import sys
from fractions import Fraction

from counting import count_calls

from maxflex import fields
from maxflex.catalog import fermat_witness
from maxflex.fields import FieldTower

SLICE_HELPERS = ("_zscale", "_zop", "_zjoin")


def witness_pool():
    witness = fermat_witness(64)
    points = list(witness["triangle"].vertices) + [witness["T1"], witness["2T1"]]
    return witness["tower"], [c for p in points for c in p.affine() if not c.is_zero()]


def unsplit_y_level(tower, pool):
    """The trisection tower [2,9,2] the witness tower was split from, and the
    pool's values in it, constant in y."""
    prefix = FieldTower(tower.levels[:2], tower.degree_cap)
    unsplit = FieldTower(prefix.levels + (tower.levels[2].split_from,), tower.degree_cap)
    assert [lv.degree for lv in unsplit.levels] == [2, 9, 2]
    return unsplit, [prefix.element(c.demoted_rep(2)).embedded(unsplit) for c in pool]


def test_products_on_the_fermat_tower_reduce_one_flat_list(monkeypatch):
    tower, pool = unsplit_y_level(*witness_pool())
    y = tower.generator()
    rng = random.Random(36)
    pairs = []
    for _ in range(20):
        a, b = rng.sample(pool, 2)
        pairs.append((a * y + Fraction(rng.randint(1, 9), rng.randint(1, 3)), b - a * y))
    callers = {name: [] for name in SLICE_HELPERS}
    reduced_at = []

    def caller_recorded(name, helper):
        def wrapper(*args):
            callers[name].append(sys._getframe(1).f_code.co_name)
            return helper(*args)

        return wrapper

    def reduce_recorded(levels, k, P):
        reduced_at.append(k)
        return reduce(levels, k, P)

    reduce = fields._zreduce
    for name in SLICE_HELPERS:
        monkeypatch.setattr(fields, name, caller_recorded(name, getattr(fields, name)))
    monkeypatch.setattr(fields, "_zreduce", reduce_recorded)
    for a, b in pairs:
        assert (a * b).rep == (b * a).rep
    assert {2, 3} <= set(reduced_at)
    for name in SLICE_HELPERS:
        assert not {"_zreduce", "_zraw"} & set(callers[name]), name


def test_a_fermat_tower_product_makes_three_products_on_the_line(monkeypatch):
    tower, pool = witness_pool()
    a, b = pool[0] + 1, pool[1] - pool[2]
    raw = fields._zraw
    raw_at = []

    def raw_recorded(levels, k, A, B):
        raw_at.append(k)
        return raw(levels, k, A, B)

    monkeypatch.setattr(fields, "_zraw", raw_recorded)
    count = count_calls(monkeypatch, ["products"], [("line products", fields, "_zz_mul")])
    a * b
    assert count == {"products": 1, "line products": 3}
    assert 2 not in raw_at
