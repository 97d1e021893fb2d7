"""A tower product reduces one flat list of integers.

``_zraw`` returns a raw product as one flat list of ints, in the layout of
a value, and ``_zreduce`` takes each top coefficient off that list, scales
the rest with one ``map`` and subtracts entry by entry.  Neither calls the
slice helpers ``_zscale``, ``_zop`` or ``_zjoin``: on seeded products over
the Fermat witness tower [2,9,1], at int-height 2 and above, no call of
theirs comes from either.
"""

import random
import sys
from fractions import Fraction

from maxflex import fields
from maxflex.catalog import fermat_witness

SLICE_HELPERS = ("_zscale", "_zop", "_zjoin")


def test_products_on_the_fermat_tower_reduce_one_flat_list(monkeypatch):
    witness = fermat_witness(64)
    tower = witness["tower"]
    pool = [c for p in list(witness["triangle"].vertices) + [witness["T1"], witness["2T1"]]
            for c in p.affine() if not c.is_zero()]
    rng = random.Random(36)
    pairs = []
    for _ in range(20):
        a, b = rng.sample(pool, 2)
        pairs.append((a + Fraction(rng.randint(1, 9), rng.randint(1, 3)), b - a))
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
    assert max(reduced_at) >= 2
    for name in SLICE_HELPERS:
        assert not {"_zreduce", "_zraw"} & set(callers[name]), name
