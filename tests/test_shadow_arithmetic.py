"""Tower products of a real run, each re-checked on an independent arithmetic.

The report pairs (chord-tangent against Weierstrass, lattice against
geometry, Fulton against the local-algebra oracle) all run on the one tower
arithmetic, so a fault in it could make both sides of a pair agree on a
wrong value.  Here every ``TowerElement`` product above Q that one
``fermat_witness(64)`` makes (604 of them: 327 on [2,9,1], 35 on the
unsplit [2,9,2], 8 on [2,9] and 234 on Q(w)) is recorded by a wrapper in the
test, and checked against ``oracles.NestedTower.mul``, which shares no code
with ``maxflex.fields``, on the same ``rep_to_data`` inputs.  These products
run on the rational line of the trisection tower [2,9,1] and on the stepwise
reduction of the towers below and beside it.  The tier-1 case checks every
8th product; the whole run, about 3 s, is under the ``extended`` marker.
"""

import pytest
from oracles import NestedTower

from maxflex.catalog import fermat_witness
from maxflex.fields import TowerElement, rep_to_data


def witness_products(monkeypatch):
    """(tower, a, b, a * b) as reps, for every product above Q made while
    one ``fermat_witness(64)`` is built; a rational operand is taken as its
    element of the tower."""

    def recorded(method):
        def wrapper(self, other):
            out = method(self, other)
            if out is not NotImplemented and self.tower.height:
                if not isinstance(other, TowerElement):
                    other = self.tower.rational(other)
                products.append((self.tower, self.rep, other.rep, out.rep))
            return out

        return wrapper

    products = []
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(TowerElement, name, recorded(getattr(TowerElement, name)))
    fermat_witness(64)
    monkeypatch.undo()
    return products


def mismatches(products):
    """The products whose result differs from the reference product."""
    refs = {}
    bad = []
    for tower, a, b, got in products:
        ref = refs.get(tower)
        if ref is None:
            ref = refs[tower] = NestedTower(tower.to_data())
        h = tower.height
        x, y = ref.parse(rep_to_data(a), h), ref.parse(rep_to_data(b), h)
        if ref.mul(x, y, h) != ref.parse(rep_to_data(got), h):
            bad.append((tower, a, b))
    return bad


def assert_covers_the_line(products):
    """The products reach the Fermat tower [2,9,1] and a tower below it."""
    shapes = {tuple(lv.degree for lv in t.levels) for t, *_ in products}
    assert (2, 9, 1) in shapes and (2,) in shapes


def test_every_eighth_witness_product_matches_the_reference(monkeypatch):
    products = witness_products(monkeypatch)
    assert len(products) > 500
    sample = products[::8]
    assert_covers_the_line(sample)
    assert mismatches(sample) == []


@pytest.mark.extended
def test_every_witness_product_matches_the_reference(monkeypatch):
    products = witness_products(monkeypatch)
    assert_covers_the_line(products)
    assert mismatches(products) == []
