"""No recipe builds a value its callers throw away.

``bigon_spec`` returns the spec alone: the conic pair enters through its
divisor, so no product curve is formed, and ``PlaneCurve`` keeps no
factorization.  ``fermat_offline_flexes`` yields its flexes, so
``fermat_witness`` certifies only the flex it keeps.  A ``WeierstrassModel``
keeps the rational torsion it has searched, so ``maxflex torsion`` reads the
psi_3 search its 90c3 build made.  The Fermat triangle takes its third
vertex as -2 times its second, so the model doubles twice where 4 times the
seed doubled three times.
"""

import ast
import inspect
import sys

import pytest

from maxflex import QQ, PlaneCurve, catalog, cli, fields, geometry, weierstrass
from maxflex.catalog import bigon_points, bigon_spec, catalog_entry, fermat_witness

from counting import count_calls


def test_bigon_spec_forms_no_tower_product(monkeypatch):
    entry = catalog_entry("90c3").build(64)
    _tw, e, p, q = bigon_points(entry, 12)
    count = count_calls(monkeypatch, ("products",))
    for with_line in (True, False):
        spec = bigon_spec(e, p, q, 12, with_line=with_line)
        assert spec.components[-1].divisor == ((p, 6), (q, 6))
    assert count == {"products": 0}


def test_a_plane_curve_takes_no_components():
    line = PlaneCurve.line(QQ, [1, 0, 0])
    with pytest.raises(TypeError):
        PlaneCurve(QQ, 2, (line * line).form, components=(line, line))


def test_the_witness_certifies_only_the_flex_it_keeps(monkeypatch):
    callers = []
    build = catalog.EllipticStructure

    def counted(cubic, origin):
        callers.append(sys._getframe(1).f_code.co_name)
        return build(cubic, origin)

    monkeypatch.setattr(catalog, "EllipticStructure", counted)
    witness = fermat_witness(64)
    assert callers.count("fermat_offline_flexes") == 1
    # the kept flex is the first stated one, [-1:0:1]
    tower = witness["tower"]
    assert witness["T2"] == geometry.ProjPoint(tower, [-tower.one(), tower.zero(), tower.one()])


def test_the_triangle_doubles_its_second_vertex(monkeypatch):
    """One ``fermat_witness(64)``: with the third vertex as 4 times the seed
    it made 14 model sums, 42 inverses and 693 tower products.  The rep
    products (``fields._rmul``) are counted beside the element products, so
    work moved below ``TowerElement`` still shows: the smoothness sweep's
    fibres evaluate the resultant's v-columns by Horner's rule in
    ``_pl_eval``, where four element products used to run, and the rep
    products stay at 793."""
    count = count_calls(monkeypatch, ("inverses", "products"),
                        [("model sums", weierstrass.WeierstrassModel, "add"),
                         ("rep products", fields, "_rmul")])
    witness = fermat_witness(64)
    assert count == {"model sums": 13, "inverses": 41, "products": 672,
                     "rep products": 793}
    a, b, c = witness["triangle"].vertices
    e = witness["structure"]
    assert geometry.ec_mul(e, -2, b) == c and geometry.ec_mul(e, -2, a) == b


@pytest.mark.parametrize("order", [3, 6])
def test_the_torsion_command_reads_the_builds_psi3_search(monkeypatch, capsys, order):
    events = []
    entry = catalog_entry("90c3")
    build = entry.builder
    roots = weierstrass.rational_roots

    def built(cap):
        data = build(cap)
        events.append("built")
        return data

    monkeypatch.setattr(entry, "builder", built)
    monkeypatch.setattr(
        weierstrass, "rational_roots", lambda poly: events.append(poly.degree) or roots(poly)
    )
    assert cli.main(["torsion", "90c3", str(order)]) == 0
    assert "no rational points" not in capsys.readouterr().out
    after = events[events.index("built") + 1 :]
    # psi_3 is the quartic; order 6 searches only the doubling cubic for 2
    assert 4 in events and 4 not in after
    assert after == ([] if order == 3 else [3])


def test_line_cubic_residual_takes_the_cubic_only():
    tree = ast.parse(inspect.getsource(geometry.line_cubic_residual))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "EllipticStructure" not in names and "isinstance" not in names
    assert list(inspect.signature(geometry.line_cubic_residual).parameters)[0] == "cubic"

