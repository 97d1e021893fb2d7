"""Catalog curves and arrangement recipes."""

import pytest

from maxflex import (
    QQ,
    ArrangementSpec,
    BackendDisagreement,
    ComponentData,
    ProjPoint,
    TorsionClass,
    WeightVector,
    WrongOrder,
    distinguish,
    ec_add,
    flex_points,
    intersection_points,
    point_order,
    torsion_order,
    triangle_from,
)
from maxflex.catalog import (
    bigon_conics,
    bigon_points,
    bigon_spec,
    catalog_entry,
    cyclic_triangle_chain,
    fermat_triangle,
    fermat_witness,
    fermat_witness_spec,
)
from maxflex.torsion import weight_vectors


def test_90c3_designated_flex_is_found():
    entry = catalog_entry("90c3").build(64)
    cubic = entry["structure"].cubic
    flexes = flex_points(cubic, entry["tower"], on_budget="skip")
    target = ProjPoint(entry["tower"], [0, 1, 0])
    assert any(tw == entry["tower"] and p == target for p, tw in flexes)


def test_bigon_intersection_divisors():
    entry = catalog_entry("90c3").build(64)
    tw, e, p, q = bigon_points(entry, 4)
    c1, c2 = bigon_conics(e, p, q)
    recs = intersection_points(e.cubic, c1, tw)
    assert sorted(r.multiplicity for r in recs) == [1, 5]
    assert sum(r.multiplicity * r.orbit for r in recs) == 6
    found = {(r.multiplicity, r.point == p or r.point == q) for r in recs}
    assert found == {(5, True), (1, True)}
    # the heavy contact sits at p for c1 and at q for c2
    by_mult = {r.multiplicity: r.point for r in recs}
    assert by_mult[5] == p and by_mult[1] == q


def test_backend_agreement_over_the_search_box():
    # with both backends the class -> point map is verified once per spec;
    # the same arrangement without classes sums the points on the cubic for
    # every vector, and the two must agree over the whole reduced box
    entry = catalog_entry("90c3").build(64)
    for r in (4, 12):
        tw, e, p, q = bigon_points(entry, r)
        c1, c2 = bigon_conics(e, p, q)
        spec, _ = bigon_spec(e, p, q, c1, c2, r, with_line=True)
        bare = [ComponentData(c.degree, c.m, c.divisor) for c in spec.components]
        geometric = ArrangementSpec(3, bare, structure=e)
        for w in weight_vectors(spec.k, spec.weight_box()):
            assert torsion_order(spec, w) == torsion_order(geometric, w), w


def _relabelled_r12_line_spec(coords):
    """The r = 12 line-augmented bi-gon spec with the conic pair's class
    replaced by ``coords``."""
    entry = catalog_entry("90c3").build(64)
    tw, e, p, q = bigon_points(entry, 12)
    c1, c2 = bigon_conics(e, p, q)
    spec, _ = bigon_spec(e, p, q, c1, c2, 12, with_line=True)
    line, pair = spec.components
    relabelled = ComponentData(pair.degree, pair.m, pair.divisor, TorsionClass(12, coords))
    return ArrangementSpec(3, [line, relabelled], structure=e)


@pytest.mark.parametrize(
    "coords, failure",
    [
        # P + Q has order 3, so 0 |-> P + Q
        ((0, 0), "not well defined"),
        # order 2 |-> order 3: the edge (6, 0) + (6, 0) = 0 breaks
        ((6, 0), "not well defined"),
        # order 6 |-> order 3: 3 * (2, 0) goes to the origin
        ((2, 0), "not injective"),
    ],
)
def test_mislabelled_class_raises(coords, failure):
    spec = _relabelled_r12_line_spec(coords)
    with pytest.raises(BackendDisagreement, match=failure):
        torsion_order(spec, WeightVector((2, 1)))
    with pytest.raises(BackendDisagreement, match=failure):
        distinguish(spec, spec, [(0, 1)])


def test_cyclic_chain_vertices_have_order_nine():
    data = catalog_entry("cyclic").build(64)
    chain = cyclic_triangle_chain(data)
    assert chain["closes"]
    assert len({str(p.to_data()) for p in chain["points"]}) == 3


def test_fermat_triangle_vertices_cycle():
    data = catalog_entry("fermat").build(64)
    tower, e, tri = fermat_triangle(data)
    v1, v2, v3 = tri.vertices
    for v in tri.vertices:
        assert point_order(e, v, 9) == 9
    assert tri.associated == ProjPoint(
        tower, [tower.one(), -data["w"].embedded(tower), tower.zero()]
    )


def test_geometric_triangle_from_matches_the_fermat_triangle():
    data = catalog_entry("fermat").build(64)
    tower, e, tri = fermat_triangle(data)
    geo = triangle_from(e, tri.vertices[0])
    assert geo.vertices == tri.vertices
    assert geo.associated == tri.associated
    assert [line.to_data() for line in geo.lines] == [line.to_data() for line in tri.lines]
    with pytest.raises(WrongOrder):
        triangle_from(e, tri.associated)


def test_class_points_of_a_triangle_only_spec():
    # the triangle meets the cubic in e = 3 d / m = 3 points, so no e_j is
    # nonzero mod 3 and the class map is generated by the unit vector
    data = catalog_entry("fermat").build(64)
    tower, e, tri = fermat_triangle(data)
    t1 = TorsionClass(9, (3, 0))
    comp = ComponentData(3, 3, [(v, 3) for v in tri.vertices], t1)
    spec = ArrangementSpec(3, [comp], structure=e)
    assert spec.class_points() == {
        (0, 0): e.origin,
        (3, 0): tri.associated,
        (6, 0): ec_add(e, tri.associated, tri.associated),
    }
    assert torsion_order(spec, WeightVector((1,))) == 3


def test_geometry_only_witnesses_are_rechecked_from_the_components():
    # the witness arrangement without classes, and the same with its two
    # tangent lines traded: the order witness comes from the group law
    spec = fermat_witness_spec(fermat_witness(64))
    bare = [ComponentData(c.degree, c.m, c.divisor) for c in spec.components]
    lines = ArrangementSpec(3, bare, structure=spec.structure)
    swapped = ArrangementSpec(3, [bare[1], bare[0], bare[2]], structure=spec.structure)
    cert = distinguish(lines, swapped, [(0, 1, 2)])
    assert cert.mode == "order-witness"
    assert cert.witnesses["per_permutation"]["(0, 1, 2)"] == {
        "weights": [1, 2, 1],
        "order1": 1,
        "order2": 3,
    }
    # mutant: the compiled degree of component 0 goes from 1 to 2, which
    # shifts n_a in the order tables; a re-check through torsion_order read
    # n_a from the same rows and returned the multiset witness found there
    m, d, fx, fy = lines._rows[0]
    lines._rows = ((m, d + 1, fx, fy),) + lines._rows[1:]
    with pytest.raises(BackendDisagreement, match="re-verification"):
        distinguish(lines, swapped, [(0, 1, 2)])


def test_witness_weight_orders_match_lattice():
    witness = fermat_witness(64)
    spec = fermat_witness_spec(witness)
    assert torsion_order(spec, WeightVector((1, 2, 1))) == 1
    assert torsion_order(spec, WeightVector((2, 1, 1))) == 3
    assert torsion_order(spec, WeightVector((0, 0, 1))) == 3


def test_witness_pair_admissible_subset_of_swap():
    # the tangent/tangent/triangle arrangements built from the witness have
    # equal fingerprints, and only the two tangent lines may trade places
    from maxflex.combinatorics import admissible_permutations, fingerprint

    wit = fermat_witness(64)
    tower = wit["tower"]
    tri = wit["triangle"]
    shape4 = [wit["structure"].cubic, wit["L_T1"], wit["L_2T1"]] + list(tri.lines)
    shape5 = [wit["structure"].cubic, wit["L_T1"], wit["L_T2"].embedded(tower)] + list(
        tri.lines
    )
    f4 = fingerprint(shape4, tower)
    f5 = fingerprint(shape5, tower)
    grouping = [[1], [2], [3, 4, 5]]
    assert admissible_permutations(f4, f5, grouping) <= {(0, 1, 2), (1, 0, 2)}
    assert admissible_permutations(f4, f5, grouping)
    assert admissible_permutations(f4, f4, grouping) == {(0, 1, 2), (1, 0, 2)}
