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
from maxflex import torsion
from maxflex.torsion import _order_table, _torsion_order, weight_vectors
from oracles import geometric_order, with_multiplicities


def test_90c3_designated_flex_is_found():
    entry = catalog_entry("90c3").build(64)
    cubic = entry["structure"].cubic
    flexes = flex_points(cubic, entry["tower"])
    assert sum(rec.orbit for rec in flexes) == 9
    target = ProjPoint(entry["tower"], [0, 1, 0])
    assert any(
        rec.orbit == 1 and rec.tower == entry["tower"] and rec.point == target
        for rec in flexes
    )


def test_bigon_intersection_divisors():
    entry = catalog_entry("90c3").build(64)
    tw, e, p, q = bigon_points(entry, 4)
    c1, c2 = bigon_conics(e, p, q)
    recs = with_multiplicities(e.cubic, c1, tw)
    assert sorted(r.multiplicity for r in recs) == [1, 5]
    assert sum(r.multiplicity * r.orbit for r in recs) == 6
    found = {(r.multiplicity, r.point == p or r.point == q) for r in recs}
    assert found == {(5, True), (1, True)}
    # the heavy contact sits at p for c1 and at q for c2
    by_mult = {r.multiplicity: r.point for r in recs}
    assert by_mult[5] == p and by_mult[1] == q


def test_backend_agreement_over_the_search_box():
    # with a cubic the class -> point map is verified once per spec; the
    # oracle sums the component points on the cubic for every vector, reading
    # no class, and the two must agree over the whole reduced box
    entry = catalog_entry("90c3").build(64)
    for r in (4, 12):
        tw, e, p, q = bigon_points(entry, r)
        spec = bigon_spec(e, p, q, r, with_line=True)
        for w in weight_vectors(spec.k, spec.weight_box()):
            assert torsion_order(spec, w) == geometric_order(spec, w), w


def test_a_classless_component_is_refused_with_a_cubic():
    # every spec carries its lattice: a cubic does not stand in for a class
    spec = fermat_witness_spec(fermat_witness(64))
    first, *rest = spec.components
    bare = ComponentData(first.degree, first.m, first.divisor, None)
    with pytest.raises(ValueError, match="a component has no class"):
        ArrangementSpec(3, [bare, *rest], structure=spec.structure)


def _bigon_specs():
    """The four catalog bi-gon specs, r = 4 and 12 with and without the line,
    each carrying both backends; built afresh, so no class map is shared."""
    entry = catalog_entry("90c3").build(64)
    specs = []
    for r in (4, 12):
        _tw, e, p, q = bigon_points(entry, r)
        for with_line in (True, False):
            specs.append(bigon_spec(e, p, q, r, with_line=with_line))
    return specs


def test_box_table_cross_checks_every_entry_once(monkeypatch):
    # the box table agrees with the per-vector route and, with both
    # backends, walks the class -> point map once per nonzero entry
    calls = []
    real = torsion._class_point_order
    monkeypatch.setattr(
        torsion, "_class_point_order", lambda *args: calls.append(args) or real(*args)
    )
    for spec in _bigon_specs():
        assert spec.has_geometric
        box = spec.weight_box()
        del calls[:]
        table = _order_table(spec, box)
        assert len(calls) == len(table) == box ** spec.k - 1
        for v in weight_vectors(spec.k, box):
            assert table[v] == _torsion_order(spec, v)[1], v


def test_box_table_catches_a_corrupted_class_map_entry():
    # mutant: one class some weight vector reaches is sent to the origin in
    # the verified class -> point map; the box table's cross-check refuses it
    spec = _bigon_specs()[2]  # r = 12 with the line
    mod = spec.lattice_modulus()
    for v in weight_vectors(spec.k, spec.weight_box()):
        _na, x, y = torsion._orders(spec, v)
        if (x % mod, y % mod) != (0, 0):
            break
    spec.class_points()[(x % mod, y % mod)] = spec.structure.origin
    with pytest.raises(BackendDisagreement, match="backends disagree"):
        distinguish(spec, spec, [tuple(range(spec.k))])


def _relabelled_r12_line_spec(coords):
    """The r = 12 line-augmented bi-gon spec with the conic pair's class
    replaced by ``coords``."""
    entry = catalog_entry("90c3").build(64)
    tw, e, p, q = bigon_points(entry, 12)
    spec = bigon_spec(e, p, q, 12, with_line=True)
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


def test_order_witnesses_are_rechecked_from_the_components():
    # the witness arrangement, and the same with its two tangent lines
    # traded, classes kept: the order witness is read through the verified
    # class -> point map of each
    lines = fermat_witness_spec(fermat_witness(64))
    comps = lines.components
    swapped = ArrangementSpec(3, [comps[1], comps[0], comps[2]], structure=lines.structure)
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


def test_witness_carries_its_concurrency_gate():
    from maxflex.combinatorics import concurrent_line_triples

    witness = fermat_witness(64)
    assert witness["concurrent_triples"] == []
    assert list(concurrent_line_triples(witness["lines"])) == []


def test_fermat_existence_runs_the_concurrency_test_once(monkeypatch):
    """The report reads the gate's triples; the first candidate is chosen,
    so one test in all."""
    from maxflex import catalog, combinatorics, run_reproduction

    calls = []
    triples = combinatorics.concurrent_line_triples

    def counted(lines):
        calls.append(1)
        return triples(lines)

    monkeypatch.setattr(catalog, "concurrent_line_triples", counted)
    monkeypatch.setattr(combinatorics, "concurrent_line_triples", counted)
    assert run_reproduction("fermat-existence").ok
    assert len(calls) == 1


def test_fermat_existence_refuses_concurrent_witness_lines(monkeypatch):
    """A concurrency test that reports a triple for every candidate leaves
    no witness: the run raises and reports no PASS."""
    from maxflex import catalog, run_reproduction

    monkeypatch.setattr(catalog, "concurrent_line_triples", lambda lines: iter([(0, 1, 2)]))
    with pytest.raises(WrongOrder, match="no concurrency-free third tangent"):
        run_reproduction("fermat-existence")


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
