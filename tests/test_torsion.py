"""The invariant calculus over the abstract lattice and its geometric twin."""

import ast
import random
from itertools import permutations, product
from math import gcd, lcm
from pathlib import Path

import pytest

from maxflex import (
    ArrangementSpec,
    BackendDisagreement,
    ComponentData,
    EmptyAdmissibleSet,
    ModulusMismatch,
    TorsionClass,
    WeightVector,
    WrongOrder,
    ZeroVector,
    bigon_parameters,
    classify_triangle_pair,
    cover_order,
    distinguish,
    enumerate_triangles,
    reduce_weights,
    splitting_number,
    torsion_order,
    triangle_from,
    uniform_group,
    weil_exponent,
)
from maxflex import torsion
from maxflex.torsion import (
    GroupDescriptor,
    _order_table,
    _torsion_order,
    lattice_span,
    self_admissible,
    weight_vectors,
)

from oracles import brute_order, lattice_subgroup, weighted_invariants


T1 = TorsionClass(9, (3, 0))
T2 = TorsionClass(9, (0, 3))


def triangle_spec(c1, c2):
    comps = [
        ComponentData(3, 3, [("%s%d" % (tag, i), 3) for i in range(3)], cls)
        for tag, cls in (("a", c1), ("b", c2))
    ]
    return ArrangementSpec(3, comps)


def tangent_triangle_spec(cls_line1, cls_line2, cls_tri):
    return ArrangementSpec(
        3,
        [
            ComponentData(1, 3, [("p", 3)], cls_line1),
            ComponentData(1, 3, [("q", 3)], cls_line2),
            ComponentData(3, 3, [("r%d" % i, 3) for i in range(3)], cls_tri),
        ],
    )


# -- pairing -------------------------------------------------------------------

def test_weil_antisymmetry_and_basis():
    assert weil_exponent(T1, T1) == 0
    assert weil_exponent(TorsionClass(9, (1, 0)), TorsionClass(9, (0, 1))) == 1
    with pytest.raises(ModulusMismatch):
        weil_exponent(T1, TorsionClass(6, (1, 0)))


def test_weil_unit_iff_basis_brute_force():
    for n in range(2, 13):
        rng = random.Random(n)
        for _ in range(40):
            u = (rng.randrange(n), rng.randrange(n))
            v = (rng.randrange(n), rng.randrange(n))
            exp = weil_exponent(TorsionClass(n, u), TorsionClass(n, v))
            spans = len(lattice_subgroup([u, v], n)) == n * n
            assert (gcd(exp, n) == 1) == spans


# -- cover order and reduction ---------------------------------------------------

def test_cover_order_examples():
    s4 = tangent_triangle_spec(T1, T1.scale(2), T1)
    assert cover_order(s4, WeightVector((1, 2, 1))) == 3
    assert cover_order(s4, WeightVector((2, 1, 1))) == 3
    # single bi-gon component of degree 2d with m = 3d at d = 2
    bigon = ArrangementSpec(
        3, [ComponentData(4, 6, [("p", 6), ("q", 6)], TorsionClass(12, (8, 0)))]
    )
    assert cover_order(bigon, WeightVector((1,))) == 2
    # adding an inflectional tangent: n_(d,1) = 3d
    plus = ArrangementSpec(
        3,
        [
            ComponentData(1, 3, [("o", 3)], TorsionClass(12, (0, 0))),
            ComponentData(4, 6, [("p", 6), ("q", 6)], TorsionClass(12, (8, 0))),
        ],
    )
    assert cover_order(plus, WeightVector((2, 1))) == 6
    # k = 1 collapses to gcd(m1, d1)
    single = ArrangementSpec(3, [ComponentData(3, 3, [("x%d" % i, 3) for i in range(3)], T1)])
    assert cover_order(single, WeightVector((1,))) == 3


def test_reduce_weights_fixed_point_and_zero():
    s4 = tangent_triangle_spec(T1, T1.scale(2), T1)
    b, kappa = reduce_weights(s4, WeightVector((1, 2, 1)))
    assert b == (1, 2, 1) and kappa == 1
    # n_(1,1,1) = 1, so every entry reduces to zero and the class vanishes
    with pytest.raises(ZeroVector):
        reduce_weights(s4, WeightVector((1, 1, 1)))


def _random_abstract_spec(rng):
    k = rng.randint(1, 4)
    modulus = rng.choice([4, 6, 9, 12])
    comps = []
    for i in range(k):
        m = rng.choice([d for d in (1, 2, 3, 4, 6) if modulus % d == 0])
        d = rng.randint(1, 4)
        if (3 * d) % m:
            m = 1
        count = 3 * d // m
        cls = TorsionClass(
            modulus, (rng.randrange(modulus), rng.randrange(modulus))
        ).scale(modulus // m)
        comps.append(
            ComponentData(d, m, [("c%d_%d" % (i, j), m) for j in range(count)], cls)
        )
    return ArrangementSpec(3, comps)


def _random_weights(rng, k, box=12):
    while True:
        cand = [rng.randrange(box) for _ in range(k)]
        g = 0
        for x in cand:
            g = gcd(g, x)
        if g == 1:
            return WeightVector(cand)


def test_reduce_weights_identity_on_random_specs():
    rng = random.Random(20260810)
    verified = 0
    while verified < 100:
        spec = _random_abstract_spec(rng)
        a = _random_weights(rng, spec.k)
        try:
            b, kappa = reduce_weights(spec, a)
        except ZeroVector:
            continue
        na, nb = cover_order(spec, a), cover_order(spec, b)
        assert nb % na == 0
        mod = spec.lattice_modulus()
        ta = TorsionClass(mod, (0, 0))
        tb = TorsionClass(mod, (0, 0))
        for x, comp in zip(a, spec.components):
            ta = ta + comp.cls.rescaled(mod).scale(x * comp.m // na)
        for x, comp in zip(b, spec.components):
            tb = tb + comp.cls.rescaled(mod).scale(x * comp.m // nb)
        assert ta == tb.scale(kappa * nb // na)
        verified += 1


def test_search_box_is_lcm_of_multiplicities():
    s4 = tangent_triangle_spec(T1, T1.scale(2), T1)
    assert s4.weight_box() == 3
    assert all(max(v) < 3 for v in weight_vectors(3, 3))


def test_weight_vectors_match_their_definition():
    for k in range(5):
        for box in range(1, 7):
            want = []
            for entries in product(range(box), repeat=k):
                try:
                    want.append(WeightVector(entries))
                except ValueError:
                    pass
            want.sort(key=lambda v: (sum(v), v))
            got = weight_vectors(k, box)
            # the result is cached and shared, so it must not be mutable
            assert isinstance(got, tuple)
            assert list(got) == want
            assert all(type(v) is WeightVector for v in got)


# -- orders and splitting numbers ----------------------------------------------------

def test_torsion_order_paper_values():
    s4 = tangent_triangle_spec(T1, T1.scale(2), T1)
    s5 = tangent_triangle_spec(T1, T2, T1)
    assert torsion_order(s4, WeightVector((1, 2, 1))) == 1
    assert torsion_order(s4, WeightVector((2, 1, 1))) == 3
    assert torsion_order(s5, WeightVector((1, 2, 1))) == 3
    assert torsion_order(s5, WeightVector((2, 1, 1))) == 3


def test_torsion_order_of_zero_class():
    spec = triangle_spec(T1, T1.scale(2))
    assert torsion_order(spec, WeightVector((1, 1))) == 1


def test_splitting_number_times_order_is_cover_order():
    rng = random.Random(77)
    done = 0
    while done < 500:
        spec = _random_abstract_spec(rng)
        a = _random_weights(rng, spec.k)
        na = cover_order(spec, a)
        o = torsion_order(spec, a)
        s = splitting_number(spec, a)
        assert s * o == na
        assert na % o == 0
        done += 1


def test_order_divides_cover_order_and_box_bound():
    rng = random.Random(13)
    lcm = lambda a, b: a * b // gcd(a, b)
    for _ in range(200):
        spec = _random_abstract_spec(rng)
        a = _random_weights(rng, spec.k)
        na = cover_order(spec, a)
        box = spec.weight_box()
        assert box % na == 0  # n_a divides lcm(m_1..m_k)
        assert na % torsion_order(spec, a) == 0


#: Component moduli for the differential test: the divisors of 36.
DIVISORS_36 = (1, 2, 3, 4, 6, 9, 12, 18, 36)


def _hypothesis_spec_and_weights():
    """A hypothesis strategy for (abstract spec, weights).

    Each component has its own modulus N_j | 36, a degree d in 1..4 and an
    m dividing both N_j and 3d, with a class killed by m.  Weights may be
    negative or outside the search box, and need not have gcd one.
    """
    st = pytest.importorskip("hypothesis").strategies

    @st.composite
    def draw(draw):
        comps = []
        for j in range(draw(st.integers(1, 4))):
            modulus = draw(st.sampled_from(DIVISORS_36))
            d = draw(st.integers(1, 4))
            m = draw(st.sampled_from([x for x in DIVISORS_36 if modulus % x == 0 and 3 * d % x == 0]))
            xy = (draw(st.integers(0, modulus - 1)), draw(st.integers(0, modulus - 1)))
            cls = TorsionClass(modulus, xy).scale(modulus // m)
            divisor = [("c%d_%d" % (j, i), m) for i in range(3 * d // m)]
            comps.append(ComponentData(d, m, divisor, cls))
        k = len(comps)
        weights = tuple(draw(st.lists(st.integers(-40, 40), min_size=k, max_size=k)))
        return ArrangementSpec(3, comps), weights

    return draw()


def test_invariants_match_their_definition():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @hyp.given(_hypothesis_spec_and_weights())
    def check(case):
        spec, weights = case
        hyp.assume(any(weights))
        na, order, split = weighted_invariants(spec, weights)
        assert cover_order(spec, weights) == na
        assert torsion_order(spec, weights) == order
        assert splitting_number(spec, weights) == split
        for wrong in (weights + (1,), weights[1:]):
            for fn in (cover_order, torsion_order, splitting_number):
                with pytest.raises(ValueError, match="weight length mismatch"):
                    fn(spec, wrong)

    check()


# -- uniform group ----------------------------------------------------------------------

def test_uniform_groups_of_triangle_arrangements():
    g1 = uniform_group(triangle_spec(T1, T1))
    g2 = uniform_group(triangle_spec(T1, T1.scale(2)))
    g3 = uniform_group(triangle_spec(T1, T2))
    assert g1.type_string() == "Z/3" and g1.is_cyclic()
    assert g2.type_string() == "Z/3"
    assert g3.type_string() == "Z/3 x Z/3" and not g3.is_cyclic()
    assert g1.image((1, 1)).coords == (6, 0)  # the double of the seed class
    assert g2.image((1, 1)).is_zero()
    assert not g1.kernel_contains((1, 1))
    assert g2.kernel_contains((1, 1))


def test_uniform_group_trivial_when_gcd_is_one():
    # inflectional tangents have degree one, so the uniform gcd collapses to 1
    s4 = tangent_triangle_spec(T1, T1.scale(2), T1)
    g = uniform_group(s4)
    assert g.type_string() == "trivial"
    assert g.kernel_contains((1, 0, 0)) and g.kernel_contains((0, 1, 2))


def test_group_order_by_brute_force_span():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.choice([3, 6, 9, 12])
        vecs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 3))]
        ours = lattice_span([TorsionClass(n, v) for v in vecs], n)
        brute = lattice_subgroup(vecs, n)
        assert ours == brute


# -- triangles ----------------------------------------------------------------------------

def test_triangle_from_order_nine_class():
    seed = TorsionClass(9, (1, 0))
    tri = triangle_from(seed)
    assert tri.associated == seed.scale(3)
    assert {v.coords for v in tri.vertices} == {(1, 0), (7, 0), (4, 0)}
    # cycle invariance
    tri2 = triangle_from(seed.scale(-2))
    assert {v.coords for v in tri2.vertices} == {v.coords for v in tri.vertices}
    # all three vertices share the associated class
    for v in tri.vertices:
        assert v.scale(3) == tri.associated


def test_triangle_rejects_wrong_order():
    with pytest.raises(WrongOrder):
        triangle_from(TorsionClass(9, (3, 0)))


def test_enumerate_triangles_counts():
    order9 = sum(
        1 for a in range(9) for b in range(9) if TorsionClass(9, (a, b)).order() == 9
    )
    assert order9 == 72
    triangles, by_class = enumerate_triangles()
    assert len(triangles) == 24
    assert len(by_class) == 8
    assert all(len(v) == 3 for v in by_class.values())


def test_triangle_pair_classification_matches_pairing():
    triangles, _ = enumerate_triangles()
    for t1 in triangles[:6]:
        for t2 in triangles:
            kind = classify_triangle_pair(t1, t2)
            unit = (
                gcd(weil_exponent(t1.vertices[0], t2.vertices[0]), 9) == 1
            )
            if kind == "independent":
                assert unit
            else:
                assert not unit


# -- bi-gon parameter table ---------------------------------------------------------------

def test_bigon_parameter_tables():
    assert [bigon_parameters(2, r)["sum_order"] for r in (4, 8, 12, 24)] == [1, 2, 3, 6]
    assert [bigon_parameters(3, r)["sum_order"] for r in (7, 21, 63)] == [1, 3, 9]
    assert not bigon_parameters(2, 6)["valid"]
    for d in (2, 3):
        for r in range(1, 3 * d + 1):
            if (3 * d) % r == 0:
                assert not bigon_parameters(d, r)["valid"]


def test_bigon_residual_order_preserved():
    for d, r in ((2, 8), (2, 24), (3, 21)):
        got = bigon_parameters(d, r)
        assert got["valid"] and got["residual_order"] == r


# -- distinguishing certificates -------------------------------------------------------------

SWAP2 = [(0, 1), (1, 0)]
SWAP12 = [(0, 1, 2), (1, 0, 2)]


def test_distinguish_group_witness():
    cert = distinguish(triangle_spec(T1, T1), triangle_spec(T1, T2), SWAP2)
    assert cert.verdict == "distinguished"
    assert cert.mode == "group-witness"
    assert cert.witnesses["kind"] == "isomorphism"


def test_distinguish_kernel_witness():
    cert = distinguish(triangle_spec(T1, T1), triangle_spec(T1, T1.scale(2)), SWAP2)
    assert cert.verdict == "distinguished"
    assert cert.mode == "group-witness"
    assert cert.witnesses["kind"] == "kernel"


def test_distinguish_multiset_witness():
    s4 = tangent_triangle_spec(T1, T1.scale(2), T1)
    s5 = tangent_triangle_spec(T1, T2, T1)
    cert = distinguish(s4, s5, SWAP12)
    assert cert.verdict == "distinguished"
    assert cert.mode == "multiset-witness"
    assert sorted(cert.witnesses["multiset1"]) == [1, 3]
    assert sorted(cert.witnesses["multiset2"]) == [3, 3]


def test_distinguish_self_is_inconclusive():
    s4 = tangent_triangle_spec(T1, T1.scale(2), T1)
    cert = distinguish(s4, s4, SWAP12)
    assert cert.verdict == "inconclusive"


def test_distinguish_requires_admissible_set():
    s4 = tangent_triangle_spec(T1, T1.scale(2), T1)
    with pytest.raises(EmptyAdmissibleSet):
        distinguish(s4, s4, [])


@pytest.mark.parametrize("entry", [[0, 0], [0, 1, 2]], ids=["repeated", "too-long"])
def test_distinguish_refuses_an_entry_that_is_no_permutation(entry):
    # two components: [0, 0] used to come back inconclusive, and [0, 1, 2]
    # ended in an IndexError inside the order-witness search
    spec = triangle_spec(T1, T1)
    with pytest.raises(ValueError, match="is not a permutation of range\\(2\\)"):
        distinguish(spec, spec, [(0, 1), entry])


def test_self_admissible_respects_signatures():
    s4 = tangent_triangle_spec(T1, T1.scale(2), T1)
    assert set(self_admissible(s4)) == {(0, 1, 2), (1, 0, 2)}


def test_multiset_witness_survives_brute_reverification():
    # the verification pass inside distinguish recomputes orders by brute
    # iteration; a passing run implies agreement, checked here explicitly
    s4 = tangent_triangle_spec(T1, T1.scale(2), T1)
    cert = distinguish(s4, tangent_triangle_spec(T1, T2, T1), SWAP12)
    a0 = WeightVector(cert.witnesses["base_weights"])
    mod = s4.lattice_modulus()
    na = cover_order(s4, a0)
    acc = (0, 0)
    for x, comp in zip(a0, s4.components):
        c = comp.cls.rescaled(mod).scale(x * comp.m // na)
        acc = ((acc[0] + c.coords[0]) % mod, (acc[1] + c.coords[1]) % mod)
    assert brute_order(acc, mod) == torsion_order(s4, a0) or acc == (0, 0)


def test_multiset_recheck_takes_n_a_from_the_components():
    # mutant: the compiled degree of component 0 goes from 1 to 2, which
    # shifts n_a in the order tables; a re-check that read n_a from the same
    # rows agreed with the witness found from them and returned it
    s4 = tangent_triangle_spec(T1, T1.scale(2), T1)
    m, d, fx, fy = s4._rows[0]
    s4._rows = ((m, d + 1, fx, fy),) + s4._rows[1:]
    with pytest.raises(BackendDisagreement, match="re-verification"):
        distinguish(s4, tangent_triangle_spec(T1, T2, T1), SWAP12)


def test_distinguish_order_witness():
    # spec2 trades the two tangent lines of spec1, which share a signature:
    # the swap is in both self sets, so every order multiset agrees, and the
    # uniform gcd is 1; only the identity is admissible, and a = (1, 2, 2)
    # gives the class 7 T1 in spec1 but 6 T1 = 0 in spec2
    s4 = tangent_triangle_spec(T1, T1.scale(2), T1)
    swapped = tangent_triangle_spec(T1.scale(2), T1, T1)
    cert = distinguish(s4, swapped, [(0, 1, 2)])
    assert cert.verdict == "distinguished"
    assert cert.mode == "order-witness"
    witness = cert.witnesses["per_permutation"]["(0, 1, 2)"]
    assert list(witness) == ["weights", "order1", "order2"]
    a = WeightVector(witness["weights"])
    assert witness["order1"] == torsion_order(s4, a) != torsion_order(swapped, a)
    assert witness["order2"] == torsion_order(swapped, a)


def test_order_witness_recheck_reads_the_components():
    # mutant: spec1's compiled rows of the two tangent lines are exchanged.
    # Its order table is then spec2's with the lines swapped, so the order
    # multisets still agree and the search ends in an order witness taken
    # from the corrupted table; the re-check from the components refuses it
    s4 = tangent_triangle_spec(T1, T1.scale(2), T1)
    s4._rows = (s4._rows[1], s4._rows[0], s4._rows[2])
    with pytest.raises(BackendDisagreement, match="order witness"):
        distinguish(s4, tangent_triangle_spec(T1, T1.scale(2), T1), [(0, 1, 2)])


def test_kernel_witness_recheck_reads_the_classes(monkeypatch):
    # mutant: kernel_contains answers the opposite, which moves no witness
    # vector but flips both values; the re-check recomputes them from comp.cls
    real = GroupDescriptor.kernel_contains
    monkeypatch.setattr(
        GroupDescriptor, "kernel_contains", lambda self, weights: not real(self, weights)
    )
    with pytest.raises(BackendDisagreement, match="kernel witness"):
        distinguish(triangle_spec(T1, T1), triangle_spec(T1, T1.scale(2)), SWAP2)


def _first_multiset_witness(spec1, spec2, admissible):
    """The multiset search by its definition, through WeightVector.permuted."""
    s1, s2 = self_admissible(spec1), self_admissible(spec2)
    box = max(spec1.weight_box(), spec2.weight_box())
    for a0 in weight_vectors(spec1.k, box):
        m1 = sorted(torsion_order(spec1, a0.permuted(r)) for r in s1)
        for rho in admissible:
            m2 = sorted(torsion_order(spec2, a0.permuted(rho).permuted(r)) for r in s2)
            if m1 != m2:
                return list(a0), list(rho), m1, m2
    return None


def test_multiset_search_matches_its_definition():
    # tangents and triangles in random positions: a self set that is not
    # normal in S_k makes the order in which the permutations act matter.
    # distinguish sorts m2 once per set of index tuples, the coset s2 rho,
    # so some admissible lists hold r rho beside rho for an r in s2 (the
    # set repeats) and some repeat an entry outright
    rng = random.Random(5)
    for k, rounds in ((3, 60), (4, 30)):
        found = shared = 0
        perms = list(permutations(range(k)))
        for _ in range(rounds):
            specs = []
            for _ in range(2):
                comps = []
                for j in range(k):
                    cls = TorsionClass(9, (3 * rng.randrange(3), 3 * rng.randrange(3)))
                    d = rng.choice((1, 3))
                    divisor = [("p%d_%d" % (j, i), 3) for i in range(d)]
                    comps.append(ComponentData(d, 3, divisor, cls))
                specs.append(ArrangementSpec(3, comps))
            rho, other = rng.sample(perms, 2)
            r = rng.choice(self_admissible(specs[1]))
            twin = tuple(r[i] for i in rho)
            shared += twin != rho
            admissible = rng.choice(
                (rng.sample(perms, 2), [rho, other, twin], [other, twin, rho], [rho, rho, other])
            )
            cert = distinguish(specs[0], specs[1], admissible)
            want = _first_multiset_witness(specs[0], specs[1], admissible)
            if cert.mode == "multiset-witness":
                w = cert.witnesses
                got = (w["base_weights"], w["pair_permutation"], w["multiset1"], w["multiset2"])
                assert got == want
                found += 1
            elif cert.mode != "group-witness":
                assert want is None
        assert found and shared, k


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workload_shapes():
    """``SPEC_SHAPES`` of the abstract-specs benchmark, read from its source."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "SPEC_SHAPES":
            return ast.literal_eval(node.value)
    raise LookupError("SPEC_SHAPES not found")


def _seeded_spec(rng, shape):
    """A spec of the given (degree, m) shape with random classes, as the
    abstract-specs benchmark draws them."""
    lcm_m = lcm(*(m for _, m in shape))
    mod = rng.choice([n for n in (4, 6, 9, 12) if n % lcm_m == 0])
    comps = []
    for j, (d, m) in enumerate(shape):
        cls = TorsionClass(mod, (rng.randrange(mod), rng.randrange(mod))).scale(mod // m)
        comps.append(ComponentData(d, m, [("c%d_%d" % (j, i), m) for i in range(3 * d // m)], cls))
    return ArrangementSpec(3, comps)


def test_box_table_matches_the_per_vector_orders():
    rng = random.Random(11)
    for shape in _workload_shapes():
        for _ in range(3):
            spec = _seeded_spec(rng, shape)
            for box in (spec.weight_box(), spec.weight_box() + 1):
                table = _order_table(spec, box)
                zero = (0,) * spec.k
                assert set(table) == set(product(range(box), repeat=spec.k)) - {zero}
                assert set(weight_vectors(spec.k, box)) <= set(table)
                for v, order in table.items():
                    assert order == _torsion_order(spec, v)[1], (shape, v)


def test_inconclusive_distinguish_takes_no_per_vector_route(monkeypatch):
    # guard: the order tables come from one pass per spec, so an
    # inconclusive search over abstract specs never reads one vector alone
    def refuse(*args):
        raise AssertionError("per-vector order route taken")

    rng = random.Random(2)
    pairs = [(tangent_triangle_spec(T1, T1.scale(2), T1),) * 2]
    for shape in _workload_shapes():
        spec = _seeded_spec(rng, shape)
        pairs.append((spec, spec))
    monkeypatch.setattr(torsion, "_orders", refuse)
    monkeypatch.setattr(torsion, "_torsion_order", refuse)
    for spec1, spec2 in pairs:
        assert distinguish(spec1, spec2, self_admissible(spec1)).verdict == "inconclusive"


def test_spec_serialization_round_trip(tmp_path):
    s4 = tangent_triangle_spec(T1, T1.scale(2), T1)
    data = s4.to_data()
    back = ArrangementSpec.from_data(data)
    assert back.k == 3
    assert [c.m for c in back.components] == [3, 3, 3]
    assert torsion_order(back, WeightVector((1, 2, 1))) == 1
