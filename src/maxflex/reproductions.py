"""One-shot reproductions of the distinguished-arrangement computations.

Each reproduction builds its arrangements (abstractly, plus geometrically
where the catalog supports it), runs the fingerprint/admissibility gates and
the distinguishing search, and compares every computed value against the
stated outcome.  Reports are plain text with a machine-readable JSON block;
a run is deterministic and exits nonzero on any mismatch.
"""

from __future__ import annotations

import json

from .catalog import (
    bigon_conics,
    bigon_points,
    bigon_spec,
    catalog_entry,
    cyclic_flex_origins,
    cyclic_triangle_chain,
    fermat_t1,
    fermat_witness,
    fermat_witness_spec,
)
from .combinatorics import admissible_permutations, fingerprint, verify_bigon
from .errors import SpecError, UnknownReproduction
from .fields import DEFAULT_DEGREE_CAP, QQ, UniPoly
from .geometry import (
    EllipticStructure,
    PlaneCurve,
    ProjPoint,
    ec_add,
    flex_points,
    point_order,
    tangents_through,
)
from .torsion import (
    ArrangementSpec,
    ComponentData,
    TorsionClass,
    WeightVector,
    bigon_parameters,
    cover_order,
    distinguish,
    splitting_number,
    torsion_order,
    uniform_group,
)

#: Tower degree cap of the extended runs, whose r = 8 and 24 bi-gons need
#: quartic halving extensions.
EXTENDED_DEGREE_CAP = 128


class Report:
    """Pass/fail ledger of one reproduction run."""

    def __init__(self, name):
        self.name = name
        self.checks = []
        self.certificates = []

    def check(self, label, expected, got):
        passed = expected == got
        self.checks.append(
            {"label": label, "expected": expected, "got": got, "passed": passed}
        )
        return passed

    def certificate(self, label, cert):
        self.certificates.append((label, cert))
        self.checks.append(
            {
                "label": label,
                "expected": "distinguished",
                "got": cert.verdict,
                "passed": cert.verdict == "distinguished",
            }
        )

    @property
    def ok(self):
        return all(c["passed"] for c in self.checks)

    def render(self):
        lines = ["== reproduction %s ==" % self.name]
        for c in self.checks:
            lines.append(
                "%s: expected %s, got %s: %s"
                % (
                    c["label"],
                    c["expected"],
                    c["got"],
                    "PASS" if c["passed"] else "FAIL",
                )
            )
        for label, cert in self.certificates:
            lines.append("-- certificate %s --" % label)
            lines.append(cert.render())
        lines.append("-- machine --")
        lines.append(json.dumps(self.to_data(), sort_keys=True, default=str))
        lines.append("result: %s" % ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)

    def to_data(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "checks": self.checks,
            "certificates": [
                {"label": label, **cert.to_data()} for label, cert in self.certificates
            ],
        }


# ---------------------------------------------------------------------------
# abstract triangle/tangent specs shared by the first two reproductions
# ---------------------------------------------------------------------------

def _triangle_component(label, cls):
    return ComponentData(3, 3, [("%s%d" % (label, i), 3) for i in range(3)], cls)


def _tangent_component(label, cls):
    return ComponentData(1, 3, [(label, 3)], cls)


def abstract_triangle_specs():
    """The three two-triangle arrangements over the mod-9 lattice."""
    t1 = TorsionClass(9, (3, 0))
    t2 = TorsionClass(9, (0, 3))
    spec1 = ArrangementSpec(
        3, [_triangle_component("a", t1), _triangle_component("b", t1)]
    )
    spec2 = ArrangementSpec(
        3, [_triangle_component("a", t1), _triangle_component("b", t1.scale(2))]
    )
    spec3 = ArrangementSpec(
        3, [_triangle_component("a", t1), _triangle_component("b", t2)]
    )
    return spec1, spec2, spec3


def abstract_tangent_triangle_specs():
    """The two tangent/tangent/triangle arrangements over the mod-9 lattice."""
    t1 = TorsionClass(9, (3, 0))
    t2 = TorsionClass(9, (0, 3))
    spec4 = ArrangementSpec(
        3,
        [
            _tangent_component("p", t1),
            _tangent_component("q", t1.scale(2)),
            _triangle_component("r", t1),
        ],
    )
    spec5 = ArrangementSpec(
        3,
        [
            _tangent_component("p", t1),
            _tangent_component("q", t2),
            _triangle_component("r", t1),
        ],
    )
    return spec4, spec5


# ---------------------------------------------------------------------------
# the reproductions
# ---------------------------------------------------------------------------

def _budget(tower_budget, default):
    """The tower degree cap to build with: ``default`` for None, else at least 1."""
    if tower_budget is None:
        return default
    if tower_budget < 1:
        raise SpecError("tower budget must be at least 1, got %r" % (tower_budget,))
    return tower_budget


def repro_thm_main1():
    rep = Report("thm-main1")
    s1, s2, s3 = abstract_triangle_specs()
    g1, g2, g3 = uniform_group(s1), uniform_group(s2), uniform_group(s3)
    rep.check("group-type-1", "Z/3", g1.type_string())
    rep.check("group-type-2", "Z/3", g2.type_string())
    rep.check("group-type-3", "Z/3 x Z/3", g3.type_string())
    rep.check("uniform-image-1-at-(1,1)", (6, 0), g1.image((1, 1)).coords)
    rep.check("uniform-image-2-at-(1,1)", (0, 0), g2.image((1, 1)).coords)
    swap = [(0, 1), (1, 0)]
    c12 = distinguish(s1, s2, swap)
    c13 = distinguish(s1, s3, swap)
    c23 = distinguish(s2, s3, swap)
    rep.certificate("pair-1-2", c12)
    rep.certificate("pair-1-3", c13)
    rep.certificate("pair-2-3", c23)
    rep.check("pair-1-2-mode", "group-witness", c12.mode)
    rep.check("pair-1-2-kind", "kernel", c12.witnesses.get("kind"))
    rep.check("pair-1-3-kind", "isomorphism", c13.witnesses.get("kind"))
    return rep


def repro_thm_main2():
    rep = Report("thm-main2")
    s4, s5 = abstract_tangent_triangle_specs()
    w121 = WeightVector((1, 2, 1))
    w211 = WeightVector((2, 1, 1))
    rep.check("n-(1,2,1)", 3, cover_order(s4, w121))
    rep.check("n-(2,1,1)", 3, cover_order(s4, w211))
    rep.check("orders-spec4", (1, 3), (torsion_order(s4, w121), torsion_order(s4, w211)))
    rep.check("orders-spec5", (3, 3), (torsion_order(s5, w121), torsion_order(s5, w211)))
    rep.check(
        "splitting-numbers-spec4",
        (3, 1),
        (splitting_number(s4, w121), splitting_number(s4, w211)),
    )
    cert = distinguish(s4, s5, [(0, 1, 2), (1, 0, 2)])
    rep.certificate("pair-4-5", cert)
    rep.check("mode", "multiset-witness", cert.mode)
    rep.check("multiset-1", [1, 3], cert.witnesses.get("multiset1"))
    rep.check("multiset-2", [3, 3], cert.witnesses.get("multiset2"))
    return rep


def repro_clubsuit_tables():
    rep = Report("clubsuit-tables")
    expected_d2 = {4: 1, 8: 2, 12: 3, 24: 6}
    for r, want in sorted(expected_d2.items()):
        got = bigon_parameters(2, r)
        rep.check("d2-r%d" % r, {"valid": True, "sum": want},
                  {"valid": got["valid"], "sum": got.get("sum_order")})
    expected_d3 = {7: 1, 21: 3, 63: 9}
    for r, want in sorted(expected_d3.items()):
        got = bigon_parameters(3, r)
        rep.check("d3-r%d" % r, {"valid": True, "sum": want},
                  {"valid": got["valid"], "sum": got.get("sum_order")})
    for d in (2, 3):
        divisors = [r for r in range(1, 3 * d + 1) if (3 * d) % r == 0]
        rejected = all(not bigon_parameters(d, r)["valid"] for r in divisors)
        rep.check("d%d-rejects-divisors-of-3d" % d, True, rejected)
    return rep


def repro_fermat_existence(budget):
    rep = Report("fermat-existence")
    # nine flexes over Q, grouped by which coordinate vanishes
    cubic_q = catalog_entry("fermat").build(budget)
    # build a rational-coefficient copy for the flex scan
    base = QQ.with_cap(budget)
    fq = PlaneCurve(base, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    flexes = flex_points(fq, base)
    rep.check("flex-count", 9, sum(rec.orbit for rec in flexes))
    families = {0: 0, 1: 0, 2: 0}
    for rec in flexes:
        zero_axes = [i for i in range(3) if rec.point.coords[i].is_zero()]
        if len(zero_axes) == 1:
            families[zero_axes[0]] += rec.orbit
    rep.check("flex-families", {0: 3, 1: 3, 2: 3}, families)
    rational = {
        tuple(str(c.as_rational()) for c in rec.point.coords)
        for rec in flexes
        if rec.tower.height == 0
    }
    stated = set()
    for coords in ([1, -1, 0], [1, 0, -1], [0, 1, -1]):
        stated.add(tuple(str(c.as_rational()) for c in ProjPoint(base, coords).coords))
    rep.check("rational-flexes", stated, rational)

    data = cubic_q
    e = data["structure"]
    tower = data["tower"]
    w = data["w"]
    t1 = fermat_t1(data)
    dbl = ec_add(e, t1, t1)
    expect = ProjPoint(tower, [tower.one(), -(w * w), tower.zero()])
    rep.check("double-of-T1", True, dbl == expect)

    corner = ProjPoint(tower, [tower.zero(), tower.zero(), tower.one()])
    tangents = tangents_through(e.cubic, corner, tower)
    orbits = [line.tower.absolute_degree // tower.absolute_degree for line in tangents]
    rep.check("tangents-through-corner-count", 3, sum(orbits))
    # the set of tangents is {x + c y : c^3 = 1}.  Each packet's line has that
    # shape at its generic root, hence at every conjugate, and the minimal
    # polynomials of the c values multiply to c^3 - 1 (which is the statement
    # that the lines multiply to x^3 + y^3)
    shapes = []
    prod = UniPoly(tower, (1,))
    for line, orbit in zip(tangents, orbits):
        cx = line.coefficient((1, 0, 0))
        cy = line.coefficient((0, 1, 0))
        cz = line.coefficient((0, 0, 1))
        shapes += [
            (cx - line.tower.one()).is_zero()
            and cz.is_zero()
            and (cy * cy * cy - line.tower.one()).is_zero()
        ] * orbit
        prod = prod * cy.minimal_polynomial(tower.height)
    rep.check("tangent-shape-x-plus-cy", [True] * 3, shapes)
    if tangents:
        rep.check("tangent-product-x3-plus-y3", True, prod == UniPoly(tower, (-1, 0, 0, 1)))

    witness = fermat_witness(budget)
    rep.check("witness-gate-no-three-concurrent", True, not witness["concurrent_triples"])
    spec = fermat_witness_spec(witness)
    rep.check(
        "witness-orders",
        (1, 3),
        (
            torsion_order(spec, WeightVector((1, 2, 1))),
            torsion_order(spec, WeightVector((2, 1, 1))),
        ),
    )
    return rep


def repro_appendix_triangle(budget):
    rep = Report("appendix-triangle")
    data = catalog_entry("cyclic").build(budget)
    chain = cyclic_triangle_chain(data)
    rep.check("residual-chain-closes", True, chain["closes"])
    union = chain["union"]
    xyz_only = set(union.form) == {(1, 1, 1)}
    rep.check("line-union-is-xyz", True, xyz_only)
    origins = cyclic_flex_origins(data)
    rep.check("computable-flex-origins", True, len(origins) >= 1)
    orders = []
    for origin, tw in origins:
        cubic = data["cubic"].embedded(tw)
        e = EllipticStructure(cubic, origin)
        for coords in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
            p = ProjPoint(tw, coords)
            orders.append(point_order(e, p, 9))
    rep.check("coordinate-point-orders", {9}, set(orders))
    return rep


def _bigon_package(entry_data, r):
    """The bi-gon at radius r: its one fingerprint, its clauses and its specs."""
    _tw, e, p, q = bigon_points(entry_data, r)
    c1, c2 = bigon_conics(e, p, q)
    fp = fingerprint([e.cubic, e.origin_tangent, c1, c2])
    clauses = verify_bigon(fp, p, q)
    spec_line = bigon_spec(e, p, q, r, with_line=True)
    spec_bare = bigon_spec(e, p, q, r, with_line=False)
    return {
        "structure": e,
        "P": p,
        "fingerprint": fp,
        "clauses": clauses,
        "spec_line": spec_line,
        "spec_bare": spec_bare,
    }


def repro_clubsuit_d2(budget, extended=False):
    rep = Report("clubsuit-d2")
    entry_data = catalog_entry("90c3").build(budget)
    for r in (4, 12):
        pts = entry_data["rational_torsion"][r]
        rep.check("rational-order-%d-found" % r, True, bool(pts))
    radii = (4, 8, 12, 24) if extended else (4, 12)
    packages = {}
    for r in radii:
        pkg = _bigon_package(entry_data, r)
        packages[r] = pkg
        rep.check("clauses-r%d" % r, True, pkg["clauses"]["all"])
        e = pkg["structure"]
        rep.check(
            "order-P-r%d" % r, r, point_order(e, pkg["P"], r)
        )
        got = torsion_order(pkg["spec_line"], WeightVector((2, 1)))
        rep.check("line-augmented-order-r%d" % r, bigon_parameters(2, r)["sum_order"], got)
    # fingerprints and admissibility for the rational pair
    pairs = [(4, 12)] if not extended else [
        (a, b) for i, a in enumerate(radii) for b in radii[i + 1 :]
    ]
    for a, b in pairs:
        fa, fb = packages[a]["fingerprint"], packages[b]["fingerprint"]
        rep.check("fingerprints-equal-r%d-r%d" % (a, b), True, fa == fb)
        adm = admissible_permutations(fa, fb, [[1], [2, 3]])
        rep.check("admissible-r%d-r%d" % (a, b), {(0, 1)}, adm)
        cert = distinguish(packages[a]["spec_line"], packages[b]["spec_line"], [(0, 1)])
        rep.certificate("pair-r%d-r%d" % (a, b), cert)
    bare = {
        r: torsion_order(packages[r]["spec_bare"], WeightVector((1,)))
        for r in radii
    }
    expected_bare = {4: 1, 8: 2, 12: 1, 24: 2}
    rep.check(
        "bare-bigon-orders",
        {r: expected_bare[r] for r in radii},
        bare,
    )
    if extended:
        orders = tuple(
            torsion_order(packages[r]["spec_line"], WeightVector((2, 1)))
            for r in radii
        )
        rep.check("four-tuple-orders", (1, 2, 3, 6), orders)
    return rep


_RUNNERS = {
    "thm-main1": repro_thm_main1,
    "thm-main2": repro_thm_main2,
    "fermat-existence": repro_fermat_existence,
    "clubsuit-d2": repro_clubsuit_d2,
    "clubsuit-tables": repro_clubsuit_tables,
    "appendix-triangle": repro_appendix_triangle,
}

REPRODUCTION_NAMES = tuple(_RUNNERS)


def run_reproduction(name, extended=False, tower_budget=None):
    """Build and check one named reproduction; returns its Report.

    None selects the default ``tower_budget``; every name refuses one below 1.
    """
    if name not in _RUNNERS:
        raise UnknownReproduction(
            "unknown reproduction %r (expected one of %s)"
            % (name, ", ".join(REPRODUCTION_NAMES))
        )
    if extended and name != "clubsuit-d2":
        raise SpecError("reproduction %r has no extended run (only clubsuit-d2 has)" % name)
    budget = _budget(tower_budget, EXTENDED_DEGREE_CAP if extended else DEFAULT_DEGREE_CAP)
    if name == "clubsuit-d2":
        return repro_clubsuit_d2(budget, extended)
    if name in ("fermat-existence", "appendix-triangle"):
        return _RUNNERS[name](budget)
    return _RUNNERS[name]()
