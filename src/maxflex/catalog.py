"""Curve catalog and arrangement construction recipes.

Three cubics carry all the concrete computations: the Fermat cubic, the
cyclically symmetric cubic x^2 y + y^2 z + z^2 x whose coordinate points
have order nine, and the rank-zero cubic 90c3 whose rational torsion is
Z/12.  The builder functions assemble the arrangements the reproductions
verify: the inflectional-tangent/triangle witness on the Fermat cubic and
the two-conic contact arrangements on 90c3.
"""

from __future__ import annotations

from .errors import UnknownReproduction, WrongOrder
from .fields import DEFAULT_DEGREE_CAP, QQ, UniPoly, extend_field
from .geometry import (
    EllipticStructure,
    PlaneCurve,
    ProjPoint,
    ec_add,
    ec_mul,
    flex_points,
    interpolate_curve_with_divisor,
    line_cubic_residual,
    tangent_line,
)
from .combinatorics import concurrent_line_triples
from .torsion import ArrangementSpec, ComponentData, TorsionClass, Triangle
from .weierstrass import divide_point, halve_point, rational_points_of_order, weierstrass_model


class CatalogEntry:
    """A named cubic and the builder of its curve data."""

    def __init__(self, name, builder):
        self.name = name
        self.builder = builder

    def build(self, degree_cap=DEFAULT_DEGREE_CAP):
        return self.builder(degree_cap)


def _build_fermat(degree_cap):
    base = QQ.with_cap(degree_cap)
    tower = extend_field(
        base, UniPoly.from_rationals(base, [1, 1, 1]), name="w", irreducible=True
    )
    w = tower.generator()
    cubic = PlaneCurve(tower, 3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    origin = ProjPoint(tower, [tower.one(), -tower.one(), tower.zero()])
    e = EllipticStructure(cubic, origin)
    return {"tower": tower, "structure": e, "w": w}


def _build_cyclic(degree_cap):
    tower = QQ.with_cap(degree_cap)
    cubic = PlaneCurve(tower, 3, {(2, 1, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1})
    return {"tower": tower, "cubic": cubic}


def _build_90c3(degree_cap):
    """LMFDB elliptic curve 90c3: rational torsion Z/12, 8- and 24-torsion in quartic extensions."""
    tower = QQ.with_cap(degree_cap)
    cubic = PlaneCurve(
        tower,
        3,
        {
            (0, 2, 1): 1,
            (0, 1, 2): 1,
            (1, 1, 1): 1,
            (3, 0, 0): -1,
            (2, 0, 1): 1,
            (1, 0, 2): 122,
            (0, 0, 3): -1721,
        },
    )
    origin = ProjPoint(tower, [0, 1, 0])
    e = EllipticStructure(cubic, origin)
    model = weierstrass_model(e)
    found = {}
    torsion = {r: rational_points_of_order(model, r, found) for r in (4, 12)}
    return {"tower": tower, "structure": e, "model": model, "rational_torsion": torsion}


CATALOG = {
    "fermat": CatalogEntry("fermat", _build_fermat),
    "cyclic": CatalogEntry("cyclic", _build_cyclic),
    "90c3": CatalogEntry("90c3", _build_90c3),
}


def catalog_entry(name):
    if name not in CATALOG:
        raise UnknownReproduction("no catalog curve named %r" % name)
    return CATALOG[name]


# ---------------------------------------------------------------------------
# Fermat witness: two inflectional tangents plus a triangle
# ---------------------------------------------------------------------------

def fermat_t1(data):
    """The point T1 = [1:-w:0] of the Fermat cubic over Q(w)."""
    tower = data["tower"]
    return ProjPoint(tower, [tower.one(), -data["w"], tower.zero()])


def fermat_triangle(data):
    """A triangle associated to T1, built by trisecting T1 on a model.

    Returns (tower, structure, Triangle) with everything embedded in the
    trisection tower; the associated class is verified to be exactly T1.
    """
    e = data["structure"]
    t1 = fermat_t1(data)
    model = weierstrass_model(e)
    found = divide_point(model, 3, model.point_from_source(t1), "v")
    if not found:
        raise WrongOrder("trisection produced no verified triangle seed")
    branch, seed = found[0]
    m = model.embedded(branch)
    verts = tuple(m.point_to_source(v) for v in (seed, m.mul(-2, seed), m.mul(4, seed)))
    eb = e.embedded(branch)
    lines = tuple(tangent_line(eb.cubic, v) for v in verts)
    assoc = ec_mul(eb, 3, verts[0])
    if assoc != t1.embedded(branch):
        raise WrongOrder("triangle class does not match its seed")
    return branch, eb, Triangle(verts, assoc, lines)


def fermat_offline_flexes(data):
    """The six Fermat flexes off the z = 0 line, with their tangents, over Q(w).

    Built from the known coordinate pattern, and each certified as the
    origin of an EllipticStructure: the cubic's smoothness is read off the
    curve, a point off the cubic raises LineNotIncident, and one whose
    tangent is not maximal raises WrongFlex.
    """
    tower = data["tower"]
    cubic = data["structure"].cubic
    w = data["w"]
    one, zero = tower.one(), tower.zero()
    out = []
    for alpha in (one, w, w * w):
        for coords in ([-one, zero, alpha], [zero, -one, alpha]):
            p = ProjPoint(tower, coords)
            out.append((p, EllipticStructure(cubic, p).origin_tangent))
    return out


def fermat_witness(degree_cap=DEFAULT_DEGREE_CAP):
    """The full witness arrangement: L_T1, L_2T1, a triangle, and a third
    inflectional tangent chosen so that no three of the six lines meet.

    ``concurrent_triples`` keeps the concurrent triples that the gate found
    among the chosen lines (none), so that a report reads the gate's answer
    rather than running the test again.
    """
    data = catalog_entry("fermat").build(degree_cap)
    cubic = data["structure"].cubic
    t1 = fermat_t1(data)
    t2x = ec_add(data["structure"], t1, t1)
    tower, e, tri = fermat_triangle(data)
    l_t1 = tangent_line(cubic, t1).embedded(tower)
    l_2t1 = tangent_line(cubic, t2x).embedded(tower)
    chosen = None
    for t2, line in fermat_offline_flexes(data):
        lines = [l_t1, l_2t1, line.embedded(tower)] + list(tri.lines)
        concurrent = list(concurrent_line_triples(lines))
        if not concurrent:
            chosen = (t2, line, lines, concurrent)
            break
    if chosen is None:
        raise WrongOrder("no concurrency-free third tangent found")
    t2, l_t2, lines, concurrent = chosen
    return {
        "tower": tower,
        "structure": e,
        "T1": t1.embedded(tower),
        "2T1": t2x.embedded(tower),
        "T2": t2.embedded(tower),
        "L_T1": l_t1,
        "L_2T1": l_2t1,
        "L_T2": l_t2.embedded(tower),
        "triangle": tri,
        "lines": lines,
        "concurrent_triples": concurrent,
    }


def fermat_witness_spec(witness, origin=None):
    """Geometric+abstract ArrangementSpec (C; L_T1, L_2T1, triangle).

    An alternate flex may be supplied as the group-law origin.  Its structure
    certifies itself like any other: the cubic's smoothness certificate is
    read from the witness cubic, and an origin whose tangent is not maximal
    raises WrongFlex.
    """
    e = witness["structure"]
    if origin is not None:
        e = EllipticStructure(e.cubic, origin)
    tri = witness["triangle"]
    t1 = TorsionClass(9, (3, 0))
    comps = [
        ComponentData(1, 3, [(witness["T1"], 3)], t1),
        ComponentData(1, 3, [(witness["2T1"], 3)], t1.scale(2)),
        ComponentData(3, 3, [(v, 3) for v in tri.vertices], t1),
    ]
    return ArrangementSpec(3, comps, structure=e)


# ---------------------------------------------------------------------------
# the cyclic cubic: coordinate-point triangle
# ---------------------------------------------------------------------------

def cyclic_triangle_chain(data):
    """The tangent/residual chain through the three coordinate points."""
    cubic = data["cubic"]
    tower = data["tower"]
    pts = [
        ProjPoint(tower, [1, 0, 0]),
        ProjPoint(tower, [0, 0, 1]),
        ProjPoint(tower, [0, 1, 0]),
    ]
    lines = []
    residuals = []
    for p in pts:
        line = tangent_line(cubic, p)
        lines.append(line)
        residuals.append(line_cubic_residual(cubic, line, p, p))
    closes = (
        residuals[0] == pts[1] and residuals[1] == pts[2] and residuals[2] == pts[0]
    )
    union = lines[0] * lines[1] * lines[2]
    return {
        "points": pts,
        "lines": lines,
        "residuals": residuals,
        "closes": closes,
        "union": union,
    }


def cyclic_flex_origins(data):
    """One flex origin per packet record of ``flex_points`` on the cyclic
    cubic, as (point, tower) pairs; the packets' orbits sum to nine.

    Each origin is a generic root of its whole packet, adjoined as Q[x]/(m)
    without factoring m.  By dynamic evaluation (Della Dora-Dicrescenzo-
    Duval, EUROCAL '85), a computation that finishes over Q[x]/(m) without
    meeting a zero divisor holds in every factor of m, so a check made at
    the representative covers every flex of its packet.
    """
    return [(rec.point, rec.tower) for rec in flex_points(data["cubic"], data["tower"])]


# ---------------------------------------------------------------------------
# 90c3 bi-gon arrangements
# ---------------------------------------------------------------------------

def bigon_points(entry_data, r):
    """A point of exact order r on 90c3 with its residual partner Q = <-5>P.

    Orders 4 and 12 are rational; orders 8 and 24 need halving extensions and
    return points over the halving tower.  Every order starts from the
    rational torsion the entry was built with.  Yields (tower, structure, P, Q).
    """
    e = entry_data["structure"]
    tower = entry_data["tower"]
    model = entry_data["model"]
    torsion = entry_data["rational_torsion"]
    if r in (4, 12):
        pt = torsion[r][0]
        P = model.point_to_source(pt)
        E = e
        tw = tower
    elif r in (8, 24):
        base = torsion[r // 2][0]
        options = halve_point(model, base)
        if not options:
            raise WrongOrder("halving produced no candidates")
        tw, pt = options[0]
        m2 = model.embedded(tw)
        if m2.order(pt, r) != r:
            raise WrongOrder("halving candidate has unexpected order")
        P = m2.point_to_source(pt)
        E = e.embedded(tw)
    else:
        raise WrongOrder("supported residual orders are 4, 8, 12, 24")
    Q = ec_mul(E, -5, P)
    return tw, E, P, Q


def bigon_conics(E, P, Q):
    """The two conics meeting the cubic only at P and Q with pattern (5,1)/(1,5)."""
    c1 = interpolate_curve_with_divisor(E, [(P, 5), (Q, 1)], 2)
    c2 = interpolate_curve_with_divisor(E, [(Q, 5), (P, 1)], 2)
    return c1, c2


def bigon_spec(E, P, Q, c1, c2, r, with_line=False):
    """ArrangementSpec for (C; C1+C2) or (C; L_O, C1+C2) with both backends.

    The abstract classes place P at (1, 0) in the mod-r lattice.
    """
    clsP = TorsionClass(r, (1, 0))
    clsQ = clsP.scale(-5)
    pair = c1 * c2
    pair = PlaneCurve(pair.tower, pair.degree, pair.form, components=(c1, c2))
    comps = []
    if with_line:
        comps.append(
            ComponentData(1, 3, [(E.origin, 3)], TorsionClass(r, (0, 0)))
        )
    comps.append(ComponentData(4, 6, [(P, 6), (Q, 6)], clsP + clsQ))
    return ArrangementSpec(3, comps, structure=E), pair
