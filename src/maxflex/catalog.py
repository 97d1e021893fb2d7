"""Curve catalog and arrangement construction recipes.

Three cubics carry all the concrete computations: the Fermat cubic, the
cyclically symmetric cubic x^2 y + y^2 z + z^2 x whose coordinate points
have order nine, and the rank-zero cubic 90c3 whose rational torsion is
Z/12.  The builder functions assemble the arrangements the reproductions
verify: the inflectional-tangent/triangle witness on the Fermat cubic and
the two-conic contact arrangements on 90c3.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UnknownReproduction, WrongOrder
from .fields import QQ, UniPoly, extend_field, with_splitting
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
from .weierstrass import (
    halve_point,
    rational_points_of_order,
    signed_preimage,
    trisection_polynomial,
    weierstrass_model,
)
from .polysolve import root_packets


class CatalogEntry:
    """A named cubic with a designated flex and its known torsion data."""

    def __init__(self, name, builder, torsion_note, provenance):
        self.name = name
        self.builder = builder
        self.torsion_note = torsion_note
        self.provenance = provenance

    def build(self, degree_cap=64):
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
    return {"tower": tower, "structure": e}


CATALOG = {
    "fermat": CatalogEntry(
        "fermat",
        _build_fermat,
        "nine rational-or-quadratic flexes; full 3-torsion over Q(w)",
        "the classical diagonal cubic",
    ),
    "cyclic": CatalogEntry(
        "cyclic",
        _build_cyclic,
        "coordinate points are 9-torsion for every flex origin",
        "cyclically symmetric cubic x^2 y + y^2 z + z^2 x",
    ),
    "90c3": CatalogEntry(
        "90c3",
        _build_90c3,
        "rational torsion Z/12; 8- and 24-torsion in quartic extensions",
        "LMFDB elliptic curve 90c3",
    ),
}


def catalog_entry(name):
    if name not in CATALOG:
        raise UnknownReproduction("no catalog curve named %r" % name)
    return CATALOG[name]


# ---------------------------------------------------------------------------
# Fermat witness: two inflectional tangents plus a triangle
# ---------------------------------------------------------------------------

def fermat_torsion_frame(data):
    """The flex origin, T1 = [1:-w:0], its double, and their tangents."""
    tower = data["tower"]
    e = data["structure"]
    w = data["w"]
    t1 = ProjPoint(tower, [tower.one(), -w, tower.zero()])
    t2x = ec_add(e, t1, t1)
    return {
        "T1": t1,
        "2T1": t2x,
        "L_T1": tangent_line(e.cubic, t1),
        "L_2T1": tangent_line(e.cubic, t2x),
    }


def fermat_triangle(data, name_hint="v"):
    """A triangle associated to T1, built by trisecting T1 on a model.

    Returns (tower, structure, Triangle) with everything embedded in the
    trisection tower; the associated class is verified to be exactly T1.
    """
    tower = data["tower"]
    e = data["structure"]
    w = data["w"]
    t1 = ProjPoint(tower, [tower.one(), -w, tower.zero()])
    model = weierstrass_model(e)
    mt = model.point_from_source(t1)
    tri_poly = trisection_polynomial(model, mt[0])
    packet = root_packets(tri_poly, tower, enumerate_conjugates=False, name_hint=name_hint)[0]
    ext = packet.tower
    x0 = packet.element
    a, disc = model.embedded(ext).y_discriminant(x0)
    ext2 = ext.extend(
        UniPoly(ext, (-disc, ext.zero(), ext.one())), name="%sy" % name_hint
    )
    y0 = (-(a.embedded(ext2)) + ext2.generator()) * Fraction(1, 2)

    def locate(tw):
        return signed_preimage(model, 3, (x0.embedded(ext2).migrated(tw), y0.migrated(tw)), mt)

    for branch, found in with_splitting(ext2, locate):
        if found is None:
            continue
        m = model.embedded(branch)
        verts_model = (found, m.mul(-2, found), m.mul(4, found))
        verts = tuple(m.point_to_source(v) for v in verts_model)
        eb = e.embedded(branch)
        lines = tuple(tangent_line(eb.cubic, v) for v in verts)
        assoc = ec_mul(eb, 3, verts[0])
        if assoc != t1.embedded(branch):
            raise WrongOrder("triangle class does not match its seed")
        return branch, eb, Triangle(verts, assoc, lines)
    raise WrongOrder("trisection produced no verified triangle seed")


def fermat_offline_flexes(data):
    """The six Fermat flexes off the z = 0 line, as points over Q(w).

    Built from the known coordinate pattern and re-verified: each candidate
    must lie on the cubic and have an inflectional tangent there.
    """
    tower = data["tower"]
    e = data["structure"]
    w = data["w"]
    one, zero = tower.one(), tower.zero()
    units = [one, w, w * w]
    out = []
    for alpha in units:
        for coords in ([-one, zero, alpha], [zero, -one, alpha]):
            p = ProjPoint(tower, coords)
            if not e.cubic.contains(p):
                raise WrongOrder("stated flex is not on the cubic")
            line = tangent_line(e.cubic, p)
            if line_cubic_residual(e.cubic, line, p, p) != p:
                raise WrongOrder("stated flex is not inflectional")
            out.append((p, line))
    return out


def fermat_witness(degree_cap=64):
    """The full witness arrangement: L_T1, L_2T1, a triangle, and a third
    inflectional tangent chosen so that no three of the six lines meet.
    """
    data = catalog_entry("fermat").build(degree_cap)
    frame = fermat_torsion_frame(data)
    tower, e, tri = fermat_triangle(data)
    l_t1 = frame["L_T1"].embedded(tower)
    l_2t1 = frame["L_2T1"].embedded(tower)
    chosen = None
    for t2, line in fermat_offline_flexes(data):
        lines = [l_t1, l_2t1, line.embedded(tower)] + list(tri.lines)
        if not any(concurrent_line_triples(lines)):
            chosen = (t2, line, lines)
            break
    if chosen is None:
        raise WrongOrder("no concurrency-free third tangent found")
    t2, l_t2, lines = chosen
    return {
        "tower": tower,
        "structure": e,
        "T1": frame["T1"].embedded(tower),
        "2T1": frame["2T1"].embedded(tower),
        "T2": t2.embedded(tower),
        "L_T1": l_t1,
        "L_2T1": l_2t1,
        "L_T2": l_t2.embedded(tower),
        "triangle": tri,
        "lines": lines,
    }


def fermat_witness_spec(witness, origin=None):
    """Geometric+abstract ArrangementSpec (C; L_T1, L_2T1, triangle).

    An alternate flex may be supplied as the group-law origin; smoothness is
    inherited from the witness structure and only the maximal-tangency of the
    new origin is re-verified.
    """
    tower = witness["tower"]
    e = witness["structure"]
    if origin is not None:
        e = EllipticStructure(e.cubic, origin, check=False)
        if line_cubic_residual(e.cubic, e.origin_tangent, origin, origin) != origin:
            raise WrongOrder("alternate origin is not a maximal tangency point")
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


def cyclic_flex_origins(data, on_budget="skip"):
    """Flex origins of the cyclic cubic computable within the tower budget."""
    return flex_points(data["cubic"], data["tower"], on_budget=on_budget)


# ---------------------------------------------------------------------------
# 90c3 bi-gon arrangements
# ---------------------------------------------------------------------------

def bigon_points(entry_data, r):
    """A point of exact order r on 90c3 with its residual partner Q = <-5>P.

    Orders 4 and 12 are rational; orders 8 and 24 need halving extensions and
    return points over the halving tower.  Yields (tower, structure, P, Q).
    """
    e = entry_data["structure"]
    tower = entry_data["tower"]
    model = weierstrass_model(e)
    if r in (4, 12):
        pt = rational_points_of_order(model, r)[0]
        P = model.point_to_source(pt)
        E = e
        tw = tower
    elif r in (8, 24):
        base = rational_points_of_order(model, r // 2)[0]
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
