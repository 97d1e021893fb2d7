"""Exact projective plane-curve geometry.

Curves are homogeneous forms in (x, y, z) with coefficients in a FieldTower.
The module provides Hessians and flexes, tangent lines, the chord-tangent
group law of a smooth cubic with a flex origin, Fulton's recursive
intersection multiplicity, local branch expansions at smooth points, and
interpolation of curves through prescribed tangency divisors.

Operations are pure; anything that has to invert a tower element may raise
ZeroDivisorEncountered, which callers handle by splitting the tower.
"""

from __future__ import annotations

from itertools import permutations
from math import comb

from .errors import (
    CommonComponent,
    LineNotIncident,
    NonUnique,
    NoSolution,
    SingularPoint,
    malformed,
)
from .fields import (
    TowerElement,
    UniPoly,
    _is_szero,
    poly_gcd,
    rep_from_data,
    rep_to_data,
    with_splitting,
)
from .polysolve import (
    kernel_basis,
    resultant_bivariate,
    root_packets,
)


def _coerce_elem(tower, value):
    if isinstance(value, TowerElement):
        if value.tower != tower:
            raise ValueError("element from a different tower")
        return value
    return tower.rational(value)


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

class ProjPoint:
    """A point of the projective plane over a tower.

    Stored in the canonical representative with the first nonzero coordinate
    scaled to one.  Construction therefore performs sound zero tests and may
    raise ZeroDivisorEncountered over a split-pending tower.
    """

    __slots__ = ("tower", "coords", "chart")

    def __init__(self, tower, coords):
        vals = [_coerce_elem(tower, c) for c in coords]
        if len(vals) != 3:
            raise ValueError("a projective point needs three coordinates")
        lead = None
        for i, v in enumerate(vals):
            if not v.is_zero():
                lead = i
                break
        if lead is None:
            raise ValueError("all coordinates are zero")
        inv = vals[lead].invert()
        vals = [v * inv for v in vals]
        vals[lead] = tower.one()
        self.tower = tower
        self.coords = tuple(vals)
        self.chart = lead

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.tower != other.tower:
            raise ValueError("points over different towers")
        return all((a - b).is_zero() for a, b in zip(self.coords, other.coords))

    def __hash__(self):
        return hash((self.tower, tuple(c.rep for c in self.coords)))

    def __repr__(self):
        return "ProjPoint[%s]" % ":".join(repr(rep_to_data(c.rep)) for c in self.coords)

    def affine(self):
        """Affine coordinates in this point's canonical chart."""
        others = [i for i in range(3) if i != self.chart]
        return self.coords[others[0]], self.coords[others[1]]

    def embedded(self, tower):
        if tower == self.tower:
            return self
        return ProjPoint(tower, [c.embedded(tower) for c in self.coords])

    def migrated(self, tower):
        if tower == self.tower:
            return self
        return ProjPoint(tower, [c.migrated(tower) for c in self.coords])

    def to_data(self):
        return [rep_to_data(c.rep) for c in self.coords]

    @classmethod
    def from_data(cls, tower, data):
        reps = [rep_from_data(tower.levels, tower.height, c) for c in data]
        return cls(tower, [TowerElement(tower, r) for r in reps])


def _chart_pair(chart):
    return tuple(i for i in range(3) if i != chart)


def point_from_affine(tower, chart, u, v):
    coords = [None, None, None]
    a, b = _chart_pair(chart)
    coords[chart] = tower.one()
    coords[a] = _coerce_elem(tower, u)
    coords[b] = _coerce_elem(tower, v)
    return ProjPoint(tower, coords)


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


# ---------------------------------------------------------------------------
# affine bivariate polynomials (used by Fulton and the local machinery)
# ---------------------------------------------------------------------------

class BiPoly:
    """Polynomial in two affine variables over a tower, as an exponent dict."""

    __slots__ = ("tower", "terms")

    def __init__(self, tower, terms):
        clean = {}
        for (i, j), c in terms.items():
            e = _coerce_elem(tower, c)
            if not _is_szero(e.rep, tower.height):
                clean[(i, j)] = e
        self.tower = tower
        self.terms = clean

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((i + j for i, j in self.terms), default=-1)

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return BiPoly(self.tower, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] - c if k in out else -c
        return BiPoly(self.tower, out)

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            out = {}
            for (i1, j1), c1 in self.terms.items():
                for (i2, j2), c2 in other.terms.items():
                    k = (i1 + i2, j1 + j2)
                    p = c1 * c2
                    out[k] = out[k] + p if k in out else p
            return BiPoly(self.tower, out)
        return BiPoly(self.tower, {k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__

    def evaluate(self, u, v):
        acc = self.tower.zero()
        for (i, j), c in self.terms.items():
            acc = acc + c * u**i * v**j
        return acc

    def restrict_v0(self):
        """The univariate polynomial self(u, 0)."""
        coeffs = {}
        for (i, j), c in self.terms.items():
            if j == 0:
                coeffs[i] = c
        n = max(coeffs, default=-1)
        return UniPoly(self.tower, [coeffs.get(i, self.tower.zero()) for i in range(n + 1)])

    def div_v(self):
        """Exact division by v; requires every term to have positive v-degree."""
        out = {}
        for (i, j), c in self.terms.items():
            if j == 0:
                raise ValueError("not divisible by v")
            out[(i, j - 1)] = c
        return BiPoly(self.tower, out)

    def swap(self):
        return BiPoly(self.tower, {(j, i): c for (i, j), c in self.terms.items()})

    def translate(self, a, b):
        """self(u + a, v + b) by binomial expansion."""
        out = {}
        apow = _powers(self.tower, a, max((i for i, _ in self.terms), default=0))
        bpow = _powers(self.tower, b, max((j for _, j in self.terms), default=0))
        for (i, j), c in self.terms.items():
            for s in range(i + 1):
                for t in range(j + 1):
                    coeff = c * (comb(i, s) * comb(j, t)) * apow[i - s] * bpow[j - t]
                    k = (s, t)
                    out[k] = out[k] + coeff if k in out else coeff
        return BiPoly(self.tower, out)

    def v_columns(self):
        """Coefficients of powers of v, each a UniPoly in u."""
        dv = max((j for _, j in self.terms), default=-1)
        cols = []
        for j in range(dv + 1):
            coeffs = {}
            for (i, jj), c in self.terms.items():
                if jj == j:
                    coeffs[i] = c
            n = max(coeffs, default=-1)
            cols.append(
                UniPoly(self.tower, [coeffs.get(i, self.tower.zero()) for i in range(n + 1)])
            )
        return cols

    def specialize_u(self, u0):
        """The univariate polynomial in v obtained by substituting u = u0."""
        cols = {}
        for (i, j), c in self.terms.items():
            cols.setdefault(j, []).append((i, c))
        dv = max(cols, default=-1)
        out = []
        for j in range(dv + 1):
            acc = self.tower.zero()
            for i, c in cols.get(j, ()):
                acc = acc + c * u0**i
            out.append(acc)
        return UniPoly(self.tower, out)


def _powers(tower, x, n):
    out = [tower.one()]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


# ---------------------------------------------------------------------------
# plane curves
# ---------------------------------------------------------------------------

class PlaneCurve:
    """A homogeneous form in x, y, z over a tower, with optional factorization.

    ``components``, when given, lists curves whose product equals the form up
    to a scalar (checked).  The form is kept with structurally nonzero
    coefficients only.
    """

    __slots__ = ("tower", "degree", "form", "components")

    def __init__(self, tower, degree, form, components=None):
        clean = {}
        for exps, c in form.items():
            i, j, k = exps
            if i + j + k != degree:
                raise ValueError("non-homogeneous term %r" % (exps,))
            e = _coerce_elem(tower, c)
            if not _is_szero(e.rep, tower.height):
                clean[exps] = e
        if not clean:
            raise ValueError("zero form")
        self.tower = tower
        self.degree = degree
        self.form = clean
        self.components = tuple(components) if components else None
        if self.components is not None:
            prod = self.components[0]
            for comp in self.components[1:]:
                prod = prod * comp
            if not _proportional_forms(prod, self):
                raise ValueError("components do not multiply to the form")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def line(cls, tower, coeffs):
        a, b, c = coeffs
        return cls(tower, 1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})

    # -- ring-ish operations ----------------------------------------------------

    def __mul__(self, other):
        out = {}
        for (i1, j1, k1), c1 in self.form.items():
            for (i2, j2, k2), c2 in other.form.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                p = c1 * c2
                out[key] = out[key] + p if key in out else p
        return PlaneCurve(self.tower, self.degree + other.degree, out)

    def scale(self, c):
        return PlaneCurve(
            self.tower, self.degree, {k: v * c for k, v in self.form.items()}
        )

    def coefficient(self, exps):
        return self.form.get(exps, self.tower.zero())

    def evaluate(self, point):
        if isinstance(point, ProjPoint):
            coords = point.coords
        else:
            coords = [_coerce_elem(self.tower, c) for c in point]
        acc = self.tower.zero()
        xp = _powers(self.tower, coords[0], self.degree)
        yp = _powers(self.tower, coords[1], self.degree)
        zp = _powers(self.tower, coords[2], self.degree)
        for (i, j, k), c in self.form.items():
            acc = acc + c * xp[i] * yp[j] * zp[k]
        return acc

    def contains(self, point):
        return self.evaluate(point).is_zero()

    def partial(self, axis):
        out = {}
        for exps, c in self.form.items():
            e = exps[axis]
            if e == 0:
                continue
            new = list(exps)
            new[axis] = e - 1
            out[tuple(new)] = c * e
        if not out:
            return None
        return PlaneCurve(self.tower, self.degree - 1, out)

    def gradient(self, point):
        vals = []
        for axis in range(3):
            p = self.partial(axis)
            vals.append(self.tower.zero() if p is None else p.evaluate(point))
        return tuple(vals)

    def dehomogenize(self, chart):
        a, b = _chart_pair(chart)
        terms = {}
        for exps, c in self.form.items():
            key = (exps[a], exps[b])
            terms[key] = terms[key] + c if key in terms else c
        return BiPoly(self.tower, terms)

    def restrict_coord_zero(self, chart):
        """The binary form obtained by setting the chart coordinate to zero."""
        a, b = _chart_pair(chart)
        terms = {}
        for exps, c in self.form.items():
            if exps[chart] == 0:
                key = (exps[a], exps[b])
                terms[key] = terms[key] + c if key in terms else c
        return terms

    def normalized(self):
        """Scale so the lexicographically first nonzero coefficient is one."""
        for exps in sorted(self.form, reverse=True):
            c = self.form[exps]
            if not c.is_zero():
                return self.scale(c.invert())
        raise ValueError("zero form")

    def embedded(self, tower):
        if tower == self.tower:
            return self
        form = {k: c.embedded(tower) for k, c in self.form.items()}
        comps = None
        if self.components:
            comps = [comp.embedded(tower) for comp in self.components]
        return PlaneCurve(tower, self.degree, form, comps)

    def migrated(self, tower):
        if tower == self.tower:
            return self
        form = {k: c.migrated(tower) for k, c in self.form.items()}
        comps = None
        if self.components:
            comps = [comp.migrated(tower) for comp in self.components]
        return PlaneCurve(tower, self.degree, form, comps)

    def to_data(self):
        return {
            "degree": self.degree,
            "terms": {
                "%d,%d,%d" % exps: rep_to_data(c.rep) for exps, c in sorted(self.form.items())
            },
        }

    @classmethod
    def from_data(cls, tower, data):
        with malformed("curve data"):
            form = {}
            for key, val in data["terms"].items():
                exps = tuple(int(s) for s in key.split(","))
                form[exps] = TowerElement(tower, rep_from_data(tower.levels, tower.height, val))
            return cls(tower, data["degree"], form)

    def __repr__(self):
        return "PlaneCurve(degree=%d, %d terms)" % (self.degree, len(self.form))


def _proportional_forms(a, b):
    """Whether two forms of equal degree agree up to a nonzero scalar."""
    if a.degree != b.degree:
        return False
    keys = set(a.form) | set(b.form)
    ratio = None
    for k in sorted(keys, reverse=True):
        ca = a.form.get(k)
        cb = b.form.get(k)
        if ca is None or cb is None:
            if ca is None and cb is None:
                continue
            missing = ca if cb is None else cb
            if missing.is_zero():
                continue
            return False
        if ratio is None:
            ratio = ca * cb.invert()
        elif not (ca - ratio * cb).is_zero():
            return False
    return ratio is not None


def form_sum(tower, degree, terms):
    """The form sum(c * f) over (c, f) pairs, or None when it vanishes.

    A None ``f`` stands for the zero form; terms with a structurally zero
    scalar and structurally zero coefficients of the sum are dropped.
    """
    acc = {}
    for c, f in terms:
        c = _coerce_elem(tower, c)
        if f is None or _is_szero(c.rep, tower.height):
            continue
        for k, v in f.form.items():
            p = v * c
            acc[k] = acc[k] + p if k in acc else p
    acc = {k: v for k, v in acc.items() if not _is_szero(v.rep, tower.height)}
    return PlaneCurve(tower, degree, acc) if acc else None


def line_through(p, q):
    """The unique line through two distinct points (over their common tower)."""
    if p.tower != q.tower:
        raise ValueError("points over different towers")
    coeffs = cross([c for c in p.coords], [c for c in q.coords])
    return PlaneCurve.line(p.tower, coeffs)


# ---------------------------------------------------------------------------
# hessian, tangents, smoothness
# ---------------------------------------------------------------------------

def hessian(c):
    """Determinant of the matrix of second partials of a cubic form."""
    if c.degree != 3:
        raise ValueError("hessian is defined here for cubics only")
    second = [[None] * 3 for _ in range(3)]
    for i in range(3):
        pi = c.partial(i)
        for j in range(3):
            second[i][j] = None if pi is None else pi.partial(j)
    terms = []
    for i, j, k in permutations(range(3)):
        factors = (second[0][i], second[1][j], second[2][k])
        if None not in factors:
            # (j - i) % 3 == 1 exactly for the even permutations of (0, 1, 2)
            sign = 1 if (j - i) % 3 == 1 else -1
            terms.append((sign, factors[0] * factors[1] * factors[2]))
    det = form_sum(c.tower, 3, terms)
    if det is None:
        raise ValueError("hessian vanishes identically")
    return det


def tangent_line(c, p):
    """The tangent line of c at a smooth point p on c."""
    if not c.contains(p):
        raise LineNotIncident("point is not on the curve")
    grad = c.gradient(p)
    if all(g.is_zero() for g in grad):
        raise SingularPoint("gradient vanishes at the point")
    return PlaneCurve.line(c.tower, grad)


def polar_curve(c, q):
    """First polar of c with respect to q; vanishes at tangency points from q."""
    terms = [(q.coords[axis], c.partial(axis)) for axis in range(3)]
    pol = form_sum(c.tower, c.degree - 1, terms)
    if pol is None:
        raise ValueError("polar vanishes identically")
    return pol


def is_smooth_curve(c):
    """Certify smoothness by searching for common zeros of the partials.

    Candidates come from a resultant sweep on two partials and are verified
    on the third; by the Euler relation a common zero of the partials lies on
    the curve, so this decides smoothness in characteristic zero.
    """
    if c.degree == 1:
        return True
    parts = [c.partial(axis) for axis in range(3)]
    if any(p is None for p in parts):
        return False
    try:
        candidates = intersection_points(parts[0], parts[1], c.tower, multiplicities=False)
    except CommonComponent:
        return False
    for rec in candidates:
        third = parts[2].embedded(rec.tower)
        if third.evaluate(rec.point).is_zero():
            return False
    return True


def tangents_through(c, q, tower=None):
    """All tangent lines of c passing through the point q.

    Tangency points are the smooth points of c on the first polar of q.
    Lines are returned normalized, each with the tower it lives in.
    """
    tower = tower or c.tower
    base = c.embedded(tower)
    qq = q.embedded(tower)
    pol = polar_curve(base, qq)
    out = []
    for rec in intersection_points(base, pol, tower, multiplicities=False, enumerate_conjugates=True):
        cur = base.embedded(rec.tower)
        grad = cur.gradient(rec.point)
        if all(g.is_zero() for g in grad):
            continue
        line = PlaneCurve.line(rec.tower, grad).normalized()
        qh = qq.embedded(rec.tower)
        if not line.contains(qh):
            continue
        if not any(
            other.tower == rec.tower and _proportional_forms(other, line) for other in out
        ):
            out.append(line)
    return out


# ---------------------------------------------------------------------------
# the chord-tangent group law
# ---------------------------------------------------------------------------

class EllipticStructure:
    """A smooth plane cubic with a distinguished flex serving as origin.

    Construction certifies smoothness, membership of the origin, and maximal
    tangency of the inflectional tangent (the tangent meets the cubic only at
    the origin).
    """

    __slots__ = ("cubic", "origin", "origin_tangent")

    def __init__(self, cubic, origin, check=True):
        if cubic.degree != 3:
            raise ValueError("elliptic structure needs a cubic")
        if origin.tower != cubic.tower:
            raise ValueError("origin must live in the cubic's tower")
        if check:
            if not is_smooth_curve(cubic):
                raise SingularPoint("cubic is not smooth")
            if not cubic.contains(origin):
                raise LineNotIncident("origin is not on the cubic")
        tangent = tangent_line(cubic, origin)
        if check:
            residual = _third_intersection(cubic, tangent, origin, origin)
            if residual != origin:
                raise WrongFlex("tangent at origin is not maximal")
        self.cubic = cubic
        self.origin = origin
        self.origin_tangent = tangent

    @property
    def tower(self):
        return self.cubic.tower

    def embedded(self, tower):
        if tower == self.tower:
            return self
        return EllipticStructure(
            self.cubic.embedded(tower), self.origin.embedded(tower), check=False
        )

    def migrated(self, tower):
        if tower == self.tower:
            return self
        return EllipticStructure(
            self.cubic.migrated(tower), self.origin.migrated(tower), check=False
        )


class WrongFlex(SingularPoint):
    pass


def _line_frame(line):
    """Two independent points spanning a line given by its coefficients."""
    a = line.coefficient((1, 0, 0))
    b = line.coefficient((0, 1, 0))
    c = line.coefficient((0, 0, 1))
    t = line.tower
    zero = t.zero()
    candidates = [(zero, c, -b), (-c, zero, a), (b, -a, zero)]
    pts = []
    for cand in candidates:
        if all(x.is_zero() for x in cand):
            continue
        pts.append(cand)
        if len(pts) == 2:
            cr = cross(pts[0], pts[1])
            if all(x.is_zero() for x in cr):
                pts.pop()
                continue
            return ProjPoint(t, pts[0]), ProjPoint(t, pts[1])
    raise ValueError("degenerate line coefficients")


def _restrict_to_line(curve, A, B):
    """Binary form g(s, t) = curve(s*A + t*B) as a coefficient list in s."""
    t = curve.tower
    n = curve.degree
    out = [t.zero()] * (n + 1)
    ax = _binomial_powers(A.coords, B.coords, n, t)
    for (i, j, k), c in curve.form.items():
        # product over the three coordinates of (A_m s + B_m t) ** exp
        poly = [t.one()]
        for axis, e in enumerate((i, j, k)):
            poly = _binary_mul(poly, ax[axis][e], t)
        for m, coeff in enumerate(poly):
            out[m] = out[m] + c * coeff
    return out


def _binomial_powers(ac, bc, n, tower):
    """For each coordinate, (a s + b t)**e as s-coefficient lists, e = 0..n."""
    table = []
    for axis in range(3):
        a = ac[axis]
        b = bc[axis]
        pows = [[tower.one()]]
        for e in range(1, n + 1):
            prev = pows[-1]
            cur = [tower.zero()] * (e + 1)
            for m, c in enumerate(prev):
                cur[m] = cur[m] + c * b
                cur[m + 1] = cur[m + 1] + c * a
            pows.append(cur)
        table.append(pows)
    return table


def _binary_mul(p, q, tower):
    out = [tower.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _line_coordinates(p, A, B):
    """(s, t) with p = s*A + t*B, for p on the line spanned by A and B."""
    pb = cross(p.coords, B.coords)
    ap = cross(A.coords, p.coords)
    ab = cross(A.coords, B.coords)
    for k in range(3):
        if not ab[k].is_zero():
            inv = ab[k].invert()
            return pb[k] * inv, ap[k] * inv
    raise ValueError("degenerate frame")


def _binary_remove_root(coeffs, s0, t0, tower):
    """Divide a binary form (s-coefficient list) by the root (s0 : t0)."""
    n = len(coeffs) - 1
    if t0.is_zero():
        # root at (1:0): the form is divisible by t, i.e. top coefficient zero
        if not coeffs[-1].is_zero():
            raise LineNotIncident("claimed root is not a root of the restriction")
        return coeffs[:-1]
    tinv = t0.invert()
    r = s0 * tinv
    # synthetic division of u(s) = sum coeffs[m] s^m by (s - r)
    q = [tower.zero()] * n
    q[n - 1] = coeffs[n]
    for m in range(n - 1, 0, -1):
        q[m - 1] = coeffs[m] + r * q[m]
    rem = coeffs[0] + r * q[0]
    if not rem.is_zero():
        raise LineNotIncident("claimed root is not a root of the restriction")
    return q


def _third_intersection(cubic, line, p, q):
    """The residual point r with line . cubic = p + q + r as divisors."""
    if not line.contains(p) or not line.contains(q):
        raise LineNotIncident("point off the line")
    if not cubic.contains(p) or not cubic.contains(q):
        raise LineNotIncident("point off the cubic")
    A, B = _line_frame(line)
    g = _restrict_to_line(cubic, A, B)
    t = cubic.tower
    sp, tp = _line_coordinates(p, A, B)
    g = _binary_remove_root(g, sp, tp, t)
    sq, tq = _line_coordinates(q, A, B)
    g = _binary_remove_root(g, sq, tq, t)
    # remaining linear form c1*s + c0*t has root (c0 : -c1)
    c0, c1 = g[0], g[1]
    s0, t0 = c0, -c1
    coords = [s0 * a + t0 * b for a, b in zip(A.coords, B.coords)]
    return ProjPoint(t, coords)


def line_cubic_residual(e, line, p, q):
    """Residual intersection of a line with the cubic, past the points p and q."""
    cubic = e.cubic if isinstance(e, EllipticStructure) else e
    return _third_intersection(cubic, line, p, q)


def _chord(cubic, p, q):
    if p == q:
        return tangent_line(cubic, p)
    return line_through(p, q)


def ec_add(e, p, q):
    """Chord-tangent sum on the cubic with the structure's flex as origin."""
    cubic = e.cubic
    line1 = _chord(cubic, p, q)
    r = _third_intersection(cubic, line1, p, q)
    line2 = _chord(cubic, r, e.origin)
    return _third_intersection(cubic, line2, r, e.origin)


def ec_neg(e, p):
    if p == e.origin:
        return p
    line = _chord(e.cubic, p, e.origin)
    return _third_intersection(e.cubic, line, p, e.origin)


def ec_mul(e, n, p):
    if n < 0:
        return ec_mul(e, -n, ec_neg(e, p))
    acc = e.origin
    base = p
    while n:
        if n & 1:
            acc = ec_add(e, acc, base)
        base = ec_add(e, base, base)
        n >>= 1
    return acc


def point_order(e, p, bound):
    """Least n <= bound with n*p = origin, or None."""
    if bound < 1:
        raise ValueError("bound must be positive")
    acc = p
    for n in range(1, bound + 1):
        if acc == e.origin:
            return n
        if n < bound:
            acc = ec_add(e, acc, p)
    return None


# ---------------------------------------------------------------------------
# Fulton's intersection multiplicity
# ---------------------------------------------------------------------------

def intersection_multiplicity(c, d, p):
    """Fulton's recursive intersection number of c and d at p.

    The curves are dehomogenized in the canonical chart of p and translated
    so p becomes the origin; the recursion then runs on the affine forms.
    """
    if c.tower != d.tower or p.tower != c.tower:
        raise ValueError("curve/point towers differ")
    chart = p.chart
    u0, v0 = p.affine()
    F = c.dehomogenize(chart).translate(u0, v0)
    G = d.dehomogenize(chart).translate(u0, v0)
    return _fulton(F, G, c.tower)


def _fulton(F, G, tower):
    stack = [(F, G)]
    guard = 0
    result = 0
    while stack:
        guard += 1
        if guard > 100000:
            raise RuntimeError("Fulton recursion did not terminate")
        F, G = stack.pop()
        if F.is_zero() or G.is_zero():
            raise CommonComponent("a shared factor passes through the point")
        f0 = F.evaluate(tower.zero(), tower.zero())
        g0 = G.evaluate(tower.zero(), tower.zero())
        if not f0.is_zero() or not g0.is_zero():
            continue
        f = F.restrict_v0()
        g = G.restrict_v0()
        if f.is_zero() and g.is_zero():
            raise CommonComponent("v divides both forms at the point")
        if f.is_zero():
            # F = v * F1 ; I(v, G) is the u-order of G(u, 0)
            result += _u_order(g)
            stack.append((F.div_v(), G))
            continue
        if g.is_zero():
            result += _u_order(f)
            stack.append((F, G.div_v()))
            continue
        r, s = f.degree, g.degree
        if r > s:
            F, G = G, F
            f, g = g, f
            r, s = s, r
        if r == 0:
            # F(u,0) is a nonzero constant, but F(0,0) = 0: impossible
            raise CommonComponent("inconsistent local forms")
        # kill the leading u-term of g|v=0 with a multiple of F
        coeff = g.coefficient(s) * f.coefficient(r).invert()
        mono = BiPoly(tower, {(s - r, 0): coeff})
        G2 = G - mono * F
        stack.append((F, G2))
    return result


def _u_order(f):
    for i in range(f.degree + 1):
        if not f.coefficient(i).is_zero():
            return i
    raise ValueError("zero polynomial has no order")


# ---------------------------------------------------------------------------
# intersection point enumeration
# ---------------------------------------------------------------------------

class IntersectionRecord:
    """One intersection entry: a representative point, its local multiplicity,
    the tower it lives in, and how many closure points it stands for."""

    __slots__ = ("point", "multiplicity", "tower", "orbit")

    def __init__(self, point, multiplicity, tower, orbit):
        self.point = point
        self.multiplicity = multiplicity
        self.tower = tower
        self.orbit = orbit

    def __repr__(self):
        return "IntersectionRecord(mult=%s, orbit=%d, %r)" % (
            self.multiplicity,
            self.orbit,
            self.point,
        )


def intersection_points(
    c,
    d,
    tower=None,
    enumerate_conjugates=False,
    multiplicities=True,
    on_budget="raise",
):
    """All intersection points of two curves over extensions of ``tower``.

    Points with a nonzero z-coordinate are found in the affine chart z = 1 by
    a resultant elimination in y; the line z = 0 is swept separately.  Each
    record carries an orbit count so that sum(multiplicity * orbit) equals
    the Bezout number deg(c) * deg(d).

    ``on_budget`` may be "skip" to silently drop packets whose towers would
    exceed the degree cap instead of raising BudgetExceeded.
    """
    tower = tower or c.tower
    cc = c.embedded(tower)
    dd = d.embedded(tower)
    records = []

    # points on the line z = 0
    bf = cc.restrict_coord_zero(2)
    bg = dd.restrict_coord_zero(2)
    if not bf and not bg:
        raise CommonComponent("z divides both curves")
    records.extend(
        _infinity_sweep(cc, dd, bf, bg, tower, enumerate_conjugates, multiplicities, on_budget)
    )

    # affine chart z = 1
    F = cc.dehomogenize(2)
    G = dd.dehomogenize(2)
    records.extend(
        _affine_sweep(cc, dd, F, G, tower, enumerate_conjugates, multiplicities, on_budget)
    )
    return records


def _infinity_sweep(cc, dd, bf, bg, tower, enumerate_conjugates, multiplicities, on_budget):
    # binary forms in (x, y); roots (x0 : y0 : 0)
    def as_unipoly(terms):
        coeffs = {}
        for (i, j), c in terms.items():
            coeffs[i] = coeffs.get(i, tower.zero()) + c
        n = max(coeffs, default=-1)
        return UniPoly(tower, [coeffs.get(i, tower.zero()) for i in range(n + 1)])

    uf = as_unipoly(bf)
    ug = as_unipoly(bg)
    deg_f = max((i + j for i, j in bf), default=-1)
    deg_g = max((i + j for i, j in bg), default=-1)
    out = []
    if not bf:
        common = ug
    elif not bg:
        common = uf
    else:
        common = poly_gcd(uf, ug)
    # root at [1:0:0] iff both binary forms vanish there (top x-coefficient zero)
    at_inf_f = not bf or uf.degree < deg_f
    at_inf_g = not bg or ug.degree < deg_g
    if at_inf_f and at_inf_g:
        p = ProjPoint(tower, [tower.one(), tower.zero(), tower.zero()])
        mult = intersection_multiplicity(cc, dd, p) if multiplicities else 0
        out.append(IntersectionRecord(p, mult, tower, 1))
    if common.degree >= 1:
        packets = root_packets(
            common, tower, enumerate_conjugates, name_hint="w", on_budget=on_budget
        )
        for rp in packets:

            def probe(tw, x0=rp.element):
                x = x0.migrated(tw)
                pt = ProjPoint(tw, [x, tw.one(), tw.zero()])
                ch = cc.embedded(tw)
                dh = dd.embedded(tw)
                if not (ch.contains(pt) and dh.contains(pt)):
                    return None
                mult = intersection_multiplicity(ch, dh, pt) if multiplicities else 0
                return pt, mult

            for tw, res in with_splitting(rp.tower, probe, tower.height):
                if res is None:
                    continue
                pt, mult = res
                orbit = 1 if enumerate_conjugates else (
                    tw.absolute_degree // tower.absolute_degree
                )
                out.append(IntersectionRecord(pt, mult, tw, orbit))
    return out


def _affine_sweep(cc, dd, F, G, tower, enumerate_conjugates, multiplicities, on_budget):
    cols_f = F.v_columns()
    cols_g = G.v_columns()
    if len(cols_f) == 1 and len(cols_g) == 1:
        # both curves are unions of lines through [0:1:0]
        r = poly_gcd(cols_f[0], cols_g[0])
        if r.degree >= 1:
            raise CommonComponent("curves share a vertical line")
        return []
    res = resultant_bivariate(cols_f, cols_g, tower)
    if res.is_zero():
        raise CommonComponent("vanishing resultant")
    if res.degree < 1:
        return []
    out = []
    packets = root_packets(res, tower, enumerate_conjugates, name_hint="x", on_budget=on_budget)
    for rp in packets:

        def stage(ext, x0=rp.element):
            x = x0.migrated(ext)
            Fh = _bipoly_embed(F, ext)
            Gh = _bipoly_embed(G, ext)
            fu = Fh.specialize_u(x)
            gu = Gh.specialize_u(x)
            if fu.is_zero() and gu.is_zero():
                raise CommonComponent("curves share the line x = const")
            if fu.is_zero():
                h = gu
            elif gu.is_zero():
                h = fu
            else:
                h = poly_gcd(fu, gu)
            if h.degree < 1:
                return []  # spurious resultant root
            found = []
            for yp in root_packets(h, ext, enumerate_conjugates, name_hint="y", on_budget=on_budget):

                def measure(final, y0=yp.element, x=x):
                    y = y0.migrated(final)
                    xf = x.embedded(final)
                    pt = point_from_affine(final, 2, xf, y)
                    ch = cc.embedded(final)
                    dh = dd.embedded(final)
                    mult = (
                        intersection_multiplicity(ch, dh, pt) if multiplicities else 0
                    )
                    return pt, mult

                for tw, res2 in with_splitting(yp.tower, measure, ext.height):
                    found.append((tw, res2))
            return found

        for ext_tower, results in with_splitting(rp.tower, stage, tower.height):
            for tw, (pt, mult) in results:
                orbit = 1 if enumerate_conjugates else (
                    tw.absolute_degree // tower.absolute_degree
                )
                out.append(IntersectionRecord(pt, mult, tw, orbit))
    return out


def _bipoly_embed(F, tower):
    if tower == F.tower:
        return F
    return BiPoly(tower, {k: c.embedded(tower) for k, c in F.terms.items()})


def flex_points(c, tower=None, on_budget="raise"):
    """Common zeros of a smooth cubic and its Hessian.

    Returns (point, tower) pairs, each flex in the (possibly extended) tower
    it was found in; at most nine over the closure.  With on_budget="skip"
    the conjugates whose towers would exceed the cap are dropped.
    """
    tower = tower or c.tower
    h = hessian(c)
    records = intersection_points(
        c, h, tower, enumerate_conjugates=True, multiplicities=False, on_budget=on_budget
    )
    return [(rec.point, rec.tower) for rec in records]


# ---------------------------------------------------------------------------
# branch series and interpolation
# ---------------------------------------------------------------------------

class BranchSeries:
    """Truncated local parametrization of a curve branch at a smooth point.

    ``u_series``/``v_series`` are coefficient lists (length order + 1) of the
    two affine chart coordinates as series in the local parameter; ``chart``
    names the dehomogenization chart.
    """

    __slots__ = ("center", "chart", "u_series", "v_series", "order")

    def __init__(self, center, chart, u_series, v_series, order):
        self.center = center
        self.chart = chart
        self.u_series = u_series
        self.v_series = v_series
        self.order = order


def _series_mul(a, b, order, tower):
    out = [tower.zero()] * (order + 1)
    for i, x in enumerate(a):
        if i > order:
            break
        for j, y in enumerate(b):
            if i + j > order:
                break
            out[i + j] = out[i + j] + x * y
    return out


def _series_pow_table(s, maxexp, order, tower):
    table = [[tower.one()] + [tower.zero()] * order]
    for _ in range(maxexp):
        table.append(_series_mul(table[-1], s, order, tower))
    return table


def branch_series(c, p, order):
    """Local parametrization of the unique branch of c at the smooth point p."""
    chart = p.chart
    u0, v0 = p.affine()
    F = c.dehomogenize(chart).translate(u0, v0)
    t = c.tower
    fu = F.evaluate(t.zero(), t.zero())
    if not fu.is_zero():
        raise LineNotIncident("point is not on the curve")
    du = _bipoly_partial(F, 0).evaluate(t.zero(), t.zero())
    dv = _bipoly_partial(F, 1).evaluate(t.zero(), t.zero())
    swap = False
    if dv.is_zero():
        if du.is_zero():
            raise SingularPoint("branch expansion needs a smooth point")
        F = F.swap()
        du, dv = dv, du
        swap = True
    dvinv = dv.invert()
    # v(t) = sum c_k t^k solved order by order; u(t) = t
    vs = [t.zero()] * (order + 1)
    for k in range(1, order + 1):
        # coefficient of t^k in F(t, v(t)) with the current partial sum
        val = _compose_coefficient(F, vs, k, t)
        ck = -(val * dvinv)
        vs[k] = ck
    us = [t.zero()] * (order + 1)
    if order >= 1:
        us[1] = t.one()
    if swap:
        us, vs = vs, us
    series = BranchSeries(p, chart, _shifted(us, u0, t), _shifted(vs, v0, t), order)
    return series


def _shifted(series, c0, tower):
    out = list(series)
    out[0] = out[0] + c0
    return out


def _bipoly_partial(F, axis):
    out = {}
    for (i, j), c in F.terms.items():
        e = (i, j)[axis]
        if e == 0:
            continue
        key = (i - 1, j) if axis == 0 else (i, j - 1)
        add = c * e
        out[key] = out[key] + add if key in out else add
    return BiPoly(F.tower, out)


def _compose_coefficient(F, vs, k, tower):
    """Coefficient of t^k in F(t, v(t)) for the partial series vs (vs[k] = 0)."""
    maxv = max((j for _, j in F.terms), default=0)
    vtab = _series_pow_table(vs, maxv, k, tower)
    acc = tower.zero()
    for (i, j), c in F.terms.items():
        if i > k:
            continue
        acc = acc + c * vtab[j][k - i]
    return acc


def _series_eval_bipoly(F, us, vs, order, tower):
    """F(u(t), v(t)) truncated at the given order."""
    maxu = max((i for i, _ in F.terms), default=0)
    maxv = max((j for _, j in F.terms), default=0)
    utab = _series_pow_table(us, maxu, order, tower)
    vtab = _series_pow_table(vs, maxv, order, tower)
    out = [tower.zero()] * (order + 1)
    for (i, j), c in F.terms.items():
        prod = _series_mul(utab[i], vtab[j], order, tower)
        for m, val in enumerate(prod):
            out[m] = out[m] + c * val
    return out


def interpolate_curve_with_divisor(e, conditions, degree):
    """The curve of the given degree meeting the cubic as prescribed.

    ``conditions`` lists (point, multiplicity) pairs; the kernel of the
    linear system "composition with the cubic's branch series vanishes to the
    required order at every point" must be one-dimensional projectively.
    """
    total = sum(m for _, m in conditions)
    if total != 3 * degree:
        raise ValueError("multiplicities must sum to 3 * degree")
    t = e.tower
    monomials = [
        (i, j, degree - i - j) for i in range(degree + 1) for j in range(degree - i + 1)
    ]
    rows = []
    for point, mult in conditions:
        series = branch_series(e.cubic, point, mult + 1)
        chart = series.chart
        a, b = _chart_pair(chart)
        cond_rows = [[None] * len(monomials) for _ in range(mult)]
        for col, exps in enumerate(monomials):
            # dehomogenize the monomial in the point's chart
            eu, ev = exps[a], exps[b]
            mono = BiPoly(t, {(eu, ev): t.one()})
            vals = _series_eval_bipoly(mono, series.u_series, series.v_series, mult - 1, t)
            for r in range(mult):
                cond_rows[r][col] = vals[r]
        rows.extend(cond_rows)
    kernel = kernel_basis(rows, len(monomials), t)
    if not kernel:
        raise NoSolution("no curve satisfies the tangency conditions")
    if len(kernel) > 1:
        raise NonUnique("degenerate configuration: kernel dimension %d" % len(kernel))
    vec = kernel[0]
    form = {exps: vec[i] for i, exps in enumerate(monomials)}
    return PlaneCurve(t, degree, form)
