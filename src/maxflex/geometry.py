"""Exact projective plane-curve geometry.

Curves are homogeneous forms in (x, y, z) with coefficients in a FieldTower.
The module provides Hessians and flexes, tangent lines, the chord-tangent
group law of a smooth cubic with a flex origin, intersection multiplicities
(one where the tangents differ, Fulton's recursion elsewhere), local branch
expansions at smooth points, and interpolation of curves through prescribed
tangency divisors.

The group law rests on one residual: a line meeting the cubic C in p + q + r
gives r = (grad C(q).p) p - (grad C(p).q) q for p != q, two polar values
weighting the known points (Fulton, Algebraic Curves, section 5).  Each
polar value is a dot product of a gradient with a point, so the law takes
one gradient per point, and it reads C(x) off Euler's relation
grad C(x).x = 3 C(x), exact in characteristic zero.  The gradient at the
origin is kept with the structure, and a doubling reuses the gradient of
its tangent.

The law builds no line.  A chord's residual reads the two gradients alone:
the line p x q holds p and q because (p x q).p and (p x q).q vanish
identically, so there is nothing to test.  A tangent's coefficients are the
gradient L = grad C(p), which holds p by Euler's relation once p is on C,
and its second point is B = e_c x L for the chart c of p: B.L vanishes
identically, and B_c = 0 while p_c = 1, so B is another point of the line
with no zero test and no normalization.

The two residuals are plain formulas, and each check runs once, where a
point enters.  Every EllipticStructure certifies its cubic smooth (once
per curve: ``PlaneCurve.embedded`` carries the answer) and its origin a
maximal flex.  ``ec_add`` tests a chord's p and q on the cubic by Euler's
relation, or a doubling's p by ``_tangent_gradient``, whose gradient is the
tangent, so tangency is an identity: grad C(p).(e_c x grad C(p)) = 0.  The
step through the origin tests only the residual r.  A line from outside
the law goes through ``line_cubic_residual``, which tests its incidences,
the points on the cubic and a tangent's tangency, and hands off to the
same residuals.  A flex is certified one way, as a structure's origin.

An EllipticStructure keeps a table of the sums it has formed, and
``EllipticStructure.add`` reads it.  The composite operations go through
it (``ec_mul``'s double-and-add, ``ec_sum``, ``point_order`` and the torsion
class map's walk), so a doubling or chord that several of their calls need
is formed once per structure.  ``ec_add`` stays the uncached law: it is
what the tests cross-check against the Weierstrass formulas, and one call
of it is one chord-tangent sum whatever ran before.

Operations are pure; anything that has to invert a tower element may raise
ZeroDivisorEncountered, which callers handle by splitting the tower.
"""

from __future__ import annotations

from itertools import permutations

from .errors import (
    CommonComponent,
    LineNotIncident,
    NonUnique,
    NoSolution,
    SingularPoint,
    WrongFlex,
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
        if value.tower is not tower and value.tower != tower:
            raise ValueError("element from a different tower")
        return value
    return tower.rational(value)


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

class ProjPoint:
    """A point of the projective plane over a tower.

    Stored in the canonical representative with the first coordinate that is
    not structurally zero scaled to one.  That is the first nonzero one:
    ``is_zero`` answers True only for a structural zero, and otherwise
    returns False or raises from ``invert``.  So construction takes no zero
    test, only the one inverse, which raises ZeroDivisorEncountered over a
    split-pending tower where a sound zero test would have.
    """

    __slots__ = ("tower", "coords", "chart")

    def __init__(self, tower, coords):
        vals = [_coerce_elem(tower, c) for c in coords]
        if len(vals) != 3:
            raise ValueError("a projective point needs three coordinates")
        lead = None
        for i, v in enumerate(vals):
            if not _is_szero(v.rep, tower.height):
                lead = i
                break
        if lead is None:
            raise ValueError("all coordinates are zero")
        inv = vals[lead].invert()
        vals = [tower.one() if i == lead else v * inv for i, v in enumerate(vals)]
        self.tower = tower
        self.coords = tuple(vals)
        self.chart = lead

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.tower is not other.tower and self.tower != other.tower:
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
        if tower is self.tower or tower == self.tower:
            return self
        return ProjPoint(tower, [c.embedded(tower) for c in self.coords])

    def to_data(self):
        return [rep_to_data(c.rep) for c in self.coords]

    @classmethod
    def from_data(cls, tower, data):
        reps = [rep_from_data(tower.levels, tower.height, c) for c in data]
        return cls(tower, [TowerElement(tower, r) for r in reps])


def _chart_pair(chart):
    return tuple(i for i in range(3) if i != chart)


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

    def embedded(self, tower):
        if tower is self.tower or tower == self.tower:
            return self
        return BiPoly(tower, {k: c.embedded(tower) for k, c in self.terms.items()})

    def coefficient(self, i, j):
        return self.terms.get((i, j), self.tower.zero())

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
        """self(u + a, v + b): a Taylor shift in u, then one in v, each by
        repeated synthetic division (``_taylor_shift``)."""
        t = self.tower
        a, b = _coerce_elem(t, a), _coerce_elem(t, b)
        shifted = {}
        for j, col in _grouped(self.terms, 1).items():
            for i, c in enumerate(_taylor_shift(col, a)):
                if c is not None:
                    shifted[(i, j)] = c
        out = {}
        for i, row in _grouped(shifted, 0).items():
            for j, c in enumerate(_taylor_shift(row, b)):
                if c is not None:
                    out[(i, j)] = c
        return BiPoly(t, out)

    def v_columns(self):
        """Coefficients of powers of v, each a UniPoly in u."""
        t = self.tower
        cols = _grouped(self.terms, 1)
        return [
            UniPoly(t, [t.zero() if c is None else c for c in cols.get(j, ())])
            for j in range(max(cols, default=-1) + 1)
        ]


def _grouped(terms, axis):
    """The dense coefficient lists of ``terms`` along the other exponent, one
    per value of exponent ``axis``, with None for a missing term."""
    out = {}
    for e, c in terms.items():
        col = out.setdefault(e[axis], [])
        k = e[1 - axis]
        col.extend([None] * (k + 1 - len(col)))
        col[k] = c
    return out


def _taylor_shift(c, a):
    """The coefficients of c(x + a), for c lowest degree first with None for a
    zero, by repeated synthetic division: pass i divides by x - a and leaves
    the remainder in c[i], so after the passes c[k] is the k-th Taylor
    coefficient at a (Horner's rule).  A zero coefficient multiplies
    nothing, and a zero shift changes nothing."""
    if _is_szero(a.rep, a.tower.height):
        return c
    n = len(c) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            if c[k + 1] is not None:
                p = a * c[k + 1]
                c[k] = p if c[k] is None else c[k] + p
    return c


# ---------------------------------------------------------------------------
# plane curves
# ---------------------------------------------------------------------------

class PlaneCurve:
    """A homogeneous form in x, y, z over a tower.

    The form is kept with structurally nonzero coefficients only.
    """

    __slots__ = ("tower", "degree", "form", "_partials", "_smooth")

    def __init__(self, tower, degree, form):
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
        self._partials = None
        self._smooth = None

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
        table = _monomial_table(self.tower, point, self.degree)
        return _form_value(self.tower, self.form, table)

    def contains(self, point):
        return self.evaluate(point).is_zero()

    def partial(self, axis):
        out = _partial_form(self.form, axis)
        return PlaneCurve(self.tower, self.degree - 1, out) if out else None

    def gradient(self, point):
        """(dC/dx, dC/dy, dC/dz) at the point.

        The partials are made once per curve and evaluated on one shared
        table of the degree-(d - 1) monomials.  By Euler's relation
        grad C(p).p = d C(p), and grad C(p).q is the first polar of C with
        respect to q, evaluated at p.
        """
        if self._partials is None:
            self._partials = tuple(_partial_form(self.form, axis) for axis in range(3))
        table = _monomial_table(self.tower, point, self.degree - 1)
        return tuple(_form_value(self.tower, f, table) for f in self._partials)

    def dehomogenize(self, chart):
        a, b = _chart_pair(chart)
        terms = {}
        for exps, c in self.form.items():
            key = (exps[a], exps[b])
            terms[key] = terms[key] + c if key in terms else c
        return BiPoly(self.tower, terms)

    def normalized(self):
        """Scale so the lexicographically first coefficient is one.  A form
        holds no structural zero, so the inverse is the only zero test: it
        raises ZeroDivisorEncountered over a split-pending tower."""
        return self.scale(self.form[max(self.form)].invert())

    def embedded(self, tower):
        """The curve over ``tower``, keeping its ``is_smooth_curve`` answer."""
        if tower is self.tower or tower == self.tower:
            return self
        form = {k: c.embedded(tower) for k, c in self.form.items()}
        out = PlaneCurve(tower, self.degree, form)
        out._smooth = self._smooth
        return out

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
            degree = data["degree"]
            if type(degree) is not int or degree < 1:
                raise ValueError("curve degree %r is not a positive integer" % (degree,))
            form = {}
            for key, val in data["terms"].items():
                exps = tuple(int(s) for s in key.split(","))
                if any(s < 0 for s in exps):
                    raise ValueError("negative exponent in term %r" % (key,))
                form[exps] = TowerElement(tower, rep_from_data(tower.levels, tower.height, val))
            return cls(tower, degree, form)

    def __repr__(self):
        return "PlaneCurve(degree=%d, %d terms)" % (self.degree, len(self.form))


def _monomial_table(tower, point, degree):
    """The degree-``degree`` monomials x^i y^j z^k at a point, keyed (i, j, k).

    Built degree by degree with one multiplication per monomial.  None
    stands for one: the empty product and the chart coordinate of a
    ProjPoint, so that no value is multiplied by one.  False stands for
    zero: a structurally zero coordinate of a raw triple and every monomial
    it divides, so that no value is multiplied by zero.
    """
    if isinstance(point, ProjPoint):
        units = [None if i == point.chart else c for i, c in enumerate(point.coords)]
    else:
        units = [_coerce_elem(tower, c) for c in point]
        units = [False if _is_szero(u.rep, tower.height) else u for u in units]
    table = {(0, 0, 0): None}
    for e in range(1, degree + 1):
        nxt = {}
        for i in range(e, -1, -1):
            for j in range(e - i, -1, -1):
                k = e - i - j
                # peel one factor off the first positive exponent
                axis = 0 if i else (1 if j else 2)
                low = table[(i - (axis == 0), j - (axis == 1), k - (axis == 2))]
                u = units[axis]
                if low is False or u is False:
                    nxt[(i, j, k)] = False
                else:
                    nxt[(i, j, k)] = u if low is None else (low if u is None else low * u)
        table = nxt
    return table


def _form_value(tower, form, table):
    """The sum of c * monomial over a form, read from a monomial table."""
    acc = None
    for exps, c in form.items():
        m = table[exps]
        if m is False:
            continue
        term = c if m is None else c * m
        acc = term if acc is None else acc + term
    return tower.zero() if acc is None else acc


def _partial_form(form, axis):
    out = {}
    for exps, c in form.items():
        e = exps[axis]
        if e:
            new = list(exps)
            new[axis] = e - 1
            out[tuple(new)] = c * e
    return out


def _polar_value(grad, point):
    """grad . point for a ProjPoint, whose chart coordinate is one."""
    a, b = _chart_pair(point.chart)
    return grad[point.chart] + grad[a] * point.coords[a] + grad[b] * point.coords[b]


def _scaled(c, point):
    """c times the coordinates of a ProjPoint, whose chart coordinate is one."""
    return [c if i == point.chart else c * x for i, x in enumerate(point.coords)]


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
    return PlaneCurve.line(c.tower, _tangent_gradient(c, p))


def _tangent_gradient(c, p):
    """grad c(p), the coefficients of the tangent line at a smooth point p on c.

    The one gradient serves both checks: p is on c when grad c(p).p = 0
    (Euler's relation; a nonzero constant form contains no point).
    """
    grad = c.gradient(p)
    if c.degree == 0 or not _polar_value(grad, p).is_zero():
        raise LineNotIncident("point is not on the curve")
    if all(g.is_zero() for g in grad):
        raise SingularPoint("gradient vanishes at the point")
    return grad


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
    the curve, so this decides smoothness in characteristic zero, over every
    extension of the curve's tower; an answer reached over Q[x]/(m) without a
    zero divisor holds in every factor of m (dynamic evaluation, Della Dora-
    Dicrescenzo-Duval, EUROCAL '85).  So the answer is kept on the curve and
    ``PlaneCurve.embedded`` carries it: a curve is certified once.
    """
    if c._smooth is None:
        c._smooth = _smooth_sweep(c)
    return c._smooth


def _smooth_sweep(c):
    if c.degree == 1:
        return True
    parts = [c.partial(axis) for axis in range(3)]
    if any(p is None for p in parts):
        return False
    try:
        candidates = intersection_points(parts[0], parts[1], c.tower)
    except CommonComponent:
        return False
    for rec in candidates:
        third = parts[2].embedded(rec.tower)
        if third.evaluate(rec.point).is_zero():
            return False
    return True


def tangents_through(c, q, tower=None):
    """The tangent lines of c passing through the point q, one per packet.

    Tangency points are the smooth points of c on the first polar of q.
    Each packet record of that intersection gives one normalized line over
    the record's tower, standing for as many conjugate lines as that tower's
    degree over ``tower``.
    """
    tower = tower or c.tower
    base = c.embedded(tower)
    qq = q.embedded(tower)
    pol = polar_curve(base, qq)
    out = []
    for rec in intersection_points(base, pol, tower):
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

    Every construction certifies smoothness (``is_smooth_curve``), the
    origin on the cubic (``_tangent_gradient``) and the maximal tangency of
    its tangent (which meets the cubic only at the origin).  The gradient at
    the origin, whose entries are the tangent's coefficients, is kept for
    every step of the group law.

    ``add`` is ``ec_add`` read through a table of the sums this structure
    has formed, keyed by the two points' coordinate reps in sorted order,
    so both orders of a pair read one entry.  ``embedded`` into another
    tower makes a new structure with an empty table, whose cubic carries
    its smoothness, so only the origin's tangency is tested again.
    """

    __slots__ = ("cubic", "origin", "origin_tangent", "origin_gradient", "_sums")

    def __init__(self, cubic, origin):
        if cubic.degree != 3:
            raise ValueError("elliptic structure needs a cubic")
        if origin.tower != cubic.tower:
            raise ValueError("origin must live in the cubic's tower")
        if not is_smooth_curve(cubic):
            raise SingularPoint("cubic is not smooth")
        grad = _tangent_gradient(cubic, origin)
        if _tangent_residual(cubic, origin, _second_point(grad, origin.chart)) != origin:
            raise WrongFlex("tangent at origin is not maximal")
        self.cubic = cubic
        self.origin = origin
        self.origin_tangent = PlaneCurve.line(cubic.tower, grad)
        self.origin_gradient = grad
        self._sums = {}

    @property
    def tower(self):
        return self.cubic.tower

    def add(self, p, q):
        """``ec_add(self, p, q)``, formed once per pair of points.

        Only points over this structure's very tower object read the table:
        reps of equal shape over another tower name other points, and
        ``ec_add`` refuses them.  A sum is stored once ``ec_add`` returns,
        so a zero divisor met on the way leaves no entry.
        """
        tower = self.cubic.tower
        if p.tower is not tower or q.tower is not tower:
            return ec_add(self, p, q)
        kp = tuple(c.rep for c in p.coords)
        kq = tuple(c.rep for c in q.coords)
        key = (kp, kq) if kp <= kq else (kq, kp)
        r = self._sums.get(key)
        if r is None:
            r = self._sums[key] = ec_add(self, p, q)
        return r

    def embedded(self, tower):
        if tower == self.tower:
            return self
        return EllipticStructure(self.cubic.embedded(tower), self.origin.embedded(tower))


def _check_on_cubic(*pairs):
    """Refuse a point off the cubic: for each (grad C(x), x) pair, x is on C
    when grad C(x).x = 3 C(x) vanishes (Euler's relation)."""
    for g, x in pairs:
        if not _polar_value(g, x).is_zero():
            raise LineNotIncident("point off the cubic")


def _chord_residual(cubic, p, q, gp, gq):
    """The third point of the cubic on the line through p != q, both on it.

    On the line through A and B, C(sA + tB) = C(A) s^3 + (grad C(A).B) s^2 t
    + (grad C(B).A) s t^2 + C(B) t^3.  With A = p and B = q on the cubic the
    outer terms vanish, so r = (grad C(q).p) p - (grad C(p).q) q.
    """
    a, b = _polar_value(gq, p), -_polar_value(gp, q)
    return ProjPoint(cubic.tower, [x + y for x, y in zip(_scaled(a, p), _scaled(b, q))])


def _second_point(line, c):
    """B = e_c x line, a point of the line with B_c = 0, from the line's
    coefficients with no product and no zero test."""
    j, k = (c + 1) % 3, (c + 2) % 3
    B = [line[c].tower.zero()] * 3
    B[j], B[k] = -line[k], line[j]
    return B


def _tangent_residual(cubic, p, B):
    """The third point of the cubic on its tangent at p, where B is
    ``_second_point`` of the tangent for the chart c of p.

    On the line through p and B, C(sp + tB) = C(p) s^3 + (grad C(p).B) s^2 t
    + (grad C(B).p) s t^2 + C(B) t^3.  With p on the cubic and the line
    tangent there the first two terms vanish, and r = 3 C(B) p -
    3 (grad C(B).p) B, with 3 C(B) read off Euler's relation as grad C(B).B.
    B is on the line, and B_c = 0 while p_c = 1, so B is another point; B is
    not zero, since a line proportional to e_c would miss p.  So B needs no
    zero test, no normalization and no comparison with p.
    """
    c = p.chart
    j, k = (c + 1) % 3, (c + 2) % 3
    gb = cubic.gradient(B)
    a = gb[j] * B[j] + gb[k] * B[k]
    b = -(_polar_value(gb, p) * cubic.degree)
    coords = [a, a, a]  # p_c = 1 and B_c = 0
    coords[j] = a * p.coords[j] + b * B[j]
    coords[k] = a * p.coords[k] + b * B[k]
    return ProjPoint(cubic.tower, coords)


def line_cubic_residual(cubic, line, p, q):
    """The residual point r with line . cubic = p + q + r as divisors, for a
    line from outside the group law.

    It refuses a point off the line, a point off the cubic and, for p = q,
    a line not tangent at p, then hands off to the law's residuals,
    ``_chord_residual`` for p != q and ``_tangent_residual`` for p = q.
    """
    if not line.contains(p) or not line.contains(q):
        raise LineNotIncident("point off the line")
    gp = cubic.gradient(p)
    if p == q:
        _check_on_cubic((gp, p))
        c = p.chart
        j, k = (c + 1) % 3, (c + 2) % 3
        B = _second_point([line.coefficient(m) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1))], c)
        if not (gp[j] * B[j] + gp[k] * B[k]).is_zero():
            raise LineNotIncident("line is not tangent at the point")
        return _tangent_residual(cubic, p, B)
    gq = cubic.gradient(q)
    _check_on_cubic((gp, p), (gq, q))
    return _chord_residual(cubic, p, q, gp, gq)


def ec_add(e, p, q):
    """Chord-tangent sum on the cubic with the structure's flex as origin.

    Each operand is tested once, here: a chord's p and q by Euler's
    relation on their gradients, a doubling's p by ``_tangent_gradient``,
    whose gradient is the tangent the residual reads.  The step through the
    origin reads the structure's origin gradient.  No line is built: the
    residuals read the gradients alone.
    """
    cubic = e.cubic
    if p == q:
        gp = _tangent_gradient(cubic, p)
        r = _tangent_residual(cubic, p, _second_point(gp, p.chart))
    else:
        gp, gq = cubic.gradient(p), cubic.gradient(q)
        _check_on_cubic((gp, p), (gq, q))
        r = _chord_residual(cubic, p, q, gp, gq)
    return _origin_residual(e, r)


def ec_neg(e, p):
    if p == e.origin:
        return p
    return _origin_residual(e, p)


def _origin_residual(e, r):
    """The third point of the cubic on the line through r and the origin,
    which is the origin tangent when r is the origin.  Only r is tested:
    the structure certified its origin when it was built."""
    g0 = e.origin_gradient
    if r == e.origin:
        return _tangent_residual(e.cubic, r, _second_point(g0, r.chart))
    gr = e.cubic.gradient(r)
    _check_on_cubic((gr, r))
    return _chord_residual(e.cubic, r, e.origin, gr, g0)


def ec_mul(e, n, p):
    """n*p by double-and-add; raises LineNotIncident for p off the cubic.

    p is tested where it enters the law: by ``ec_neg`` for n < 0, by the
    first doubling for n >= 2 (a table entry for (p, p) means ``ec_add``
    tested it), and here for n = 1, which forms no sum.
    """
    if n == 0:
        return e.origin
    if n == 1 and not e.cubic.contains(p):
        raise LineNotIncident("point is not on the cubic")
    if n < 0:
        n, p = -n, ec_neg(e, p)
    acc = None
    base = p
    while True:
        if n & 1:
            acc = base if acc is None else e.add(acc, base)
        n >>= 1
        if not n:
            return acc
        base = e.add(base, base)


def ec_sum(e, terms):
    """The sum of n*p over the (n, p) pairs; the origin when all n vanish."""
    acc = None
    for n, p in terms:
        if n:
            q = ec_mul(e, n, p)
            acc = q if acc is None else e.add(acc, q)
    return e.origin if acc is None else acc


def point_order(e, p, bound):
    """Least n <= bound with n*p = origin, or None."""
    return order_by_descent(
        p,
        bound,
        e.add,
        lambda n, a: ec_mul(e, n, a),
        lambda a: a == e.origin,
    )


def prime_powers(n):
    """(q, k) for each prime power q^k exactly dividing n >= 1, q increasing."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            k = 0
            while n % q == 0:
                n //= q
                k += 1
            out.append((q, k))
        q += 1
    if n > 1:
        out.append((n, 1))
    return out


def order_by_descent(p, bound, add, mul, is_origin):
    """Least n <= bound with n*p at the origin, or None, in any group law.

    When the order divides ``bound``, its q-part is the least q^f that takes
    (bound / q^k) * p to the origin, for each q^k exactly dividing bound
    (Sutherland, Order Computations in Generic Groups, 2007): one descent
    per prime, a few multiplications in all.  A chain that does not reach
    the origin after k steps shows bound * p is not the origin, and then
    the multiples are walked one by one, so an order below bound that does
    not divide it is still found.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    if bound > 1:
        order = _order_dividing(p, bound, add, mul, is_origin)
        if order is not None:
            return order
    acc = p
    for n in range(1, bound + 1):
        if is_origin(acc):
            return n
        if n < bound:
            acc = add(acc, p)
    return None


def _order_dividing(p, bound, add, mul, is_origin):
    """The order of p when it divides bound > 1, else None.

    Every chain reads one ladder: ``mults`` keeps n*p by n, and c*(m*p) is
    double-and-add over it, so no sum is formed twice across the primes.
    """
    mults = {1: mul(1, p)}  # p itself, with the operand check ``mul`` makes

    def total(i, j):
        if i + j not in mults:
            mults[i + j] = add(mults[i], mults[j])
        return i + j

    def times(c, m):
        acc = None
        while True:
            if c & 1:
                acc = m if acc is None else total(acc, m)
            c >>= 1
            if not c:
                return acc
            m = total(m, m)

    order = 1
    for q, k in prime_powers(bound):
        m = times(bound // q**k, 1)
        f = 0
        while not is_origin(mults[m]):
            if f == k:
                return None
            m = times(q, m)
            f += 1
        order *= q**f
    return order


# ---------------------------------------------------------------------------
# Fulton's intersection multiplicity
# ---------------------------------------------------------------------------

def intersection_multiplicity(c, d, p):
    """The intersection number of c and d at p.

    Where p is smooth on both curves, the number is one exactly when their
    tangent lines differ (Fulton, Algebraic Curves, section 3.3, property
    (5)): p is on a curve when grad C(p).p = 0 (Euler's relation), and two
    gradients that are not proportional have a nonzero cross product.
    Everywhere else Fulton's recursion decides: the curves are
    dehomogenized in the canonical chart of p and translated so p becomes
    the origin, and the recursion runs on the affine forms.  A count past
    the Bezout number deg(c) * deg(d) can only come from a shared component
    through p, which raises CommonComponent.
    """
    if c.tower != d.tower or p.tower != c.tower:
        raise ValueError("curve/point towers differ")
    gc = c.gradient(p)
    gd = d.gradient(p)
    if (
        _polar_value(gc, p).is_zero()
        and _polar_value(gd, p).is_zero()
        and not all(x.is_zero() for x in cross(gc, gd))
    ):
        return 1
    chart = p.chart
    u0, v0 = p.affine()
    F = c.dehomogenize(chart).translate(u0, v0)
    G = d.dehomogenize(chart).translate(u0, v0)
    return _fulton(F, G, c.tower, c.degree * d.degree)


def _fulton(F, G, tower, bound):
    """I_0(F, G) by Fulton's recursion (*Algebraic Curves*, section 3.3): a
    u-order where one form is divisible by v, otherwise a step that cancels
    the leading term of G(u, 0) against F(u, 0) of no larger degree.  A step
    subtracts coeff * u^(s - r) * F from G's terms in place, so both forms
    are copied first; a form divided by v is a new one."""
    F, G = BiPoly(tower, F.terms), BiPoly(tower, G.terms)
    f = F.restrict_v0()
    g = G.restrict_v0()
    result, h = 0, tower.height
    for _step in range(100000):
        if F.is_zero() or G.is_zero() or result > bound:
            raise CommonComponent("a shared factor passes through the point")
        if not F.coefficient(0, 0).is_zero() or not G.coefficient(0, 0).is_zero():
            return result
        if f.is_zero() and g.is_zero():
            raise CommonComponent("v divides both forms at the point")
        if f.is_zero():
            # F = v * F1 ; I(v, G) is the u-order of G(u, 0)
            result += _u_order(g)
            F = F.div_v()
            f = F.restrict_v0()
            continue
        if g.is_zero():
            result += _u_order(f)
            G = G.div_v()
            g = G.restrict_v0()
            continue
        r, s = f.degree, g.degree
        if r > s:
            F, G, f, g = G, F, g, f
            r, s = s, r
        if r == 0:
            # F(u,0) is a nonzero constant, but F(0,0) = 0: impossible
            raise CommonComponent("inconsistent local forms")
        # kill the leading u-term of g|v=0: G -= coeff * u^(s - r) * F; f stays
        coeff = g.coefficient(s) * f.coefficient(r).invert()
        terms = G.terms
        for (i, j), c in F.terms.items():
            k = (i + s - r, j)
            x = terms[k] - coeff * c if k in terms else -(coeff * c)
            if _is_szero(x.rep, h):
                del terms[k]
            else:
                terms[k] = x
        g = G.restrict_v0()
    raise RuntimeError("Fulton recursion did not terminate")


def _u_order(f):
    for i in range(f.degree + 1):
        if not f.coefficient(i).is_zero():
            return i
    raise ValueError("zero polynomial has no order")


# ---------------------------------------------------------------------------
# intersection points, one record per conjugate packet
# ---------------------------------------------------------------------------

class IntersectionRecord:
    """One intersection entry: a representative point, the tower it lives
    in, and how many closure points it stands for."""

    __slots__ = ("point", "tower", "orbit")

    def __init__(self, point, tower, orbit):
        self.point = point
        self.tower = tower
        self.orbit = orbit

    def __repr__(self):
        return "IntersectionRecord(orbit=%d, %r)" % (self.orbit, self.point)


def intersection_points(c, d, tower=None):
    """All intersection points of two curves over extensions of ``tower``.

    Points with a nonzero z-coordinate are found in the affine chart z = 1 by
    a resultant elimination in y; the points (x0 : 1 : 0) of the line z = 0
    are the common roots of the restrictions to z = 0 in the chart y = 1, and
    [1:0:0] is checked on its own.  Each record carries an orbit count, so
    the sum over records of orbit * ``intersection_multiplicity`` at the
    point is the Bezout number deg(c) * deg(d).  A packet whose tower would
    exceed the degree cap raises BudgetExceeded.
    """
    tower = tower or c.tower
    cc = c.embedded(tower)
    dd = d.embedded(tower)

    def record(tw, pt):
        return IntersectionRecord(pt, tw, tw.absolute_degree // tower.absolute_degree)

    # points on the line z = 0: c(x0, 1, 0) = d(x0, 1, 0) = 0, and [1:0:0]
    uf = cc.dehomogenize(1).restrict_v0()
    ug = dd.dehomogenize(1).restrict_v0()
    records = _common_roots(
        uf, ug, tower, "w", "z divides both curves",
        lambda tw, x0: [record(tw, ProjPoint(tw, [x0, tw.one(), tw.zero()]))],
    )
    if uf.degree < cc.degree and ug.degree < dd.degree:
        records.insert(0, record(tower, ProjPoint(tower, [1, 0, 0])))

    # affine chart z = 1: the x-roots of Res_y, then the common y-roots above each
    F = cc.dehomogenize(2)
    G = dd.dehomogenize(2)
    cols_f = F.v_columns()
    cols_g = G.v_columns()
    if len(cols_f) == 1 and len(cols_g) == 1:
        # both curves are unions of lines through [0:1:0]
        if poly_gcd(cols_f[0], cols_g[0]).degree >= 1:
            raise CommonComponent("curves share a vertical line")
        return records
    res = resultant_bivariate(cols_f, cols_g, tower)
    if res.is_zero():
        raise CommonComponent("vanishing resultant")

    def fiber(ext, x):
        # F(x, v) and G(x, v): each v-column evaluated at x by Horner's rule
        return _common_roots(
            UniPoly(ext, [c.embedded(ext).evaluate(x) for c in cols_f]),
            UniPoly(ext, [c.embedded(ext).evaluate(x) for c in cols_g]),
            ext, "y", "curves share the line x = const",
            lambda tw, y0: [record(tw, ProjPoint(tw, [x.embedded(tw), y0, tw.one()]))],
        )

    return records + _at_roots(res, tower, "x", fiber)


def _at_roots(h, tower, hint, fn):
    """The lists ``fn(tw, r)`` joined over the roots r of h, each in its tower tw.

    ``fn`` runs under ``with_splitting`` above ``tower``; a zero divisor at a
    level of ``tower`` itself is the caller's to split.
    """
    if h.degree < 1:
        return []  # no roots, as above a spurious resultant root
    out = []
    for rp in root_packets(h, tower, name_hint=hint):

        def run(tw, r=rp.element):
            return fn(tw, r.embedded(tw))

        for _tw, found in with_splitting(rp.tower, run, tower.height):
            out.extend(found)
    return out


def _common_roots(f, g, tower, hint, shared, fn):
    """``_at_roots`` on the common roots of f and g; both vanishing is ``shared``."""
    if f.is_zero() and g.is_zero():
        raise CommonComponent(shared)
    h = g if f.is_zero() else (f if g.is_zero() else poly_gcd(f, g))
    return _at_roots(h, tower, hint, fn)


def flex_points(c, tower=None):
    """Common zeros of a smooth cubic and its Hessian, as packet records.

    Each IntersectionRecord holds the generic root of one conjugate packet
    over its tower; the orbits sum to nine.  A packet whose tower would pass
    the degree cap raises BudgetExceeded.
    """
    return intersection_points(c, hessian(c), tower)


# ---------------------------------------------------------------------------
# branch series and interpolation
# ---------------------------------------------------------------------------

class BranchSeries:
    """Truncated local parametrization of a curve branch at a smooth point.

    ``u_series``/``v_series`` are coefficient lists (length order + 1) of the
    two affine chart coordinates as series in the local parameter; ``chart``
    names the dehomogenization chart.
    """

    __slots__ = ("chart", "u_series", "v_series")

    def __init__(self, chart, u_series, v_series):
        self.chart = chart
        self.u_series = u_series
        self.v_series = v_series


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
    """Local parametrization of the unique branch of c at the smooth point p.

    In the chart of p, translated so p is the origin, F(u, v) = 0 with
    dF/dv(0, 0) != 0 (else u and v swap) has the branch u = t,
    v = sum c_k t^k with v(0) = 0.  The coefficient of t^k in F(t, v(t)) is
    sum a_ij [t^(k-i)] v^j, in which c_k enters only through a_01 c_k, so
    c_k = -(the rest) / a_01.  One table pw[e][m] = [t^m] v^e is filled
    column by column: since v(0) = 0, column k of v^e for e >= 2 reads only
    c_1 .. c_(k-1), and v^e has no term below t^e.
    """
    chart = p.chart
    u0, v0 = p.affine()
    F = c.dehomogenize(chart).translate(u0, v0)
    t = c.tower
    if not F.coefficient(0, 0).is_zero():
        raise LineNotIncident("point is not on the curve")
    du = F.coefficient(1, 0)
    dv = F.coefficient(0, 1)
    swap = False
    if dv.is_zero():
        if du.is_zero():
            raise SingularPoint("branch expansion needs a smooth point")
        F = F.swap()
        du, dv = dv, du
        swap = True
    dvinv = dv.invert()
    terms = [(i, j, a) for (i, j), a in F.terms.items() if (i, j) != (0, 1) and i <= order]
    maxv = max([j for _, j, _a in terms] + [1])
    zero = t.zero()
    pw = [[t.one()] + [zero] * order] + [[zero] * (order + 1) for _ in range(maxv)]
    vs = pw[1]
    for k in range(1, order + 1):
        for e in range(2, min(maxv, k) + 1):
            # [t^k] v^e = sum over i of c_i [t^(k-i)] v^(e-1), nonzero for k - i >= e - 1
            acc = vs[1] * pw[e - 1][k - 1]
            for i in range(2, k - e + 2):
                acc = acc + vs[i] * pw[e - 1][k - i]
            pw[e][k] = acc
        val = zero
        for i, j, a in terms:
            if j == 0:
                if i == k:
                    val = val + a
            elif k - i >= j:
                val = val + a * pw[j][k - i]
        vs[k] = -(val * dvinv)
    us = [zero] * (order + 1)
    if order >= 1:
        us[1] = t.one()
    if swap:
        us, vs = vs, us
    us[0] = us[0] + u0
    vs[0] = vs[0] + v0
    return BranchSeries(chart, us, vs)


def _monomial_series(us, vs, exps, order, tower):
    """u(t)^i v(t)^j truncated at ``order`` for each (i, j) in ``exps``.

    One power table per coordinate serves every monomial.
    """
    utab = _series_pow_table(us, max((i for i, _ in exps), default=0), order, tower)
    vtab = _series_pow_table(vs, max((j for _, j in exps), default=0), order, tower)
    return [_series_mul(utab[i], vtab[j], order, tower) for i, j in exps]


def interpolate_curve_with_divisor(e, conditions, degree):
    """The curve of the given degree meeting the cubic as prescribed.

    ``conditions`` lists (point, multiplicity) pairs; the kernel of the
    linear system "composition with the cubic's branch series vanishes to the
    required order at every point" must be one-dimensional projectively.
    """
    total = sum(m for _, m in conditions)
    if total != 3 * degree:
        raise ValueError("multiplicities must sum to 3 * degree")
    if any(m < 1 for _, m in conditions):
        raise ValueError("multiplicities must be positive")
    t = e.tower
    monomials = [
        (i, j, degree - i - j) for i in range(degree + 1) for j in range(degree - i + 1)
    ]
    rows = []
    for point, mult in conditions:
        # the rows read t^0 .. t^(mult - 1) of each monomial along the branch
        series = branch_series(e.cubic, point, mult - 1)
        a, b = _chart_pair(series.chart)
        exps = [(m[a], m[b]) for m in monomials]
        cols = _monomial_series(series.u_series, series.v_series, exps, mult - 1, t)
        rows.extend([col[r] for col in cols] for r in range(mult))
    kernel = kernel_basis(rows, len(monomials), t)
    if not kernel:
        raise NoSolution("no curve satisfies the tangency conditions")
    if len(kernel) > 1:
        raise NonUnique("degenerate configuration: kernel dimension %d" % len(kernel))
    vec = kernel[0]
    form = {exps: vec[i] for i, exps in enumerate(monomials)}
    return PlaneCurve(t, degree, form)
