"""Weierstrass models of smooth cubics with a flex, and division polynomials.

A cubic with a flex origin is carried to y^2 z + a1 x y z + a3 y z^2 =
x^3 + a2 x^2 z + a4 x z^2 + a6 z^3 by a projective change of coordinates
sending the flex to [0:1:0] and its tangent to the line z = 0.  The model
supports the textbook affine addition formulas and the univariate division
polynomial machinery used by the torsion oracles and by ``divide_point``,
the one routine that finds every P with nP = a given point.  Rational
torsion is found one prime power at a time: ``rational_points_of_order``
reads psi_{q^k} only for prime powers q^k and sums the parts for any other
order, so 90c3's Z/12 comes from psi_4 and psi_3 rather than the degree-70
psi_12.  Orders are found by one descent per prime of the bound
(``geometry.order_by_descent``), shared with the chord-tangent law.  The
chord-tangent law in geometry.py stays the independent primary route;
everything here is a search/oracle device.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import SingularPoint
from .fields import UniPoly, poly_gcd, squarefree_part, with_splitting
from .geometry import (
    PlaneCurve,
    ProjPoint,
    _at_roots,
    _proportional_forms,
    _second_point,
    form_sum,
    order_by_descent,
    prime_powers,
)
from .polysolve import mat3_adjugate, mat3_apply, rational_roots


class WeierstrassModel:
    """A Weierstrass form together with the transform back to the source cubic.

    ``to_source`` maps model coordinates to coordinates of the cubic the
    model was derived from; ``from_source`` is its adjugate inverse.
    Affine model points are (x, y) pairs of tower elements, with None for
    the point at infinity.

    A model keeps a table of the rational points of each exact order it has
    searched, which ``rational_points_of_order`` reads and fills, as an
    EllipticStructure keeps its sums; ``embedded`` into another tower makes
    a new model with an empty table.
    """

    __slots__ = ("tower", "a1", "a2", "a3", "a4", "a6", "to_source", "from_source", "_torsion")

    def __init__(self, tower, a_invariants, to_source, from_source=None):
        self.tower = tower
        self.a1, self.a2, self.a3, self.a4, self.a6 = a_invariants
        if from_source is None:
            from_source = mat3_adjugate(to_source)
        self.to_source = to_source
        self.from_source = from_source
        self._torsion = {}

    # -- the model as a projective curve --------------------------------------

    def curve(self):
        t = self.tower
        one = t.one()
        return PlaneCurve(
            t,
            3,
            {
                (0, 2, 1): one,
                (1, 1, 1): self.a1,
                (0, 1, 2): self.a3,
                (3, 0, 0): -one,
                (2, 0, 1): -self.a2,
                (1, 0, 2): -self.a4,
                (0, 0, 3): -self.a6,
            },
        )

    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def discriminant(self):
        b2, b4, b6, b8 = self.b_invariants()
        return (
            -b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        )

    # -- affine arithmetic ------------------------------------------------------

    def on_curve(self, pt):
        if pt is None:
            return True
        x, y = pt
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = x * x * x + self.a2 * x * x + self.a4 * x + self.a6
        return (lhs - rhs).is_zero()

    def y_discriminant(self, x):
        """(a, disc) with the points (x, y) on the model solving (2y + a)^2 = disc.

        a = a1 x + a3 and disc = a^2 + 4 (x^3 + a2 x^2 + a4 x + a6).
        """
        a = self.a1 * x + self.a3
        rhs = x * x * x + self.a2 * x * x + self.a4 * x + self.a6
        return a, a * a + 4 * rhs

    def neg(self, pt):
        if pt is None:
            return None
        x, y = pt
        return (x, -y - self.a1 * x - self.a3)

    def add(self, p1, p2):
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        x1, y1 = p1
        x2, y2 = p2
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        if (x1 - x2).is_zero():
            if (y1 + y2 + a1 * x2 + a3).is_zero():
                return None
            den = 2 * y1 + a1 * x1 + a3
            inv = den.invert()
            lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * inv
            nu = (-(x1 * x1 * x1) + a4 * x1 + 2 * a6 - a3 * y1) * inv
        else:
            inv = (x2 - x1).invert()
            lam = (y2 - y1) * inv
            nu = (y1 * x2 - y2 * x1) * inv
        x3 = lam * lam + a1 * lam - a2 - x1 - x2
        y3 = -(lam + a1) * x3 - nu - a3
        return (x3, y3)

    def mul(self, n, pt):
        if n < 0:
            return self.mul(-n, self.neg(pt))
        acc = None
        base = pt
        while n:
            if n & 1:
                acc = self.add(acc, base)
            n >>= 1
            if n:
                base = self.add(base, base)
        return acc

    def order(self, pt, bound):
        """Least n <= bound with n*pt the point at infinity, or None."""
        return order_by_descent(pt, bound, self.add, self.mul, lambda a: a is None)

    # -- moving points between the model and the source cubic --------------------

    def point_to_source(self, pt):
        t = self.tower
        if pt is None:
            v = (t.zero(), t.one(), t.zero())
        else:
            v = (pt[0], pt[1], t.one())
        return ProjPoint(t, mat3_apply(self.to_source, v))

    def point_from_source(self, p):
        tower = p.tower
        mat = self._embedded_matrix(self.from_source, tower)
        img = ProjPoint(tower, mat3_apply(mat, p.coords))
        if img.coords[2].is_zero():
            return None
        zinv = img.coords[2].invert()
        return (img.coords[0] * zinv, img.coords[1] * zinv)

    def _embedded_matrix(self, mat, tower):
        return [[e.embedded(tower) for e in row] for row in mat]

    def embedded(self, tower):
        if tower == self.tower:
            return self
        ai = tuple(a.embedded(tower) for a in (self.a1, self.a2, self.a3, self.a4, self.a6))
        to_src = self._embedded_matrix(self.to_source, tower)
        from_src = self._embedded_matrix(self.from_source, tower)
        return WeierstrassModel(tower, ai, to_src, from_src)


def weierstrass_model(e):
    """Derive a Weierstrass model from an elliptic structure.

    The flex goes to [0:1:0] and the inflectional tangent to z = 0; a final
    rational rescaling normalizes the x^3 and y^2 z coefficients.  The
    composite transform is verified against the source form exactly.
    """
    t = e.tower
    cubic = e.cubic
    O = e.origin
    LO = e.origin_tangent
    # a second point of the tangent line: zero on the origin's chart, so not the origin
    A_pt = ProjPoint(t, _second_point(e.origin_gradient, O.chart))
    # a third basis point off the tangent line
    basis_b = None
    for cand in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        p = ProjPoint(t, [t.rational(c) for c in cand])
        if not LO.contains(p):
            basis_b = p
            break
    m = [
        [A_pt.coords[i], O.coords[i], basis_b.coords[i]]
        for i in range(3)
    ]
    g = _pullback(cubic, m)
    alpha = g.coefficient((3, 0, 0))
    beta = g.coefficient((0, 2, 1))
    if alpha.is_zero() or beta.is_zero():
        raise SingularPoint("degenerate flex frame")
    tt = -(alpha * beta)
    ss = alpha * alpha * beta
    # m times diag(tt, ss, 1)
    w = [[row[0] * tt, row[1] * ss, row[2]] for row in m]
    g2 = _pullback(cubic, w)
    unit = (beta * ss * ss).invert()

    def coeff(exps):
        return g2.coefficient(exps) * unit

    a1 = coeff((1, 1, 1))
    a3 = coeff((0, 1, 2))
    a2 = -coeff((2, 0, 1))
    a4 = -coeff((1, 0, 2))
    a6 = -coeff((0, 0, 3))
    model = WeierstrassModel(t, (a1, a2, a3, a4, a6), to_source=w)
    if not _proportional_forms(g2, model.curve()):
        raise SingularPoint("model derivation failed verification")
    return model


def _pullback(curve, mat):
    """The form curve(mat * (x, y, z)) as a new PlaneCurve."""
    t = curve.tower
    rows = [
        PlaneCurve(
            t,
            1,
            {
                (1, 0, 0): mat[i][0],
                (0, 1, 0): mat[i][1],
                (0, 0, 1): mat[i][2],
            },
        )
        for i in range(3)
    ]
    terms = []
    for exps, c in curve.form.items():
        term = None
        for axis, e in enumerate(exps):
            for _ in range(e):
                term = rows[axis] if term is None else term * rows[axis]
        terms.append((c, term))
    total = form_sum(t, curve.degree, terms)
    if total is None:
        raise ValueError("zero form")
    return total


# ---------------------------------------------------------------------------
# univariate division polynomials
# ---------------------------------------------------------------------------

class DivisionPolynomials:
    """Univariate division polynomial cache for a Weierstrass model.

    Uses the even/odd convention in which the full division polynomial is
    p_n for odd n and p_n * (2y + a1 x + a3) for even n, so every stored
    polynomial lives in the x-line.  ``doubling_cubic`` is the square of the
    even factor, 4x^3 + b2 x^2 + 2 b4 x + b6.
    """

    def __init__(self, model):
        self.model = model
        t = model.tower
        b2, b4, b6, b8 = model.b_invariants()
        one = UniPoly(t, (t.one(),))
        self.doubling_cubic = UniPoly(t, (b6, 2 * b4, b2, t.rational(4)))
        self._cache = {
            0: UniPoly(t, ()),
            1: one,
            2: one,
            3: UniPoly(t, (b8, 3 * b6, 3 * b4, b2, t.rational(3))),
            4: UniPoly(
                t,
                (
                    b4 * b8 - b6 * b6,
                    b2 * b8 - b4 * b6,
                    10 * b8,
                    10 * b6,
                    5 * b4,
                    b2,
                    t.rational(2),
                ),
            ),
        }

    def raw(self, n):
        if n < 0:
            raise ValueError("nonnegative index expected")
        cache = self._cache
        if n in cache:
            return cache[n]
        B2 = self.doubling_cubic * self.doubling_cubic
        m = n // 2
        if n % 2 == 1:
            a = self.raw(m + 2) * self.raw(m) * self.raw(m) * self.raw(m)
            b = self.raw(m - 1) * self.raw(m + 1) * self.raw(m + 1) * self.raw(m + 1)
            val = a * B2 - b if m % 2 == 0 else a - b * B2
        else:
            val = self.raw(m) * (
                self.raw(m + 2) * self.raw(m - 1) * self.raw(m - 1)
                - self.raw(m - 2) * self.raw(m + 1) * self.raw(m + 1)
            )
        cache[n] = val
        return val

    def multiplication_numerator(self, n):
        """phi_n with x(nP) = phi_n(x) / psi_n(x)^2."""
        t = self.model.tower
        x = UniPoly(t, (t.zero(), t.one()))
        pn = self.raw(n)
        side = self.raw(n + 1) * self.raw(n - 1)
        if n % 2 == 0:
            return x * pn * pn * self.doubling_cubic - side
        return x * pn * pn - side * self.doubling_cubic

    def multiplication_denominator(self, n):
        """psi_n^2 as a polynomial in x."""
        pn = self.raw(n)
        sq = pn * pn
        if n % 2 == 0:
            return sq * self.doubling_cubic
        return sq

    def exact_order_poly(self, n):
        """Polynomial whose roots are x-coordinates of points of exact order n."""
        if n < 2:
            raise ValueError("order must be at least 2")
        if n == 2:
            return self.doubling_cubic.monic()
        q = squarefree_part(self.raw(n))
        strip = [self.doubling_cubic]
        for d in range(3, n):
            if n % d == 0:
                strip.append(self.raw(d))
        for s in strip:
            s = squarefree_part(s)
            while True:
                g = poly_gcd(q, s)
                if g.degree < 1:
                    break
                q = q.exact_div(g)
        return q.monic()


def _rational_sqrt(x):
    """Exact rational square root of a structurally rational element, or None."""
    try:
        q = x.as_rational()
    except ValueError:
        return None
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def curve_y_solutions(model, x0):
    """Points (x0, y) on the model with rational y, given rational-ish x0."""
    t = model.tower
    a, disc = model.y_discriminant(x0)
    root = _rational_sqrt(disc)
    if root is None:
        return []
    half = Fraction(1, 2)
    ys = {(-a + t.rational(root)) * half, (-a - t.rational(root)) * half}
    return [(x0, y) for y in ys]


def rational_points_of_order(model, n):
    """All model points of exact order n with rational coordinates, in x order.

    A point of exact order n is the sum of its parts of exact order q^k, one
    for each prime power q^k exactly dividing n, and those parts are
    multiples of it, so rational with it.  For a prime power n the
    x-coordinates are the rational roots of psi_n itself (of the doubling
    cubic for n = 2), whose roots also carry the points of every order
    d | n other than 2.  Otherwise they are the x-coordinates of the sums of
    one rational point of each exact order q^k, found the same way, in
    increasing order.  Every candidate x gives its points through
    ``curve_y_solutions``, and each is checked on the curve and for exact
    order n by multiplication.  The list is kept in the model's table, which
    every call reads first, so that no order is searched for twice on one
    model; callers share it and do not change it.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    if n in model._torsion:
        return model._torsion[n]
    parts = prime_powers(n)
    if len(parts) == 1:
        div = DivisionPolynomials(model)
        poly = div.doubling_cubic if n == 2 else div.raw(n)
        xs = [x0 for x0, _mult in rational_roots(poly)]
    else:
        sums = [None]
        for q, k in parts:
            of_qk = rational_points_of_order(model, q**k)
            sums = [model.add(s, pt) for s in sums for pt in of_qk]
        xs = sorted({s[0].as_rational() for s in sums})
    out = []
    for x0 in xs:
        for pt in curve_y_solutions(model, model.tower.rational(x0)):
            if not model.on_curve(pt):
                continue
            if model.order(pt, n) == n:
                out.append(pt)
    model._torsion[n] = out
    return out


def preimage_polynomial(model, n, x):
    """phi_n - x psi_n^2, whose roots are the x(P) with x(nP) = x.

    x(nP) = phi_n / psi_n^2 (Silverman, The Arithmetic of Elliptic Curves,
    Exercise 3.7).
    """
    div = DivisionPolynomials(model)
    den = div.multiplication_denominator(n)
    return div.multiplication_numerator(n) - UniPoly(model.tower, (x,)) * den


def _multiple(model, n, pt):
    """n pt on ``model`` embedded in pt's tower; None when pt is off the model
    or n pt is the point at infinity."""
    m = model.embedded(pt[0].tower)
    return m.mul(n, pt) if m.on_curve(pt) else None


def _signed(model, pt, img, target):
    """Whichever of pt and -pt has ``target`` as its multiple img (img None
    when pt is off the model or its multiple is the point at infinity), or
    None.  ``model`` and ``target`` live in a prefix of pt's tower and are
    embedded there; None too when x(img) differs from x(target)."""
    if img is None:
        return None
    tower = pt[0].tower
    if not (img[0] - target[0].embedded(tower)).is_zero():
        return None
    if (img[1] - target[1].embedded(tower)).is_zero():
        return pt
    return model.embedded(tower).neg(pt)


def divide_point(model, n, target, name):
    """Points P with nP = target, each with the tower it needs.

    x(P) runs over the roots of the preimage polynomial through
    ``geometry._at_roots``, one per packet, adjoined at a level named
    ``name`` plus its height; y(P) is taken directly when its discriminant
    is a rational square (zero among them), and otherwise from a square-root
    level named ``name + "y"`` plus its height, whose squarefree test raises
    ZeroDivisorEncountered for a discriminant that is a zero divisor.  Every
    candidate is verified by multiplying by n (with a sign fix when it lands
    on -target); reducible adjoined moduli are split transparently, so the
    returned towers may be branch towers.  A candidate's multiple is taken
    once, and split branches of the comparison with target embed it: an
    embedding into a branch is a ring map, and every zero test before the
    split was answered, so the branch would take the same path.  A zero
    divisor at a level of the model's tower is the caller's to split.
    """
    half = Fraction(1, 2)

    def solve(tw, x0):
        a, disc = model.embedded(tw).y_discriminant(x0)
        root = _rational_sqrt(disc)
        tower = tw
        if root is not None:
            y0 = (-a + tw.rational(root)) * half
        else:
            sq = UniPoly(tw, (-disc, tw.zero(), tw.one()))
            tower = tw.extend(sq, name="%sy%d" % (name, tw.height))
            y0 = (-a.embedded(tower) + tower.generator()) * half
        xx = x0.embedded(tower)

        def point(t):
            return (xx.embedded(t), y0.embedded(t))

        out = []
        for branch, img in with_splitting(tower, lambda t: _multiple(model, n, point(t))):
            if img is not None:
                out += [
                    (final, res)
                    for final, res in with_splitting(
                        branch,
                        lambda t: _signed(model, point(t), (img[0].embedded(t), img[1].embedded(t)),
                                          target),
                    )
                    if res is not None
                ]
        return out

    return _at_roots(preimage_polynomial(model, n, target[0]), model.tower, name, solve)


def halve_point(model, target):
    """Points P with 2P = target, each with the tower it needs."""
    return divide_point(model, 2, target, "h")
