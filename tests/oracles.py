"""Independent oracles used by the test suite.

Everything here is deliberately written against plain Fractions and brute
force so it shares no code path with the implementations it checks.  The
one exception is ``polar_residual``: it keeps the group law's former route
through ``polar_curve`` as the reference for the gradient route, and it
evaluates every form with ``form_value`` rather than with the package.
``weighted_invariants`` reads a spec's components and sums their classes
with ``TorsionClass`` arithmetic, never with the spec's compiled rows.
``bigon_clauses`` keeps the bi-gon clauses' former route, direct Fulton
multiplicities and one ``intersection_points`` sweep per pair, as the
reference for ``verify_bigon``'s reading of the fingerprint.
``with_multiplicities`` attaches ``intersection_multiplicity`` to each
record of ``intersection_points``, for the tests that count Bezout numbers
and contacts.  ``sweep_profiles`` keeps the fingerprint's former route,
which profiles a point again in the sweep of every pair of pieces through
it, as the reference for profiling each point once.  ``psi_torsion_points`` keeps
rational torsion's former route, the rational roots of psi_n for every n,
as the reference for the route one prime power at a time, and
``walked_order`` the one-multiple-at-a-time order as the reference for the
prime descent.  ``xgcd_inverse`` keeps the tower inverse's former route, the
extended Euclid on canonical reps built from ``maxflex.fields``' rep
helpers, as the reference for the remainder sequence on numerators: the
same inverse, and the same zero divisor raised on a split-pending tower.
``euclid_gcd`` keeps the polynomial gcd's former route, Euclid on canonical
reps with the same division as ``xgcd_inverse``, as the reference for the
gcd on numerators: the same monic gcd and the same zero divisor.
``former_zany``, ``former_zop``, ``former_zscale``, ``former_zdiv``,
``former_zmul`` and ``former_zz_pseudo_divmod`` keep the numerator helpers'
former forms, comprehensions over their locals on nested numerators, as the
reference for the forms that make no closure cells and keep one flat tuple:
the same integers, result for result, through the pair ``flatten`` and
``nest``.
``former_root_multiplicities`` keeps ``rational_roots``' former check and
count, an exact evaluation and division by x - root over Fractions, as the
reference for the count by integer pseudo-division; ``former_reduce_inplace``
keeps the former in-place reduction of residues into a split branch, built
from ``maxflex.fields``' rep helpers, as the reference for ``_pl_divmod``.
``former_concurrent_line_triples`` keeps the concurrency test's former
route, the cofactor expansion of each triple's 3x3 coefficient determinant,
as the reference for the determinant taken as a dot product with a cross
product shared by each pair.  ``former_ec_add`` keeps the group law's
former route, which built the chord or the tangent as a line and took its
residual (``polar_residual``) for both steps of a sum, as the reference for
the residuals read straight off the gradients; ``_line_frame``, the two
points spanning a line that ``polar_residual`` takes its tangent's second
point from, goes with it.  ``series_eval_bipoly`` composes a local
equation with a branch's series through the package's monomial table, for
the tests that read vanishing orders along a branch.  ``geometric_order``
reads a spec's components and its cubic and no class: it sums the
component points by the group law and walks the sum's multiples, as the
reference for the orders read off the lattice and its verified
class -> point map.
``sylvester_resultant`` keeps the bivariate resultant's former route, the
fraction-free (Bareiss) determinant of the Sylvester matrix, as the
reference for the subresultant remainder sequence.  ``binomial_translate``
keeps ``BiPoly.translate``'s former binomial expansion, as the reference for
the Taylor shifts by synthetic division, and ``branch_series_by_orders`` the
former branch expansion, which rebuilt the power table of the partial
series at every order, as the reference for the one table filled column by
column.
``specialize_by_powers`` keeps ``BiPoly.specialize_u``'s former route, a
table of the powers of u0 weighting each term, as the reference for the
sweep's fibres, which evaluate the resultant's v-columns by Horner's rule,
and ``v_columns_by_filter`` the former column reader, a filter of the terms
for each power of v, as the reference for ``v_columns``.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm


def local_quotient_dimension(f_terms, g_terms, cap=24):
    """Intersection multiplicity at the origin as a quotient-algebra dimension.

    f_terms/g_terms map (i, j) exponent pairs to Fractions; both vanish at
    the origin.  Computes dim K[x,y]/(f, g, m^M) by exact row reduction for
    growing truncation order M until the value stabilizes; that stable value
    is the local intersection number when it is reached before ``cap``.
    """
    prev = None
    for order in range(2, cap):
        dim = _truncated_dimension(f_terms, g_terms, order)
        if prev is not None and dim == prev:
            return dim
        prev = dim
    raise RuntimeError("local dimension did not stabilize below the cap")


def _truncated_dimension(f_terms, g_terms, order):
    monomials = [(i, j) for i in range(order) for j in range(order - i)]
    index = {m: k for k, m in enumerate(monomials)}
    rows = []
    for terms in (f_terms, g_terms):
        for (a, b) in monomials:
            row = [Fraction(0)] * len(monomials)
            nonzero = False
            for (i, j), c in terms.items():
                key = (i + a, j + b)
                if key in index:
                    row[index[key]] += c
                    nonzero = True
            if nonzero:
                rows.append(row)
    rank = _rank(rows)
    return len(monomials) - rank


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
        if r == len(rows):
            break
    return rank


def lattice_subgroup(vectors, modulus):
    """Brute-force closure of a generating set inside (Z/N)^2."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        x = frontier.pop()
        for g in vectors:
            y = ((x[0] + g[0]) % modulus, (x[1] + g[1]) % modulus)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def brute_order(vec, modulus):
    """Order of a lattice vector by explicit repeated addition."""
    acc = (0, 0)
    for n in range(1, modulus + 1):
        acc = ((acc[0] + vec[0]) % modulus, (acc[1] + vec[1]) % modulus)
        if acc == (0, 0):
            return n
    raise RuntimeError("no order found within the modulus")


def weighted_invariants(spec, weights):
    """(n_a, ord tau(a), splitting number) of an abstract spec, by definition.

    n_a is the plain gcd of the a_j m_j and of sum a_j d_j; tau(a) is
    sum (a_j m_j / n_a) t_j, each class carried into the lattice of the lcm
    of the component moduli by ``rescaled``, and its order is found by
    repeated addition.
    """
    comps = spec.components
    na = 0
    for a, comp in zip(weights, comps):
        na = gcd(na, a * comp.m)
    na = gcd(na, sum(a * comp.degree for a, comp in zip(weights, comps)))
    mod = 1
    for comp in comps:
        mod = mod * comp.cls.modulus // gcd(mod, comp.cls.modulus)
    tau = comps[0].cls.rescaled(mod).scale(0)  # the zero of (Z/mod)^2
    for a, comp in zip(weights, comps):
        tau = tau + comp.cls.rescaled(mod).scale(a * comp.m // na)
    order = tau.order_brute()
    return na, order, na // order


def divisor_gcd(values):
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


class NestedTower:
    """Reference arithmetic in a tower over Q, on nested lists of Fractions.

    Built from ``FieldTower.to_data()`` output.  An element at height 0 is a
    Fraction and at height k a list of deg(f_k) elements at height k - 1, the
    residue polynomial in the k-th generator.  Products are reduced by the
    monic moduli term by term; inverses solve the multiplication-matrix
    system over Q, so a zero divisor shows as a singular matrix rather than
    as a gcd.
    """

    def __init__(self, data):
        self.mods = []
        for k, level in enumerate(data):
            self.mods.append([self.parse(c, k) for c in level["minpoly"]])
        self.height = len(self.mods)

    def degree(self, h):
        return len(self.mods[h - 1]) - 1

    def parse(self, data, h):
        """An element from ``rep_to_data`` output (or a bare "p/q")."""
        if isinstance(data, str):
            out = Fraction(data)
            for k in range(1, h + 1):
                out = [out] + [self.zero(k - 1) for _ in range(self.degree(k) - 1)]
            return out
        out = [self.parse(c, h - 1) for c in data]
        return out + [self.zero(h - 1) for _ in range(self.degree(h) - len(out))]

    def zero(self, h):
        if h == 0:
            return Fraction(0)
        return [self.zero(h - 1) for _ in range(self.degree(h))]

    def one(self, h):
        return self.parse("1/1", h)

    def add(self, a, b, h):
        if h == 0:
            return a + b
        return [self.add(x, y, h - 1) for x, y in zip(a, b)]

    def sub(self, a, b, h):
        if h == 0:
            return a - b
        return [self.sub(x, y, h - 1) for x, y in zip(a, b)]

    def mul(self, a, b, h):
        if h == 0:
            return a * b
        d = self.degree(h)
        prod = [self.zero(h - 1) for _ in range(2 * d - 1)]
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = self.add(prod[i + j], self.mul(x, y, h - 1), h - 1)
        mod = self.mods[h - 1]
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            for j in range(d):
                prod[i - d + j] = self.sub(prod[i - d + j], self.mul(c, mod[j], h - 1), h - 1)
        return prod[:d]

    def flat(self, a, h):
        if h == 0:
            return [a]
        return [q for c in a for q in self.flat(c, h - 1)]

    def unflat(self, qs, h):
        if h == 0:
            return qs[0]
        size = len(qs) // self.degree(h)
        return [self.unflat(qs[i * size:(i + 1) * size], h - 1) for i in range(self.degree(h))]

    def basis(self, h):
        n = len(self.flat(self.zero(h), h))
        return [self.unflat([Fraction(int(i == j)) for j in range(n)], h) for i in range(n)]

    def matrix(self, a, h):
        """Multiplication by a in the absolute basis; column i is a * e_i."""
        cols = [self.flat(self.mul(a, e, h), h) for e in self.basis(h)]
        return [[col[r] for col in cols] for r in range(len(cols))]

    def inverse(self, a, h):
        """The inverse of a, or None when a is a zero divisor (or zero)."""
        sol = solve(self.matrix(a, h), self.flat(self.one(h), h))
        return None if sol is None else self.unflat(sol, h)

    def is_zero(self, a, h):
        return all(q == 0 for q in self.flat(a, h))

    def poly_gcd(self, f, g, h):
        """Monic gcd of coefficient lists over the tower, or None when
        Euclid meets a leading coefficient that is a zero divisor."""

        def trim(p):
            p = list(p)
            while p and self.is_zero(p[-1], h):
                p.pop()
            return p

        f, g = trim(f), trim(g)
        while g:
            inv = self.inverse(g[-1], h)
            if inv is None:
                return None
            r = list(f)
            while len(r) >= len(g):
                c = self.mul(r[-1], inv, h)
                off = len(r) - len(g)
                for j, b in enumerate(g):
                    r[off + j] = self.sub(r[off + j], self.mul(c, b, h), h)
                r = trim(r[:-1])
            f, g = g, r
        if not f:
            return []
        inv = self.inverse(f[-1], h)
        return None if inv is None else [self.mul(c, inv, h) for c in f]


def solve(matrix, rhs):
    """The solution of a square Fraction system, or None when singular."""
    n = len(matrix)
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [row[n] for row in rows]


def form_value(terms, coords):
    """sum(c * x^i * y^j * z^k) over the ((i, j, k), c) terms, by powers.

    Works over any ring whose values support ``*``, ``+`` and ``**``: nested
    Fractions or tower elements.
    """
    x, y, z = coords
    acc = 0
    for (i, j, k), c in terms.items():
        acc = c * x**i * y**j * z**k + acc
    return acc


def _line_frame(line):
    """Two independent points spanning a line given by its coefficients."""
    from maxflex import ProjPoint
    from maxflex.geometry import cross

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


def series_eval_bipoly(F, us, vs, order, tower):
    """F(u(t), v(t)) truncated at the given order, from the package's table
    of monomial series, for the tests that read a branch's vanishing order."""
    from maxflex.geometry import _monomial_series

    out = [tower.zero()] * (order + 1)
    for c, prod in zip(F.terms.values(), _monomial_series(us, vs, list(F.terms), order, tower)):
        for m, val in enumerate(prod):
            out[m] = out[m] + c * val
    return out


def polar_residual(cubic, line, p, q):
    """The residual r of line . cubic = p + q + r by first polar curves.

    This is the chord-tangent residual as the group law computed it before it
    took gradients: every on-curve and tangency test and both weights are
    values of the cubic, of the line or of a polar curve, each evaluated
    term by term.  Refusals raise the same LineNotIncident messages.
    """
    from maxflex import LineNotIncident, ProjPoint
    from maxflex.geometry import polar_curve

    def value(curve, point):
        return form_value(curve.form, point.coords)

    if not value(line, p).is_zero() or not value(line, q).is_zero():
        raise LineNotIncident("point off the line")
    if not value(cubic, p).is_zero() or not value(cubic, q).is_zero():
        raise LineNotIncident("point off the cubic")
    if p == q:
        A, B = _line_frame(line)
        if B == p:
            B = A
        if not value(polar_curve(cubic, B), p).is_zero():
            raise LineNotIncident("line is not tangent at the point")
        a, b = value(cubic, B), -value(polar_curve(cubic, p), B)
    else:
        a, b, B = value(polar_curve(cubic, p), q), -value(polar_curve(cubic, q), p), q
    return ProjPoint(cubic.tower, [a * x + b * y for x, y in zip(p.coords, B.coords)])


def former_ec_add(e, p, q):
    """``geometry.ec_add`` by its former route: the chord ``line_through``
    or the tangent ``tangent_line``, and its residual by ``polar_residual``;
    then the same for the residual and the origin, whose tangent serves when
    the residual is the origin."""
    from maxflex.geometry import line_through, tangent_line

    cubic, o = e.cubic, e.origin
    r = polar_residual(cubic, tangent_line(cubic, p) if p == q else line_through(p, q), p, q)
    return polar_residual(cubic, tangent_line(cubic, o) if r == o else line_through(r, o), r, o)


def geometric_order(spec, weights):
    """ord(tau(a)) from the cubic alone, reading no class: n_a from the
    components, the weighted sum of their ``component_point``s by ``ec_sum``,
    and ``point_order`` of that sum within the bound n_a (None past it)."""
    from maxflex.geometry import ec_sum, point_order

    pairs = list(zip(weights, spec.components))
    na = gcd(sum(a * c.degree for a, c in pairs), *(a * c.m for a, c in pairs))
    e = spec.structure
    terms = [(a * c.m // na, spec.component_point(j)) for j, (a, c) in enumerate(pairs)]
    return point_order(e, ec_sum(e, terms), na)


CountedRecord = namedtuple("CountedRecord", "point multiplicity tower orbit")


def with_multiplicities(c, d, tower=None):
    """The records of ``intersection_points(c, d, tower)``, each with its
    ``intersection_multiplicity``, as CountedRecords in the sweep's order.

    Each multiplicity is taken under ``with_splitting`` on the record's
    tower, so a zero divisor that Fulton's recursion meets splits the record
    into its branches, each with its own orbit.
    """
    from maxflex.fields import with_splitting
    from maxflex.geometry import intersection_multiplicity, intersection_points

    tower = tower or c.tower
    out = []
    for rec in intersection_points(c, d, tower):

        def count(tw, rec=rec):
            pt = rec.point.embedded(tw)
            return pt, intersection_multiplicity(c.embedded(tw), d.embedded(tw), pt)

        for tw, (pt, mult) in with_splitting(rec.tower, count, tower.height):
            out.append(CountedRecord(pt, mult, tw, tw.absolute_degree // tower.absolute_degree))
    return out


def bigon_clauses(cubic, l0, c1, c2, p, q):
    """The clauses of ``verify_bigon`` computed curve by curve.

    The contact multiplicities at p and q are direct Fulton calls,
    transversality reads every record of ``with_multiplicities`` for each
    pair of l0, c1, c2, and the triple test evaluates c2 at every point of
    l0 . c1.
    """
    from maxflex.geometry import intersection_multiplicity, intersection_points, is_smooth_curve

    tower = cubic.tower
    d = c1.degree
    m_p1, m_q1 = intersection_multiplicity(cubic, c1, p), intersection_multiplicity(cubic, c1, q)
    m_p2, m_q2 = intersection_multiplicity(cubic, c2, p), intersection_multiplicity(cubic, c2, q)
    report = {
        "same_degree": c2.degree == d,
        "distinct_points": p != q,
        "components_smooth": is_smooth_curve(c1) and is_smooth_curve(c2),
        "contact_pattern": (m_p1, m_q1, m_p2, m_q2) == (3 * d - 1, 1, 1, 3 * d - 1),
        "contact_exhausts_bezout": m_p1 + m_q1 == 3 * d and m_p2 + m_q2 == 3 * d,
        "pairwise_transversal": all(
            rec.multiplicity == 1
            for a, b in ((l0, c1), (l0, c2), (c1, c2))
            for rec in with_multiplicities(a, b, tower)
        ),
        "empty_triple_intersection": not any(
            c2.embedded(rec.tower).evaluate(rec.point).is_zero()
            for rec in intersection_points(l0, c1, tower)
        ),
    }
    report["all"] = all(report.values())
    return report


def sweep_profiles(pieces, tower):
    """The point profiles of an arrangement, from every record of every sweep.

    Each pair sweep profiles every point it finds, under tower splitting,
    whichever pieces it lies on first; the copies of a point met in several
    sweeps must agree on their pairs, incident pieces and orbit.  Returns
    {key: profile}, keyed by ``_point_key`` as ``fingerprint`` keys them.
    """
    from itertools import combinations

    from maxflex.combinatorics import _point_key
    from maxflex.fields import with_splitting
    from maxflex.geometry import intersection_multiplicity, intersection_points

    herd = [p.embedded(tower) for p in pieces]
    profiles = {}
    for i, j in combinations(range(len(herd)), 2):
        for rec in intersection_points(herd[i], herd[j], tower):

            def profile(tw, rec=rec):
                pt = rec.point.embedded(tw)
                curves = [piece.embedded(tw) for piece in herd]
                incident = [k for k, c in enumerate(curves) if c.evaluate(pt).is_zero()]
                pairs = {
                    (a, b): intersection_multiplicity(curves[a], curves[b], pt)
                    for a, b in combinations(incident, 2)
                }
                return pt, {"pairs": pairs, "incident": set(incident)}

            for tw, (pt, entry) in with_splitting(rec.tower, profile, tower.height):
                entry["orbit"] = tw.absolute_degree // tower.absolute_degree
                key = _point_key(pt, tower, entry["orbit"])
                assert profiles.setdefault(key, entry) == entry, "sweeps disagree at a point"
    return profiles


def walked_order(p, bound, add, is_origin):
    """Least n <= bound with n*p at the origin, or None, adding p once per step."""
    acc = p
    for n in range(1, bound + 1):
        if is_origin(acc):
            return n
        acc = add(acc, p)
    return None


def psi_torsion_points(model, n):
    """Model points of exact order n >= 2 with rational coordinates, from psi_n.

    The candidate x-coordinates are the rational roots of psi_n itself (of
    the doubling cubic for n = 2) whatever n is, and exact order is walked.
    """
    from maxflex.polysolve import rational_roots
    from maxflex.weierstrass import DivisionPolynomials, curve_y_solutions

    div = DivisionPolynomials(model)
    poly = div.doubling_cubic if n == 2 else div.raw(n)
    return [
        pt
        for x0, _mult in rational_roots(poly)
        for pt in curve_y_solutions(model, model.tower.rational(x0))
        if model.on_curve(pt) and walked_order(pt, n, model.add, lambda a: a is None) == n
    ]


def xgcd_inverse(levels, h, rep):
    """The inverse of a rep by ``fields._rinv``'s former route above height 0.

    At a level of degree > 1 it runs the extended Euclid on reps: each
    leading coefficient is inverted by this route one height down, every
    product and sum is a canonical rep, the constant gcd is inverted once
    more at the end, and a nonconstant gcd is made monic with a second
    inverse of its leading coefficient.  Height 0 and linear levels take
    the route ``fields`` takes.
    """
    from maxflex import fields as F
    from maxflex.errors import ZeroDivisorEncountered

    if h == 0:
        return F._rinv(levels, h, rep)
    k = h - 1
    if levels[k].degree == 1:
        return F._lift(levels, k, xgcd_inverse(levels, k, F._coeffs(rep, h)[0]), h)
    r0, r1 = list(levels[k].modulus), F._pl_trim(F._coeffs(rep, h), k)
    if not r1:
        raise ZeroDivisionError("inverting zero")
    s0, s1 = [], [F._rone(levels, k)]
    while r1:
        q, r = rep_divmod(levels, k, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, F._pl_sub(levels, k, s0, F._pl_mul(levels, k, q, s1))
    if len(r0) > 1:
        linv = xgcd_inverse(levels, k, r0[-1])
        raise ZeroDivisorEncountered(k, [F._rmul(levels, k, c, linv) for c in r0])
    ginv = xgcd_inverse(levels, k, r0[0])
    return F._join(levels, h, [F._rmul(levels, k, c, ginv) for c in s0])


def rep_divmod(levels, h, a, b):
    """Quotient and remainder of trimmed lists of reps at height h, b's
    leading coefficient inverted by ``xgcd_inverse``."""
    from maxflex import fields as F

    linv = xgcd_inverse(levels, h, b[-1])
    q = [F._rzero(levels, h)] * (len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b):
        c = F._rmul(levels, h, r[-1], linv)
        j = len(r) - len(b)
        q[j] = c
        for t, y in enumerate(b):
            r[j + t] = F._rsub(levels, h, r[j + t], F._rmul(levels, h, c, y))
        r = F._pl_trim(r[:-1], h)
    return F._pl_trim(q, h), r


def euclid_gcd(levels, h, a, b):
    """The monic gcd of two lists of reps at height h by ``fields._pl_gcd``'s
    former route: Euclid with ``rep_divmod``, each divisor's leading
    coefficient inverted once per division, and the last divisor made monic.
    The zero polynomial only when a = b = 0."""
    from maxflex import fields as F

    a, b = F._pl_trim(a, h), F._pl_trim(b, h)
    while b:
        a, b = b, rep_divmod(levels, h, a, b)[1]
    if not a:
        return []
    linv = xgcd_inverse(levels, h, a[-1])
    return [F._rmul(levels, h, c, linv) for c in a[:-1]] + [F._rone(levels, h)]


def flatten(Z, k):
    """Nested numerators at int-height k (an int at k = 0, else a tuple of
    deg(f_k) nested numerators one int-height down) as the one flat tuple of
    ints that ``maxflex.fields`` keeps above int-height 0, level 1 varying
    fastest."""
    if k == 0:
        return Z
    if k == 1:
        return tuple(Z)
    return tuple(x for z in Z for x in flatten(z, k - 1))


def nest(Z, levels, k):
    """The nested numerators at int-height k of a flat tuple Z on ``levels``,
    the inverse of ``flatten``: Z cut into deg(f_k) equal slices, each nested
    one int-height down.  The degrees are read off the moduli."""
    if k <= 1:
        return Z
    d = len(levels[k - 1].modulus) - 1
    s = len(Z) // d
    return tuple(nest(Z[i * s:(i + 1) * s], levels, k - 1) for i in range(d))


def former_zany(Z, k):
    """``fields._zany``'s former form, a generator expression over Z."""
    if k == 0:
        return Z != 0
    if k == 1:
        return any(Z)
    return any(former_zany(z, k - 1) for z in Z)


def former_zop(op, A, B, k):
    """``fields._zop``'s former form, a generator expression over zip(A, B)."""
    if k == 0:
        return op(A, B)
    if k == 1:
        return tuple(map(op, A, B))
    return tuple(former_zop(op, a, b, k - 1) for a, b in zip(A, B))


def former_zscale(A, c, k):
    """``fields._zscale``'s former form, generator expressions over A."""
    if c == 1:
        return A
    if k == 0:
        return A * c
    if k == 1:
        return tuple(x * c for x in A)
    return tuple(former_zscale(a, c, k - 1) for a in A)


def former_zdiv(Z, g, k):
    """``fields._zdiv``'s former form, generator expressions over Z."""
    if k == 0:
        return Z // g
    if k == 1:
        return tuple(x // g for x in Z)
    return tuple(former_zdiv(z, g, k - 1) for z in Z)


def former_zmul(levels, k, A, B):
    """``fields._zmul``'s former form on nested numerators, with
    comprehensions for the scaled partial products, the nonzero entries of B
    and the caught-up result: each product of the level below reduced on its
    own, and every product by a modulus coefficient a full product.  It
    reads the modulus from the level's ``cleared`` numerators, nested."""
    from operator import add, sub

    from maxflex import fields as F

    if k == 0:
        return A * B
    zl = F._zlevel(levels, k)
    d = zl.degree
    step = zl.step
    cleared = [nest(m, levels, k - 1) for m in zl.cleared[:d]]
    terms = [(t, m) for t, m in enumerate(cleared) if former_zany(m, k - 1)]
    if k == 1:
        P = F._zz_mul(A, B)
        for n in range(2 * d - 2, d - 1, -1):
            c = P.pop()
            if step != 1:
                P = [p * step for p in P]
            if c:
                for t, m in terms:
                    P[n - d + t] -= c * m
        return tuple(P)
    low = k - 1
    if d == 1:
        return (former_zmul(levels, low, A[0], B[0]),)
    P = [nest(F._zlevel(levels, low).zero, levels, low)] * (2 * d - 1)
    nonzero_b = [(j, y) for j, y in enumerate(B) if former_zany(y, low)]
    for i, x in enumerate(A):
        if former_zany(x, low):
            for j, y in nonzero_b:
                P[i + j] = former_zop(add, P[i + j], former_zmul(levels, low, x, y), low)
    seen = [0] * len(P)
    done = 0
    for n in range(2 * d - 2, d - 1, -1):
        c = former_zscale(P.pop(), step ** (done - seen[n]), low)
        done += 1
        if former_zany(c, low):
            for t, m in terms:
                i = n - d + t
                caught_up = former_zscale(P[i], step ** (done - seen[i]), low)
                P[i] = former_zop(sub, caught_up, former_zmul(levels, low, c, m), low)
                seen[i] = done
    return tuple(former_zscale(p, step ** (done - seen[i]), low) for i, p in enumerate(P))


def former_zz_pseudo_divmod(f, g):
    """``fields._zz_pseudo_divmod``'s former form, list comprehensions for
    each step's scaling by lc(g)."""
    dg = len(g) - 1
    lg = g[-1]
    q = [0] * (len(f) - dg)
    r = list(f)
    for k in range(len(q) - 1, -1, -1):
        c = r.pop()
        q = [lg * x for x in q]
        q[k] += c
        r = [lg * x for x in r]
        if c:
            for j in range(dg):
                r[k + j] -= c * g[j]
    while r and r[-1] == 0:
        r.pop()
    return q, r


def former_root_multiplicities(qs, candidates):
    """The rational roots among ``candidates`` of the polynomial with rational
    coefficients ``qs`` (lowest degree first), with their multiplicities,
    sorted, by ``rational_roots``' former route: an exact evaluation at u/v
    on the cleared integer coefficients, then division by x - root over
    Fractions until a remainder is nonzero."""
    den = lcm(*(q.denominator for q in qs))
    ints = [q.numerator * (den // q.denominator) for q in qs]
    out = []
    for root in sorted(set(candidates)):
        acc, w = 0, 1
        for c in reversed(ints):
            acc = acc * root.numerator + c * w
            w *= root.denominator
        if acc != 0:
            continue
        mult, poly = 0, list(qs)
        while len(poly) > 1:
            n = len(poly) - 1
            q = [Fraction(0)] * n
            q[n - 1] = poly[n]
            for j in range(n - 1, 0, -1):
                q[j - 1] = poly[j] + root * q[j]
            if poly[0] + root * q[0] != 0:
                break
            poly, mult = q, mult + 1
        out.append((root, mult))
    return out


def former_reduce_inplace(levels, h, coeffs, modulus):
    """``fields._reduced_rep``'s former reduction: coeffs, a list of reps at
    height h, reduced in place modulo a monic modulus, top term first, each
    cancelled top replaced by a zero rep."""
    from maxflex import fields as F

    d = len(modulus) - 1
    for i in range(len(coeffs) - 1, d - 1, -1):
        lead = coeffs[i]
        if F._is_szero(lead, h):
            continue
        coeffs[i] = F._rzero(levels, h)
        for j in range(d):
            coeffs[i - d + j] = F._rsub(
                levels, h, coeffs[i - d + j], F._rmul(levels, h, lead, modulus[j])
            )


def former_concurrent_line_triples(lines):
    """``combinatorics.concurrent_line_triples``' former route: the index
    triples i < j < k whose coefficient rows have a zero determinant, each
    determinant expanded along its first row on its own."""
    from itertools import combinations

    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    out = []
    for triple in combinations(range(len(lines)), 3):
        m = [[lines[t].coefficient(a) for a in axes] for t in triple]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det.is_zero():
            out.append(triple)
    return out


def _det_bareiss_poly(matrix, tower):
    """Fraction-free determinant of a matrix of UniPoly entries."""
    from maxflex import UniPoly

    n = len(matrix)
    if n == 0:
        return UniPoly(tower, (Fraction(1),))
    m = [list(row) for row in matrix]
    sign = 1
    prev = UniPoly(tower, (Fraction(1),))
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return UniPoly(tower, ())
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = UniPoly(tower, ())
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def sylvester_resultant(f_cols, g_cols, tower):
    """``polysolve.resultant_bivariate``'s former route: the Bareiss
    determinant of the Sylvester matrix, f's rows first."""
    from maxflex import UniPoly

    def power(p, n):
        out = UniPoly(tower, (Fraction(1),))
        for _ in range(n):
            out = out * p
        return out

    f = list(f_cols)
    g = list(g_cols)
    while f and f[-1].is_zero():
        f.pop()
    while g and g[-1].is_zero():
        g.pop()
    if not f or not g:
        return UniPoly(tower, ())
    df, dg = len(f) - 1, len(g) - 1
    if df == 0:
        return power(f[0], dg)
    if dg == 0:
        return power(g[0], df)
    n = df + dg
    zero = UniPoly(tower, ())
    rows = []
    for i in range(dg):
        row = [zero] * n
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(df):
        row = [zero] * n
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    return _det_bareiss_poly(rows, tower)


def _powers(tower, x, n):
    """1, x, ..., x^n, one product each."""
    out = [tower.one()]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def specialize_by_powers(F, u0):
    """F(u0, v) as a UniPoly in v, ``BiPoly.specialize_u``'s former route:
    one table of the powers of u0, and column j the sum of c * u0^i over the
    terms c u^i v^j."""
    from maxflex import UniPoly

    t = F.tower
    upow = _powers(t, u0, max((i for i, _ in F.terms), default=0))
    cols = {}
    for (i, j), c in F.terms.items():
        cols.setdefault(j, []).append((i, c))
    out = []
    for j in range(max(cols, default=-1) + 1):
        acc = t.zero()
        for i, c in cols.get(j, ()):
            acc = acc + c * upow[i]
        out.append(acc)
    return UniPoly(t, out)


def v_columns_by_filter(F):
    """``BiPoly.v_columns``' former route: column j filters F's terms of
    v-degree j afresh, for each j up to the v-degree."""
    from maxflex import UniPoly

    t = F.tower
    out = []
    for j in range(max((jj for _, jj in F.terms), default=-1) + 1):
        coeffs = {i: c for (i, jj), c in F.terms.items() if jj == j}
        n = max(coeffs, default=-1)
        out.append(UniPoly(t, [coeffs.get(i, t.zero()) for i in range(n + 1)]))
    return out


def binomial_translate(F, a, b):
    """F(u + a, v + b) by binomial expansion, ``BiPoly.translate``'s former
    route."""
    from math import comb

    from maxflex.geometry import BiPoly

    out = {}
    apow = _powers(F.tower, a, max((i for i, _ in F.terms), default=0))
    bpow = _powers(F.tower, b, max((j for _, j in F.terms), default=0))
    for (i, j), c in F.terms.items():
        for s in range(i + 1):
            for t in range(j + 1):
                coeff = c * (comb(i, s) * comb(j, t)) * apow[i - s] * bpow[j - t]
                k = (s, t)
                out[k] = out[k] + coeff if k in out else coeff
    return BiPoly(F.tower, out)


def branch_series_by_orders(c, p, order):
    """``geometry.branch_series``' former route: the coefficient of t^k in
    F(t, v(t)) read, at each order k, from a power table of the partial
    series built afresh, on a form translated by ``binomial_translate``.
    Returns the (u, v) coefficient lists."""
    from maxflex.geometry import _series_pow_table

    chart = p.chart
    u0, v0 = p.affine()
    F = binomial_translate(c.dehomogenize(chart), u0, v0)
    t = c.tower
    assert F.coefficient(0, 0).is_zero(), "point is not on the curve"
    dv = F.coefficient(0, 1)
    swap = dv.is_zero()
    if swap:
        F = F.swap()
        dv = F.coefficient(0, 1)
    dvinv = dv.invert()
    maxv = max((j for _, j in F.terms), default=0)
    vs = [t.zero()] * (order + 1)
    for k in range(1, order + 1):
        vtab = _series_pow_table(vs, maxv, k, t)
        val = t.zero()
        for (i, j), a in F.terms.items():
            if i <= k:
                val = val + a * vtab[j][k - i]
        vs[k] = -(val * dvinv)
    us = [t.zero()] * (order + 1)
    if order >= 1:
        us[1] = t.one()
    if swap:
        us, vs = vs, us
    us[0] = us[0] + u0
    vs[0] = vs[0] + v0
    return us, vs
