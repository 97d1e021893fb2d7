"""Resultants, exact linear algebra, and root finding.

Everything here is exact.  A resultant in one variable, with coefficients
polynomials in the other, is a subresultant remainder sequence (Collins,
JACM 1967; Brown and Traub, JACM 1971; Cohen, *A Course in Computational
Algebraic Number Theory*, Algorithm 3.3.7): each step is a pseudo-division
and one exact division of the remainder, which keeps the coefficients'
degrees bounded, and no Sylvester matrix is built.  Rational roots are
found p-adically: the roots mod one small prime are Newton-lifted past the
rational-root-theorem bound and read off as symmetric residues; each
candidate is checked, and its multiplicity counted, by exact division of
the integer coefficients.  Roots in the algebraic closure are produced as
conjugate packets: one representative per adjoined factor, standing for
all of that factor's roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import UniPoly, _zz_pseudo_divmod, squarefree_part

# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def resultant_bivariate(f_cols, g_cols, tower):
    """Resultant in u of sum f_cols[j]*u**j and sum g_cols[j]*u**j.

    The columns are UniPoly in the surviving variable.  Returns a UniPoly
    over ``tower``: the determinant of the Sylvester matrix with f's rows
    first.  The zero polynomial signals a common factor (or a zero
    argument).

    The value comes from a subresultant remainder sequence in u (Collins,
    JACM 1967; Brown and Traub, JACM 1971), Algorithm 3.3.7 of Cohen, *A
    Course in Computational Algebraic Number Theory*, without contents.
    With delta = deg A - deg B, a step pseudo-divides A by B, divides the
    remainder exactly by g h^delta, and sets g = lc(A) and
    h = g^delta / h^(delta - 1).  The sign flips for each pair of odd
    degrees, and once for the initial swap when deg f < deg g and both are
    odd.  A step skips its scaling when lc(B) is 1, and its division when
    g h^delta is 1.  Over a split-pending tower a division may raise
    ZeroDivisorEncountered for the caller to split on.
    """
    A = _trimmed(f_cols)
    B = _trimmed(g_cols)
    if not A or not B:
        return UniPoly(tower, ())
    negate = False
    if len(A) < len(B):
        A, B = B, A
        negate = len(A) % 2 == 0 and len(B) % 2 == 0
    g = h = UniPoly(tower, (Fraction(1),))
    while len(B) > 1:
        da, db = len(A) - 1, len(B) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            negate = not negate
        R = _pseudo_remainder(A, B)
        d = _times(g, _poly_pow(h, delta))
        if not _is_one(d):
            R = [c.exact_div(d) for c in R]
        A, B = B, R
        if not B:
            return UniPoly(tower, ())
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = _exact_ratio(_poly_pow(g, delta), _poly_pow(h, delta - 1))
    # B is a constant in u: Res = B^deg A / h^(deg A - 1), which is 1 when deg A = 0
    da = len(A) - 1
    res = _exact_ratio(_poly_pow(B[0], da), _poly_pow(h, da - 1))
    return -res if negate else res


def _trimmed(cols):
    out = list(cols)
    while out and out[-1].is_zero():
        out.pop()
    return out


def _pseudo_remainder(A, B):
    """lc(B)^(deg A - deg B + 1) A mod B, Knuth's Algorithm R (*The Art of
    Computer Programming*, vol. 2, 4.6.1): one pass per quotient term, each
    scaling the rest of A by lc(B) (skipped when lc(B) is 1) and subtracting
    the top coefficient times the shifted B."""
    R = list(A)
    n = len(B) - 1
    lb = B[-1]
    scale = not _is_one(lb)
    for k in range(len(A) - 1 - n, -1, -1):
        top = R.pop()
        for j in range(len(R)):
            x = lb * R[j] if scale else R[j]
            R[j] = x - top * B[j - k] if j >= k else x
    return _trimmed(R)


def _is_one(p):
    return len(p.coeffs) == 1 and p.coeffs[0] == p.tower.one().rep


def _times(a, b):
    return b if _is_one(a) else (a if _is_one(b) else a * b)


def _exact_ratio(a, b):
    return a if _is_one(b) else a.exact_div(b)


def _poly_pow(p, n):
    out = UniPoly(p.tower, (Fraction(1),))
    for _ in range(n):
        out = _times(out, p)
    return out


def resultant_univariate(f, g):
    """Resultant of two univariate polynomials over the same tower."""
    tower = f.tower
    f_cols = [UniPoly(tower, (c,)) for c in f.coeffs]
    g_cols = [UniPoly(tower, (c,)) for c in g.coeffs]
    r = resultant_bivariate(f_cols, g_cols, tower)
    if r.is_zero():
        return tower.zero()
    return r.coefficient(0)


# ---------------------------------------------------------------------------
# exact linear algebra over a tower
# ---------------------------------------------------------------------------

def row_reduce(rows, tower):
    """Reduced row echelon form; returns (rref rows, pivot column list).

    Pivot tests use the sound zero test, so reduction over a split-pending
    tower may raise ZeroDivisorEncountered for the caller to handle.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if not m[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].invert()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def kernel_basis(rows, ncols, tower):
    """Basis of the right kernel of the matrix given by ``rows``."""
    rref, pivots = row_reduce(rows, tower)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [tower.zero()] * ncols
        vec[fc] = tower.one()
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    return basis


def mat3_adjugate(m):
    def minor(i, j):
        r = [k for k in range(3) if k != i]
        c = [k for k in range(3) if k != j]
        return m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]

    adj = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            val = minor(j, i)
            if (i + j) % 2 == 1:
                val = -val
            adj[i][j] = val
    return adj


def mat3_apply(m, v):
    return tuple(m[i][0] * v[0] + m[i][1] * v[1] + m[i][2] * v[2] for i in range(3))


# ---------------------------------------------------------------------------
# rational roots of polynomials over Q (p-adic lifting)
# ---------------------------------------------------------------------------

#: Primes rejected for a repeated root mod p before f is replaced by its
#: squarefree part.  A squarefree f has only finitely many such primes.
_SQUAREFREE_AFTER = 8


def _primes():
    """2, 3, 5, 7, ... by trial division; only small primes are ever needed."""
    found = []
    n = 2
    while True:
        if all(n % q for q in found):
            found.append(n)
            yield n
        n += 1


def _integer_coeffs(qs):
    """Primitive integer coefficients of a nonzero rational list, x^k stripped."""
    den = lcm(*(q.denominator for q in qs))
    coeffs = [q.numerator * (den // q.denominator) for q in qs]
    while coeffs[0] == 0:
        coeffs.pop(0)
    g = gcd(*coeffs)
    return [c // g for c in coeffs]


def _horner(coeffs, x, m):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _simple_roots_mod(coeffs, deriv, p):
    """The roots in GF(p) of an integer polynomial with derivative ``deriv``,
    or None if one is repeated."""
    roots = []
    for a in range(p):
        if _horner(coeffs, a, p) == 0:
            if _horner(deriv, a, p) == 0:
                return None
            roots.append(a)
    return roots


def rational_roots(f):
    """All rational roots of a polynomial over Q, with multiplicities.

    Returns a list of (Fraction, multiplicity) pairs sorted by value.  With
    integer coefficients a_0 .. a_n (a_0 != 0 once the root 0 is taken out),
    a root u/v has u | a_0 and v | a_n, so a_n * u/v is an integer of size at
    most |a_0 a_n|.  Take the first prime p not dividing a_n at which every
    root of f in GF(p) is simple, Newton-lift each of those roots p-adically
    until p^k > 2 |a_0 a_n|, and read a_n x as the symmetric residue mod p^k.
    Every rational root is among these candidates.  Each candidate u/v is
    checked and counted by exact integer division: its multiplicity is how
    often v x - u divides f, 0 for no root.  A repeated rational root is
    repeated mod every p, so after a few rejected primes the candidates
    come from f's squarefree part.
    """
    if f.tower.height != 0:
        raise ValueError("rational_roots expects a polynomial over Q")
    if f.is_zero():
        raise ValueError("zero polynomial")
    qs = f.rational_coeffs()
    ints = coeffs = _integer_coeffs(qs)
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    # the root 0 has the multiplicity of the power of x stripped off
    out = [(Fraction(0), len(qs) - len(ints))] if qs[0] == 0 else []
    rejected = 0
    for p in _primes():
        if len(coeffs) == 1:
            break
        if coeffs[-1] % p == 0:
            continue
        roots_p = _simple_roots_mod(coeffs, deriv, p)
        if roots_p is None:
            rejected += 1
            if rejected == _SQUAREFREE_AFTER:
                coeffs = _integer_coeffs(squarefree_part(f).rational_coeffs())
                deriv = [i * c for i, c in enumerate(coeffs)][1:]
            continue
        an = coeffs[-1]
        bound = 2 * abs(coeffs[0] * an)
        for a in roots_p:
            m = p
            while m <= bound:
                m *= m
                a = (a - _horner(coeffs, a, m) * pow(_horner(deriv, a, m), -1, m)) % m
            s = an * a % m
            x = Fraction(s - m if 2 * s > m else s, an)
            # v^len(q) f = q (v X - u) + r for x = u/v, so q / v^len(q) is exact
            mult, poly = 0, ints
            while True:
                q, r = _zz_pseudo_divmod(poly, [-x.numerator, x.denominator])
                if r:
                    break
                w = x.denominator ** len(q)
                poly, mult = [c // w for c in q], mult + 1
            if mult:
                out.append((x, mult))
        break
    return sorted(out)

# ---------------------------------------------------------------------------
# roots over towers: conjugate packets
# ---------------------------------------------------------------------------

class RootPacket:
    """A representative root together with the tower it lives in.

    ``orbit`` counts how many closure roots the entry stands for: 1 for a
    root in ``tower`` itself, the degree of the adjoined factor for the
    generic root of a conjugate packet.
    """

    __slots__ = ("element", "tower", "orbit")

    def __init__(self, element, tower, orbit):
        self.element = element
        self.tower = tower
        self.orbit = orbit

    def __repr__(self):
        return "RootPacket(orbit=%d, tower=%r)" % (self.orbit, self.tower)


def root_packets(f, tower, name_hint=None):
    """Distinct roots of f over the closure of ``tower``, as conjugate packets.

    Multiplicities are dropped (take the squarefree part first if they
    matter).  Over Q the rational roots come first, each with orbit 1; a
    linear remainder gives one more root in ``tower``; any other remainder
    is adjoined whole, and its generator is returned with the remainder's
    degree as its orbit.  A required extension past the degree cap raises
    BudgetExceeded.
    """
    g = squarefree_part(f)
    out = []
    if tower.height == 0:
        for root, _m in rational_roots(g):
            out.append(RootPacket(tower.rational(root), tower, 1))
            g = g.exact_div(UniPoly(tower, (-root, Fraction(1))))
    if g.degree == 1:
        out.append(RootPacket(-(g.coefficient(0) / g.coefficient(1)), tower, 1))
    elif g.degree > 1:
        ext = tower.extend(g.monic(), name="%s%d" % (name_hint or "r", tower.height))
        out.append(RootPacket(ext.generator(), ext, g.degree))
    return out
