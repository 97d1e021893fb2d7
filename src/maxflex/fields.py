"""Exact arithmetic over towers of simple algebraic extensions of the rationals.

A tower is Q[t1]/(f1)[t2]/(f2)...  Moduli are only required to be monic and
squarefree, so a level may secretly be a product of fields.  Arithmetic
proceeds as if every level were a field; when an inversion meets a zero
divisor the offending factor is reported via ZeroDivisorEncountered and the
caller splits the tower on it (dynamic evaluation).

Element representation: an element of a tower of height h is a "rep",
(den, Z) at heights 0 and 1 and (den, Z, degrees) above: den is a positive
int, and Z holds the integer numerators, a plain int at height 0 and above
it one flat tuple of deg(f_1) * ... * deg(f_h) ints, level 1 varying
fastest.  The coefficient i of level k of numerators at int-height k is the
slice Z[i*s:(i+1)*s], s the product of the degrees below k, so a value
constant above level j has a zero tail past its first entries at j.  Above
height 1 a rep carries ``degrees`` = (deg(f_1), ..., deg(f_h)), one tuple
shared by its level, so that ``rep_to_data`` can nest it with no tower at
hand.  The value is Z / den at height 0, and above it the residue
polynomial in the generators (lowest degree first, zero-padded) whose
coefficients are the entries of Z divided by den.  Reps are canonical:
residues are reduced and gcd(den, every entry of Z) == 1.  Fractions only
cross the boundary: ``FieldTower.rational`` and the coercions take them in,
``as_rational`` and ``rational_coeffs`` hand them out.

A sum, a scaling, a content and an exact division of numerators is one
``map`` or ``gcd`` over the flat tuple, and a zero test one ``any``, at
every height.  A product is formed in the integers and reduced by each
level's modulus with its denominators cleared, a pseudo-remainder whose
scale is fixed per level, then normalised with one gcd.  That reduction is
linear, so each coefficient of a product sums the unreduced products of the
level below, which then reduces the sum once: 2d - 1 reductions at a level
of degree d, not d^2.  A cleared modulus coefficient constant in the levels
below is a scaling.  Two cases skip work.  A linear level (the trivial
level a split leaves) adds no entries: it has the numerators and the scale
of the level below, so a product at it, and the sums of a product above
it, are those of that level; and a rational operand only scales the other
operand's numerators, which are already reduced.  The numerator helpers and
the rep arithmetic on them (``_z*``, ``_r*``, ``_pl_*``) hold no
comprehension over their locals: on CPython <= 3.11 one makes its function
build closure cells on every call, even on a branch that never runs it, so
they loop or ``map`` over ``itertools.repeat`` instead (3.12 inlines list
comprehensions but still builds a generator for ``tuple(genexpr)``).
``tests/test_no_cells.py`` keeps them so.

The element layer tests a tower's identity before its equality: an operand
of the very same tower object is taken with no comparison of levels, and
``FieldTower.height`` is stored when the tower is built.

Inverses and gcds run one remainder sequence, ``_zeuclid``, on polynomials
whose coefficients are numerators, at every height, Q included: an inverse
against the level's cleared modulus, a gcd on its operands with their
denominators cleared.  Content is stripped once per remainder, each leading
coefficient is inverted once, at the coefficients' height, and the sequence
stops at a zero remainder or a constant; a monic gcd is made from the last
inverse taken.  Over the integers a step is a pseudo-division.  The inverse
of a value constant in its level, or at a linear level, is that of its one
coefficient.

Each representation has one division: Z[x] the pseudo-division
``_zz_pseudo_divmod`` (Euclid over Q, GF(p) remainders, rational-root
multiplicities), reps ``_pl_divmod``.  Roots mod p have two finders, each
where it is cheaper: ``rational_roots`` scans its small primes, and
``_gf_root`` splits at stage 2's primes near 2^31, which no scan reaches.

``is_zero`` has three stages.  (1) Structural: a rep without a nonzero
numerator is zero, and on a tower of levels all marked irreducible (a field)
any other rep is not.  (2) A unit certified mod p: let top be the highest
level of degree > 1, M its modulus and K the base below it, a field when
every lower level of degree > 1 is marked irreducible.  Then x is a unit iff
Res(M, X) != 0 in K, X being x's numerators as a polynomial in top's
generator.  Sending K's generators to a point mod p is a ring map that keeps
M's degree, so images of M and X coprime over GF(p) prove it (von zur
Gathen-Gerhard, *Modern Computer Algebra*, ch. 6).  (3) Otherwise the exact
inverse runs and raises ZeroDivisorEncountered on a zero divisor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, floordiv, itemgetter, mod, mul, sub
from types import SimpleNamespace

from .errors import BudgetExceeded, DegenerateModulus, ZeroDivisorEncountered, malformed

DEFAULT_DEGREE_CAP = 64


@dataclass(frozen=True)
class TowerLevel:
    """One extension step: a generator name and its monic modulus.

    ``modulus`` holds the modulus coefficients (lowest degree first, length
    degree + 1) as reps of the level below.  ``irreducible`` marks moduli
    known to be irreducible: ``is_zero`` is structural on a tower of them,
    and certifies units mod p above them.
    Degree-1 levels only arise from splitting; ``extend`` rejects them.
    """

    name: str
    modulus: tuple
    irreducible: bool = False
    #: The level ``FieldTower.split`` made this one from (the split level or
    #: one above it); it decides what ``embedded`` accepts, not equality.
    split_from: object = field(default=None, repr=False, compare=False)
    #: The level's integer data (``_ZLevel``), built on first use from the
    #: levels below, which are fixed when the level is made.
    _z: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def degree(self):
        return len(self.modulus) - 1


# ---------------------------------------------------------------------------
# integer numerators: Z at "int-height" k is an int for k = 0 and otherwise a
# flat tuple of deg(f_1) * ... * deg(f_k) ints, level 1 varying fastest
# ---------------------------------------------------------------------------

def _zany(Z, k):
    """True when some entry of Z is nonzero."""
    return Z != 0 if k == 0 else any(Z)


def _zbelow(levels, Z, k, low):
    """The numerators at int-height ``low`` of Z at int-height k when Z is
    constant in every level above ``low`` (its entries past them are zero),
    else None."""
    if k == low:
        return Z
    if low == 0:
        return None if any(Z[1:]) else Z[0]
    s = _zlevel(levels, low).size
    return None if any(Z[s:]) else Z[:s]


def _zop(op, A, B, k):
    return op(A, B) if k == 0 else tuple(map(op, A, B))


def _zscale(A, c, k):
    if c == 1:
        return A
    return A * c if k == 0 else tuple(map(mul, A, repeat(c)))


def _zcontent(Z, k, g):
    """gcd of g and every entry of Z."""
    return gcd(g, Z) if k == 0 else gcd(g, *Z)


def _zdiv(Z, g, k):
    return Z // g if k == 0 else tuple(map(floordiv, Z, repeat(g)))


def _znorm(den, Z, k):
    """The canonical (den, Z) of Z / den at int-height k (den > 0)."""
    if den == 1:
        return (1, Z)
    g = _zcontent(Z, k, den)
    if g == 1:
        return (den, Z)
    return (den // g, _zdiv(Z, g, k))


def _zparts(Z, k, d):
    """The d coefficients in level k of numerators Z at int-height k >= 1,
    numerators at int-height k - 1: consecutive slices of Z."""
    if k == 1:
        return list(Z)
    return list(zip(*[iter(Z)] * (len(Z) // d)))


def _zjoin(parts, k):
    """The numerators at int-height k >= 1 whose level-k coefficients are
    ``parts``, numerators at int-height k - 1."""
    return tuple(parts) if k == 1 else tuple(chain.from_iterable(parts))


def _zlscale(r, c, k):
    """A new list of the numerators in r, at int-height k, each times c."""
    if c == 1:
        return list(r)
    if k == 0:
        return list(map(mul, r, repeat(c)))
    return list(map(_zscale, r, repeat(c), repeat(k)))


def _zldiv(r, g, k):
    """A new list of the numerators in r, at int-height k, each divided by g."""
    if k == 0:
        return list(map(floordiv, r, repeat(g)))
    return list(map(_zdiv, r, repeat(g), repeat(k)))


def _zlcontent(r, k, g):
    """gcd of g and every entry of the numerators in r, at int-height k."""
    return gcd(g, *r) if k == 0 else gcd(g, *chain.from_iterable(r))


class _ZLevel:
    """Integer data of level k (1-based) of a tower.

    Numerators at int-height k are ``size`` = deg(f_1) ... deg(f_k) ints,
    and a rep at height k >= 2 carries ``degrees`` = (deg(f_1), ...,
    deg(f_k)), the one tuple of this level.  With D the lcm of the
    denominators of the modulus coefficients, D times the modulus is
    ``cleared``: integer numerators N_0 .. N_{d-1} and the leading D, all at
    int-height k - 1.  Reducing a product of two reduced numerators by it
    takes d - 1 pseudo-remainder steps, each scaling by ``step`` =
    D * S_{k-1}, so the reduced product carries the fixed factor ``scale`` =
    S_k = S_{k-1} * step^(d-1), with S_0 = 1.  ``terms`` pairs each t < d
    with N_t != 0 with its multiplier: N_t, or the int c S_{k-1} when N_t is
    a constant c in the levels below, since a product by it is a scaling.
    ``frame`` is the level's unit certificate frame, built on first use by
    ``_unit_frame``.
    """

    __slots__ = ("degree", "size", "degrees", "cleared", "terms", "step", "scale", "zero",
                 "one", "frame")

    def __init__(self, levels, k):
        self.frame = _UNBUILT
        modulus = levels[k - 1].modulus
        d = len(modulus) - 1
        below = _zlevel(levels, k - 1)
        D = lcm(*(c[0] for c in modulus))
        N = [_zscale(c[1], D // c[0], k - 1) for c in modulus[:d]]
        self.degree = d
        self.size = below.size * d
        self.degrees = below.degrees + (d,)
        self.cleared = tuple(N) + (_zscale(below.one, D, k - 1),)
        terms = []
        for t, n in enumerate(N):
            if _zany(n, k - 1):
                c = _zbelow(levels, n, k - 1, 0)
                terms.append((t, n if c is None else c * below.scale))
        self.terms = tuple(terms)
        self.step = D * below.scale
        self.scale = below.scale * self.step ** (d - 1)
        self.zero = (0,) * self.size
        self.one = (1,) + self.zero[1:]


#: The integer data of Q, the base of every tower: numerators at int-height 0
#: are plain ints, and a product over Q needs no reduction.
_ZQ = SimpleNamespace(scale=1, zero=0, one=1, size=1, degrees=())


def _zlevel(levels, k):
    if k == 0:
        return _ZQ
    lv = levels[k - 1]
    z = lv._z
    if z is None:
        z = _ZLevel(levels, k)
        object.__setattr__(lv, "_z", z)
    return z


def _zmul(levels, k, A, B):
    """The product of numerators A and B at int-height k, reduced, times the
    level's fixed ``scale``."""
    if k == 0:
        return A * B
    if k == 1:
        return _zreduce(levels, 1, _zz_mul(A, B))
    if levels[k - 1].degree == 1:
        # a linear level has the numerators and the scale of the one below
        return _zmul(levels, k - 1, A, B)
    return _zreduce(levels, k, _zraw(levels, k, A, B))


def _zraw(levels, k, A, B):
    """The product of numerators A and B at int-height k >= 2 before level k
    reduces it: 2d - 1 numerators at int-height k - 1, each reduced below.
    A reduction is linear, so each of them sums the raw products of level
    k - 1 and is reduced once: 2d - 1 reductions at level k - 1, not d^2.
    A linear level below k has the numerators of the level ``low`` below
    it, so the sums are reduced there.  The integer sums at level 1 add up
    in place."""
    d = levels[k - 1].degree
    low = k - 1
    while low > 1 and levels[low - 1].degree == 1:
        low -= 1
    sums = [None] * (2 * d - 1)
    nonzero_b = []
    for j, y in enumerate(_zparts(B, k, d)):
        if any(y):
            nonzero_b.append((j, y))
    for i, x in enumerate(_zparts(A, k, d)):
        if any(x):
            for j, y in nonzero_b:
                s = sums[i + j]
                if low == 1:
                    sums[i + j] = _zz_mul(x, y, s)
                else:
                    p = _zraw(levels, low, x, y)
                    sums[i + j] = p if s is None else list(map(_zop, repeat(add), s, p,
                                                               repeat(low - 1)))
    zero = _zlevel(levels, low).zero
    for n, s in enumerate(sums):
        sums[n] = zero if s is None else _zreduce(levels, low, s)
    return sums


def _zreduce(levels, k, P):
    """2d - 1 numerators P at int-height k - 1, a raw product, reduced by
    level k's cleared modulus: the numerators at int-height k of its d
    remaining coefficients, times ``step^(d - 1)``."""
    zl = _zlevel(levels, k)
    d = zl.degree
    step = zl.step
    P = list(P)
    if k == 1:
        for n in range(2 * d - 2, d - 1, -1):
            c = P.pop()
            if step != 1:
                P = list(map(mul, P, repeat(step)))
            if c:
                for t, m in zl.terms:
                    P[n - d + t] -= c * m
        return tuple(P)
    low = k - 1
    # each reduction step scales every lower entry by ``step``; an entry
    # takes the steps it missed (done - seen[i]) only when it is next used
    seen = [0] * len(P)
    done = 0
    for n in range(2 * d - 2, d - 1, -1):
        c = _zscale(P.pop(), step ** (done - seen[n]), low)
        done += 1
        if any(c):
            for t, m in zl.terms:
                i = n - d + t
                caught_up = _zscale(P[i], step ** (done - seen[i]), low)
                cm = _zscale(c, m, low) if type(m) is int else _zmul(levels, low, c, m)
                P[i] = _zop(sub, caught_up, cm, low)
                seen[i] = done
    for i, p in enumerate(P):
        P[i] = _zscale(p, step ** (done - seen[i]), low)
    return _zjoin(P, k)


def _zz_trim(v):
    while v and v[-1] == 0:
        v.pop()
    return v


def _ztrim(v, k):
    """v, a list of numerators at int-height k, without its trailing zeros."""
    while v and not _zany(v[-1], k):
        v.pop()
    return v


def _zz_pseudo_divmod(f, g):
    """Integer q and r with lc(g)^(deg f - deg g + 1) * f = q * g + r."""
    dg = len(g) - 1
    lg = g[-1]
    q = [0] * (len(f) - dg)
    r = list(f)
    for k in range(len(q) - 1, -1, -1):
        c = r.pop()
        q = list(map(mul, q, repeat(lg)))
        q[k] += c
        r = list(map(mul, r, repeat(lg)))
        if c:
            for j in range(dg):
                r[k + j] -= c * g[j]
    return q, _zz_trim(r)


def _zz_mul(u, v, out=None):
    """The product of integer lists u and v, added into ``out`` when given."""
    if out is None:
        out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                out[i + j] += x * y
    return out


def _zeuclid(levels, k, r0, r1, cofactor):
    """One remainder sequence on polynomials whose coefficients are numerators
    at int-height k: r0 and r1 are lists, lowest degree first and trimmed, r1
    nonzero, and the sequence may change them.

    It stops at a zero remainder or a constant and returns that last
    remainder g, the rep (di, inv) of the inverse of g's leading coefficient,
    and, with ``cofactor``, (s, l) such that s A = l g modulo the first r0, A
    being the first r1.  Each remainder is the field remainder up to a
    rational factor: content is stripped once per remainder, so the leading
    coefficients inverted (each once, by ``_rinv`` at height k) and the monic
    g are those of Euclid on values.  At k = 0 a step is an integer
    pseudo-division.
    """
    zl = _zlevel(levels, k)
    S = zl.scale
    c = _zlcontent(r1, k, 0)
    if c > 1:
        r1 = _zldiv(r1, c, k)
    s0, l0, s1, l1 = [], 1, [zl.one], c
    inv = None
    while len(r1) > 1:
        if k == 0:
            q, r = _zz_pseudo_divmod(r0, r1)
            w = r1[-1] ** len(q)
        else:
            inv = _rinv(levels, k, _rep(levels, k, 1, r1[-1]))
            # with T the top of r, T / lc(r1) = C / (di S) for C = T * inv * S,
            # so m = di S^2 scales r, and each step cancels r's top exactly
            m = inv[0] * S * S
            r, q, w = r0, [zl.zero] * (len(r0) - len(r1) + 1), 1
            for j in range(len(q) - 1, -1, -1):
                top = r.pop()
                if _zany(top, k):
                    C = _zmul(levels, k, top, inv[1])
                    r, q, w = _zlscale(r, m, k), _zlscale(q, m, k), w * m
                    q[j] = C
                    for t, y in enumerate(r1[:-1]):
                        r[j + t] = _zop(sub, r[j + t], _zmul(levels, k, C, y), k)
        r = _ztrim(r, k)
        if not r:
            break
        cr = _zlcontent(r, k, 0)
        if cofactor:
            # r = w r0 - S q r1 (S = 1 at k = 0), so l0 l1 r = s A for
            # s = l1 w s0 - l0 q s1, the products q s1 carrying the factor S
            s = _zlscale(s0, l1 * w, k) + [zl.zero] * (len(q) + len(s1) - 1 - len(s0))
            for i, x in enumerate(q):
                if _zany(x, k):
                    x = _zscale(x, l0, k)
                    for j, y in enumerate(s1):
                        s[i + j] = _zop(sub, s[i + j], _zmul(levels, k, x, y), k)
            lam = l0 * l1 * cr
            g = _zlcontent(s, k, lam)
            s0, l0, s1, l1 = s1, l1, _zldiv(s, g, k) if g > 1 else s, lam // g
        r0, r1, inv = r1, _zldiv(r, cr, k) if cr > 1 else r, None
    if inv is None:
        inv = _rinv(levels, k, _rep(levels, k, 1, r1[-1]))
    return r1, inv, (s1, l1)


def _zmonic(levels, k, g, inv):
    """The monic polynomial, as reps at height k, of numerators g whose leading
    coefficient has the inverse rep ``inv``."""
    den = inv[0] * _zlevel(levels, k).scale
    out = []
    for x in g[:-1]:
        out.append(_rnorm(levels, k, den, _zmul(levels, k, x, inv[1])))
    out.append(_rone(levels, k))
    return out


# ---------------------------------------------------------------------------
# units certified mod p (stage 2 of ``is_zero``): a polynomial over GF(p) is a
# list of residues, lowest degree first and trimmed
# ---------------------------------------------------------------------------

#: Primes just below 2^31, where an unlucky prime (images of M and X with a
#: common root though M and X have none) is rare.
_UNIT_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579,
                2147483563, 2147483549, 2147483543, 2147483497)
_UNBUILT = object()  # ``_ZLevel.frame`` until ``_unit_frame`` builds it


def _gf_rem(f, g, p):
    """f modulo g over GF(p), up to a unit factor unless g is monic."""
    return _zz_trim([x % p for x in _zz_pseudo_divmod(f, g)[1]])


def _gf_gcd(f, g, p):
    """The monic gcd of f and g, f nonzero."""
    while g:
        f, g = g, _gf_rem(f, g, p)
    inv = pow(f[-1], -1, p)
    return [x * inv % p for x in f]


def _gf_powmod(f, e, m, p):
    """f^e modulo a monic m."""
    acc = [1]
    for bit in bin(e)[2:]:
        acc = _gf_rem(_zz_mul(acc, acc), m, p)
        if bit == "1":
            acc = _gf_rem(_zz_mul(acc, f), m, p)
    return acc


def _gf_root(f, p):
    """A root of f in GF(p), or None.  h = gcd(x^p - x, f) is the product of
    the distinct linear factors of f; while it has several, one of
    gcd(h, (x + a)^((p-1)/2) - 1), a = 0, 1, ..., splits it."""
    f = _gf_gcd(f, [], p)
    r = _gf_powmod([0, 1], p, f, p) + [0, 0]
    r[1] -= 1
    h = _gf_gcd(f, _gf_rem(r, f, p), p)
    a = 0
    while len(h) > 2:
        r = _gf_powmod([a, 1], (p - 1) // 2, h, p)
        r[0] -= 1
        g = _gf_gcd(h, _gf_rem(r, h, p), p)
        h = g if 1 < len(g) < len(h) else h
        a += 1
    return -h[0] % p if len(h) == 2 else None


def _gf_eval(levels, Z, point, p):
    """The images in GF(p) of the coefficients of numerators Z in level
    len(point) + 1, the generators of the levels below sent to ``point``:
    each level in turn, lowest first, folds its runs of deg(f) entries."""
    vals = [Z] if type(Z) is int else list(Z)
    for lv, x in zip(levels, point):
        d = lv.degree
        out = []
        for i in range(0, len(vals), d):
            acc = 0
            for v in reversed(vals[i:i + d]):
                acc = (acc * x + v) % p
            out.append(acc)
        vals = out
    return list(map(mod, vals, repeat(p)))


def _unit_frame(levels, top):
    """(p, point, image of top's cleared modulus), built once: p is the first
    of ``_UNIT_PRIMES`` with a frame at it.  None when there is none, or when
    a lower level of degree > 1 is not irreducible (K may be no field)."""
    zl = _zlevel(levels, top)
    if zl.frame is _UNBUILT:
        field_below = all(lv.irreducible or lv.degree == 1 for lv in levels[: top - 1])
        frames = (_frame_at(levels, top, p) for p in _UNIT_PRIMES)
        zl.frame = next(filter(None, frames), None) if field_below else None
    return zl.frame


def _frame_at(levels, top, p):
    """The frame at p, or None when p divides a cleared denominator up to
    ``top`` or a lower modulus has no root at the point taken so far."""
    point = ()
    for k in range(1, top + 1):
        image = []
        for n in _zlevel(levels, k).cleared:
            image += _gf_eval(levels, n, point, p)
        if image[-1] == 0:
            return None
        if k == top:
            return p, point, image
        root = _gf_root(image, p)
        if root is None:
            return None
        point += (root,)


def _certified_unit(levels, rep):
    """True when a structurally nonzero rep is proved a unit mod p (the
    argument is in the module docstring); False when unproved."""
    h = len(levels)
    while h > 1 and levels[h - 1].degree == 1:
        h -= 1  # a linear level has the numerators of the one below
    frame = _unit_frame(levels, h)
    if frame is None:
        return False
    p, point, M = frame
    return len(_gf_gcd(M, _zz_trim(_gf_eval(levels, rep[1], point, p)), p)) == 1


# ---------------------------------------------------------------------------
# rep arithmetic: (den, Z) at heights 0 and 1, (den, Z, degrees) above
# ---------------------------------------------------------------------------

def _rep(levels, h, den, Z):
    """The rep at height h of canonical numerators Z over den: the pair at
    heights 0 and 1, and above them the pair followed by the level degrees."""
    return (den, Z) if h < 2 else (den, Z, _zlevel(levels, h).degrees)


def _rnorm(levels, h, den, Z):
    """The canonical rep at height h of Z / den (den > 0)."""
    den, Z = _znorm(den, Z, h)
    return _rep(levels, h, den, Z)


def _rzero(levels, h):
    zl = _zlevel(levels, h)
    return (1, zl.zero) if h < 2 else (1, zl.zero, zl.degrees)


def _rone(levels, h):
    zl = _zlevel(levels, h)
    return (1, zl.one) if h < 2 else (1, zl.one, zl.degrees)


def _rfrom_rational(levels, h, q):
    """The rep at height h of a rational q given by its integer
    ``numerator`` and ``denominator``."""
    rep = (q.denominator, q.numerator)
    return rep if h == 0 else _lift(levels, 0, rep, h)


def _lift(levels, k, rep, h):
    """A rep at height k as the constant residue at height h >= k: its
    numerators followed by zeros."""
    if h == k:
        return rep
    Z = rep[1]
    if k == 0:
        Z = (Z,)
    zl = _zlevel(levels, h)
    Z += zl.zero[len(Z):]
    return (rep[0], Z) if h < 2 else (rep[0], Z, zl.degrees)


def _coeffs(rep, h):
    """The residue coefficients of a rep at height h >= 1, as reps at h - 1,
    read off the rep's own level degrees."""
    den, Z = rep[0], rep[1]
    if h == 1:
        return list(map(_znorm, repeat(den), Z, repeat(0)))
    degrees = rep[2]
    below = degrees[:-1]
    out = []
    for z in _zparts(Z, h, degrees[-1]):
        n, z = _znorm(den, z, h - 1)
        out.append((n, z) if h == 2 else (n, z, below))
    return out


def _join(levels, h, coeffs):
    """The rep at height h >= 1 with the given residue coefficients (reps at
    height h - 1), zero-padded or cut to the level's degree."""
    zl = _zlevel(levels, h)
    coeffs = coeffs[: zl.degree]
    den = lcm(*map(itemgetter(0), coeffs))
    parts = []
    for c in coeffs:
        parts.append(_zscale(c[1], den // c[0], h - 1))
    Z = _zjoin(parts, h)
    return _rep(levels, h, den, Z + zl.zero[len(Z):])


def _is_szero(rep, h):
    """Structural zero test (zero in every branch of the tower)."""
    return not _zany(rep[1], h)


def _rsum(a, b, h, op):
    da, db = a[0], b[0]
    if da == db:
        rep = _znorm(da, _zop(op, a[1], b[1], h), h)
    else:
        g = gcd(da, db)
        Z = _zop(op, _zscale(a[1], db // g, h), _zscale(b[1], da // g, h), h)
        if g == 1:
            rep = (da * db, Z)
        else:
            # a prime outside g divides one denominator only and cannot
            # divide every entry of Z, so the content to remove divides g
            g2 = _zcontent(Z, h, g)
            rep = (da // g * (db // g2), _zdiv(Z, g2, h) if g2 > 1 else Z)
    return rep if h < 2 else (rep[0], rep[1], a[2])


def _radd(levels, h, a, b):
    return _rsum(a, b, h, add)


def _rneg(levels, h, a):
    Z = _zscale(a[1], -1, h)
    return (a[0], Z) if h < 2 else (a[0], Z, a[2])


def _rsub(levels, h, a, b):
    return _rsum(a, b, h, sub)


def _rmul(levels, h, a, b):
    den = a[0] * b[0]
    if h == 0:
        return _znorm(den, a[1] * b[1], 0)
    # a rational operand scales the other, which is already reduced
    n, other = _zbelow(levels, a[1], h, 0), b[1]
    if n is None:
        n, other = _zbelow(levels, b[1], h, 0), a[1]
    if n is not None:
        rep = _znorm(den, _zscale(other, n, h), h)
    else:
        rep = _znorm(den * _zlevel(levels, h).scale, _zmul(levels, h, a[1], b[1]), h)
    return rep if h < 2 else (rep[0], rep[1], a[2])


def _rinv(levels, h, a):
    """Inverse of a nonzero rep; raises ZeroDivisorEncountered on a proper gcd."""
    if h == 0:
        den, num = a
        if num == 0:
            raise ZeroDivisionError("inverting zero")
        return (num, den) if num > 0 else (-num, -den)
    k = h - 1
    c = _zbelow(levels, a[1], h, k)
    if c is not None:
        # a value constant in its level, as every value at a linear level
        # is: invert the one coefficient (the entries dropped are zero, so
        # its rep is canonical)
        return _lift(levels, k, _rinv(levels, k, _rep(levels, k, a[0], c)), h)
    # s A = l g modulo the cleared modulus, g a constant unless A is a zero divisor
    zl, below = _zlevel(levels, h), _zlevel(levels, k)
    den = a[0]
    A = _ztrim(_zparts(a[1], h, zl.degree), k)
    g, inv, (s, l) = _zeuclid(levels, k, list(zl.cleared), A, True)
    if len(g) > 1:
        raise ZeroDivisorEncountered(k, _zmonic(levels, k, g, inv))
    Z = [below.zero] * zl.degree
    for i, x in enumerate(s):
        Z[i] = _zscale(_zmul(levels, k, x, inv[1]), den, k)
    return _rnorm(levels, h, l * inv[0] * below.scale, _zjoin(Z, h))


# ---------------------------------------------------------------------------
# polynomial-list helpers: variable-length coefficient lists of reps at
# height h, lowest degree first and trimmed of trailing structural zeros
# ---------------------------------------------------------------------------

def _pl_trim(coeffs, h):
    n = len(coeffs)
    while n > 0 and _is_szero(coeffs[n - 1], h):
        n -= 1
    return list(coeffs[:n])


def _pl_add(levels, h, A, B):
    n = max(len(A), len(B))
    z = _rzero(levels, h)
    out = []
    for i in range(n):
        x = A[i] if i < len(A) else z
        y = B[i] if i < len(B) else z
        out.append(_radd(levels, h, x, y))
    return _pl_trim(out, h)


def _pl_sub(levels, h, A, B):
    return _pl_add(levels, h, A, list(map(_rneg, repeat(levels), repeat(h), B)))


def _pl_mul(levels, h, A, B):
    if not A or not B:
        return []
    out = [_rzero(levels, h)] * (len(A) + len(B) - 1)
    for i, x in enumerate(A):
        if _is_szero(x, h):
            continue
        for j, y in enumerate(B):
            out[i + j] = _radd(levels, h, out[i + j], _rmul(levels, h, x, y))
    return _pl_trim(out, h)


def _pl_scale(levels, h, A, c):
    return _pl_trim(list(map(_rmul, repeat(levels), repeat(h), A, repeat(c))), h)


def _pl_divmod(levels, h, A, B):
    """Quotient and remainder of coefficient lists.  Each step's top term
    cancels exactly and is dropped, not computed."""
    A = _pl_trim(A, h)
    B = _pl_trim(B, h)
    if not B:
        raise ZeroDivisionError("polynomial division by zero")
    linv = _rinv(levels, h, B[-1])
    q = [_rzero(levels, h)] * max(0, len(A) - len(B) + 1)
    r = list(A)
    db = len(B) - 1
    while True:
        r = _pl_trim(r, h)
        if len(r) < len(B):
            break
        c = _rmul(levels, h, r[-1], linv)
        k = len(r) - 1 - db
        q[k] = c
        for j in range(db):
            r[k + j] = _rsub(levels, h, r[k + j], _rmul(levels, h, c, B[j]))
        r = r[: len(r) - 1]
    return _pl_trim(q, h), r


def _pl_monic(levels, h, A):
    A = _pl_trim(A, h)
    if not A:
        return []
    linv = _rinv(levels, h, A[-1])
    return _pl_scale(levels, h, A, linv)


def _pl_gcd(levels, h, A, B):
    """The monic gcd of trimmed A and B, the zero polynomial only when
    A = B = 0: ``_zeuclid`` on their numerators with denominators cleared."""
    if not B:
        A, B = B, A
    if not B:
        return []
    cleared = []
    for P in (A, B):
        den = lcm(*map(itemgetter(0), P))
        nums = []
        for c in P:
            nums.append(_zscale(c[1], den // c[0], h))
        cleared.append(nums)
    g, inv, _ = _zeuclid(levels, h, *cleared, False)
    return _zmonic(levels, h, g, inv)


def _pl_derivative(levels, h, A):
    out = []
    for i in range(1, len(A)):
        out.append(_rmul(levels, h, A[i], _rfrom_rational(levels, h, i)))
    return _pl_trim(out, h)


def _pl_eval(levels, h, A, x):
    acc = _rzero(levels, h)
    for c in reversed(A):
        acc = _radd(levels, h, _rmul(levels, h, acc, x), c)
    return acc


# ---------------------------------------------------------------------------
# the tower
# ---------------------------------------------------------------------------

class FieldTower:
    """Immutable stack of simple extensions over Q.

    The empty tower is Q itself.  Extensions are appended with ``extend``;
    ``branches_for`` trades a tower whose modulus turned out reducible for
    the branch towers.  All element values are plain tuples, so sharing
    across threads is safe.
    """

    __slots__ = ("levels", "height", "degree_cap", "_hash")

    def __init__(self, levels=(), degree_cap=DEFAULT_DEGREE_CAP):
        levels = tuple(levels)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "height", len(levels))
        object.__setattr__(self, "degree_cap", degree_cap)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("FieldTower is immutable")

    __delattr__ = __setattr__

    @property
    def absolute_degree(self):
        d = 1
        for lv in self.levels:
            d *= lv.degree
        return d

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self.levels == other.levels

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.levels))
        return self._hash

    def __repr__(self):
        if not self.levels:
            return "FieldTower(Q)"
        return "FieldTower(Q[%s])" % "][".join(lv.name for lv in self.levels)

    # -- element constructors -----------------------------------------------

    def zero(self):
        return TowerElement(self, _rzero(self.levels, self.height))

    def one(self):
        return TowerElement(self, _rone(self.levels, self.height))

    def rational(self, q):
        """The element q: an int, a Fraction or a "p/q" string.  This is where a
        Fraction enters the tower."""
        return TowerElement(self, _rfrom_rational(self.levels, self.height, Fraction(q)))

    def generator(self, index=-1):
        """The distinguished root adjoined at the given level."""
        index = index % self.height
        lv = self.levels[index]
        if lv.degree > 1:
            coeffs = [_rzero(self.levels, index), _rone(self.levels, index)]
        else:
            # degree-1 level from a split: the generator equals -constant term
            coeffs = [_rneg(self.levels, index, lv.modulus[0])]
        rep = _join(self.levels, index + 1, coeffs)
        return TowerElement(self, _lift(self.levels, index + 1, rep, self.height))

    def element(self, rep):
        return TowerElement(self, rep)

    # -- tower surgery --------------------------------------------------------

    def extend(self, minpoly, name=None, irreducible=False):
        """Adjoin a root of a monic squarefree polynomial of degree >= 2."""
        if minpoly.tower != self:
            raise ValueError("modulus must be a polynomial over this tower")
        coeffs = minpoly.coeffs
        if len(coeffs) < 3:
            raise DegenerateModulus("modulus must have degree >= 2")
        if not _is_szero(
            _rsub(self.levels, self.height, coeffs[-1], _rone(self.levels, self.height)),
            self.height,
        ):
            raise DegenerateModulus("modulus must be monic")
        g = _pl_gcd(
            self.levels,
            self.height,
            list(coeffs),
            _pl_derivative(self.levels, self.height, list(coeffs)),
        )
        if len(g) > 1:
            raise DegenerateModulus("modulus is not squarefree")
        new_degree = (len(coeffs) - 1) * self.absolute_degree
        if new_degree > self.degree_cap:
            raise BudgetExceeded(
                "tower degree %d exceeds cap %d" % (new_degree, self.degree_cap)
            )
        if name is None:
            name = "t%d" % self.height
        lv = TowerLevel(name=name, modulus=tuple(coeffs), irreducible=irreducible)
        return FieldTower(self.levels + (lv,), self.degree_cap)

    def with_cap(self, degree_cap):
        return FieldTower(self.levels, degree_cap)

    def split(self, level_index, factor):
        """Split on a proper monic factor of the modulus at ``level_index``.

        ``factor`` lists coefficients over the prefix below that level
        (ints, Fractions, elements or reps), lowest degree first.
        Returns the two branch towers (factor branch first).  Their degrees
        at the split level sum to the original degree; a degree-1 branch is
        kept as a genuine (trivial) level so heights never change.
        """
        lv = self.levels[level_index]
        sub = self.levels[:level_index]
        fac = _pl_monic(sub, level_index, list(UniPoly(FieldTower(sub), factor).coeffs))
        if not 1 <= len(fac) - 1 < lv.degree:
            raise ValueError("factor must be a proper divisor of the modulus")
        q, r = _pl_divmod(sub, level_index, list(lv.modulus), fac)
        if r:
            raise ValueError("factor does not divide the modulus")
        cof = _pl_monic(sub, level_index, q)
        branches = []
        for newmod in (fac, cof):
            levels = sub + (TowerLevel(lv.name, tuple(newmod), False, split_from=lv),)
            for upper in self.levels[level_index + 1 :]:
                # each upper modulus is a rep at its own level's height
                src = self.levels[: len(levels)]
                moved = tuple(_moved_reps(src, levels, upper.modulus))
                levels += (TowerLevel(upper.name, moved, upper.irreducible, split_from=upper),)
            branches.append(FieldTower(levels, self.degree_cap))
        return branches[0], branches[1]

    def branches_for(self, err):
        """Branch towers for a ZeroDivisorEncountered raised under this tower."""
        return list(self.split(err.level, list(err.factor)))

    # -- serialization --------------------------------------------------------

    def to_data(self):
        return [
            {"name": lv.name, "minpoly": [rep_to_data(c) for c in lv.modulus]}
            for lv in self.levels
        ]

    @classmethod
    def from_data(cls, data, degree_cap=DEFAULT_DEGREE_CAP):
        """Rebuild a tower from ``to_data`` output, each level through ``extend``
        and its checks; a monic linear level is the trivial level a split
        leaves."""
        tower = cls((), degree_cap)
        with malformed("tower data"):
            for entry in data:
                coeffs = [rep_from_data(tower.levels, tower.height, c) for c in entry["minpoly"]]
                minpoly = UniPoly(tower, coeffs)
                if len(coeffs) == 2 and minpoly.degree == 1:
                    if minpoly.coeffs[-1] != tower.one().rep:
                        raise DegenerateModulus("modulus must be monic")
                    lv = TowerLevel(entry["name"], minpoly.coeffs, False)
                    tower = FieldTower(tower.levels + (lv,), degree_cap)
                else:
                    tower = tower.extend(minpoly, name=entry["name"])
        return tower


#: The rationals, as the empty tower.
QQ = FieldTower()


# ---------------------------------------------------------------------------
# moving reps between related towers
# ---------------------------------------------------------------------------

def _descends(level, ancestor):
    """True when ``level`` is ``ancestor`` or was made from it by splits."""
    while level is not None:
        if level == ancestor:
            return True
        level = level.split_from
    return False


def _moved_reps(src, dst, reps):
    """Move reps over the levels ``src`` into the levels ``dst``.

    ``dst`` must extend a tower whose levels equal those of ``src`` or
    descend from them by splits.  Below the first level that differs a rep
    is kept; from there up to ``src``'s height each residue is reduced
    modulo the destination modulus (a divisor of the source one); above
    ``src``'s height the value is lifted as a constant.
    """
    n = len(src)
    low = n
    if dst[:n] != src:
        pairs = list(zip(dst, src))
        split = [k for k, (a, b) in enumerate(pairs) if a != b]
        if len(dst) < n or not all(_descends(a, b) for a, b in pairs if a != b):
            raise ValueError("towers are not prefix-compatible")
        low = split[0]
    out = []
    for rep in reps:
        out.append(_lift(dst, n, _reduced_rep(dst, rep, n, low), len(dst)))
    return out


def _reduced_rep(dst, rep, h, low):
    """A rep at height h whose levels from ``low`` up were split, re-expressed
    over the destination levels ``dst``."""
    if h == low:
        return rep
    coeffs = list(map(_reduced_rep, repeat(dst), _coeffs(rep, h), repeat(h - 1), repeat(low)))
    return _join(dst, h, _pl_divmod(dst, h - 1, coeffs, dst[h - 1].modulus)[1])


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class TowerElement:
    """A value in a FieldTower, with canonical reduced representation."""

    __slots__ = ("tower", "rep")

    def __init__(self, tower, rep):
        self.tower = tower
        self.rep = rep

    def _coerce(self, other):
        if isinstance(other, TowerElement):
            if other.tower is not self.tower and other.tower != self.tower:
                raise ValueError("elements of different towers")
            return other
        if isinstance(other, (int, Fraction)):
            return self.tower.rational(other)
        return NotImplemented

    # the operators take an element of the very same tower object without
    # calling ``_coerce``: an identity test before any equality

    def __add__(self, other):
        t = self.tower
        if type(other) is not TowerElement or other.tower is not t:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return TowerElement(t, _radd(t.levels, t.height, self.rep, other.rep))

    __radd__ = __add__

    def __sub__(self, other):
        t = self.tower
        if type(other) is not TowerElement or other.tower is not t:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return TowerElement(t, _rsub(t.levels, t.height, self.rep, other.rep))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        t = self.tower
        return TowerElement(t, _rsub(t.levels, t.height, o.rep, self.rep))

    def __mul__(self, other):
        t = self.tower
        if type(other) is not TowerElement or other.tower is not t:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return TowerElement(t, _rmul(t.levels, t.height, self.rep, other.rep))

    __rmul__ = __mul__

    def __neg__(self):
        t = self.tower
        return TowerElement(t, _rneg(t.levels, t.height, self.rep))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.invert()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.invert()

    def __pow__(self, n):
        if n < 0:
            return self.invert() ** (-n)
        acc = self.tower.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def invert(self):
        """Multiplicative inverse via extended Euclid against the modulus."""
        t = self.tower
        return TowerElement(t, _rinv(t.levels, t.height, self.rep))

    def is_zero(self):
        """Sound zero test: structural, then a unit certified mod p, then the
        exact inverse, which raises on an element zero in only some branches."""
        levels = self.tower.levels
        if _is_szero(self.rep, len(levels)):
            return True
        if not all(lv.irreducible for lv in levels) and not _certified_unit(levels, self.rep):
            self.invert()  # raises ZeroDivisorEncountered on a partial zero
        return False

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).is_zero()

    def __hash__(self):
        rep = self.rep
        if not self.tower.levels:
            # a rational keeps the hash of its Fraction: curve_y_solutions
            # returns its y-values in set order, and bigon_points takes the
            # first, so the reports depend on this order
            rep = Fraction(rep[1], rep[0])
        return hash((self.tower, rep))

    def __repr__(self):
        return "TowerElement(%s)" % (rep_to_data(self.rep),)

    def as_rational(self):
        """The value as a Fraction, if it is structurally rational.  This is
        where a Fraction leaves the tower."""
        q = self.demoted_rep(0)
        if q is None:
            raise ValueError("element is not rational")
        return Fraction(q[1], q[0])

    def embedded(self, tower):
        """This value in ``tower``: an extension of this element's tower, a
        branch split from it, or an extension of such a branch.  Shared levels
        are kept, residues at split levels are reduced modulo the branch
        modulus, and the value is constant in the levels above.  Any other
        tower, such as a same-named level with another modulus, raises
        ValueError."""
        if tower is self.tower or tower == self.tower:
            return self
        [rep] = _moved_reps(self.tower.levels, tower.levels, [self.rep])
        return TowerElement(tower, rep)

    def minimal_polynomial(self, base_height=0):
        """Monic squarefree polynomial over the height-``base_height`` prefix
        tower vanishing on this element.

        Computed by eliminating the tower generators with resultants; over a
        genuine field tower this is the minimal polynomial, over a
        split-pending tower the product over branches.
        """
        t = self.tower
        p = UniPoly(t, (-self, t.one()))
        while p.tower.height > base_height:
            p = _eliminate_top_level(p)
        return squarefree_part(p)

    def demoted_rep(self, base_height):
        """The rep over the height-``base_height`` prefix, or None.

        Succeeds exactly when every residue above the prefix is structurally
        constant, i.e. the value already lives in the prefix tower.
        """
        levels = self.tower.levels
        Z = _zbelow(levels, self.rep[1], len(levels), base_height)
        # the entries dropped are zero, so the rep is still canonical
        return None if Z is None else _rep(levels, base_height, self.rep[0], Z)


def _eliminate_top_level(p):
    """Resultant of p (UniPoly over a tower of height >= 1) with the top modulus.

    Views p as a bivariate polynomial in (x, g) over the prefix tower, where
    g is the top generator, and eliminates g.  Returns a UniPoly over the
    prefix tower whose roots include the images of p's roots under every
    embedding of the top level.
    """
    from .polysolve import resultant_bivariate

    t = p.tower
    sub = FieldTower(t.levels[:-1], t.degree_cap)
    lv = t.levels[-1]
    d = lv.degree
    rows = [_coeffs(c, t.height) for c in p.coeffs]
    cols = [UniPoly(sub, [row[j] for row in rows]) for j in range(d)]
    modulus = [UniPoly(sub, (c,)) for c in lv.modulus]
    return resultant_bivariate(cols, modulus, sub)


# ---------------------------------------------------------------------------
# univariate polynomials over a tower
# ---------------------------------------------------------------------------

class UniPoly:
    """Dense univariate polynomial, lowest-degree coefficient first.

    Invariant: the leading stored coefficient is structurally nonzero; the
    zero polynomial stores no coefficients.
    """

    __slots__ = ("tower", "coeffs")

    def __init__(self, tower, coeffs):
        reps = []
        for c in coeffs:
            if isinstance(c, TowerElement):
                if c.tower is not tower and c.tower != tower:
                    raise ValueError("coefficient from a different tower")
                reps.append(c.rep)
            elif isinstance(c, (int, Fraction)):
                reps.append(_rfrom_rational(tower.levels, tower.height, c))
            else:
                reps.append(c)
        self.tower = tower
        self.coeffs = tuple(_pl_trim(reps, tower.height))

    @classmethod
    def from_rationals(cls, tower, qs):
        return cls(tower, [Fraction(q) for q in qs])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, i):
        t = self.tower
        if i >= len(self.coeffs):
            return t.zero()
        return TowerElement(t, self.coeffs[i])

    def __eq__(self, other):
        if not isinstance(other, UniPoly) or other.tower != self.tower:
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.tower, self.coeffs))

    def __add__(self, other):
        t = self.tower
        return UniPoly(t, _pl_add(t.levels, t.height, list(self.coeffs), list(other.coeffs)))

    def __sub__(self, other):
        t = self.tower
        return UniPoly(t, _pl_sub(t.levels, t.height, list(self.coeffs), list(other.coeffs)))

    def __neg__(self):
        t = self.tower
        return UniPoly(t, [_rneg(t.levels, t.height, c) for c in self.coeffs])

    def __mul__(self, other):
        t = self.tower
        if isinstance(other, UniPoly):
            return UniPoly(t, _pl_mul(t.levels, t.height, list(self.coeffs), list(other.coeffs)))
        o = t.rational(other) if isinstance(other, (int, Fraction)) else other
        return UniPoly(t, _pl_scale(t.levels, t.height, list(self.coeffs), o.rep))

    __rmul__ = __mul__

    def __divmod__(self, other):
        t = self.tower
        q, r = _pl_divmod(t.levels, t.height, list(self.coeffs), list(other.coeffs))
        return UniPoly(t, q), UniPoly(t, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self):
        t = self.tower
        return UniPoly(t, _pl_monic(t.levels, t.height, list(self.coeffs)))

    def derivative(self):
        t = self.tower
        return UniPoly(t, _pl_derivative(t.levels, t.height, list(self.coeffs)))

    def evaluate(self, x):
        t = self.tower
        rep = x.rep if isinstance(x, TowerElement) else t.rational(x).rep
        return TowerElement(t, _pl_eval(t.levels, t.height, list(self.coeffs), rep))

    def embedded(self, tower):
        if tower == self.tower:
            return self
        return UniPoly(tower, _moved_reps(self.tower.levels, tower.levels, self.coeffs))

    def rational_coeffs(self):
        """The coefficients as Fractions (each structurally rational), lowest
        degree first.  This is where coefficients leave as Fractions."""
        return [TowerElement(self.tower, c).as_rational() for c in self.coeffs]

    def __repr__(self):
        return "UniPoly(degree=%s)" % ("-inf" if self.is_zero() else self.degree)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def poly_gcd(f, g):
    """Monic greatest common divisor; the zero polynomial only if f = g = 0."""
    if f.tower is not g.tower and f.tower != g.tower:
        raise ValueError("polynomials over different towers")
    t = f.tower
    return UniPoly(t, _pl_gcd(t.levels, t.height, list(f.coeffs), list(g.coeffs)))


def squarefree_part(f):
    """Monic product of the distinct irreducible factors of f."""
    if f.is_zero():
        raise ValueError("zero polynomial has no squarefree part")
    g = poly_gcd(f, f.derivative())
    return f.exact_div(g).monic()


def extend_field(base, candidate, name=None, irreducible=False):
    """Adjoin a distinguished root of ``candidate`` to ``base``."""
    return base.extend(candidate, name=name, irreducible=irreducible)


def invert(x):
    """Inverse of a nonzero tower element."""
    return x.invert()


def with_splitting(tower, fn, base_height=0):
    """Run ``fn(tower)``, splitting and retrying on zero divisors.

    Returns a list of (branch_tower, result) pairs, one per branch in which
    ``fn`` completed.  ``fn`` must accept any branch of ``tower`` and move
    its own inputs there with ``embedded``, which reaches branches and their
    extensions alike.  Zero divisors at levels below ``base_height`` belong
    to the caller's tower and are re-raised for the caller to handle.
    """
    try:
        return [(tower, fn(tower))]
    except ZeroDivisorEncountered as err:
        if err.level < base_height:
            raise
        out = []
        for branch in tower.branches_for(err):
            out.extend(with_splitting(branch, fn, base_height))
        return out


# ---------------------------------------------------------------------------
# serialization of reps: rationals as "p/q" strings, tuples as lists
# ---------------------------------------------------------------------------

def rep_to_data(rep):
    """A rep as nested lists, one list per level, of "p/q" strings; a rep
    above height 1 is nested by its own level degrees."""
    den, Z = rep[0], rep[1]
    if type(Z) is int:
        den, Z = _znorm(den, Z, 0)
        return "%d/%d" % (Z, den)
    return _nested_data(den, Z, rep[2] if len(rep) > 2 else (len(Z),))


def _nested_data(den, Z, degrees):
    """``rep_to_data`` of flat numerators Z over den at the level degrees."""
    if len(degrees) == 1:
        return list(map(rep_to_data, zip(repeat(den), Z)))
    parts = _zparts(Z, len(degrees), degrees[-1])
    return list(map(_nested_data, repeat(den), parts, repeat(degrees[:-1])))


def rep_from_data(levels, h, data):
    """The rep at height h of ``rep_to_data`` output.  A JSON integer is a
    rational too; a float or a bool is refused, since it is no exact value."""
    if isinstance(data, str) or type(data) is int:
        return _rfrom_rational(levels, h, Fraction(data))
    if not isinstance(data, list):
        raise TypeError("coefficient %r is neither an integer, a \"p/q\" string nor a list"
                        % (data,))
    if h == 0:
        raise ValueError("nested coefficient list at the rational level")
    return _join(levels, h, list(map(rep_from_data, repeat(levels), repeat(h - 1), data)))
