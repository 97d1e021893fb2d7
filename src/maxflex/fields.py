"""Exact arithmetic over towers of simple algebraic extensions of the rationals.

A tower is Q[t1]/(f1)[t2]/(f2)...  Moduli are only required to be monic and
squarefree, so a level may secretly be a product of fields.  Arithmetic
proceeds as if every level were a field; when an inversion meets a zero
divisor the offending factor is reported via ZeroDivisorEncountered and the
caller splits the tower on it (dynamic evaluation).

Element representation: an element of a tower of height h is a "rep".  A rep
at height 0 is a Fraction; a rep at height k is a tuple of exactly deg(f_k)
reps at height k-1 (the residue polynomial in the k-th generator, lowest
degree first, zero-padded).  Reps are always kept canonically reduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, DegenerateModulus, ZeroDivisorEncountered, malformed

#: Canonical reduced p/q with q > 0; the coefficient domain for everything.
BigRational = Fraction

DEFAULT_DEGREE_CAP = 64

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class TowerLevel:
    """One extension step: a generator name and its monic modulus.

    ``modulus`` holds the modulus coefficients (lowest degree first, length
    degree + 1) as reps of the level below.  ``irreducible`` marks moduli
    known to be irreducible, which lets zero-tests skip gcd probing.
    Degree-1 levels only arise from splitting; ``extend`` rejects them.
    """

    name: str
    modulus: tuple
    irreducible: bool = False

    @property
    def degree(self):
        return len(self.modulus) - 1


# ---------------------------------------------------------------------------
# rep arithmetic, recursive on the height
# ---------------------------------------------------------------------------

def _rzero(levels, h):
    if h == 0:
        return _ZERO
    return (_rzero(levels, h - 1),) * levels[h - 1].degree


def _rone(levels, h):
    if h == 0:
        return _ONE
    below = [_rzero(levels, h - 1)] * levels[h - 1].degree
    below[0] = _rone(levels, h - 1)
    return tuple(below)


def _rfrom_rational(levels, h, q):
    if h == 0:
        return Fraction(q)
    below = [_rzero(levels, h - 1)] * levels[h - 1].degree
    below[0] = _rfrom_rational(levels, h - 1, q)
    return tuple(below)


def _is_szero(rep, h):
    """Structural zero test (zero in every branch of the tower)."""
    if h == 0:
        return rep == 0
    return all(_is_szero(c, h - 1) for c in rep)


def _radd(levels, h, a, b):
    if h == 0:
        return a + b
    return tuple(_radd(levels, h - 1, x, y) for x, y in zip(a, b))


def _rneg(levels, h, a):
    if h == 0:
        return -a
    return tuple(_rneg(levels, h - 1, x) for x in a)


def _rsub(levels, h, a, b):
    if h == 0:
        return a - b
    return tuple(_rsub(levels, h - 1, x, y) for x, y in zip(a, b))


def _rmul(levels, h, a, b):
    if h == 0:
        return a * b
    d = levels[h - 1].degree
    prod = [_rzero(levels, h - 1)] * (2 * d - 1)
    for i, x in enumerate(a):
        if _is_szero(x, h - 1):
            continue
        for j, y in enumerate(b):
            if _is_szero(y, h - 1):
                continue
            prod[i + j] = _radd(levels, h - 1, prod[i + j], _rmul(levels, h - 1, x, y))
    _pl_reduce_inplace(levels, h - 1, prod, levels[h - 1].modulus)
    return tuple(prod[:d])


def _rinv(levels, h, a):
    """Inverse of a nonzero rep; raises ZeroDivisorEncountered on a proper gcd."""
    if h == 0:
        if a == 0:
            raise ZeroDivisionError("inverting zero")
        return 1 / a
    coeffs = _pl_trim(list(a), h - 1)
    if not coeffs:
        raise ZeroDivisionError("inverting zero")
    g, u = _pl_half_xgcd(levels, h - 1, coeffs, list(levels[h - 1].modulus))
    if len(g) > 1:
        raise ZeroDivisorEncountered(h - 1, _pl_monic(levels, h - 1, g))
    ginv = _rinv(levels, h - 1, g[0])
    out = [_rmul(levels, h - 1, c, ginv) for c in u]
    d = levels[h - 1].degree
    out += [_rzero(levels, h - 1)] * (d - len(out))
    return tuple(out[:d])


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
    return _pl_add(levels, h, A, [_rneg(levels, h, b) for b in B])


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
    return _pl_trim([_rmul(levels, h, a, c) for a in A], h)


def _pl_reduce_inplace(levels, h, coeffs, modulus):
    """Reduce coeffs (list of reps at height h) modulo a monic modulus in place."""
    d = len(modulus) - 1
    for i in range(len(coeffs) - 1, d - 1, -1):
        lead = coeffs[i]
        if _is_szero(lead, h):
            continue
        coeffs[i] = _rzero(levels, h)
        for j in range(d):
            coeffs[i - d + j] = _rsub(
                levels, h, coeffs[i - d + j], _rmul(levels, h, lead, modulus[j])
            )


def _pl_divmod(levels, h, A, B):
    """Quotient and remainder of coefficient lists; B's leading coeff is inverted."""
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
        for j in range(db + 1):
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
    A = _pl_trim(A, h)
    B = _pl_trim(B, h)
    while B:
        A, B = B, _pl_divmod(levels, h, A, B)[1]
    return _pl_monic(levels, h, A) if A else []


def _pl_half_xgcd(levels, h, A, M):
    """gcd(A, M) together with u such that u*A = gcd (mod M)."""
    r0, r1 = _pl_trim(M, h), _pl_trim(A, h)
    s0, s1 = [], [_rone(levels, h)]
    while r1:
        q, r = _pl_divmod(levels, h, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _pl_sub(levels, h, s0, _pl_mul(levels, h, q, s1))
    return r0, s0


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
    the branch towers.  All element values are plain nested tuples, so
    sharing across threads is safe.
    """

    __slots__ = ("levels", "degree_cap", "_hash")

    def __init__(self, levels=(), degree_cap=DEFAULT_DEGREE_CAP):
        object.__setattr__(self, "levels", tuple(levels))
        object.__setattr__(self, "degree_cap", degree_cap)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("FieldTower is immutable")

    @property
    def height(self):
        return len(self.levels)

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
        return TowerElement(self, _rfrom_rational(self.levels, self.height, Fraction(q)))

    def generator(self, index=-1):
        """The distinguished root adjoined at the given level."""
        index = index % self.height
        d = self.levels[index].degree
        coeffs = [_rzero(self.levels, index)] * d
        if d > 1:
            coeffs[1] = _rone(self.levels, index)
        else:
            # degree-1 level from a split: the generator equals -constant term
            coeffs[0] = _rneg(self.levels, index, self.levels[index].modulus[0])
        rep = tuple(coeffs)
        for k in range(index + 1, self.height):
            lifted = [_rzero(self.levels, k)] * self.levels[k].degree
            lifted[0] = rep
            rep = tuple(lifted)
        return TowerElement(self, rep)

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

        Returns the two branch towers (factor branch first).  Their degrees
        at the split level sum to the original degree; a degree-1 branch is
        kept as a genuine (trivial) level so heights never change.
        """
        lv = self.levels[level_index]
        sub = self.levels[:level_index]
        fac = _pl_monic(sub, level_index, list(factor))
        if not 1 <= len(fac) - 1 < lv.degree:
            raise ValueError("factor must be a proper divisor of the modulus")
        q, r = _pl_divmod(sub, level_index, list(lv.modulus), fac)
        if r:
            raise ValueError("factor does not divide the modulus")
        cof = _pl_monic(sub, level_index, q)
        branches = []
        for newmod in (fac, cof):
            newlv = TowerLevel(name=lv.name, modulus=tuple(newmod), irreducible=False)
            tower = FieldTower(sub + (newlv,), self.degree_cap)
            for upper in self.levels[level_index + 1 :]:
                mig = tuple(
                    migrate_rep(self, tower, c, height=level_index + 1)
                    for c in upper.modulus
                )
                tower = FieldTower(
                    tower.levels + (TowerLevel(upper.name, mig, upper.irreducible),),
                    self.degree_cap,
                )
            branches.append(tower)
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
        tower = cls((), degree_cap)
        with malformed("tower data"):
            for entry in data:
                coeffs = tuple(
                    rep_from_data(tower.levels, tower.height, c) for c in entry["minpoly"]
                )
                tower = FieldTower(
                    tower.levels + (TowerLevel(entry["name"], coeffs, False),), degree_cap
                )
        return tower


#: The rationals, as the empty tower.
QQ = FieldTower()


# ---------------------------------------------------------------------------
# moving reps between related towers
# ---------------------------------------------------------------------------

def embed_rep(src, dst, rep):
    """Lift a rep from a prefix tower into an extension of it."""
    if src.levels != dst.levels[: src.height]:
        raise ValueError("towers are not prefix-compatible")
    for k in range(src.height, dst.height):
        lifted = [_rzero(dst.levels, k)] * dst.levels[k].degree
        lifted[0] = rep
        rep = tuple(lifted)
    return rep


def migrate_rep(src, dst, rep, height=None):
    """Map a rep from ``src`` into a split-descendant tower ``dst``.

    Works level by level: residues are reduced modulo the destination modulus
    (a divisor of the source one) and re-padded.  Only ring operations are
    used, so migration never raises.
    """
    if height is None:
        if src.height != dst.height:
            raise ValueError("towers have different heights")
        height = src.height
    if height == 0:
        return rep
    coeffs = [migrate_rep(src, dst, c, height - 1) for c in rep]
    lv = dst.levels[height - 1]
    _pl_reduce_inplace(dst.levels, height - 1, coeffs, lv.modulus)
    coeffs = coeffs[: lv.degree]
    coeffs += [_rzero(dst.levels, height - 1)] * (lv.degree - len(coeffs))
    return tuple(coeffs)


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
            if other.tower != self.tower:
                raise ValueError("elements of different towers")
            return other
        if isinstance(other, (int, Fraction)):
            return self.tower.rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        t = self.tower
        return TowerElement(t, _radd(t.levels, t.height, self.rep, o.rep))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        t = self.tower
        return TowerElement(t, _rsub(t.levels, t.height, self.rep, o.rep))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        t = self.tower
        return TowerElement(t, _rsub(t.levels, t.height, o.rep, self.rep))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        t = self.tower
        return TowerElement(t, _rmul(t.levels, t.height, self.rep, o.rep))

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
        """Sound zero test: an element that is zero in only some branches raises."""
        if _is_szero(self.rep, self.tower.height):
            return True
        if any(not lv.irreducible for lv in self.tower.levels):
            self.invert()  # raises ZeroDivisorEncountered on a partial zero
        return False

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).is_zero()

    def __hash__(self):
        return hash((self.tower, self.rep))

    def __repr__(self):
        return "TowerElement(%s)" % (rep_to_data(self.rep),)

    def as_rational(self):
        """The value as a Fraction, if it is structurally rational."""
        rep = self.rep
        h = self.tower.height
        while h > 0:
            for c in rep[1:]:
                if not _is_szero(c, h - 1):
                    raise ValueError("element is not rational")
            rep = rep[0]
            h -= 1
        return rep

    def embedded(self, tower):
        if tower == self.tower:
            return self
        return TowerElement(tower, embed_rep(self.tower, tower, self.rep))

    def migrated(self, tower):
        if tower == self.tower:
            return self
        return TowerElement(tower, migrate_rep(self.tower, tower, self.rep))

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
        rep = self.rep
        for k in range(self.tower.height - 1, base_height - 1, -1):
            for c in rep[1:]:
                if not _is_szero(c, k):
                    return None
            rep = rep[0]
        return rep


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
    cols = []
    for j in range(d):
        col = [c[j] for c in p.coeffs]
        cols.append(UniPoly(sub, col))
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
                if c.tower != tower:
                    raise ValueError("coefficient from a different tower")
                reps.append(c.rep)
            elif isinstance(c, (int, Fraction)):
                reps.append(_rfrom_rational(tower.levels, tower.height, Fraction(c)))
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
        rep = x.rep if isinstance(x, TowerElement) else _rfrom_rational(
            t.levels, t.height, Fraction(x)
        )
        return TowerElement(t, _pl_eval(t.levels, t.height, list(self.coeffs), rep))

    def embedded(self, tower):
        if tower == self.tower:
            return self
        return UniPoly(tower, [embed_rep(self.tower, tower, c) for c in self.coeffs])

    def migrated(self, tower):
        if tower == self.tower:
            return self
        return UniPoly(tower, [migrate_rep(self.tower, tower, c) for c in self.coeffs])

    def rational_coeffs(self):
        return [TowerElement(self.tower, c).as_rational() for c in self.coeffs]

    def __repr__(self):
        return "UniPoly(degree=%s)" % ("-inf" if self.is_zero() else self.degree)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def poly_gcd(f, g):
    """Monic greatest common divisor; the zero polynomial only if f = g = 0."""
    if f.tower != g.tower:
        raise ValueError("polynomials over different towers")
    t = f.tower
    if t.height == 0:
        return UniPoly(t, _qq_gcd(f.rational_coeffs(), g.rational_coeffs()))
    return UniPoly(t, _pl_gcd(t.levels, t.height, list(f.coeffs), list(g.coeffs)))


def _zz_primitive(v):
    """Integer coefficient list divided by its content, leading sign positive."""
    from math import gcd as _gcd

    c = 0
    for x in v:
        c = _gcd(c, abs(x))
        if c == 1:
            break
    if c > 1:
        v = [x // c for x in v]
    if v and v[-1] < 0:
        v = [-x for x in v]
    return v


def _qq_to_int(coeffs):
    from math import gcd as _gcd

    den = 1
    for q in coeffs:
        den = den * q.denominator // _gcd(den, q.denominator)
    return _zz_primitive([int(q * den) for q in coeffs])


def _qq_gcd(fc, gc):
    """Monic gcd of rational coefficient lists via a primitive remainder sequence.

    Keeps all intermediate arithmetic in Z with content stripping, which is
    dramatically faster than naive fraction Euclid on the large division
    polynomials.
    """
    f = _qq_to_int(fc)
    g = _qq_to_int(gc)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = list(f)
        dg = len(g) - 1
        lg = g[-1]
        while r and len(r) - 1 >= dg:
            lead = r[-1]
            r = [lg * c for c in r[:-1]]
            off = len(r) - dg
            for j in range(dg):
                r[off + j] -= lead * g[j]
            while r and r[-1] == 0:
                r.pop()
        f, g = g, _zz_primitive(r)
    if not f:
        return []
    lead = Fraction(f[-1])
    return [Fraction(c) / lead for c in f]


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
    ``fn`` completed.  ``fn`` must accept any descendant tower and rebuild
    its own inputs there (typically via ``migrated``/``embedded``).  Zero
    divisors at levels below ``base_height`` belong to the caller's tower and
    are re-raised for the caller to handle.
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
    if isinstance(rep, Fraction):
        return "%d/%d" % (rep.numerator, rep.denominator)
    return [rep_to_data(c) for c in rep]


def rep_from_data(levels, h, data):
    if isinstance(data, str):
        return _rfrom_rational(levels, h, Fraction(data))
    if h == 0:
        raise ValueError("nested coefficient list at the rational level")
    d = levels[h - 1].degree
    out = [rep_from_data(levels, h - 1, c) for c in data]
    out += [_rzero(levels, h - 1)] * (d - len(out))
    return tuple(out[:d])
