"""Torsion-divisor invariants of maximal-flex arrangements.

An arrangement (D; C_1, ..., C_k) with a smooth distinguished component and a
maximal tangent assigns to every component a torsion class; weight vectors
produce further classes whose orders predict splitting numbers of cyclic
covers and, through order/multiset/group comparisons, certify Zariski pairs.

Every component carries its class in the abstract lattice (Z/N)^2,
standing for the N-torsion of the Picard group.  A spec may also carry the
honest cubic, whose chord-tangent law gives each class a point.  A maximal
flex makes the map from classes to points a group homomorphism, so the
cubic is cross-checked against the lattice once per spec: the map is
verified to be well defined and injective on the degree-0 part of the span
of the classes (``ArrangementSpec.class_points``), after which every
weighted order is a lattice computation read off that map.  A spec
compiles its lattice once, when it is built, into one integer row per
component, so n_a and the class of a weight vector come from one pass
over the rows (``_orders``), and the box tables of ``distinguish`` from one
pass per weight box (``_order_table``); it sorts each multiset once per a0.

An admissible list none of whose entries preserves the components'
signatures names no homeomorphism, so the pair is distinguished by its
signatures alone (``signature-witness``).  An inconclusive certificate is
either proved or searched.  Every invariant ``distinguish`` reads depends
only on the signatures and on the relation lattice of the classes, so a
signature-preserving isomorphism between the two class lattices
(``_isomorphism``) proves that no witness exists in any box; otherwise the
certificate names the box searched (``searched_box``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import gcd, lcm

from .errors import (
    BackendDisagreement,
    EmptyAdmissibleSet,
    ModulusMismatch,
    WrongOrder,
    ZeroVector,
    malformed,
    read_json,
)
from .geometry import ec_mul, ec_sum, point_order, tangent_line


# ---------------------------------------------------------------------------
# the abstract lattice
# ---------------------------------------------------------------------------

class TorsionClass:
    """An element of (Z/N)^2, standing for a class in the N-torsion of Pic^0."""

    __slots__ = ("modulus", "coords")

    def __init__(self, modulus, coords):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        a, b = coords
        self.modulus = modulus
        self.coords = (a % modulus, b % modulus)

    def __add__(self, other):
        if other.modulus != self.modulus:
            raise ModulusMismatch("lattice moduli differ")
        return TorsionClass(
            self.modulus,
            (self.coords[0] + other.coords[0], self.coords[1] + other.coords[1]),
        )

    def scale(self, n):
        return TorsionClass(self.modulus, (n * self.coords[0], n * self.coords[1]))

    def is_zero(self):
        return self.coords == (0, 0)

    def order(self):
        a, b = self.coords
        return self.modulus // gcd(a, gcd(b, self.modulus))

    def order_brute(self):
        """Order by explicit iteration; the independent check of order()."""
        acc = self
        for n in range(1, self.modulus + 1):
            if acc.is_zero():
                return n
            acc = acc + self
        raise RuntimeError("element order exceeds the modulus")

    def rescaled(self, modulus):
        """Image under the embedding (Z/N)^2 -> (Z/M)^2 for N | M."""
        if modulus % self.modulus:
            raise ModulusMismatch("no embedding between the lattices")
        f = modulus // self.modulus
        return TorsionClass(modulus, (f * self.coords[0], f * self.coords[1]))

    def __eq__(self, other):
        return (
            isinstance(other, TorsionClass)
            and self.modulus == other.modulus
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.modulus, self.coords))

    def __repr__(self):
        return "TorsionClass(%d, %r)" % (self.modulus, self.coords)


def weil_exponent(u, v):
    """Determinant pairing exponent on (Z/N)^2; 1 on the standard basis."""
    if u.modulus != v.modulus:
        raise ModulusMismatch("lattice moduli differ")
    a, b = u.coords
    c, d = v.coords
    return (a * d - b * c) % u.modulus


def lattice_span(vectors, modulus):
    """All elements of the subgroup of (Z/N)^2 generated by the vectors."""
    seen = {(0, 0)}
    frontier = [(0, 0)]
    gens = [v.coords for v in vectors]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ((x[0] + g[0]) % modulus, (x[1] + g[1]) % modulus)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


# ---------------------------------------------------------------------------
# arrangement specifications
# ---------------------------------------------------------------------------

class ComponentData:
    """Degree, gcd multiplicity, intersection divisor and class of one component.

    ``divisor`` is a tuple of (point id, multiplicity) pairs; on a spec with
    a cubic the ids are ProjPoint instances on it, otherwise arbitrary
    hashable labels.  ``cls`` is the component's TorsionClass; a spec
    refuses a component whose ``cls`` is None.
    """

    __slots__ = ("degree", "m", "divisor", "cls")

    def __init__(self, degree, m, divisor, cls):
        divisor = tuple((p, int(mult)) for p, mult in divisor)
        if not divisor:
            raise ValueError("empty intersection divisor")
        mults = [mult for _, mult in divisor]
        g = 0
        for mult in mults:
            g = gcd(g, mult)
        if m != g:
            raise ValueError("m must be the gcd of the divisor multiplicities")
        self.degree = degree
        self.m = m
        self.divisor = divisor
        self.cls = cls

    def signature(self):
        return (self.degree, self.m, tuple(sorted(mult for _, mult in self.divisor)))


class ArrangementSpec:
    """A maximal-flex arrangement (D; C_1, ..., C_k) for the invariant calculus.

    Every component carries a lattice class.  ``structure`` is the
    EllipticStructure of the distinguished cubic, or None; with a cubic the
    lattice is cross-checked against it once per spec, when the first order
    computation builds the verified class -> point map (``class_points``).
    Components are never changed after construction, so the spec compiles
    its lattice then, once: the modulus N and per component the row
    (m, d, F m x, F m y) for the class (x, y) mod N_j and F = N / N_j.
    """

    def __init__(self, d0, components, structure=None):
        self.d0 = d0
        self.components = tuple(components)
        self.structure = structure
        self._point_cache = {}
        self._class_points = None
        if not self.components:
            raise ValueError("at least one component required")
        self._validate()
        self._modulus = lcm(*(c.cls.modulus for c in self.components))
        rows = []
        for c in self.components:
            f = self._modulus // c.cls.modulus * c.m
            x, y = c.cls.coords
            rows.append((c.m, c.degree, f * x, f * y))
        self._rows = tuple(rows)
        self._signatures = tuple(c.signature() for c in self.components)

    def _validate(self):
        if any(c.cls is None for c in self.components):
            raise ValueError("a component has no class")
        for comp in self.components:
            total = sum(mult for _, mult in comp.divisor)
            if total != self.d0 * comp.degree:
                raise ValueError(
                    "divisor degree %d does not match d0*d = %d"
                    % (total, self.d0 * comp.degree)
                )
            for _, mult in comp.divisor:
                if mult % comp.m:
                    raise ValueError("m does not divide a divisor multiplicity")
            if not comp.cls.scale(comp.m).is_zero():
                raise ValueError("m times the class does not vanish")

    @property
    def k(self):
        return len(self.components)

    @property
    def has_geometric(self):
        return self.structure is not None

    def lattice_modulus(self):
        return self._modulus

    def weight_box(self):
        """Upper bound (exclusive) for each weight entry in searches."""
        return lcm(*(c.m for c in self.components))

    def signatures(self):
        return self._signatures

    def uniform_gcd(self):
        """gcd of all intersection multiplicities and all component degrees."""
        g = 0
        for c in self.components:
            g = gcd(g, c.degree)
            for _, mult in c.divisor:
                g = gcd(g, mult)
        return g

    # -- geometric sums ---------------------------------------------------------

    def component_point(self, index):
        """The E-point sum of the component's normalized intersection divisor."""
        if index not in self._point_cache:
            comp = self.components[index]
            self._point_cache[index] = ec_sum(
                self.structure, [(mult // comp.m, p) for p, mult in comp.divisor]
            )
        return self._point_cache[index]

    def class_points(self):
        """The verified map from lattice classes to points on the cubic.

        Built once per spec, on first use, over the degree-0 combinations
        sum b_j t_j only: P_j sums e_j = 3 d_j / m_j points and two flexes
        differ by a 3-torsion point, so sum b_j P_j is free of the choice of
        origin exactly when sum b_j e_j = 0 (mod 3), and torsion_order forms
        no other sums.  The sublattice is generated by 3 u_j0 and
        u_j - (e_j e_j0 mod 3) u_j0, j0 the first j with e_j != 0 (mod 3), or
        by the unit vectors when there is none.  A breadth-first walk over
        the span of the generators' classes checks every edge (the map is
        well defined) and that only 0 goes to the origin (it is injective),
        raising BackendDisagreement otherwise.  The map is then an
        isomorphism onto its image, and this is where the lattice and the
        cubic's group law are cross-checked.
        """
        if self._class_points is not None:
            return self._class_points
        e = self.structure
        mod = self.lattice_modulus()
        counts = [sum(mult // c.m for _, mult in c.divisor) % 3 for c in self.components]
        j0 = next((j for j, ej in enumerate(counts) if ej), None)
        if j0 is None:
            combos = [{j: 1} for j in range(self.k)]
        else:
            combos = [{j0: 3}] + [
                {j: 1, j0: -(ej * counts[j0] % 3)}
                for j, ej in enumerate(counts)
                if j != j0
            ]
        gens = {}
        for combo in combos:
            cls = TorsionClass(mod, (0, 0))
            for j, n in combo.items():
                cls = cls + self.components[j].cls.rescaled(mod).scale(n)
            pt = ec_sum(e, [(n, self.component_point(j)) for j, n in combo.items()])
            if gens.setdefault(cls.coords, pt) != pt:
                raise BackendDisagreement("the class map is not well defined")
        zero = (0, 0)
        if gens.pop(zero, e.origin) != e.origin:
            raise BackendDisagreement("the class map is not well defined")
        table = {zero: e.origin}
        frontier = [zero]
        for x in frontier:
            for g, gp in gens.items():
                y = ((x[0] + g[0]) % mod, (x[1] + g[1]) % mod)
                yp = gp if x == zero else e.add(table[x], gp)
                if y in table:
                    if table[y] != yp:
                        raise BackendDisagreement("the class map is not well defined")
                elif yp == e.origin:
                    raise BackendDisagreement("the class map is not injective")
                else:
                    table[y] = yp
                    frontier.append(y)
        self._class_points = table
        return table

    # -- serialization ------------------------------------------------------------

    def to_data(self):
        comps = []
        for c in self.components:
            comps.append(
                {
                    "degree": c.degree,
                    "m": c.m,
                    "class": list(c.cls.coords),
                    "modulus": c.cls.modulus,
                    "divisor": [[str(p), mult] for p, mult in c.divisor],
                }
            )
        return {"d0": self.d0, "components": comps}

    @classmethod
    def from_data(cls, data):
        comps = []
        for entry in data["components"]:
            tc = None
            if entry.get("class") is not None:
                tc = TorsionClass(
                    _integer(entry["modulus"], "modulus"),
                    tuple(_integer(c, "class") for c in entry["class"]),
                )
            comps.append(
                ComponentData(
                    _integer(entry["degree"], "degree"),
                    _integer(entry["m"], "m"),
                    [(p, _integer(mult, "divisor multiplicity")) for p, mult in entry["divisor"]],
                    tc,
                )
            )
        return cls(_integer(data["d0"], "d0"), comps)

    @classmethod
    def load(cls, path):
        data = read_json(path, "spec file")
        with malformed("spec file %s" % path):
            spec = cls.from_data(data)
            admissible = _admissible_tuples(data.get("admissible", []), spec.k)
        return spec, admissible


def _integer(value, field):
    """A spec file's integer field; a float, a bool or a string is refused by name."""
    if type(value) is not int:
        raise TypeError("field %s is %r, not an integer" % (field, value))
    return value


# ---------------------------------------------------------------------------
# weight vectors
# ---------------------------------------------------------------------------

class WeightVector(tuple):
    """Integer weights with overall gcd one, acting on the components."""

    def __new__(cls, entries):
        entries = tuple(int(a) for a in entries)
        g = 0
        for a in entries:
            g = gcd(g, abs(a))
        if g != 1:
            raise ValueError("weight entries must have gcd one")
        return super().__new__(cls, entries)

    def permuted(self, perm):
        """The action a |-> (a_{perm^-1(1)}, ...): entry j takes a[perm^-1(j)]."""
        return WeightVector(tuple(self[i] for i in _inv(perm)))


@lru_cache(maxsize=32)
def weight_vectors(k, box):
    """All weight vectors with entries in [0, box), in graded lex order.

    Cached per (k, box), so the result is an immutable tuple callers share.
    """
    vecs = [
        tuple.__new__(WeightVector, entries)
        for entries in product(range(box), repeat=k)
        if gcd(*entries) == 1
    ]
    vecs.sort(key=lambda v: (sum(v), v))
    return tuple(vecs)


# ---------------------------------------------------------------------------
# the invariants
# ---------------------------------------------------------------------------

def _orders(spec, weights):
    """(n_a, x, y) from one pass over the spec's rows.

    n_a = gcd(a_1 m_1, ..., a_k m_k, sum a_j d_j) is the order of the induced
    cover and (x, y), unreduced mod N, the class sum(a_j m_j / n_a * t_j):
    n_a divides every a_j m_j, so it divides both coordinate sums exactly.
    """
    if len(weights) != len(spec._rows):
        raise ValueError("weight length mismatch")
    g = s = sx = sy = 0
    for a, (m, d, fx, fy) in zip(weights, spec._rows):
        g = gcd(g, a * m)
        s += a * d
        sx += a * fx
        sy += a * fy
    na = gcd(g, s)
    return na, sx // na, sy // na


def cover_order(spec, weights):
    """gcd(a_1 m_1, ..., a_k m_k, sum a_j d_j): the order of the induced cover."""
    return _orders(spec, weights)[0]


def reduce_weights(spec, weights):
    """Reduce weights into [0, n_a) and strip the content.

    Returns (reduced weight vector b, kappa) with n_a | n_b and
    tau(a) = (kappa * n_b / n_a) tau(b).  Raises ZeroVector when every
    reduced entry vanishes (then tau(a) = 0 and its order is 1).
    """
    na = cover_order(spec, weights)
    reduced = [a - na * (a // na) for a in weights]
    kappa = 0
    for b in reduced:
        kappa = gcd(kappa, b)
    if kappa == 0:
        raise ZeroVector("all reduced entries vanish")
    b = WeightVector(tuple(x // kappa for x in reduced))
    return b, kappa


def torsion_order(spec, weights):
    """Order of the weighted torsion class sum(a_j m_j / n_a * t_j).

    The order is lattice arithmetic.  When the spec carries a cubic, the
    same class is looked up in the spec's verified class -> point map
    (``ArrangementSpec.class_points``, checked once per spec) and its order
    read off by walking multiples there, within the bound n_a; a
    disagreement raises BackendDisagreement.
    """
    return _torsion_order(spec, weights)[1]


def _torsion_order(spec, weights):
    """(n_a, order) of the weights: ``cover_order`` and ``torsion_order``."""
    na, x, y = _orders(spec, weights)
    return na, _class_order(spec, na, x, y)


def _class_order(spec, na, x, y):
    """N // gcd(x, y, N), checked on the class -> point map when there is a cubic."""
    mod = spec._modulus
    order = mod // gcd(x, y, mod)
    if spec.has_geometric and _class_point_order(spec, (x % mod, y % mod), na) != order:
        raise BackendDisagreement(
            "backends disagree on the order of %r" % (TorsionClass(mod, (x, y)),)
        )
    return order


def _class_point_order(spec, coords, bound):
    """Least n <= bound such that n * coords maps to the origin."""
    table = spec.class_points()
    origin = spec.structure.origin
    mod = spec.lattice_modulus()
    y = coords
    for n in range(1, bound + 1):
        pt = table.get(y)
        if pt is None:
            raise BackendDisagreement("class outside the verified class map")
        if pt == origin:
            return n
        y = ((y[0] + coords[0]) % mod, (y[1] + coords[1]) % mod)
    raise BackendDisagreement("geometric order exceeds the cover order bound")


def splitting_number(spec, weights):
    """Predicted number of components of the pullback of D: n_a / ord(tau(a))."""
    return invariant_row(spec, weights)[2]


def invariant_row(spec, weights):
    """(n_a, ord(tau(a)), splitting number) from one ``_torsion_order`` pass;
    n_a must be a multiple of the class order."""
    na, ord_tau = _torsion_order(spec, weights)
    if na % ord_tau:
        raise BackendDisagreement("class order does not divide the cover order")
    return na, ord_tau, na // ord_tau


class GroupDescriptor:
    """The subgroup generated by the uniformly-normalized component classes.

    Carries the generator classes, their orders, the isomorphism type as a
    pair (exponent, order/exponent), and a kernel test for the associated
    weight map.
    """

    def __init__(self, n, generators, modulus):
        self.n = n
        self.generators = list(generators)
        self.modulus = modulus
        if n == 1 or not generators:
            self.elements = {(0, 0)}
        else:
            self.elements = lattice_span(self.generators, modulus)
        self.order = len(self.elements)
        self.exponent = lcm(*(TorsionClass(modulus, c).order() for c in self.elements))

    @property
    def generator_orders(self):
        return [g.order() for g in self.generators]

    def group_type(self):
        if self.order == 1:
            return (1, 1)
        return (self.exponent, self.order // self.exponent)

    def type_string(self):
        a, b = self.group_type()
        if a == 1:
            return "trivial"
        if b == 1:
            return "Z/%d" % a
        return "Z/%d x Z/%d" % (a, b)

    def is_cyclic(self):
        return self.group_type()[1] == 1

    def image(self, weights):
        acc = TorsionClass(self.modulus, (0, 0))
        for a, g in zip(weights, self.generators):
            acc = acc + g.scale(a)
        return acc

    def kernel_contains(self, weights):
        return self.image(weights).is_zero()


def uniform_group(spec):
    """Group generated by the per-component classes scaled by m_j / n.

    ``n`` is the gcd of all multiplicities and degrees of the arrangement;
    n = 1 yields the trivial group.
    """
    n = spec.uniform_gcd()
    mod = spec.lattice_modulus()
    if n == 1:
        return GroupDescriptor(1, [], mod)
    gens = []
    for comp in spec.components:
        gens.append(comp.cls.rescaled(mod).scale(comp.m // n))
    return GroupDescriptor(n, gens, mod)


# ---------------------------------------------------------------------------
# triangles
# ---------------------------------------------------------------------------

class Triangle:
    """A chord-tangent triangle: three vertices cycled by multiplication by -2."""

    __slots__ = ("vertices", "associated", "lines")

    def __init__(self, vertices, associated, lines=None):
        self.vertices = tuple(vertices)
        self.associated = associated
        self.lines = tuple(lines) if lines else None


def triangle_from(arg, point=None):
    """Triangle derived from a point of order exactly nine.

    Abstract form: triangle_from(cls) for a TorsionClass.  Geometric form:
    triangle_from(structure, point), which also returns the tangent lines.
    """
    if point is None:
        cls = arg
        if cls.order() != 9:
            raise WrongOrder("triangle seeds must have order exactly 9")
        vertices = (cls, cls.scale(-2), cls.scale(4))
        return Triangle(vertices, cls.scale(3))
    e = arg
    if point_order(e, point, 9) != 9:
        raise WrongOrder("triangle seeds must have order exactly 9")
    v1 = point
    v2 = ec_mul(e, -2, v1)
    v3 = ec_mul(e, 4, v1)
    lines = tuple(tangent_line(e.cubic, v) for v in (v1, v2, v3))
    return Triangle((v1, v2, v3), ec_mul(e, 3, v1), lines)


def enumerate_triangles():
    """All triangles of the mod-9 lattice, grouped by associated class.

    Returns (triangles, by_class): 24 triangles in 8 classes of 3.
    """
    seen = {}
    for a in range(9):
        for b in range(9):
            cls = TorsionClass(9, (a, b))
            if cls.order() != 9:
                continue
            tri = triangle_from(cls)
            key = frozenset(v.coords for v in tri.vertices)
            seen.setdefault(key, tri)
    triangles = list(seen.values())
    by_class = {}
    for tri in triangles:
        by_class.setdefault(tri.associated.coords, []).append(tri)
    return triangles, by_class


def classify_triangle_pair(t1, t2):
    """One of "equal", "double", "independent" for two triangle classes."""
    c1, c2 = t1.associated, t2.associated
    if c1 == c2:
        return "equal"
    if c2 == c1.scale(2):
        return "double"
    span = lattice_span([c1, c2], c1.modulus)
    if len(span) == 9:
        return "independent"
    raise ValueError("degenerate triangle pair")


# ---------------------------------------------------------------------------
# bi-gon contact arithmetic
# ---------------------------------------------------------------------------

def bigon_parameters(d, r):
    """Feasibility and orders for the two-curve contact configuration.

    A degree-d pair meeting the cubic at P (multiplicity 3d-1) and Q
    (multiplicity 1) exists iff ord(P) = r divides 3d(3d-2) without dividing
    3d; then Q has the same order and P + Q has order r / gcd(3d-2, r).
    """
    total = 3 * d * (3 * d - 2)
    valid = (total % r == 0) and ((3 * d) % r != 0)
    if not valid:
        return {"valid": False}
    return {
        "valid": True,
        "residual_order": r,
        "sum_order": r // gcd(3 * d - 2, r),
    }


# ---------------------------------------------------------------------------
# distinguishing certificates
# ---------------------------------------------------------------------------

class ZariskiCertificate:
    """Outcome of a distinguishing run.

    ``mode`` is one of "group-witness" (isomorphism or kernel data from the
    uniformly-normalized group), "signature-witness" (per admissible
    permutation, a component sent to one of another signature),
    "order-witness" (one weight vector per admissible permutation) or
    "multiset-witness" (an order multiset mismatch).  A "distinguished"
    verdict carries the explicit inequalities.  An "inconclusive" one has mode None and is either proved, with the
    isomorphism of the class lattices ("isomorphism", "span_order"), or
    searched, with the weight box no witness turned up in ("searched_box").
    """

    def __init__(self, mode, verdict, witnesses):
        self.mode = mode
        self.verdict = verdict
        self.witnesses = witnesses

    def to_data(self):
        return {
            "mode": self.mode,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }

    def render(self):
        lines = ["verdict: %s" % self.verdict]
        if self.mode:
            lines.append("mode: %s" % self.mode)
        for key, val in sorted(self.witnesses.items()):
            lines.append("%s: %s" % (key, val))
        return "\n".join(lines)


def self_admissible(spec):
    """Signature-preserving permutations of the components (a superset of the
    true self-admissible set, closed under composition and inverse)."""
    sigs = spec.signatures()
    out = []
    for perm in permutations(range(spec.k)):
        if all(sigs[perm[j]] == sigs[j] for j in range(spec.k)):
            out.append(tuple(perm))
    return out


def _order_table(spec, box):
    """{a: ord(tau(a))} for the nonzero a in product(range(box), repeat=k): one
    comprehension per row extends every prefix's (gcd a_j m_j, sum a_j d_j,
    sum a_j fx_j, sum a_j fy_j), and n_a = 0 marks the zero vector."""
    sums = [(0, 0, 0, 0)]
    for m, d, fx, fy in spec._rows:
        sums = [(gcd(g, a * m), s + a * d, sx + a * fx, sy + a * fy)
                for g, s, sx, sy in sums for a in range(box)]
    table = {}
    for v, (g, s, sx, sy) in zip(product(range(box), repeat=spec.k), sums):
        na = gcd(g, s)
        if na:
            table[v] = _class_order(spec, na, sx // na, sy // na)
    return table


def _isomorphism(spec1, spec2, preserving):
    """An inconclusive certificate proved by a lattice isomorphism, or None.

    n_a, the order of a weighted class, kernel membership and the uniform
    group's type depend only on the signatures and on Rel(t) = {c : sum
    c_j t_j = 0}.  For a signature-preserving rho (weight a_j on component j
    goes to component rho[j]), D = <(t1_j, t2_rho(j))> projects onto <t1>
    and <t2>, so |D| = |<t1>| = |<t2>| exactly when Rel(t1) = Rel(t2 o rho),
    and then no witness exists in any box.  D is walked breadth first and
    left once it outgrows <t1>; the rho found is re-checked by
    ``_verify_isomorphism``.
    """
    mod1, mod2 = spec1.lattice_modulus(), spec2.lattice_modulus()
    t1 = [c.cls.rescaled(mod1) for c in spec1.components]
    t2 = [c.cls.rescaled(mod2) for c in spec2.components]
    n = len(lattice_span(t1, mod1))
    if n != len(lattice_span(t2, mod2)):
        return None
    zero = (0, 0, 0, 0)
    for rho in preserving:
        gens = [t1[j].coords + t2[r].coords for j, r in enumerate(rho)]
        seen = {zero}
        frontier = [zero]
        for x in frontier:
            for g in gens:
                y = ((x[0] + g[0]) % mod1, (x[1] + g[1]) % mod1,
                     (x[2] + g[2]) % mod2, (x[3] + g[3]) % mod2)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
            if len(seen) > n:
                break
        if len(seen) == n:
            _verify_isomorphism(spec1, spec2, rho, n)
            return ZariskiCertificate(
                None, "inconclusive", {"isomorphism": list(rho), "span_order": n}
            )
    return None


def distinguish(spec1, spec2, admissible):
    """Search for a certificate that the two arrangements are a Zariski pair.

    Tries, in order: the uniform-group isomorphism witness, the signature
    witness (no admissible entry preserves the components' signatures, so
    none is a homeomorphism), a lattice isomorphism that proves the pair
    inconclusive (``_isomorphism``), the kernel witness, the multiset
    witness, and the per-permutation order witness.  ``admissible`` must
    contain (a superset of) the admissible permutations from spec1 to spec2;
    the multiset search reads only its signature-preserving entries (a
    homeomorphism preserves signatures) and recomputes the self-sets from
    the signatures, keeping the whole family closed under composition.  The lattice step skips a spec that carries a
    cubic, whose orders the searches read through the verified class ->
    point map, so that cross-check still runs.  Each witness or isomorphism
    returned is checked once more by a brute route that reads only the
    components, and BackendDisagreement is raised if it disagrees.
    """
    admissible = list(admissible)
    if not admissible:
        raise EmptyAdmissibleSet("no admissible permutations supplied")
    if spec1.k != spec2.k:
        raise ValueError("component counts differ")
    k = spec1.k
    admissible = _admissible_tuples(admissible, k)
    sig1, sig2 = spec1.signatures(), spec2.signatures()
    preserving = [
        rho for rho in admissible if all(sig1[j] == sig2[r] for j, r in enumerate(rho))
    ]

    g1 = uniform_group(spec1)
    g2 = uniform_group(spec2)
    if g1.group_type() != g2.group_type():
        return ZariskiCertificate(
            "group-witness",
            "distinguished",
            {
                "kind": "isomorphism",
                "group1": g1.type_string(),
                "group2": g2.type_string(),
                "orders1": g1.generator_orders,
                "orders2": g2.generator_orders,
            },
        )
    if not preserving:
        return _signature_witness(spec1, spec2, admissible)
    if not (spec1.has_geometric or spec2.has_geometric):
        proof = _isomorphism(spec1, spec2, preserving)
        if proof:
            return proof
    if g1.n > 1:
        kernel_hits = _first_differences(
            spec1, spec2, admissible, list(product(range(g1.n), repeat=k)),
            (g1.kernel_contains, g2.kernel_contains), _brute_in_kernel, "kernel",
        )
        if kernel_hits:
            return ZariskiCertificate(
                "group-witness",
                "distinguished",
                {"kind": "kernel", "per_permutation": kernel_hits},
            )

    box = max(spec1.weight_box(), spec2.weight_box())
    vectors = weight_vectors(k, box)
    t1 = _order_table(spec1, box)
    t2 = _order_table(spec2, box)

    # multiset witness over the signature-preserving self sets.  Every
    # signature-preserving rho0 gives the same coset s2 rho0, so m2 is sorted
    # once per a0 and the witness names the first such rho0.  The tables are
    # read with plain index tuples: entry j of a.permuted(r) is a[inv_r[j]]
    # and of a.permuted(rho).permuted(r) is a[inv_rho[inv_r[j]]].
    rho0 = preserving[0]
    s1 = self_admissible(spec1)
    s2 = self_admissible(spec2)
    take1 = [_inv(r1) for r1 in s1]
    inv = _inv(rho0)
    take2 = [tuple([inv[i] for i in _inv(r2)]) for r2 in s2]
    for a0 in vectors:
        m1 = sorted([t1[tuple([a0[i] for i in ix])] for ix in take1])
        m2 = sorted([t2[tuple([a0[i] for i in ix])] for ix in take2])
        if m1 != m2:
            _verify_multiset(spec1, spec2, a0, rho0, s1, s2, m1, m2)
            return ZariskiCertificate(
                "multiset-witness",
                "distinguished",
                {
                    "base_weights": list(a0),
                    "pair_permutation": list(rho0),
                    "multiset1": m1,
                    "multiset2": m2,
                },
            )

    # per-permutation order witness
    per = _first_differences(
        spec1, spec2, admissible, vectors, (t1.__getitem__, t2.__getitem__), _brute_order, "order"
    )
    if per:
        return ZariskiCertificate(
            "order-witness", "distinguished", {"per_permutation": per}
        )

    return ZariskiCertificate(None, "inconclusive", {"searched_box": box})


def _signature_witness(spec1, spec2, admissible):
    """The signature witness: per admissible rho, the first component j
    whose signature differs from that of component rho[j] of spec2, each
    re-checked from the components' own ``signature()``."""
    sig1, sig2 = spec1.signatures(), spec2.signatures()
    per = {}
    for rho in admissible:
        j = next(j for j, r in enumerate(rho) if sig1[j] != sig2[r])
        s1 = spec1.components[j].signature()
        s2 = spec2.components[rho[j]].signature()
        if s1 == s2:
            raise BackendDisagreement("signature witness failed re-verification")
        per[str(rho)] = {
            "component": j,
            "signature1": [s1[0], s1[1], list(s1[2])],
            "signature2": [s2[0], s2[1], list(s2[2])],
        }
    return ZariskiCertificate("signature-witness", "distinguished", {"per_permutation": per})


def _admissible_tuples(admissible, k):
    """The entries of an admissible set as tuples.

    ValueError unless every entry is a permutation of range(k): the
    searches index the weight vectors with them.
    """
    out = []
    for entry in admissible:
        perm = tuple(entry)
        if any(type(i) is not int for i in perm) or sorted(perm) != list(range(k)):
            raise ValueError("admissible entry %r is not a permutation of range(%d)" % (entry, k))
        out.append(perm)
    return out


def _inv(perm):
    """The inverse permutation as an index tuple."""
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


def _first_differences(spec1, spec2, admissible, vectors, values, brute, kind):
    """{str(rho): {"weights": a, kind + "1": v1, kind + "2": v2}} with, per
    admissible rho, the first a where v1 = values[0](a) differs from v2 =
    values[1](a permuted by rho); None when some rho has no such a.  Each
    witness returned is evaluated again by ``brute(spec, vec)``, which reads
    only the components, and BackendDisagreement is raised unless it agrees.
    """
    per = {}
    for rho in admissible:
        inv = _inv(rho)
        for vec in vectors:
            rvec = tuple([vec[i] for i in inv])
            v1 = values[0](vec)
            v2 = values[1](rvec)
            if v1 != v2:
                per[str(rho)] = (vec, rvec, v1, v2)
                break
        else:
            return None
    for key, (vec, rvec, v1, v2) in per.items():
        if brute(spec1, vec) != v1 or brute(spec2, rvec) != v2:
            raise BackendDisagreement("%s witness failed re-verification" % kind)
        per[key] = {"weights": list(vec), kind + "1": v1, kind + "2": v2}
    return per


def _brute_class(spec, vec, div):
    """sum (a_j m_j / div) t_j by repeated addition of the components' classes."""
    mod = spec.lattice_modulus()
    acc = TorsionClass(mod, (0, 0))
    for a, comp in zip(vec, spec.components):
        step = comp.cls.rescaled(mod)
        for _ in range((a * comp.m // div) % mod):
            acc = acc + step
    return acc


def _brute_order(spec, vec):
    """ord(tau(a)) from the components alone, sharing nothing with the rows:
    n_a = gcd(a_j m_j, sum a_j d_j), then ``order_brute`` on the lattice."""
    pairs = list(zip(vec, spec.components))
    na = gcd(sum(a * c.degree for a, c in pairs), *(a * c.m for a, c in pairs))
    return _brute_class(spec, vec, na).order_brute()


def _brute_in_kernel(spec, vec):
    """Whether the uniform weight map sends vec to zero, from the classes."""
    return _brute_class(spec, vec, spec.uniform_gcd()).is_zero()


def _verify_isomorphism(spec1, spec2, rho, n):
    """Brute re-check of a lattice isomorphism from the components' classes:
    walk <t1> by TorsionClass additions, carrying each element's image under
    t1_j -> t2_rho(j); the map must agree on every edge, send only 0 to 0 and
    have an image of n elements."""
    mod1 = lcm(*(c.cls.modulus for c in spec1.components))
    mod2 = lcm(*(c.cls.modulus for c in spec2.components))
    gens = [
        (c.cls.rescaled(mod1), spec2.components[r].cls.rescaled(mod2))
        for c, r in zip(spec1.components, rho)
    ]
    zero = TorsionClass(mod1, (0, 0))
    image = {zero: TorsionClass(mod2, (0, 0))}
    frontier = [zero]
    bad = False
    for x in frontier:
        for g1, g2 in gens:
            y, fy = x + g1, image[x] + g2
            if y not in image:
                bad = bad or fy.is_zero()
                image[y] = fy
                frontier.append(y)
            bad = bad or image[y] != fy
    if bad or len(set(image.values())) != n:
        raise BackendDisagreement("isomorphism witness failed re-verification")


def _verify_multiset(spec1, spec2, a0, rho0, s1, s2, m1, m2):
    """Independent brute-force re-evaluation of a multiset witness."""
    bm1 = sorted(_brute_order(spec1, a0.permuted(r1)) for r1 in s1)
    bm2 = sorted(_brute_order(spec2, a0.permuted(rho0).permuted(r2)) for r2 in s2)
    if bm1 != m1 or bm2 != m2 or bm1 == bm2:
        raise BackendDisagreement("multiset witness failed re-verification")
