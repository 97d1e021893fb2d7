"""Concrete-arrangement combinatorics.

A fingerprint is a computable, conservative shadow of the full combinatorics
of a curve arrangement: per-piece degrees and smoothness, and for every
point of the union the incident pieces with pairwise local multiplicities,
conjugate orbits collapsed to single combinatorial points.  Fingerprints are
canonicalized under degree-preserving relabelings, so byte-identical
serialization is the equality test.

Admissible permutations of grouped components are derived from fingerprints
as the full set of data-preserving bijections; this over-approximates the
arrangement's true admissible set, which is the safe direction for the
certificates built on top.

The point profiles a fingerprint keeps are the module's only incidence data.
Each point is profiled once, in the sweep of its first two incident pieces,
and ``check_incidence`` and the bi-gon clauses of ``verify_bigon`` are read
from the profiles, so each arrangement is swept once.  A sweep first counts,
from resultants and restrictions over the base tower, the points where its
pair alone crosses: one record per polynomial, with no point built.  It
builds the rest.  Records are compared with their orbits expanded, so counted
and built records of the same points serialize alike.
"""

from __future__ import annotations

import json
from itertools import chain, combinations, permutations, product

from .errors import CommonComponent, ZeroDivisorEncountered
from .fields import poly_gcd, rep_to_data, squarefree_part, with_splitting
from .geometry import (
    _affine_records,
    _infinity_records,
    cross,
    intersection_multiplicity,
    is_smooth_curve,
)
from .polysolve import resultant_bivariate


def _point_key(point, base, orbit):
    """Identifier of a point, stable across the sweeps of one arrangement.

    Points whose coordinates lie in the base tower are keyed by their exact
    canonical representation, which separates base-rational points that are
    conjugate over Q (triangle vertices, for instance).  Genuinely algebraic
    points are keyed by base-relative minimal polynomials of the chart
    coordinates u, v and of w = u + m*v, collapsing each conjugate orbit over
    the base to a single combinatorial point.  m counts up from 7 until w
    separates the ``orbit`` conjugates (its minimal polynomial has degree
    ``orbit``); at most orbit*(orbit-1)/2 multipliers fail.
    """
    demoted = []
    for c in point.coords:
        d = c.demoted_rep(base.height)
        if d is None:
            demoted = None
            break
        demoted.append(d)
    if demoted is not None:
        return ("exact", point.chart, tuple(str(rep_to_data(d)) for d in demoted))
    u, v = point.affine()
    for m in range(7, 8 + orbit * (orbit - 1) // 2):
        w_poly = (u + m * v).minimal_polynomial(base_height=base.height)
        if w_poly.degree >= orbit:
            break
    else:
        raise ValueError("no u + m*v separates the conjugates of the point")
    parts = [point.chart, m]
    for mp in (u.minimal_polynomial(base_height=base.height),
               v.minimal_polynomial(base_height=base.height), w_poly):
        parts.append(tuple(str(rep_to_data(c)) for c in mp.coeffs))
    return ("orbit", tuple(parts))


class Fingerprint:
    """Canonical incidence fingerprint of an arrangement of curve pieces."""

    def __init__(self, piece_data, points):
        # piece_data: tuple of (degree, smooth) per piece, piece 0 distinguished;
        # points: the point profiles of _point_profiles, keyed by _point_key or,
        # for a counted record, by its pair and polynomial
        self.piece_data = tuple(piece_data)
        self.points = points
        self.records = tuple((entry["pairs"], entry["orbit"]) for entry in points.values())
        self._canonical = None

    def canonical(self):
        """Serialization minimized over allowed relabelings (piece 0 fixed)."""
        if self._canonical is not None:
            return self._canonical
        n = len(self.piece_data)
        classes = {}
        for i in range(1, n):
            classes.setdefault(self.piece_data[i], []).append(i)
        slots = [(classes[key], classes[key]) for key in sorted(classes, key=repr)]
        best = None
        for sigma in _relabelings(n, slots):
            ser = self._serialize(sigma)
            if best is None or ser < best:
                best = ser
        self._canonical = best
        return best

    def _serialize(self, sigma):
        payload = {
            "pieces": [list(pd) for pd in self.piece_data],
            "points": _record_multiset(self, sigma),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def __eq__(self, other):
        if not isinstance(other, Fingerprint):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def concurrency_records(self):
        """Records where at least three pieces meet."""
        out = []
        for pairs, orbit in self.records:
            pieces = set()
            for i, j in pairs:
                pieces.add(i)
                pieces.add(j)
            if len(pieces) >= 3:
                out.append((sorted(pieces), dict(pairs), orbit))
        return out


def _relabelings(n, slots):
    """Every relabeling of pieces 0..n-1 that sends each slot's source pieces
    onto a permutation of its target pieces and fixes all other pieces.

    ``slots`` lists (sources, targets) pairs of equal length; the first
    slot's permutation varies slowest.
    """
    sigma = list(range(n))
    for choice in product(*(permutations(dst) for _src, dst in slots)):
        for (src, _dst), perm in zip(slots, choice):
            for s, d in zip(src, perm):
                sigma[s] = d
        yield tuple(sigma)


def _point_profiles(herd, tower):
    """Full local profiles of all pairwise intersection points.

    A point on pieces a < b < ... is profiled once, in the (a, b) sweep, the
    first to find it.  A sweep first takes the records ``_counted``
    certifies, one per polynomial (a zero divisor there builds the sweep),
    then builds the rest: every built point still tests incidence on all
    pieces under local tower splitting, so the splits that separate
    accidentally-merged conjugate packets are forced before a point of
    another pair's sweep is passed over.  The pieces' resultants are taken
    once each.  A key met twice raises CommonComponent.
    Returns {key: {"pairs": {(a, b): mult}, "incident": set, "orbit": int}}.
    """
    profiles = {}
    n = len(herd)
    cols = [piece.dehomogenize(2).v_columns() for piece in herd]
    resultants = {}

    def res(a, b):
        if (a, b) not in resultants:
            resultants[a, b] = resultant_bivariate(cols[a], cols[b], tower)
        return resultants[a, b]

    for i, j in combinations(range(n), 2):
        try:
            line, h = _counted(herd, cols, res, i, j)
        except ZeroDivisorEncountered:
            line = h = None
        # one sweep counts on z = 0 or in the chart z = 1, never both: a
        # pair with the line z = 0 has a constant resultant
        for poly in (line, h):
            if poly is not None:
                key = ("counted", (i, j), tuple(str(rep_to_data(c)) for c in poly.coeffs))
                profiles[key] = {"pairs": {(i, j): 1}, "incident": {i, j}, "orbit": poly.degree}
        records = [] if line is not None else _infinity_records(herd[i], herd[j], tower)
        R = res(i, j)
        records += _affine_records(cols[i], cols[j], R if h is None else R.exact_div(h), tower)
        for rec in records:

            def profile(tw, rec=rec):
                pt = rec.point.embedded(tw)
                pieces = [piece.embedded(tw) for piece in herd]
                incident = [k for k in range(n) if pieces[k].evaluate(pt).is_zero()]
                if incident[:2] != [i, j]:
                    return None
                pairs = {
                    (a, b): intersection_multiplicity(pieces[a], pieces[b], pt)
                    for a, b in combinations(incident, 2)
                }
                return pt, incident, pairs

            for tw, found in with_splitting(rec.tower, profile, tower.height):
                if found is None:
                    continue
                pt, incident, pairs = found
                orbit = tw.absolute_degree // tower.absolute_degree
                key = _point_key(pt, tower, orbit)
                if key in profiles:
                    raise CommonComponent("two intersection points share one key")
                profiles[key] = {"pairs": pairs, "incident": set(incident), "orbit": orbit}
    return profiles


def _counted(herd, cols, res, i, j):
    """(line, h): None or monic polynomials over the base tower, each root
    standing for a point where pieces i and j alone cross.

    ``line`` needs one piece to be the line z = 0.  At [x0 : 1 : 0], I_p is
    then the multiplicity of x0 in g(x) = G(x, 1, 0) for the other piece G,
    so g squarefree of full degree ([1:0:0] off G) and coprime to every
    other piece's restriction certifies the line's points.  ``h`` holds the
    simple roots of R = Res_y(F_i, F_j) where a leading y-coefficient is
    nonzero, so the fibre holds one common point, with I_p = 1 (the
    resultant form of Bezout's theorem; Walker, *Algebraic Curves*, 1950),
    less the roots of Res_y(F_i, F_k) for every other piece k (all of them
    when that resultant is zero).
    """
    others = [k for k in range(len(herd)) if k != i and k != j]
    line = None
    for a, b in ((i, j), (j, i)):
        if set(herd[a].form) == {(0, 0, 1)}:
            g = herd[b].dehomogenize(1).restrict_v0()
            if (
                g.degree == herd[b].degree
                and poly_gcd(g, g.derivative()).degree == 0
                and all(
                    poly_gcd(g, herd[k].dehomogenize(1).restrict_v0()).degree == 0
                    for k in others
                )
            ):
                line = g.monic()
    R = res(i, j)
    if R.degree < 1:
        return line, None
    h = squarefree_part(R)
    lc_i, lc_j = cols[i][-1], cols[j][-1]
    shared = chain(
        [R.exact_div(h)],  # the multiple roots
        [poly_gcd(lc_i, lc_j)] if lc_i.degree >= 1 and lc_j.degree >= 1 else [],
        (res(min(i, k), max(i, k)) for k in others),
    )
    for g in shared:
        h = h.exact_div(poly_gcd(h, g))
        if h.degree < 1:
            return line, None
    return line, h


def fingerprint(pieces, tower=None):
    """Canonical fingerprint of a list of curve pieces (first = distinguished).

    Pieces must be pairwise free of common components; each conjugate point
    orbit is keyed by minimal polynomials and kept as a single record with an
    orbit count.
    """
    if not pieces:
        raise ValueError("empty arrangement")
    tower = tower or pieces[0].tower
    herd = [p.embedded(tower) for p in pieces]
    piece_data = tuple((p.degree, is_smooth_curve(p)) for p in herd)
    fp = Fingerprint(piece_data, _point_profiles(herd, tower))
    # every pair's local multiplicities must add up to its Bezout number
    for i in range(len(herd)):
        for j in range(i + 1, len(herd)):
            total = sum(
                pairs.get((i, j), 0) * orbit for pairs, orbit in fp.records
            )
            if total != herd[i].degree * herd[j].degree:
                raise CommonComponent(
                    "pair (%d, %d) multiplicities sum to %d, not the Bezout "
                    "number %d" % (i, j, total, herd[i].degree * herd[j].degree)
                )
    return fp


def admissible_permutations(f1, f2, grouping):
    """Degree- and incidence-preserving bijections of grouped components.

    ``grouping`` lists, per grouped component, the indices of its pieces in
    both fingerprints (piece 0, the distinguished curve, stays outside all
    groups).  Returns the set of group permutations realizable by a piece
    bijection carrying every point record of f1 to one of f2; a superset of
    the arrangement's admissible set, empty when the fingerprints are not
    equivalent under the grouping.
    """
    k = len(grouping)
    if len(f1.piece_data) != len(f2.piece_data):
        return set()
    records2 = _record_multiset(f2)
    out = set()
    sig1 = [_group_signature(f1, g) for g in grouping]
    sig2 = [_group_signature(f2, g) for g in grouping]
    for rho in permutations(range(k)):
        if any(sig1[j] != sig2[rho[j]] for j in range(k)):
            continue
        if _exists_piece_bijection(f1, f2, grouping, rho, records2):
            out.add(tuple(rho))
    return out


def _group_signature(f, group):
    return tuple(sorted(f.piece_data[i] for i in group))


def _record_multiset(f, sigma=None):
    """The sorted pair lists of f's records under the relabeling sigma, each
    repeated by its orbit, so that a conjugate packet counts as its points
    whichever factors over the base tower grouped them."""
    if sigma is None:
        sigma = range(len(f.piece_data))
    recs = []
    for pairs, orbit in f.records:
        mapped = sorted(
            (min(sigma[i], sigma[j]), max(sigma[i], sigma[j]), m)
            for (i, j), m in pairs.items()
        )
        recs += [mapped] * orbit
    recs.sort()
    return recs


def _exists_piece_bijection(f1, f2, grouping, rho, records2):
    n = len(f1.piece_data)
    slots = []
    for gi, group in enumerate(grouping):
        target = grouping[rho[gi]]
        by_class1 = {}
        by_class2 = {}
        for i in group:
            by_class1.setdefault(f1.piece_data[i], []).append(i)
        for i in target:
            by_class2.setdefault(f2.piece_data[i], []).append(i)
        if set(by_class1) != set(by_class2):
            return False
        for cls, members in by_class1.items():
            if len(members) != len(by_class2[cls]):
                return False
            slots.append((members, by_class2[cls]))
    return any(_record_multiset(f1, sigma) == records2 for sigma in _relabelings(n, slots))


# ---------------------------------------------------------------------------
# incidence checks
# ---------------------------------------------------------------------------

def concurrent_line_triples(lines):
    """Yield the index triples (i, j, k), i < j < k, of lines through a common
    point, found by the determinant of their coefficients, taken as
    row_i . (row_j x row_k) with each pair's cross product formed once."""
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    rows = [[line.coefficient(a) for a in axes] for line in lines]
    crosses = {}
    for i, j, k in combinations(range(len(rows)), 3):
        c = crosses.get((j, k))
        if c is None:
            c = crosses[j, k] = cross(rows[j], rows[k])
        r = rows[i]
        if (r[0] * c[0] + r[1] * c[1] + r[2] * c[2]).is_zero():
            yield (i, j, k)


def check_incidence(pieces, tower=None):
    """Exhaustive incidence report over an arrangement of pieces.

    Returns concurrent line triples (by coefficient determinant), tangency
    records (pairs meeting with multiplicity at least two), transversal
    pairs, and points where three or more pieces meet.  The last three are
    read from the point profiles of the arrangement's fingerprint.
    """
    tower = tower or pieces[0].tower
    herd = [p.embedded(tower) for p in pieces]
    lines = [i for i, p in enumerate(herd) if p.degree == 1]
    report = {
        "concurrent_line_triples": [
            tuple(lines[t] for t in triple)
            for triple in concurrent_line_triples([herd[i] for i in lines])
        ],
        "tangencies": [],
        "transversal_pairs": [],
        "triple_points": [],
    }
    tangent_pairs = set()
    for entry in fingerprint(herd, tower).points.values():
        for (i, j), mult in sorted(entry["pairs"].items()):
            if mult >= 2:
                tangent_pairs.add((i, j))
                report["tangencies"].append((i, j, mult))
        if len(entry["incident"]) >= 3:
            report["triple_points"].append(sorted(entry["incident"]))
    for i in range(len(herd)):
        for j in range(i + 1, len(herd)):
            if (i, j) not in tangent_pairs:
                report["transversal_pairs"].append((i, j))
    report["tangencies"].sort()
    report["triple_points"].sort()
    return report


# ---------------------------------------------------------------------------
# two-curve contact verification
# ---------------------------------------------------------------------------

def verify_bigon(fp, p, q):
    """Check every clause of the two-curve contact configuration.

    ``fp`` is the fingerprint of the pieces (cubic, l0, c1, c2), built over
    the tower of p and q.  The cubic must meet c1 with multiplicities
    (3d-1, 1) at (p, q) and c2 with (1, 3d-1); the Bezout count then rules
    out further intersections.  Also checks pairwise transversality of
    l0, c1, c2 and that no point lies on all three.  Every clause is read
    from the fingerprint's piece data and point profiles; a point missing
    from the profiles counts as multiplicity 0, so the contact clauses fail
    closed.  Returns a clause->bool report with an "all" summary.
    """
    _cubic, _l0, (d, smooth1), (d2, smooth2) = fp.piece_data

    def contact(point, piece):
        entry = fp.points.get(_point_key(point, point.tower, 1))
        return entry["pairs"].get((0, piece), 0) if entry else 0

    m_p1, m_q1, m_p2, m_q2 = contact(p, 2), contact(q, 2), contact(p, 3), contact(q, 3)
    report = {
        "same_degree": d2 == d,
        "distinct_points": p != q,
        "components_smooth": smooth1 and smooth2,
        "contact_pattern": (m_p1, m_q1, m_p2, m_q2) == (3 * d - 1, 1, 1, 3 * d - 1),
        "contact_exhausts_bezout": m_p1 + m_q1 == 3 * d and m_p2 + m_q2 == 3 * d,
        "pairwise_transversal": all(
            mult == 1
            for entry in fp.points.values()
            for (a, _b), mult in entry["pairs"].items()
            if a >= 1
        ),
        "empty_triple_intersection": not any(
            {1, 2, 3} <= entry["incident"] for entry in fp.points.values()
        ),
    }
    report["all"] = all(report.values())
    return report
