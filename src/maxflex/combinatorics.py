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
"""

from __future__ import annotations

import json
from itertools import combinations, permutations

from .errors import CommonComponent
from .fields import rep_to_data, with_splitting
from .geometry import (
    intersection_multiplicity,
    intersection_points,
    is_smooth_curve,
)
from .polysolve import mat3_det


def _point_key(point, base):
    """Identifier of a point, stable across the sweeps of one arrangement.

    Points whose coordinates lie in the base tower are keyed by their exact
    canonical representation, which separates base-rational points that are
    conjugate over Q (triangle vertices, for instance).  Genuinely algebraic
    points are keyed by base-relative minimal polynomials of the chart
    coordinates and of a fixed linear combination, collapsing each conjugate
    orbit over the base to a single combinatorial point.
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
    w = u + 7 * v
    parts = [point.chart]
    for e in (u, v, w):
        mp = e.minimal_polynomial(base_height=base.height)
        parts.append(tuple(str(rep_to_data(c)) for c in mp.coeffs))
    return ("orbit", tuple(parts))


class Fingerprint:
    """Canonical incidence fingerprint of an arrangement of curve pieces."""

    def __init__(self, piece_data, records):
        # piece_data: tuple of (degree, smooth) per piece, piece 0 distinguished
        self.piece_data = tuple(piece_data)
        self.records = tuple(records)
        self._canonical = None

    def canonical(self):
        """Serialization minimized over allowed relabelings (piece 0 fixed)."""
        if self._canonical is not None:
            return self._canonical
        n = len(self.piece_data)
        classes = {}
        for i in range(1, n):
            classes.setdefault(self.piece_data[i], []).append(i)
        best = None
        for sigma in _class_preserving_maps(n, classes):
            ser = self._serialize(sigma)
            if best is None or ser < best:
                best = ser
        self._canonical = best
        return best

    def _serialize(self, sigma):
        recs = []
        for pairs, orbit in self.records:
            mapped = sorted(
                (min(sigma[i], sigma[j]), max(sigma[i], sigma[j]), m)
                for (i, j), m in pairs.items()
            )
            for _ in range(orbit):
                recs.append(mapped)
        recs.sort()
        payload = {
            "pieces": [list(pd) for pd in self.piece_data],
            "points": recs,
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


def _class_preserving_maps(n, classes):
    """All relabelings of pieces 1..n-1 preserving (degree, smooth) classes."""
    keys = sorted(classes, key=repr)
    pools = [classes[k] for k in keys]
    def rec(idx, sigma):
        if idx == len(pools):
            yield tuple(sigma)
            return
        pool = pools[idx]
        for perm in permutations(pool):
            for src, dst in zip(pool, perm):
                sigma[src] = dst
            yield from rec(idx + 1, sigma)
        for src in pool:
            sigma[src] = src
    yield from rec(0, list(range(n)))


def _point_profiles(herd, tower):
    """Full local profiles of all pairwise intersection points.

    For each point of the union, determines the incident pieces and every
    pairwise Fulton multiplicity at the point, working under local tower
    splitting: the membership and multiplicity computations force exactly
    the splits that separate accidentally-merged conjugate packets.  Points
    are deduplicated across pair sweeps by minimal-polynomial keys.
    Returns {key: {"pairs": {(a, b): mult}, "incident": set, "orbit": int}}.
    """
    profiles = {}
    n = len(herd)
    for i in range(n):
        for j in range(i + 1, n):
            for rec in intersection_points(
                herd[i], herd[j], tower, multiplicities=False
            ):

                def profile(tw, rec=rec):
                    pt = rec.point.migrated(tw)
                    incident = []
                    for k in range(n):
                        piece = herd[k].embedded(tw)
                        if piece.evaluate(pt).is_zero():
                            incident.append(k)
                    pairs = {}
                    for a_idx in range(len(incident)):
                        for b_idx in range(a_idx + 1, len(incident)):
                            a, b = incident[a_idx], incident[b_idx]
                            pa = herd[a].embedded(tw)
                            pb = herd[b].embedded(tw)
                            pairs[(a, b)] = intersection_multiplicity(pa, pb, pt)
                    return pt, tuple(incident), pairs

                for tw, (pt, incident, pairs) in with_splitting(
                    rec.tower, profile, tower.height
                ):
                    orbit = tw.absolute_degree // tower.absolute_degree
                    key = _point_key(pt, tower)
                    entry = profiles.get(key)
                    if entry is None:
                        profiles[key] = {
                            "pairs": pairs,
                            "incident": set(incident),
                            "orbit": orbit,
                        }
                    elif entry["pairs"] != pairs or entry["orbit"] != orbit:
                        raise CommonComponent(
                            "inconsistent local profiles at a shared point"
                        )
    return profiles


def fingerprint(pieces, tower=None):
    """Canonical fingerprint of a list of curve pieces (first = distinguished).

    Pieces must be pairwise free of common components; conjugate point orbits
    are identified by minimal-polynomial matching and kept as single records
    with an orbit count.
    """
    if not pieces:
        raise ValueError("empty arrangement")
    tower = tower or pieces[0].tower
    herd = [p.embedded(tower) for p in pieces]
    piece_data = tuple((p.degree, is_smooth_curve(p)) for p in herd)
    profiles = _point_profiles(herd, tower)
    records = [(entry["pairs"], entry["orbit"]) for entry in profiles.values()]
    # every pair's local multiplicities must add up to its Bezout number
    for i in range(len(herd)):
        for j in range(i + 1, len(herd)):
            total = sum(
                pairs.get((i, j), 0) * orbit for pairs, orbit in records
            )
            if total != herd[i].degree * herd[j].degree:
                raise CommonComponent(
                    "pair (%d, %d) multiplicities sum to %d, not the Bezout "
                    "number %d" % (i, j, total, herd[i].degree * herd[j].degree)
                )
    return Fingerprint(piece_data, records)


def admissible_permutations(f1, f2, grouping1, grouping2=None):
    """Degree- and incidence-preserving bijections of grouped components.

    ``grouping1``/``grouping2`` list, per grouped component, the indices of
    its pieces in the respective fingerprint (piece 0, the distinguished
    curve, stays outside all groups).  Returns the set of group permutations
    realizable by a piece bijection carrying every point record of f1 to one
    of f2; a superset of the arrangement's admissible set, empty when the
    fingerprints are not equivalent under the grouping.
    """
    if grouping2 is None:
        grouping2 = grouping1
    k = len(grouping1)
    if len(grouping2) != k:
        return set()
    if len(f1.piece_data) != len(f2.piece_data):
        return set()
    records2 = _record_multiset(f2)
    out = set()
    sig1 = [_group_signature(f1, g) for g in grouping1]
    sig2 = [_group_signature(f2, g) for g in grouping2]
    for rho in permutations(range(k)):
        if any(sig1[j] != sig2[rho[j]] for j in range(k)):
            continue
        if _exists_piece_bijection(f1, f2, grouping1, grouping2, rho, records2):
            out.add(tuple(rho))
    return out


def _group_signature(f, group):
    return tuple(sorted(f.piece_data[i] for i in group))


def _record_multiset(f, sigma=None):
    if sigma is None:
        sigma = range(len(f.piece_data))
    recs = []
    for pairs, orbit in f.records:
        mapped = sorted(
            (min(sigma[i], sigma[j]), max(sigma[i], sigma[j]), m)
            for (i, j), m in pairs.items()
        )
        recs.append((tuple(mapped), orbit))
    recs.sort()
    return recs


def _exists_piece_bijection(f1, f2, grouping1, grouping2, rho, records2):
    n = len(f1.piece_data)
    slots = []
    for gi, group in enumerate(grouping1):
        target = grouping2[rho[gi]]
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

    def rec(idx, sigma):
        if idx == len(slots):
            return _record_multiset(f1, sigma=sigma) == records2
        src, dst = slots[idx]
        for perm in permutations(dst):
            for s, d in zip(src, perm):
                sigma[s] = d
            if rec(idx + 1, sigma):
                return True
        return False

    return rec(0, list(range(n)))


# ---------------------------------------------------------------------------
# incidence checks
# ---------------------------------------------------------------------------

def concurrent_line_triples(lines):
    """Yield the index triples (i, j, k), i < j < k, of lines through a common
    point, found by the determinant of their coefficients."""
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for triple in combinations(range(len(lines)), 3):
        rows = [[lines[t].coefficient(a) for a in axes] for t in triple]
        if mat3_det(rows).is_zero():
            yield triple


def check_incidence(pieces, tower=None):
    """Exhaustive incidence report over an arrangement of pieces.

    Returns concurrent line triples (by coefficient determinant), tangency
    records (pairs meeting with multiplicity at least two), transversal
    pairs, and points where three or more pieces meet.
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
    profiles = _point_profiles(herd, tower)
    tangent_pairs = set()
    for entry in profiles.values():
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

def verify_bigon(e, c1, c2, l0, p, q):
    """Check every clause of the two-curve contact configuration.

    The distinguished cubic of ``e`` must meet c1 with multiplicities
    (3d-1, 1) at (p, q) and c2 with (1, 3d-1); the Bezout count then rules
    out further intersections.  Also checks pairwise transversality of
    l0, c1, c2 and that no point lies on all three.  Returns a clause->bool
    report with a "all" summary.
    """
    cubic = e.cubic
    tower = cubic.tower
    d = c1.degree
    report = {}
    report["same_degree"] = c2.degree == d
    report["distinct_points"] = p != q
    report["components_smooth"] = is_smooth_curve(c1) and is_smooth_curve(c2)
    try:
        m_p1 = intersection_multiplicity(cubic, c1, p)
        m_q1 = intersection_multiplicity(cubic, c1, q)
        m_p2 = intersection_multiplicity(cubic, c2, p)
        m_q2 = intersection_multiplicity(cubic, c2, q)
    except CommonComponent:
        report["contact_pattern"] = False
        report["all"] = False
        return report
    report["contact_pattern"] = (
        m_p1 == 3 * d - 1 and m_q1 == 1 and m_p2 == 1 and m_q2 == 3 * d - 1
    )
    report["contact_exhausts_bezout"] = (m_p1 + m_q1 == 3 * d) and (
        m_p2 + m_q2 == 3 * d
    )
    report["pairwise_transversal"] = all(
        _pair_transversal(a, b, tower)
        for a, b in ((l0, c1), (l0, c2), (c1, c2))
    )
    report["empty_triple_intersection"] = _triple_empty(l0, c1, c2, tower)
    report["all"] = all(v for k, v in report.items() if k != "all")
    return report


def _pair_transversal(a, b, tower):
    try:
        recs = intersection_points(a, b, tower)
    except CommonComponent:
        return False
    return all(rec.multiplicity == 1 for rec in recs)


def _triple_empty(l0, c1, c2, tower):
    for rec in intersection_points(l0, c1, tower):
        other = c2.embedded(rec.tower)
        if other.evaluate(rec.point).is_zero():
            return False
    return True
