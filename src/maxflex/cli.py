"""Command-line front end.

Subcommands: ``reproduce`` (one-shot checks of the catalog results),
``torsion`` (rational torsion points of a catalog curve), ``invariants``
(order table of an abstract arrangement spec), ``distinguish`` (certificate
for a pair of spec files), ``realize`` (construct a catalog arrangement) and
``fingerprint`` (canonical fingerprint of a serialized arrangement).
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import bigon_conics, bigon_points, catalog_entry, fermat_witness
from .combinatorics import fingerprint
from .errors import MaxflexError, malformed
from .fields import FieldTower
from .geometry import PlaneCurve
from .reproductions import REPRODUCTION_NAMES, run_reproduction
from .torsion import (
    ArrangementSpec,
    cover_order,
    distinguish,
    splitting_number,
    torsion_order,
    uniform_group,
    weight_vectors,
)
from .weierstrass import rational_points_of_order, weierstrass_model


def _emit(text, out_path):
    sys.stdout.write(text + "\n")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _cmd_reproduce(args):
    report = run_reproduction(
        args.name, extended=args.extended, tower_budget=args.tower_budget
    )
    _emit(report.render(), args.out)
    return 0 if report.ok else 1


def _cmd_torsion(args):
    entry = catalog_entry(args.curve)
    data = entry.build(args.tower_budget or 64)
    if "structure" not in data:
        sys.stderr.write("curve %r carries no designated flex\n" % args.curve)
        return 2
    model = weierstrass_model(data["structure"])
    pts = rational_points_of_order(model, args.order)
    lines = ["curve %s, exact order %d" % (args.curve, args.order)]
    for x, y in pts:
        lines.append("x = %s, y = %s" % (x.as_rational(), y.as_rational()))
    if not pts:
        lines.append("no rational points of this exact order")
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_invariants(args):
    spec, _adm = ArrangementSpec.load(args.spec)
    lines = ["invariants of %s" % args.spec]
    g = uniform_group(spec)
    lines.append("uniform group: %s" % g.type_string())
    box = spec.weight_box()
    rows = []
    for w in weight_vectors(spec.k, box):
        na = cover_order(spec, w)
        ordv = torsion_order(spec, w)
        rows.append(
            "a=%s  n=%d  order=%d  splitting=%d"
            % (list(w), na, ordv, splitting_number(spec, w))
        )
    lines.extend(rows)
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_distinguish(args):
    spec1, adm1 = ArrangementSpec.load(args.spec1)
    spec2, adm2 = ArrangementSpec.load(args.spec2)
    admissible = adm1 or adm2
    if not admissible:
        sys.stderr.write("spec files declare no admissible permutations\n")
        return 2
    cert = distinguish(spec1, spec2, admissible)
    text = cert.render() + "\n-- machine --\n" + json.dumps(
        cert.to_data(), sort_keys=True, default=str
    )
    _emit(text, args.out)
    return 0 if cert.verdict == "distinguished" else 1


def _cmd_realize(args):
    name = args.recipe
    if name == "fermat-witness":
        witness = fermat_witness(args.tower_budget or 64)
        payload = {
            "tower": witness["tower"].to_data(),
            "lines": [l.to_data() for l in witness["lines"]],
            "triangle_vertices": [v.to_data() for v in witness["triangle"].vertices],
        }
    elif name.startswith("bigon-r"):
        r = int(name.split("bigon-r", 1)[1])
        budget = args.tower_budget or (128 if args.extended or r in (8, 24) else 64)
        data = catalog_entry("90c3").build(budget)
        tw, e, p, q = bigon_points(data, r)
        c1, c2 = bigon_conics(e, p, q)
        payload = {
            "tower": tw.to_data(),
            "P": p.to_data(),
            "Q": q.to_data(),
            "conic1": c1.to_data(),
            "conic2": c2.to_data(),
            "tangent": e.origin_tangent.to_data(),
            "cubic": e.cubic.to_data(),
        }
    else:
        sys.stderr.write(
            "unknown recipe %r (try fermat-witness, bigon-r4, bigon-r8, "
            "bigon-r12, bigon-r24)\n" % name
        )
        return 2
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_fingerprint(args):
    with open(args.arrangement) as fh, malformed("arrangement file %s" % args.arrangement):
        data = json.load(fh)
        tower = FieldTower.from_data(data.get("tower", []), args.tower_budget or 64)
        pieces = [PlaneCurve.from_data(tower, entry) for entry in data["curves"]]
    f = fingerprint(pieces, tower)
    _emit(f.canonical(), args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maxflex",
        description="Exact arrangements of cubics with maximal flexes: "
        "torsion invariants, splitting numbers, and Zariski-pair certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", help="run a named reproduction")
    p.add_argument("name", choices=REPRODUCTION_NAMES)
    p.add_argument("--extended", action="store_true",
                   help="include the quartic-extension cases (slower)")
    p.add_argument("--tower-budget", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("torsion", help="rational torsion points of a catalog curve")
    p.add_argument("curve")
    p.add_argument("order", type=int)
    p.add_argument("--tower-budget", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_torsion)

    p = sub.add_parser("invariants", help="order table of an abstract spec file")
    p.add_argument("spec")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("distinguish", help="certificate for two spec files")
    p.add_argument("spec1")
    p.add_argument("spec2")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("realize", help="construct a catalog arrangement")
    p.add_argument("recipe")
    p.add_argument("--extended", action="store_true")
    p.add_argument("--tower-budget", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("fingerprint", help="canonical fingerprint of an arrangement file")
    p.add_argument("arrangement")
    p.add_argument("--tower-budget", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fingerprint)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MaxflexError as err:
        sys.stderr.write("error: %s\n" % err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
