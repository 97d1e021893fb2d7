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
from .errors import MaxflexError, SpecError, malformed, read_json
from .fields import DEFAULT_DEGREE_CAP, FieldTower
from .geometry import PlaneCurve
from .reproductions import EXTENDED_DEGREE_CAP, REPRODUCTION_NAMES, run_reproduction
from .torsion import (
    ArrangementSpec,
    distinguish,
    invariant_row,
    uniform_group,
    weight_vectors,
)
from .weierstrass import rational_points_of_order


def _tower_budget(text):
    """A --tower-budget value: a total tower degree cap of at least one."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError("must be an integer of at least 1, got %r" % text)
    return int(text)


def _emit(text, out_path):
    """Write ``text`` to stdout and to ``out_path``, raising SpecError if it is unwritable."""
    sys.stdout.write(text + "\n")
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as err:
            raise SpecError("cannot write %s: %s" % (out_path, err.strerror or err)) from err


def _cmd_reproduce(args):
    report = run_reproduction(
        args.name, extended=args.extended, tower_budget=args.tower_budget
    )
    _emit(report.render(), args.out)
    return 0 if report.ok else 1


def _cmd_torsion(args):
    if args.order < 2:
        raise SpecError("torsion order must be at least 2, got %d" % args.order)
    entry = catalog_entry(args.curve)
    data = entry.build(args.tower_budget or DEFAULT_DEGREE_CAP)
    if "structure" not in data:
        raise SpecError("curve %r carries no designated flex" % args.curve)
    if data["tower"].height:
        raise SpecError("curve %r is not defined over Q" % args.curve)
    pts = rational_points_of_order(data["model"], args.order)
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
    lines.extend(invariant_table(spec))
    _emit("\n".join(lines), args.out)
    return 0


def invariant_table(spec):
    """One line per weight vector in the spec's box: n_a, order, splitting."""
    return [
        "a=%s  n=%d  order=%d  splitting=%d" % ((list(w),) + invariant_row(spec, w))
        for w in weight_vectors(spec.k, spec.weight_box())
    ]


def _cmd_distinguish(args):
    spec1, adm1 = ArrangementSpec.load(args.spec1)
    spec2, adm2 = ArrangementSpec.load(args.spec2)
    admissible = adm1 or adm2
    if not admissible:
        raise SpecError("spec files declare no admissible permutations")
    cert = distinguish(spec1, spec2, admissible)
    text = cert.render() + "\n-- machine --\n" + json.dumps(
        cert.to_data(), sort_keys=True, default=str
    )
    _emit(text, args.out)
    return 0 if cert.verdict == "distinguished" else 1


def _cmd_realize(args):
    name = args.recipe
    if name == "fermat-witness":
        witness = fermat_witness(args.tower_budget or DEFAULT_DEGREE_CAP)
        curves = [witness["structure"].cubic] + list(witness["lines"])
        payload = {
            "tower": witness["tower"].to_data(),
            # in fingerprint order: the Fermat cubic, then the six lines
            "curves": [c.to_data() for c in curves],
            "triangle_vertices": [v.to_data() for v in witness["triangle"].vertices],
        }
    elif name.startswith("bigon-r") and name[len("bigon-r"):].isdecimal():
        r = int(name[len("bigon-r"):])
        budget = args.tower_budget or (
            EXTENDED_DEGREE_CAP if r in (8, 24) else DEFAULT_DEGREE_CAP
        )
        data = catalog_entry("90c3").build(budget)
        tw, e, p, q = bigon_points(data, r)
        c1, c2 = bigon_conics(e, p, q)
        payload = {
            "tower": tw.to_data(),
            "P": p.to_data(),
            "Q": q.to_data(),
            # in fingerprint order: cubic, tangent at the origin, two conics
            "curves": [c.to_data() for c in (e.cubic, e.origin_tangent, c1, c2)],
        }
    else:
        raise SpecError(
            "unknown recipe %r (try fermat-witness, bigon-r4, bigon-r8, "
            "bigon-r12, bigon-r24)" % name
        )
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_fingerprint(args):
    data = read_json(args.arrangement, "arrangement file")
    with malformed("arrangement file %s" % args.arrangement):
        budget = args.tower_budget or DEFAULT_DEGREE_CAP
        tower = FieldTower.from_data(data.get("tower", []), budget)
        pieces = [PlaneCurve.from_data(tower, entry) for entry in data["curves"]]
        if not pieces:
            raise SpecError("arrangement file %s lists no curves" % args.arrangement)
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
                   help="clubsuit-d2 only: add the quartic-extension cases (slower)")
    p.add_argument("--tower-budget", type=_tower_budget, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("torsion", help="rational torsion points of a catalog curve")
    p.add_argument("curve")
    p.add_argument("order", type=int)
    p.add_argument("--tower-budget", type=_tower_budget, default=None)
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
    p.add_argument("--tower-budget", type=_tower_budget, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("fingerprint", help="canonical fingerprint of an arrangement file")
    p.add_argument("arrangement")
    p.add_argument("--tower-budget", type=_tower_budget, default=None)
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
