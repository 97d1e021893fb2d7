"""The benchmark's four workloads: fixed inputs, one timed pass, and checks.

A workload is an object with three methods:

* ``setup(seed)`` builds the fixed inputs of a pass (counted in ``setup_s``);
* ``run(state)`` is the timed pass; it returns ``(outputs, op_costs)``,
  where ``outputs`` is a list of ``(label, text)`` pairs in a canonical text
  form and ``op_costs`` maps ``"op|shape"`` to the mean time in seconds of
  one directly timed kernel operation (empty except for ``tower-kernels``);
* ``check(state, outputs, golden)`` returns one pass/fail flag per output,
  comparing against the recorded digests and re-checking each result by an
  independent route where one exists.

Every call into the program goes through a module attribute
(``torsion.distinguish``, ``geometry.ec_add``, ...) so that the tracer's
rebinding of those attributes sees it.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd
from time import perf_counter

import maxflex
from maxflex import catalog, fields, geometry, torsion, weierstrass


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def pass_digest(outputs):
    """One SHA-256 over every output of a pass, in order."""
    h = hashlib.sha256()
    for label, text in outputs:
        h.update(label.encode() + b"\0" + text.encode() + b"\n")
    return h.hexdigest()


def _guarded(fn, *args):
    """Result text of ``fn(*args)``, or the exception as an ``error:`` text.

    A failing operation is an output that fails its check, not a crash of
    the pass.
    """
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any failure is a failed output
        return "error: %s: %s" % (type(exc).__name__, exc)


# ---------------------------------------------------------------------------
# named reproductions
# ---------------------------------------------------------------------------

class Reproductions:
    """``run_reproduction`` on a fixed list of names; takes no seed.

    The catalog builds happen inside ``run_reproduction``, as they do on every
    ``maxflex reproduce`` call, so they stay in the timed pass.
    """

    def __init__(self, names):
        self.names = names

    def setup(self, seed):
        return None

    def run(self, state):
        outputs = []
        for name in self.names:
            text = _guarded(lambda n: maxflex.run_reproduction(n).render(), name)
            outputs.append((name, text))
        return outputs, {}

    def check(self, state, outputs, golden):
        reports = golden["reports"]
        return [
            sha256(text) == reports.get(name) and text.endswith("result: PASS")
            for name, text in outputs
        ]


# ---------------------------------------------------------------------------
# abstract specs: the torsion layer on its pure-lattice path
# ---------------------------------------------------------------------------

#: Component (degree, m) shapes, cycled through in a seeded order.  Fixing
#: the shapes fixes the weight boxes and the signature-preserving
#: permutation sets, which set the cost of a spec; the seed draws the
#: moduli, classes, relabelling and unit.  So a pass costs about the same
#: on every seed, and only the values differ.
SPEC_SHAPES = (
    ((3, 3),),
    ((2, 6),),
    ((4, 4),),
    ((1, 3), (3, 3)),
    ((2, 2), (2, 6)),
    ((1, 3), (2, 3)),
    ((4, 4), (1, 1)),
    ((1, 3), (1, 3), (3, 3)),
    ((2, 2), (1, 1), (2, 6)),
    ((1, 3), (2, 3), (1, 1)),
    ((1, 3), (1, 3), (1, 3), (3, 3)),
    ((2, 2), (2, 2), (1, 1), (4, 4)),
)
SPEC_MODULI = (4, 6, 9, 12)
SPECS_PER_PASS = 48 * len(SPEC_SHAPES)
#: Weight vectors per spec re-checked by the independent order formula.
SPEC_CHECK_SAMPLE = 12


def _spec(shape, modulus, coords, labels):
    comps = []
    for (d, m), xy, label in zip(shape, coords, labels):
        cls = torsion.TorsionClass(modulus, xy).scale(modulus // m)
        divisor = [("%s_%d" % (label, j), m) for j in range(3 * d // m)]
        comps.append(torsion.ComponentData(d, m, divisor, cls))
    return torsion.ArrangementSpec(3, comps)


def _spec_pair(rng, shape):
    """A seeded spec and a re-classed copy of it.

    The copy permutes the components within their signature classes, renames
    every divisor point and multiplies every class by one unit u of
    Z/modulus.  That is an automorphism of the lattice, so every weighted
    order agrees under the permutation and ``distinguish`` must come back
    ``inconclusive``: a certificate here would be a false one.
    """
    lcm_m = 1
    for _, m in shape:
        lcm_m = lcm_m * m // gcd(lcm_m, m)
    modulus = rng.choice([n for n in SPEC_MODULI if n % lcm_m == 0])
    coords = [(rng.randrange(modulus), rng.randrange(modulus)) for _ in shape]
    k = len(shape)
    spec = _spec(shape, modulus, coords, ["c%d" % i for i in range(k)])
    perm = rng.choice(torsion.self_admissible(spec))
    unit = rng.choice([u for u in range(1, modulus) if gcd(u, modulus) == 1])
    shape2 = [shape[perm[j]] for j in range(k)]
    coords2 = [
        (unit * coords[perm[j]][0], unit * coords[perm[j]][1]) for j in range(k)
    ]
    copy = _spec(shape2, modulus, coords2, ["x%d" % j for j in range(k)])
    return spec, copy


def _lattice_order(spec, weights):
    """Order of the weighted class by the closed formula N / gcd(N, x, y).

    Independent of ``TorsionClass``: it sums raw coordinates and never
    calls the program's order routines.
    """
    na = 0
    s = 0
    for a, comp in zip(weights, spec.components):
        na = gcd(na, abs(a) * comp.m)
        s += a * comp.degree
    na = gcd(na, abs(s))
    mod = spec.lattice_modulus()
    x = y = 0
    for a, comp in zip(weights, spec.components):
        scale = (mod // comp.cls.modulus) * (a * comp.m // na)
        x += scale * comp.cls.coords[0]
        y += scale * comp.cls.coords[1]
    return na, mod // gcd(mod, gcd(x % mod, y % mod))


def _spec_result(spec, copy):
    group = torsion.uniform_group(spec)
    table = []
    for v in torsion.weight_vectors(spec.k, spec.weight_box()):
        table.append(
            [
                list(v),
                torsion.cover_order(spec, v),
                torsion.torsion_order(spec, v),
                torsion.splitting_number(spec, v),
            ]
        )
    cert = torsion.distinguish(spec, copy, torsion.self_admissible(spec))
    return json.dumps(
        {
            "group": group.type_string(),
            "table": table,
            "verdict": cert.verdict,
            "mode": cert.mode,
        },
        sort_keys=True,
    )


class AbstractSpecs:
    """Seeded abstract specs through ``invariants`` and ``distinguish``."""

    def setup(self, seed):
        rng = random.Random(seed)
        order = list(SPEC_SHAPES) * (SPECS_PER_PASS // len(SPEC_SHAPES))
        rng.shuffle(order)
        return {
            "seed": seed,
            "pairs": [_spec_pair(rng, shape) for shape in order],
            "rng": random.Random(seed + 1),
        }

    def run(self, state):
        outputs = []
        for i, (spec, copy) in enumerate(state["pairs"]):
            outputs.append(("spec%d" % i, _guarded(_spec_result, spec, copy)))
        return outputs, {}

    def check(self, state, outputs, golden):
        rng = state["rng"]
        flags = []
        for (spec, _), (_, text) in zip(state["pairs"], outputs):
            if text.startswith("error:"):
                flags.append(False)
                continue
            res = json.loads(text)
            rows = res["table"]
            ok = res["verdict"] == "inconclusive" and bool(rows)
            for weights, na, order, split in rng.sample(
                rows, min(SPEC_CHECK_SAMPLE, len(rows))
            ):
                ok = ok and (na, order) == _lattice_order(spec, weights)
                ok = ok and split * order == na
            flags.append(ok)
        return _apply_recorded_digest(flags, outputs, golden, "abstract-specs", state["seed"])


def _apply_recorded_digest(flags, outputs, golden, workload, seed):
    """Fail every output of a pass whose digest differs from the recorded one.

    Digests are recorded for the default and the held-out seed only; other
    seeds rely on the per-output checks and on the passes of a run agreeing.
    """
    want = golden["passes"].get(workload, {}).get(str(seed))
    if want is not None and pass_digest(outputs) != want:
        return [False] * len(flags)
    return flags


# ---------------------------------------------------------------------------
# tower kernels: field and group-law operations on the catalog's towers
# ---------------------------------------------------------------------------

#: Operations per pass for each shape.  The counts shrink as the tower gets
#: heavier so that no shape dominates the pass.  On the two towers an
#: operation's cost varies with its operands; at these counts, with operands
#: from ``_pair_cycle``, a pass costs the same to about 2% on every seed.
KERNEL_COUNTS = {
    "q": {"mul": 1000, "invert": 500, "is_zero": 500, "poly_gcd": 100, "ec_add": 40},
    "t4-1": {"mul": 600, "invert": 120, "is_zero": 120, "poly_gcd": 40, "ec_add": 20},
    "t2-9-1": {"mul": 200, "invert": 32, "is_zero": 32, "poly_gcd": 8, "ec_add": 4},
}
KERNEL_SHAPES = tuple(KERNEL_COUNTS)
KERNEL_OPS = ("mul", "invert", "is_zero", "poly_gcd", "ec_add")
#: One mul in this many is re-checked as (a * b) / b == a.
MUL_CHECK_EVERY = 10


def _multiples(e, p, n):
    out = [p]
    for _ in range(n - 1):
        out.append(geometry.ec_add(e, out[-1], p))
    return out


def _catalog_shapes():
    """(tower, structure, points) for the three catalog shapes.

    ``q``: 90c3 over Q with its eleven nonzero rational torsion points.
    ``t4-1``: the [4,1] halving tower of ``bigon_points(..., 8)`` with the
    nonzero multiples of its order-8 point.  ``t2-9-1``: the Fermat
    witness tower [2,9,1] with the triangle vertices, T1 and 2T1.
    """
    entry = catalog.catalog_entry("90c3").build()
    e_q = entry["structure"]
    model = weierstrass.weierstrass_model(e_q)
    gen = model.point_to_source(weierstrass.rational_points_of_order(model, 12)[0])
    tw4, e4, p8, _ = catalog.bigon_points(entry, 8)
    wit = catalog.fermat_witness()
    return {
        "q": (entry["tower"], e_q, _multiples(e_q, gen, 11)),
        "t4-1": (tw4, e4, _multiples(e4, p8, 7)),
        "t2-9-1": (
            wit["tower"],
            wit["structure"],
            list(wit["triangle"].vertices) + [wit["T1"], wit["2T1"]],
        ),
    }


def _ec_pairs(shape, points):
    """Unordered point pairs for ``ec_add`` whose sum is not the origin.

    On ``q`` and ``t4-1`` the points are k*G, and a pair is dropped when the
    multipliers cancel.  On ``t2-9-1`` the pairs contain a triangle vertex:
    the vertex sums cost alike, so the pass time does not hinge on the draw.
    """
    n = len(points) + 1
    pairs = []
    for i in range(len(points)):
        for j in range(i, len(points)):
            if shape == "t2-9-1":
                if i < 3:
                    pairs.append((i, j))
            elif (i + j + 2) % n:
                pairs.append((i, j))
    return pairs


def _operand_pool(points):
    return [c for p in points for c in p.affine() if not c.is_zero()]


def _pair_cycle(rng, pool):
    """Pairs of pool elements, in a seeded order that takes every unordered
    pair once before it repeats one.

    What one operation costs depends mostly on the pair its operand comes
    from (an element that lies in a subfield is cheap), so drawing the pairs
    freely made a pass cost up to 8% more on one seed than on another.
    """
    pairs = [(a, b) for i, a in enumerate(pool) for b in pool[i + 1:]]
    while True:
        rng.shuffle(pairs)
        for a, b in pairs:
            yield (a, b) if rng.random() < 0.5 else (b, a)


def _random_element(rng, pairs):
    """A fresh nonzero element built from the next pair of point coordinates
    by additions only."""
    while True:
        a, b = next(pairs)
        x = a + a if rng.random() < 0.5 else a
        x = x + b if rng.random() < 0.5 else x - b
        x = x + Fraction(rng.randint(1, 9), rng.randint(1, 3))
        if x.rep != a.tower.zero().rep:
            return x


def _monic_linear(rng, tower, pairs):
    return fields.UniPoly(tower, [_random_element(rng, pairs), tower.one()])


def _kernel_inputs(rng, shapes):
    """Seeded operands; every operation gets operands of its own.  Each kind
    of operation on each shape draws its operands from a pair cycle of its
    own."""
    ops = []
    for shape in KERNEL_SHAPES:
        tower, e, points = shapes[shape]
        pool = _operand_pool(points)
        counts = KERNEL_COUNTS[shape]
        pairs = _pair_cycle(rng, pool)
        for _ in range(counts["mul"]):
            ops.append(("mul", shape, (_random_element(rng, pairs), _random_element(rng, pairs))))
        pairs = _pair_cycle(rng, pool)
        for _ in range(counts["invert"]):
            ops.append(("invert", shape, (_random_element(rng, pairs),)))
        pairs = _pair_cycle(rng, pool)
        for i in range(counts["is_zero"]):
            x = _random_element(rng, pairs)
            zero = i % 4 == 3
            if zero:
                # zero by construction: x*(b+c) - (x*b + x*c)
                b, c = _random_element(rng, pairs), _random_element(rng, pairs)
                x = x * (b + c) - (x * b + x * c)
            ops.append(("is_zero", shape, (x, zero)))
        pairs = _pair_cycle(rng, pool)
        for _ in range(counts["poly_gcd"]):
            f = _monic_linear(rng, tower, pairs)
            g = f * _monic_linear(rng, tower, pairs)
            h = f * _monic_linear(rng, tower, pairs)
            ops.append(("poly_gcd", shape, (g, h, f)))
        for i, j in rng.sample(_ec_pairs(shape, points), counts["ec_add"]):
            ops.append(("ec_add", shape, (e, points[i], points[j])))
    rng.shuffle(ops)
    return ops


def _kernel_call(op, args):
    if op == "mul":
        return args[0] * args[1]
    if op == "invert":
        return args[0].invert()
    if op == "is_zero":
        return args[0].is_zero()
    if op == "poly_gcd":
        return fields.poly_gcd(args[0], args[1])
    return geometry.ec_add(*args)


def _kernel_text(op, result):
    if op == "is_zero":
        return json.dumps(result)
    if op == "poly_gcd":
        return json.dumps([fields.rep_to_data(c) for c in result.coeffs])
    if op == "ec_add":
        return json.dumps(result.to_data())
    return json.dumps(fields.rep_to_data(result.rep))


class TowerKernels:
    """A seeded mix of tower mul, invert, is_zero, poly_gcd and ec_add.

    Each operation is timed on its own; ``op_costs`` holds the mean time per
    (operation, shape) for the ``*_us`` and ``ec_add_ms`` layer metrics.
    """

    def setup(self, seed):
        shapes = _catalog_shapes()
        return {"seed": seed, "shapes": shapes, "ops": _kernel_inputs(random.Random(seed), shapes)}

    def run(self, state):
        outputs = []
        op_seconds = {(op, shape): 0.0 for op in KERNEL_OPS for shape in KERNEL_SHAPES}
        for idx, (op, shape, args) in enumerate(state["ops"]):
            t0 = perf_counter()
            try:
                result = _kernel_call(op, args)
            except Exception as exc:  # noqa: BLE001 - a failed op is a failed output
                result = exc
            op_seconds[(op, shape)] += perf_counter() - t0
            if isinstance(result, Exception):
                text = "error: %s: %s" % (type(result).__name__, result)
            else:
                text = _kernel_text(op, result)
            outputs.append(("%s.%s.%d" % (op, shape, idx), text))
        op_costs = {
            "%s|%s" % (op, shape): total / KERNEL_COUNTS[shape][op]
            for (op, shape), total in op_seconds.items()
        }
        return outputs, op_costs

    def check(self, state, outputs, golden):
        models = {}
        flags = []
        for idx, ((op, shape, args), (_, text)) in enumerate(zip(state["ops"], outputs)):
            if text.startswith("error:"):
                flags.append(False)
                continue
            tower = state["shapes"][shape][0]
            flags.append(_kernel_ok(op, args, tower, json.loads(text), idx, models))
        return _apply_recorded_digest(flags, outputs, golden, "tower-kernels", state["seed"])


def _rep(tower, data):
    return fields.rep_from_data(tower.levels, tower.height, data)


def _kernel_ok(op, args, tower, data, idx, models):
    """Re-check one kernel result by a route other than the one timed.

    Reps are canonical residues, so ring identities are checked by comparing
    reps, without the program's zero test.
    """
    if op == "mul":
        if idx % MUL_CHECK_EVERY:
            return True
        a, b = args
        return (fields.TowerElement(tower, _rep(tower, data)) * b.invert()).rep == a.rep
    if op == "invert":
        return (args[0] * fields.TowerElement(tower, _rep(tower, data))).rep == tower.one().rep
    if op == "is_zero":
        return data is args[1]
    if op == "poly_gcd":
        g, h, f = args
        r = fields.UniPoly(tower, [_rep(tower, c) for c in data])
        return (
            r.degree >= 1
            and r.coeffs[-1] == tower.one().rep
            and (g % r).is_zero()
            and (h % r).is_zero()
            and (r % f).is_zero()
        )
    # ec_add: on the cubic, and equal to the sum by the Weierstrass formulas
    e, p, q = args
    got = geometry.ProjPoint.from_data(tower, data)
    if not e.cubic.contains(got):
        return False
    key = id(e)
    if key not in models:
        models[key] = weierstrass.weierstrass_model(e)
    model = models[key]
    want = model.point_to_source(
        model.add(model.point_from_source(p), model.point_from_source(q))
    )
    return want == got


WORKLOADS = {
    "repro-towers": Reproductions(("fermat-existence", "appendix-triangle")),
    "repro-bigon": Reproductions(
        ("clubsuit-d2", "thm-main1", "thm-main2", "clubsuit-tables")
    ),
    "abstract-specs": AbstractSpecs(),
    "tower-kernels": TowerKernels(),
}
