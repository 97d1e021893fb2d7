"""Spans around calls into the maxflex modules, recorded from outside.

``Tracer.install`` wraps the listed public functions and methods.  A module
that did ``from .geometry import ec_add`` holds its own reference, so every
``maxflex.*`` module attribute bound to the same function object is rebound
to the wrapper.  Methods are replaced on their class.

Spans are kept in memory as ``[name, start, end, parent]`` lists (``parent``
is the index of the enclosing span, or -1) and written out by ``dump``.
A span's self time is its duration minus the time its child spans cover;
the program is single-threaded, so a span's children never overlap and
their covered time is the sum of their durations.
"""

from __future__ import annotations

import json
import sys
import time

#: (metric prefix, module, attribute path, metrics reported).  An attribute
#: path with a dot is a method on a class.
TARGETS = (
    ("fields.is_zero", "maxflex.fields", "TowerElement.is_zero", ("calls", "self_s")),
    ("fields.invert", "maxflex.fields", "TowerElement.invert", ("calls", "self_s")),
    ("fields.poly_gcd", "maxflex.fields", "poly_gcd", ("calls", "self_s")),
    ("fields.extend", "maxflex.fields", "FieldTower.extend", ("calls",)),
    ("fields.split", "maxflex.fields", "FieldTower.split", ("calls",)),
    ("fields.with_splitting", "maxflex.fields", "with_splitting", ("calls",)),
    ("polysolve.root_packets", "maxflex.polysolve", "root_packets", ("calls", "self_s")),
    ("polysolve.rational_roots", "maxflex.polysolve", "rational_roots", ("calls", "self_s")),
    ("polysolve.resultant_bivariate", "maxflex.polysolve", "resultant_bivariate", ("calls", "self_s")),
    ("geometry.ec_add", "maxflex.geometry", "ec_add", ("calls", "self_s")),
    ("geometry.ec_mul", "maxflex.geometry", "ec_mul", ("calls", "self_s")),
    ("geometry.point_order", "maxflex.geometry", "point_order", ("calls", "self_s")),
    ("geometry.intersection_multiplicity", "maxflex.geometry", "intersection_multiplicity", ("calls", "self_s")),
    ("geometry.intersection_points", "maxflex.geometry", "intersection_points", ("calls", "self_s")),
    ("geometry.flex_points", "maxflex.geometry", "flex_points", ("calls", "self_s")),
    ("geometry.tangents_through", "maxflex.geometry", "tangents_through", ("calls", "self_s")),
    ("geometry.interpolate_curve_with_divisor", "maxflex.geometry", "interpolate_curve_with_divisor", ("calls", "self_s")),
    ("weierstrass.rational_points_of_order", "maxflex.weierstrass", "rational_points_of_order", ("calls", "self_s")),
    ("weierstrass.halve_point", "maxflex.weierstrass", "halve_point", ("calls", "self_s")),
    ("weierstrass.weierstrass_model", "maxflex.weierstrass", "weierstrass_model", ("calls", "self_s")),
    ("torsion.torsion_order", "maxflex.torsion", "torsion_order", ("calls", "self_s")),
    ("torsion.distinguish", "maxflex.torsion", "distinguish", ("calls", "self_s")),
    ("torsion.uniform_group", "maxflex.torsion", "uniform_group", ("calls", "self_s")),
    ("combinatorics.fingerprint", "maxflex.combinatorics", "fingerprint", ("calls", "self_s")),
    ("combinatorics.verify_bigon", "maxflex.combinatorics", "verify_bigon", ("calls", "self_s")),
    ("combinatorics.admissible_permutations", "maxflex.combinatorics", "admissible_permutations", ("calls", "self_s")),
    ("catalog.fermat_witness", "maxflex.catalog", "fermat_witness", ("calls", "self_s")),
    ("catalog.bigon_points", "maxflex.catalog", "bigon_points", ("calls", "self_s")),
    ("catalog.bigon_conics", "maxflex.catalog", "bigon_conics", ("calls", "self_s")),
    ("catalog.cyclic_flex_origins", "maxflex.catalog", "cyclic_flex_origins", ("calls", "self_s")),
    ("reproductions.run_reproduction", "maxflex.reproductions", "run_reproduction", ("self_s",)),
)

#: Layer metrics the trace derives beyond calls and self time.
RATIO_METRICS = ("polysolve.root_packets.coverage", "geometry.ec_add.distinct_ratio")


def metric_names():
    """Every ``<module>.<fn>.<metric>`` name the trace reports."""
    names = [
        "%s.%s" % (prefix, metric)
        for prefix, _, _, metrics in TARGETS
        for metric in metrics
    ]
    return names + list(RATIO_METRICS)


def _point_key(p):
    """Value key of a ProjPoint; reps are canonical, so no zero test needed."""
    return (p.tower, tuple(c.rep for c in p.coords))


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.active = False
        self._ec_add_pairs = set()
        self._packet_orbits = 0
        self._packet_degrees = 0

    def install(self):
        """Wrap every target; recording starts with ``start``."""
        for prefix, module_name, path, _ in TARGETS:
            module = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                setattr(owner, attr, self._wrap(prefix, getattr(owner, attr)))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(prefix, original)
            for name, mod in list(sys.modules.items()):
                if name != "maxflex" and not name.startswith("maxflex."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def start(self):
        self.active = True

    def stop(self):
        self.active = False

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        observe = {
            "geometry.ec_add": self._observe_ec_add,
            "polysolve.root_packets": self._observe_root_packets,
        }.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observe_ec_add(self, args, kwargs, result):
        e, p, q = args
        self._ec_add_pairs.add((_point_key(e.origin), _point_key(p), _point_key(q)))

    def _observe_root_packets(self, args, kwargs, result):
        self._packet_orbits += sum(packet.orbit for packet in result)
        self._packet_degrees += args[0].degree

    def layer_metrics(self):
        """calls and self_s per target, plus the coverage and distinct ratios."""
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent), dur in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += dur
        calls = {}
        self_s = {}
        for (name, _, _, _), dur, child in zip(self.spans, durations, child_time):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child
        out = {}
        for prefix, _, _, metrics in TARGETS:
            if "calls" in metrics:
                out[prefix + ".calls"] = calls.get(prefix, 0)
            if "self_s" in metrics:
                out[prefix + ".self_s"] = self_s.get(prefix, 0.0)
        ec_calls = calls.get("geometry.ec_add", 0)
        out["geometry.ec_add.distinct_ratio"] = (
            len(self._ec_add_pairs) / ec_calls if ec_calls else 0.0
        )
        out["polysolve.root_packets.coverage"] = (
            self._packet_orbits / self._packet_degrees if self._packet_degrees else 0.0
        )
        return out

    def dump(self, path, origin):
        """Write the spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent]) + "\n")
