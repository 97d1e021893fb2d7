"""One pass of one workload, in an interpreter of its own.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE SPANS_PATH

Starts the speed probe (``probe.py``), imports maxflex from the checkout's
``src/``, builds the workload's fixed inputs, prints ``ready`` (the parent's
set-up clock stops there), runs the timed pass, checks every output, and
prints one JSON line with the pass's figures: its time in reference seconds
(``pass_s``) and in wall seconds, and the probe's speed during set-up and
during the pass.  MODE is ``time`` for a plain pass, ``trace`` for a pass
under the tracer (spans are written to SPANS_PATH), or ``setup`` to print
only the set-up speed after ``ready``.  A fresh process per pass means
nothing the program memoises at module level can carry over from one pass to
the next.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from probe import SpeedProbe

# started before maxflex is imported, so that set-up is probed too
PROBE = SpeedProbe()
PROBE.start()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs maxflex on the path)
from tracer import Tracer  # noqa: E402


def load_golden():
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)


def main(argv):
    name, seed, mode, spans_path = argv[0], int(argv[1]), argv[2], argv[3]
    workload = workloads.WORKLOADS[name]
    state = workload.setup(seed)
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    ready = time.perf_counter()
    print("ready", flush=True)
    if mode == "setup":
        PROBE.stop()
        print(json.dumps({"setup_speed": PROBE.speed(b=ready)}), flush=True)
        return

    if tracer is not None:
        tracer.start()
    t0 = time.perf_counter()
    outputs, op_costs = workload.run(state)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.stop()
    PROBE.stop()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s = PROBE.ref_seconds(t0, t1)
    # single operations are too short to probe one by one: they take the
    # pass's mean ratio of reference to wall seconds
    scale = pass_s / (t1 - t0)
    op_costs = {key: cost * scale for key, cost in op_costs.items()}

    flags = workload.check(state, outputs, load_golden())
    record = {
        "pass_s": pass_s,
        "wall_s": t1 - t0,
        "speed": PROBE.speed(t0, t1),
        "setup_speed": PROBE.speed(b=ready),
        "peak_rss_mib": rss_mib,
        "checked": len(flags),
        "failed": flags.count(False),
        "digest": workloads.pass_digest(outputs),
        "op_costs": op_costs,
        "layers": None,
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        tracer.dump(spans_path, t0)
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
