"""The maxflex benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes
    python3 perfbench/run.py --self-test         # corrupted digests are caught
    python3 perfbench/run.py --record-golden     # rewrite perfbench/golden.json

Run from the root of a checkout; maxflex is imported from its ``src/``.

Each pass runs in a fresh interpreter (``worker.py``), one at a time.  A run
keeps starting passes until S seconds have gone by and at least
``MIN_PASSES`` plain passes are done, then prints every metric by name with
its unit and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Times are in reference seconds: wall time scaled by the machine's speed as
the speed probe (``probe.py``) measured it in the worker while the time ran,
so that a shared host that runs slower for a while does not show as a slower
program.  The raw wall time and the speed are per-layer metrics.

End-to-end metrics (``--trace 0``), medians over the run's passes:

* ``pass_s``: time of one pass, in reference seconds;
* ``setup_s``: interpreter start, ``import maxflex`` and building the
  workload's fixed inputs, up to the worker's ``ready``, in reference
  seconds; at least ``MIN_SETUPS`` set-ups are timed per run;
* ``peak_rss_mib``: peak resident memory of the pass's process;
* ``ok_ratio``: outputs that matched their check and recorded digest, over
  outputs checked.  Its complement is the failure ratio, which is reported
  as ``failed`` / ``attempted``; a metric that is 0 on a healthy run cannot
  carry a relative bound, so the end-to-end figure is the success share.

Per-layer metrics (``--trace 1``) come from passes under the tracer
(``tracer.py``), alternated with plain passes: ``<module>.<fn>.calls`` and
``.self_s``, ``polysolve.root_packets.coverage``,
``geometry.ec_add.distinct_ratio``, the per-operation kernel costs
``fields.<op>_us.<shape>`` and ``geometry.ec_add_ms.<shape>`` (timed in the
plain passes of ``tower-kernels``, in reference time; 0 on the other workloads,
which do not time single operations), ``pass.wall_s`` and ``machine.speed``
(the plain passes' raw wall time and the probe's speed, 1.0 being the
reference machine), and ``trace.overhead_ratio``, the traced pass time over
the plain one, minus 1.  Self times include the probe's slices, about 3%.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from tracer import metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")

#: Workers run with a fixed string-hash seed.  The fermat-existence report
#: prints a set of string tuples, whose order follows the hash seed, so its
#: bytes (and its recorded SHA-256) are only reproducible with the seed
#: pinned.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")

WORKLOAD_NAMES = ("repro-towers", "repro-bigon", "abstract-specs", "tower-kernels")
MIN_PASSES = 3
MIN_SETUPS = 5
#: A worker still running this long after the run began is killed, so that
#: a run ends within the 180 s a caller allows it.
RUN_DEADLINE_S = 170.0

END_TO_END = (
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
)
#: Mirrors ``workloads.KERNEL_COUNTS``; this process does not import maxflex.
KERNEL_SHAPES = ("q", "t4-1", "t2-9-1")
KERNEL_FIELD_OPS = ("mul", "invert", "is_zero", "poly_gcd")


class BenchError(RuntimeError):
    """The benchmark could not run: no program, or a worker died."""


def per_layer_names():
    names = metric_names()
    for op in KERNEL_FIELD_OPS:
        names += ["fields.%s_us.%s" % (op, shape) for shape in KERNEL_SHAPES]
    names += ["geometry.ec_add_ms.%s" % shape for shape in KERNEL_SHAPES]
    return names + ["pass.wall_s", "machine.speed", "trace.overhead_ratio"]


def per_layer_unit(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith((".self_s", ".wall_s")):
        return "s"
    if "_us." in name:
        return "us"
    if "_ms." in name:
        return "ms"
    return "ratio"


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_worker(workload, seed, mode, index, deadline):
    """Start one worker; returns its record with ``setup_s``, in reference
    seconds, added."""
    spans = os.path.join(OUT, "spans-%s-seed%d-pass%d.jsonl" % (workload, seed, index))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, str(seed), mode, spans],
        cwd=ROOT,
        env=WORKER_ENV,
        stdout=subprocess.PIPE,
        # unbuffered, so that readline takes no more than the first line:
        # communicate reads the pipe itself and would miss what a buffer held
        bufsize=0,
    )
    try:
        first = proc.stdout.readline().decode()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        rest = rest.decode()
    except subprocess.TimeoutExpired:
        raise BenchError("%s pass %d ran past the run deadline" % (workload, index))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError("%s worker exited with code %d" % (workload, proc.returncode))
    record = json.loads(rest.strip().splitlines()[-1])
    record["setup_s"] = setup * record["setup_speed"]
    return record


def run_passes(workload, seed, seconds, trace):
    """Plain passes (and, with ``trace``, alternating traced ones) for a run,
    and the set-up times."""
    os.makedirs(OUT, exist_ok=True)
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    plain, traced, setups = [], [], []
    index = 0
    while True:
        mode = "trace" if trace and index % 2 == 1 else "time"
        rec = run_worker(workload, seed, mode, index, deadline)
        index += 1
        if mode == "trace":
            traced.append(rec)
        else:
            plain.append(rec)
            setups.append(rec["setup_s"])
        elapsed = time.perf_counter() - start
        enough = len(plain) >= (1 if trace else MIN_PASSES) and (traced or not trace)
        if elapsed >= seconds and enough:
            break
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(run_worker(workload, seed, "setup", index, deadline)["setup_s"])
        index += 1
    return plain, traced, setups


def _count_failures(records):
    """Outputs checked and failed; a pass whose digest differs from the
    run's most common digest fails all its outputs."""
    digests = [r["digest"] for r in records]
    common = max(set(digests), key=digests.count)
    attempted = sum(r["checked"] for r in records)
    failed = sum(
        r["checked"] if r["digest"] != common else r["failed"] for r in records
    )
    return attempted, failed


def _kernel_costs(records):
    """Median per-operation cost per (op, shape) over the plain passes."""
    out = {}
    for op in KERNEL_FIELD_OPS + ("ec_add",):
        for shape in KERNEL_SHAPES:
            if op == "ec_add":
                name, scale = "geometry.ec_add_ms.%s" % shape, 1e3
            else:
                name, scale = "fields.%s_us.%s" % (op, shape), 1e6
            key = "%s|%s" % (op, shape)
            out[name] = statistics.median(r["op_costs"][key] for r in records) * scale
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure(workload, seed, seconds, trace):
    """One run: returns (result object, printable lines)."""
    plain, traced, setups = run_passes(workload, seed, seconds, trace)
    attempted, failed = _count_failures(plain + traced)
    times = [r["pass_s"] for r in plain]
    lines = []
    if not trace:
        q1, q3 = _quartiles(times)
        metrics = {
            "pass_s": statistics.median(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
        lines.append(
            "# %s seed %d: %d passes, pass_s quartiles %.4f / %.4f s, %d set-ups;"
            " raw wall %.4f s at speed %.3f"
            % (workload, seed, len(times), q1, q3, len(setups),
               statistics.median(r["wall_s"] for r in plain),
               statistics.median(r["speed"] for r in plain))
        )
    else:
        metrics = {}
        for name in traced[0]["layers"]:
            # median_low keeps call counts whole
            metrics[name] = statistics.median_low(r["layers"][name] for r in traced)
        if workload == "tower-kernels":
            metrics.update(_kernel_costs(plain))
        else:
            metrics.update({n: 0.0 for n in per_layer_names() if "_us." in n or "_ms." in n})
        metrics["pass.wall_s"] = statistics.median(r["wall_s"] for r in plain)
        metrics["machine.speed"] = statistics.median(r["speed"] for r in plain)
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["pass_s"] for r in traced) / statistics.median(times) - 1.0
        )
        metrics = {name: metrics[name] for name in per_layer_names()}
        units = {name: per_layer_unit(name) for name in metrics}
        lines.append(
            "# %s seed %d: %d plain and %d traced passes"
            % (workload, seed, len(plain), len(traced))
        )
    for name, value in metrics.items():
        lines.append("%s = %r %s" % (name, value, units[name]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    lines.append("# outputs checked %d, failed %d" % (attempted, failed))
    return result, lines


# ---------------------------------------------------------------------------
# golden digests
# ---------------------------------------------------------------------------

def _load_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    return workloads


def record_golden():
    """Recompute every recorded digest and rewrite golden.json.

    Only for a deliberate change of output; the reports must all pass.
    """
    wl = _load_program()
    from maxflex import REPRODUCTION_NAMES, run_reproduction

    with open(GOLDEN) as fh:
        golden = json.load(fh)
    reports = {}
    for name in REPRODUCTION_NAMES:
        text = run_reproduction(name).render()
        if not text.endswith("result: PASS"):
            raise BenchError("reproduction %s does not pass" % name)
        reports[name] = wl.sha256(text)
    golden["reports"] = reports
    unchecked = {"reports": reports, "passes": {}}
    passes = {}
    for name in ("abstract-specs", "tower-kernels"):
        workload = wl.WORKLOADS[name]
        passes[name] = {}
        for seed in (golden["default_seed"], golden["held_out_seed"]):
            state = workload.setup(seed)
            outputs, _ = workload.run(state)
            if not all(workload.check(state, outputs, unchecked)):
                raise BenchError("%s seed %d fails its checks" % (name, seed))
            passes[name][str(seed)] = wl.pass_digest(outputs)
    golden["passes"] = passes
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


def self_test():
    """A corrupted digest must fail every output it covers; the true one none."""
    wl = _load_program()
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    cases = [
        ("report hash", wl.Reproductions(("clubsuit-tables",)), "clubsuit-tables",
         lambda g: g["reports"]),
        ("abstract-specs pass digest", wl.WORKLOADS["abstract-specs"],
         str(golden["default_seed"]), lambda g: g["passes"]["abstract-specs"]),
    ]
    ok = True
    for label, workload, key, table in cases:
        state = workload.setup(golden["default_seed"])
        outputs, _ = workload.run(state)
        true_flags = workload.check(state, outputs, golden)
        bad = json.loads(json.dumps(golden))
        digest = table(bad)[key]
        table(bad)[key] = ("0" if digest[0] != "0" else "1") + digest[1:]
        bad_flags = workload.check(workload.setup(golden["default_seed"]), outputs, bad)
        caught = all(true_flags) and not any(bad_flags)
        ok = ok and caught
        print("self-test %s: true digest %d/%d pass, corrupted %d/%d pass: %s"
              % (label, true_flags.count(True), len(true_flags),
                 bad_flags.count(True), len(bad_flags), "PASS" if caught else "FAIL"))
    return ok


# ---------------------------------------------------------------------------

def _stop(signum, frame):
    # unwinds through run_worker's ``finally``, which kills the running worker
    sys.exit(1)


def main():
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "maxflex", "__init__.py")):
        print("error: no maxflex sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    if (args.record_golden or args.self_test) and os.environ.get("PYTHONHASHSEED") != "0":
        # these two run the program in this process: rerun under the pinned seed
        return subprocess.call(
            [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], cwd=ROOT, env=WORKER_ENV
        )
    try:
        if args.record_golden:
            record_golden()
            return 0
        if args.self_test:
            return 0 if self_test() else 1
        if args.workload is None:
            parser.error("--workload is required")
        with open(GOLDEN) as fh:
            seed = args.seed if args.seed is not None else json.load(fh)["default_seed"]
        if args.workload != "all":
            result, lines = measure(args.workload, seed, args.seconds, bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        results = {}
        for name in WORKLOAD_NAMES:
            for trace in (False, True):
                result, lines = measure(name, seed, args.seconds, trace)
                print("\n".join(lines))
                results["%s%s" % (name, " trace" if trace else "")] = result
        print(json.dumps(results))
        return 0
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
