"""The six rendered reproduction reports match the benchmark's golden hashes,
and the extended clubsuit-d2 report matches its pinned hash.

A refactor that changes one byte of a report fails here, not only in the
benchmark.  The reports are rendered in a fresh interpreter with
PYTHONHASHSEED=0, the seed the golden hashes were recorded under: the
fermat-existence report prints a set in hash order.  The golden file is only
read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RENDER = """
import hashlib, json
from maxflex import REPRODUCTION_NAMES, run_reproduction
print(json.dumps({
    name: hashlib.sha256(run_reproduction(name).render().encode()).hexdigest()
    for name in REPRODUCTION_NAMES
}))
"""


RENDER_EXTENDED = """
import hashlib
from maxflex import run_reproduction
report = run_reproduction("clubsuit-d2", extended=True, tower_budget=128)
print(hashlib.sha256((report.render() + "\\n").encode()).hexdigest())
"""

#: The SHA-256 of what ``maxflex reproduce clubsuit-d2 --extended
#: --tower-budget 128`` prints: the rendered report and a newline.  ROADMAP
#: item 2 moves it into golden.json with a workload of its own.
EXTENDED_SHA256 = "e4910687dd5a9c8e481b3db185edbda20ee75a33a75f14c3424bf69de572d039"


def _render(script):
    """Run ``script`` in a fresh interpreter under PYTHONHASHSEED=0."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_rendered_reports_match_the_golden_hashes():
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["reports"]
    assert json.loads(_render(RENDER)) == golden


def test_extended_report_matches_its_pinned_hash():
    assert _render(RENDER_EXTENDED).strip() == EXTENDED_SHA256
