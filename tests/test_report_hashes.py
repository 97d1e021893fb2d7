"""The six rendered reproduction reports match the benchmark's golden hashes.

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


def test_rendered_reports_match_the_golden_hashes():
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["reports"]
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", RENDER], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == golden
