"""Every rational-torsion pick gives the same clubsuit-d2 report.

``catalog.bigon_points`` takes the first point of each ``rational_torsion``
list of the 90c3 entry: one of the two points of order 4 and one of the four
of order 12.  Any of them is a valid pick, so each of the 2 x 4 picks must
pass every check and render the same bytes.  The test hands the reproduction
an entry whose lists are reordered copies, through ``catalog_entry`` as the
reproductions module sees it; the model's own lists are never touched.
"""

import hashlib
import json
from itertools import product
from pathlib import Path

import pytest
from test_report_hashes import EXTENDED_SHA256

from maxflex import reproductions
from maxflex.catalog import CatalogEntry, catalog_entry

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)["reports"]
PICKS = list(product(range(2), range(4)))


def first(points, i):
    """A copy of ``points`` with its i-th point moved to the front."""
    return [points[i]] + points[:i] + points[i + 1 :]


def picking(monkeypatch, i4, i12):
    """Make the reproductions build 90c3 with picks i4 and i12 first; the
    list returned records the degree cap of each build."""
    built = []

    def build(degree_cap):
        built.append(degree_cap)
        data = dict(catalog_entry("90c3").build(degree_cap))
        torsion = data["rational_torsion"]
        assert (len(torsion[4]), len(torsion[12])) == (2, 4)
        data["rational_torsion"] = {4: first(torsion[4], i4), 12: first(torsion[12], i12)}
        return data

    picked = CatalogEntry("90c3", build)
    monkeypatch.setattr(
        reproductions, "catalog_entry", lambda name: picked if name == "90c3" else catalog_entry(name)
    )
    return built


@pytest.mark.parametrize("i4, i12", PICKS)
def test_every_rational_torsion_pick_gives_the_same_report(monkeypatch, i4, i12):
    built = picking(monkeypatch, i4, i12)
    report = reproductions.run_reproduction("clubsuit-d2")
    assert len(built) == 1
    assert all(c["passed"] for c in report.checks)
    assert hashlib.sha256(report.render().encode()).hexdigest() == GOLDEN["clubsuit-d2"]


@pytest.mark.extended
@pytest.mark.parametrize("i4, i12", PICKS)
def test_every_rational_torsion_pick_gives_the_same_extended_report(monkeypatch, i4, i12):
    built = picking(monkeypatch, i4, i12)
    report = reproductions.run_reproduction("clubsuit-d2", extended=True, tower_budget=128)
    assert built == [128]
    assert all(c["passed"] for c in report.checks)
    assert hashlib.sha256((report.render() + "\n").encode()).hexdigest() == EXTENDED_SHA256
