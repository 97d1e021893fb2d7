"""Every arbitrary pick gives a passing report, and the same bytes.

``catalog.bigon_points`` takes the first point of each ``rational_torsion``
list of the 90c3 entry: one of the two points of order 4 and one of the four
of order 12.  Any of them is a valid pick, so each of the 2 x 4 picks must
pass every check and render the same bytes.  The test hands the reproduction
an entry whose lists are reordered copies, through ``catalog_entry`` as the
reproductions module sees it; the model's own lists are never touched.

Three more sites are covered the same way, by reordering in the test what
the catalog receives; ``src/`` takes no parameter for it:

* trisection: ``fermat_triangle`` takes the first of the 2 verified
  preimages that ``divide_point`` returns, one per [2,9,1] branch;
* offline flex: ``fermat_witness`` takes the first of the 6 flexes of
  ``fermat_offline_flexes`` that the concurrency gate accepts.  The gate
  rejects none of them: whichever is offered first, its tangent and the
  witness's other five lines have no concurrent triple, and it is taken;
* halving: ``bigon_points`` takes the first of the 2 points that
  ``halve_point`` returns at r = 8 and at r = 24 (extended run).

fermat-existence prints a set of strings, whose order follows the hash seed,
so its picks run in a fresh interpreter under PYTHONHASHSEED=0, as the
golden hash was recorded.
"""

import hashlib
import json
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
from test_report_hashes import EXTENDED_SHA256, _render

from maxflex import catalog, reproductions
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


#: Runs fermat-existence once per pick at one site, that pick moved first,
#: and prints per pick whether every check passed, the report's SHA-256,
#: how many candidates the site offered and the gate's answers (the number
#: of concurrent triples for each flex tried, in order).
FERMAT_PICKS = """
import hashlib, json
from maxflex import catalog, reproductions

SITE = %r

def first(points, i):
    return [points[i]] + points[:i] + points[i + 1 :]

divide, flexes, gate = catalog.divide_point, catalog.fermat_offline_flexes, catalog.concurrent_line_triples
runs = []
for i in range({"trisection": 2, "offline-flex": 6}[SITE]):
    offered, answers = [], []

    def divide_picking(model, n, target, name):
        found = divide(model, n, target, name)
        offered.append(len(found))
        return first(found, i)

    def flexes_picking(data):
        found = list(flexes(data))
        offered.append(len(found))
        return first(found, i)

    def gate_recorded(lines):
        found = list(gate(lines))
        answers.append(len(found))
        return found

    if SITE == "trisection":
        catalog.divide_point = divide_picking
    else:
        catalog.fermat_offline_flexes = flexes_picking
    catalog.concurrent_line_triples = gate_recorded
    report = reproductions.run_reproduction("fermat-existence")
    runs.append({
        "passed": all(c["passed"] for c in report.checks),
        "sha256": hashlib.sha256(report.render().encode()).hexdigest(),
        "offered": offered,
        "gate": answers,
    })
print(json.dumps(runs))
"""


@lru_cache(maxsize=None)
def fermat_picks(site):
    return json.loads(_render(FERMAT_PICKS % site))


@pytest.mark.parametrize("i", range(2))
def test_every_trisection_pick_gives_the_same_report(i):
    run = fermat_picks("trisection")[i]
    assert run["offered"] == [2]
    assert run["passed"]
    assert run["sha256"] == GOLDEN["fermat-existence"]


@pytest.mark.parametrize("i", range(6))
def test_every_offline_flex_pick_gives_the_same_report(i):
    run = fermat_picks("offline-flex")[i]
    assert run["offered"] == [6]
    assert run["passed"]
    assert run["sha256"] == GOLDEN["fermat-existence"]
    # the gate is asked once, about the flex offered first, and finds no
    # concurrent triple
    assert run["gate"] == [0]


def halving(monkeypatch, r, i):
    """Make ``bigon_points`` at r take the i-th of ``halve_point``'s points;
    the list returned records how many points each halving offered."""
    offered, current = [], []
    points, halve = reproductions.bigon_points, catalog.halve_point

    def points_at(entry_data, radius):
        current[:] = [radius]
        return points(entry_data, radius)

    def halve_picking(model, target):
        found = halve(model, target)
        offered.append(len(found))
        return first(found, i) if current == [r] else found

    monkeypatch.setattr(reproductions, "bigon_points", points_at)
    monkeypatch.setattr(catalog, "halve_point", halve_picking)
    return offered


@pytest.mark.extended
@pytest.mark.parametrize("r, i", list(product((8, 24), range(2))))
def test_every_halving_pick_gives_the_same_extended_report(monkeypatch, r, i):
    offered = halving(monkeypatch, r, i)
    report = reproductions.run_reproduction("clubsuit-d2", extended=True, tower_budget=128)
    assert offered == [2, 2]
    assert all(c["passed"] for c in report.checks)
    assert hashlib.sha256((report.render() + "\n").encode()).hexdigest() == EXTENDED_SHA256
