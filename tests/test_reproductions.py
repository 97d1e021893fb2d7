"""Reproduction reports: determinism, structure, and failure signaling."""

import json

import pytest

from maxflex import REPRODUCTION_NAMES, SpecError, UnknownReproduction, run_reproduction


def test_unknown_name_raises():
    with pytest.raises(UnknownReproduction):
        run_reproduction("no-such-thing")


@pytest.mark.parametrize("budget", [0, -3])
@pytest.mark.parametrize("name", REPRODUCTION_NAMES)
def test_tower_budget_below_one_is_refused(name, budget):
    # a budget of 0 is not "no budget": only None selects the default, and
    # the abstract runs that build no tower refuse it all the same
    with pytest.raises(SpecError, match="tower budget must be at least 1"):
        run_reproduction(name, tower_budget=budget)


def test_report_renders_machine_block():
    rep = run_reproduction("thm-main1")
    text = rep.render()
    assert text.splitlines()[-1] == "result: PASS"
    machine = text.split("-- machine --\n", 1)[1].splitlines()[0]
    data = json.loads(machine)
    assert data["ok"] is True
    assert data["name"] == "thm-main1"
    assert any(c["label"] == "group-type-3" for c in data["checks"])


def test_reports_are_byte_identical_across_runs():
    a = run_reproduction("thm-main2").render()
    b = run_reproduction("thm-main2").render()
    assert a == b


def test_certificates_embedded_in_report():
    rep = run_reproduction("thm-main2")
    data = rep.to_data()
    certs = {c["label"]: c for c in data["certificates"]}
    assert certs["pair-4-5"]["mode"] == "multiset-witness"
    assert certs["pair-4-5"]["verdict"] == "distinguished"
