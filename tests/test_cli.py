"""Command-line interface: subcommands, spec files, determinism, exit codes."""

import json

import pytest

from maxflex.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reproduce_abstract_runs_deterministically(capsys, tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    code1, _, _ = run_cli(capsys, "reproduce", "thm-main1", "--out", str(out1))
    code2, _, _ = run_cli(capsys, "reproduce", "thm-main1", "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "result: PASS" in text
    assert "-- machine --" in text


def test_reproduce_unknown_name_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["reproduce", "thm-nothing"])


def test_reproduce_tables(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "clubsuit-tables")
    assert code == 0
    assert "d2-r24" in out


def test_torsion_subcommand(capsys):
    code, out, _ = run_cli(capsys, "torsion", "90c3", "12")
    assert code == 0
    assert "x = -9" in out or "x = 81" in out


def test_torsion_empty_order(capsys):
    code, out, _ = run_cli(capsys, "torsion", "90c3", "8")
    assert code == 0
    assert "no rational points" in out


def test_invariants_and_distinguish_from_spec_files(capsys, tmp_path):
    spec4 = {
        "d0": 3,
        "components": [
            {"degree": 1, "m": 3, "class": [3, 0], "modulus": 9, "divisor": [["p", 3]]},
            {"degree": 1, "m": 3, "class": [6, 0], "modulus": 9, "divisor": [["q", 3]]},
            {
                "degree": 3,
                "m": 3,
                "class": [3, 0],
                "modulus": 9,
                "divisor": [["r0", 3], ["r1", 3], ["r2", 3]],
            },
        ],
        "admissible": [[0, 1, 2], [1, 0, 2]],
    }
    spec5 = json.loads(json.dumps(spec4))
    spec5["components"][1]["class"] = [0, 3]
    f4 = tmp_path / "spec4.json"
    f5 = tmp_path / "spec5.json"
    f4.write_text(json.dumps(spec4))
    f5.write_text(json.dumps(spec5))

    code, out, _ = run_cli(capsys, "invariants", str(f4))
    assert code == 0
    assert "uniform group: trivial" in out
    assert "a=[1, 2, 1]  n=3  order=1  splitting=3" in out

    code, out, _ = run_cli(capsys, "distinguish", str(f4), str(f5))
    assert code == 0
    assert "verdict: distinguished" in out
    assert "multiset-witness" in out

    code, out, _ = run_cli(capsys, "distinguish", str(f4), str(f4))
    assert code == 1
    assert "inconclusive" in out


def test_realize_and_fingerprint_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "realize", "bigon-r4")
    assert code == 0
    payload = json.loads(out)
    arrangement = {
        "tower": payload["tower"],
        "curves": [
            payload["cubic"],
            payload["tangent"],
            payload["conic1"],
            payload["conic2"],
        ],
    }
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(arrangement))
    code, out1, _ = run_cli(capsys, "fingerprint", str(path))
    assert code == 0
    code, out2, _ = run_cli(capsys, "fingerprint", str(path))
    assert out1 == out2
    data = json.loads(out1.strip().splitlines()[-1])
    assert data["pieces"][0] == [3, True]


def test_realize_unknown_recipe(capsys):
    code, _, err = run_cli(capsys, "realize", "nonsense")
    assert code == 2
    assert "unknown recipe" in err


def test_invariants_on_spec_without_components_is_a_spec_error(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"d0": 3}))
    code, _, err = run_cli(capsys, "invariants", str(path))
    assert code == 2
    assert err.startswith("error: malformed spec file")
    assert "components" in err


def test_fingerprint_on_tower_without_minpoly_is_a_spec_error(capsys, tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"tower": [{"name": "t"}], "curves": []}))
    code, _, err = run_cli(capsys, "fingerprint", str(path))
    assert code == 2
    assert err.startswith("error: malformed tower data")
    assert "minpoly" in err


def test_fingerprint_on_curve_without_terms_is_a_spec_error(capsys, tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"tower": [], "curves": [{"degree": 1}]}))
    code, _, err = run_cli(capsys, "fingerprint", str(path))
    assert code == 2
    assert err.startswith("error: malformed curve data")
    assert "terms" in err


def test_fingerprint_on_file_without_curves_is_a_spec_error(capsys, tmp_path):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"tower": []}))
    code, _, err = run_cli(capsys, "fingerprint", str(path))
    assert code == 2
    assert err.startswith("error: malformed arrangement file")
    assert "curves" in err
