"""Command-line interface: subcommands, spec files, determinism, exit codes."""

import json

import pytest

from maxflex import cover_order, splitting_number, torsion_order, uniform_group
from maxflex import catalog, cli
from maxflex.catalog import catalog_entry, fermat_witness, fermat_witness_spec
from maxflex.cli import invariant_table, main
from maxflex.combinatorics import fingerprint
from maxflex.torsion import ArrangementSpec, weight_vectors
from maxflex.weierstrass import rational_points_of_order, weierstrass_model


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


@pytest.mark.parametrize(
    "name", ["thm-main1", "thm-main2", "clubsuit-tables", "fermat-existence", "appendix-triangle"]
)
def test_reproduce_extended_is_refused_where_there_is_no_extended_run(capsys, name):
    code, out, err = run_cli(capsys, "reproduce", name, "--extended")
    assert code == 2
    assert out == ""
    assert err.startswith("error: reproduction %r has no extended run" % name)


def test_realize_takes_no_extended_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["realize", "bigon-r4", "--extended"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --extended" in capsys.readouterr().err


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


def test_torsion_reads_the_model_and_torsion_of_the_entry(capsys, monkeypatch):
    """Every order 2-12 prints what a fresh model and a fresh search print,
    and the command builds no model past the 90c3 entry's own."""
    fresh = weierstrass_model(catalog_entry("90c3").build()["structure"])
    models = []
    build = catalog.weierstrass_model

    def counted(e):
        models.append(e)
        return build(e)

    monkeypatch.setattr(catalog, "weierstrass_model", counted)
    # where the command would find the name, had it kept its own model
    monkeypatch.setattr(cli, "weierstrass_model", counted, raising=False)
    for n in range(2, 13):
        lines = ["curve 90c3, exact order %d" % n]
        pts = rational_points_of_order(fresh, n)
        lines += ["x = %s, y = %s" % (x.as_rational(), y.as_rational()) for x, y in pts]
        if not pts:
            lines.append("no rational points of this exact order")
        models.clear()
        code, out, _ = run_cli(capsys, "torsion", "90c3", str(n))
        assert code == 0
        assert out == "\n".join(lines) + "\n"
        assert len(models) == 1


def _spec4():
    return {
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


def _write_spec_files(tmp_path):
    spec4 = _spec4()
    spec5 = _spec4()
    spec5["components"][1]["class"] = [0, 3]
    f4 = tmp_path / "spec4.json"
    f5 = tmp_path / "spec5.json"
    f4.write_text(json.dumps(spec4))
    f5.write_text(json.dumps(spec5))
    return f4, f5


def test_invariants_and_distinguish_from_spec_files(capsys, tmp_path):
    f4, f5 = _write_spec_files(tmp_path)
    code, out, _ = run_cli(capsys, "invariants", str(f4))
    assert code == 0
    assert "uniform group: trivial" in out
    assert "a=[1, 2, 1]  n=3  order=1  splitting=3" in out

    code, out, _ = run_cli(capsys, "distinguish", str(f4), str(f5))
    assert code == 0
    assert "verdict: distinguished" in out
    assert "multiset-witness" in out

    # the spec against itself is proved inconclusive by the identity
    code, out, _ = run_cli(capsys, "distinguish", str(f4), str(f4))
    assert code == 1
    assert "inconclusive" in out
    assert "isomorphism: [0, 1, 2]" in out
    assert "span_order: 3" in out


def _three_call_table(spec):
    """The invariants table as it was printed from three calls per row."""
    return [
        "a=%s  n=%d  order=%d  splitting=%d"
        % (list(w), cover_order(spec, w), torsion_order(spec, w), splitting_number(spec, w))
        for w in weight_vectors(spec.k, spec.weight_box())
    ]


def test_invariants_table_is_the_three_call_table(capsys, tmp_path):
    for path in _write_spec_files(tmp_path):
        spec = ArrangementSpec.load(str(path))[0]
        head = ["invariants of %s" % path, "uniform group: %s" % uniform_group(spec).type_string()]
        code, out, _ = run_cli(capsys, "invariants", str(path))
        assert code == 0
        assert out == "\n".join(head + _three_call_table(spec)) + "\n"
    # both backends: the class -> point cross-check runs on every row
    spec = fermat_witness_spec(fermat_witness())
    assert spec.has_geometric
    assert invariant_table(spec) == _three_call_table(spec)


def test_realize_and_fingerprint_round_trip(capsys, tmp_path):
    path = tmp_path / "arr.json"
    code, out, _ = run_cli(capsys, "realize", "bigon-r4", "--out", str(path))
    assert code == 0
    assert set(json.loads(out)) == {"tower", "P", "Q", "curves"}
    code, out1, _ = run_cli(capsys, "fingerprint", str(path))
    assert code == 0
    code, out2, _ = run_cli(capsys, "fingerprint", str(path))
    assert out1 == out2
    data = json.loads(out1.strip().splitlines()[-1])
    assert data["pieces"][0] == [3, True]


def test_realize_fermat_witness_feeds_fingerprint(capsys, tmp_path):
    # the witness file lists the Fermat cubic and its six lines under
    # ``curves``, in fingerprint order, so ``fingerprint`` reads it as is
    path = tmp_path / "fw.json"
    code, out, _ = run_cli(capsys, "realize", "fermat-witness", "--out", str(path))
    assert code == 0
    assert set(json.loads(out)) == {"tower", "curves", "triangle_vertices"}
    code, out, _ = run_cli(capsys, "fingerprint", str(path))
    assert code == 0
    witness = fermat_witness()
    pieces = [witness["structure"].cubic] + list(witness["lines"])
    assert out == fingerprint(pieces, witness["tower"]).canonical() + "\n"


def test_realize_unknown_recipe(capsys):
    for recipe in ("nonsense", "bigon-rx", "bigon-r"):
        code, _, err = run_cli(capsys, "realize", recipe)
        assert code == 2, recipe
        assert err.startswith("error: unknown recipe"), recipe


def test_torsion_order_below_two_is_rejected(capsys):
    code, out, err = run_cli(capsys, "torsion", "90c3", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: torsion order must be at least 2")


def test_torsion_on_curve_without_flex_is_a_spec_error(capsys):
    code, out, err = run_cli(capsys, "torsion", "cyclic", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: curve 'cyclic' carries no designated flex")


def test_torsion_on_curve_over_an_extension_is_a_spec_error(capsys):
    # the Fermat entry is built over Q(w); the rational torsion search needs Q
    code, out, err = run_cli(capsys, "torsion", "fermat", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: curve 'fermat' is not defined over Q")


def test_distinguish_without_admissible_permutations_is_a_spec_error(capsys, tmp_path):
    spec = {
        "d0": 3,
        "components": [
            {"degree": 1, "m": 3, "class": [3, 0], "modulus": 9, "divisor": [["p", 3]]},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "distinguish", str(path), str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: spec files declare no admissible permutations")


@pytest.mark.parametrize("entry", [[0, 0], [0, 1, 2]], ids=["repeated", "too-long"])
def test_distinguish_with_an_entry_that_is_no_permutation_is_a_spec_error(
    capsys, tmp_path, entry
):
    spec = {
        "d0": 3,
        "components": [
            {"degree": 1, "m": 3, "class": [3, 0], "modulus": 9, "divisor": [["p", 3]]},
            {"degree": 1, "m": 3, "class": [6, 0], "modulus": 9, "divisor": [["q", 3]]},
        ],
        "admissible": [entry],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "distinguish", str(path), str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed spec file %s: ValueError: " % path)
    assert "is not a permutation of range(2)" in err


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


def test_fingerprint_on_non_squarefree_tower_is_rejected(capsys, tmp_path):
    # a (t+1)^2 level is not a field; it must be refused like extend refuses it
    t = ["0/1", "1/1"]
    one = ["1/1", "0/1"]
    arrangement = {
        "tower": [{"name": "t", "minpoly": ["1/1", "2/1", "1/1"]}],
        "curves": [
            {"degree": 3, "terms": {"3,0,0": one, "0,3,0": one, "0,0,3": one}},
            {"degree": 1, "terms": {"1,0,0": one, "0,1,0": t}},
        ],
    }
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(arrangement))
    code, out, err = run_cli(capsys, "fingerprint", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "squarefree" in err


def _arrangement(cubic_z3="-1/1", line_x=("0/1", "1/1"), minpoly=("-2/1", "0/1", "1/1")):
    """The Fermat cubic and a line over Q(t), t^2 = 2, with settable entries."""
    return {
        "tower": [{"name": "t", "minpoly": list(minpoly)}],
        "curves": [
            {"degree": 3, "terms": {"3,0,0": "1/1", "0,3,0": "1/1", "0,0,3": cubic_z3}},
            {"degree": 1, "terms": {"1,0,0": list(line_x), "0,1,0": "-1/1"}},
        ],
    }


def _fingerprint_of(capsys, tmp_path, arrangement):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(arrangement))
    return run_cli(capsys, "fingerprint", str(path))


@pytest.mark.parametrize(
    "arrangement, what",
    [
        (_arrangement(cubic_z3="1/0"), "curve data"),
        (_arrangement(minpoly=("-2/1", "1/0", "1/1")), "tower data"),
    ],
    ids=["term", "minpoly"],
)
def test_fingerprint_with_a_zero_denominator_is_a_spec_error(capsys, tmp_path, arrangement, what):
    code, out, err = _fingerprint_of(capsys, tmp_path, arrangement)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed %s: ZeroDivisionError" % what)


def test_fingerprint_on_an_empty_curve_list_is_a_spec_error(capsys, tmp_path):
    code, out, err = _fingerprint_of(capsys, tmp_path, {"tower": [], "curves": []})
    assert code == 2
    assert out == ""
    assert err == "error: arrangement file %s lists no curves\n" % (tmp_path / "arr.json")


def test_fingerprint_reads_json_integers_as_rationals(capsys, tmp_path):
    code, want, _ = _fingerprint_of(capsys, tmp_path, _arrangement())
    assert code == 0
    as_ints = _arrangement(cubic_z3=-1, line_x=(0, 1), minpoly=(-2, 0, 1))
    assert _fingerprint_of(capsys, tmp_path, as_ints) == (0, want, "")


@pytest.mark.parametrize(
    "arrangement, what, shown",
    [
        (_arrangement(cubic_z3=-1.0), "curve data", "-1.0"),
        (_arrangement(line_x=(0.5, "1/1")), "curve data", "0.5"),
        (_arrangement(minpoly=(-2.0, "0/1", "1/1")), "tower data", "-2.0"),
        (_arrangement(cubic_z3=True), "curve data", "True"),
        (_arrangement(minpoly=("-2/1", False, "1/1")), "tower data", "False"),
    ],
    ids=["float-term", "float-residue", "float-minpoly", "bool-term", "bool-minpoly"],
)
def test_fingerprint_refuses_floats_and_bools_by_value(capsys, tmp_path, arrangement, what, shown):
    code, out, err = _fingerprint_of(capsys, tmp_path, arrangement)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed %s: TypeError: coefficient %s " % (what, shown))


def test_fingerprint_refuses_a_negative_exponent_by_name(capsys, tmp_path):
    arrangement = _arrangement()
    arrangement["curves"][0]["terms"]["-1,2,2"] = "1/1"
    code, out, err = _fingerprint_of(capsys, tmp_path, arrangement)
    assert code == 2
    assert out == ""
    assert err == "error: malformed curve data: ValueError: negative exponent in term '-1,2,2'\n"


@pytest.mark.parametrize(
    "index, degree", [(0, 3.5), (1, 1.0), (1, True), (1, 0)], ids=["3.5", "1.0", "true", "0"]
)
def test_fingerprint_refuses_a_degree_that_is_no_positive_integer(capsys, tmp_path, index, degree):
    arrangement = _arrangement()
    arrangement["curves"][index]["degree"] = degree
    code, out, err = _fingerprint_of(capsys, tmp_path, arrangement)
    assert code == 2
    assert out == ""
    assert err == (
        "error: malformed curve data: ValueError: curve degree %r is not a positive integer\n"
        % (degree,)
    )


def _set_spec_field(spec, field, value):
    entry = spec["components"][0]
    if field == "d0":
        spec["d0"] = value
    elif field == "divisor multiplicity":
        entry["divisor"][0][1] = value
    else:
        entry[field] = value


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("class", [3.5, 0], "3.5"),
        ("modulus", 9.0, "9.0"),
        ("degree", 1.0, "1.0"),
        ("m", 3.0, "3.0"),
        ("d0", 3.0, "3.0"),
        ("divisor multiplicity", 3.0, "3.0"),
        ("m", "3", "'3'"),
        ("d0", True, "True"),
    ],
    ids=["class", "modulus", "degree", "m", "d0", "multiplicity", "string-m", "bool-d0"],
)
def test_spec_file_refuses_a_non_integer_field_by_name(capsys, tmp_path, field, value, shown):
    spec = _spec4()
    _set_spec_field(spec, field, value)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "invariants", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: malformed spec file %s: TypeError: field %s is %s, not an integer\n" % (
        path,
        field,
        shown,
    )


@pytest.mark.parametrize("cls", ["drop", None], ids=["missing", "null"])
def test_spec_file_component_without_a_class_is_a_spec_error(capsys, tmp_path, cls):
    # every spec carries its lattice, so a component without a class is
    # refused
    spec = _spec4()
    if cls == "drop":
        del spec["components"][1]["class"]
    else:
        spec["components"][1]["class"] = cls
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "invariants", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: malformed spec file %s: ValueError: %s\n" % (
        path,
        "a component has no class",
    )


def test_fingerprint_on_a_missing_file_is_a_read_error(capsys, tmp_path):
    path = tmp_path / "absent.json"
    code, out, err = run_cli(capsys, "fingerprint", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read arrangement file %s: " % path)


def test_invariants_on_a_directory_is_a_read_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "invariants", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read spec file %s: " % tmp_path)


def test_distinguish_with_a_missing_second_spec_is_a_read_error(capsys, tmp_path):
    spec = {
        "d0": 3,
        "components": [
            {"degree": 1, "m": 3, "class": [3, 0], "modulus": 9, "divisor": [["p", 3]]},
        ],
        "admissible": [[0]],
    }
    present = tmp_path / "spec.json"
    present.write_text(json.dumps(spec))
    absent = tmp_path / "absent.json"
    code, out, err = run_cli(capsys, "distinguish", str(present), str(absent))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read spec file %s: " % absent)


@pytest.mark.parametrize(
    "argv",
    [
        ("reproduce", "thm-main1", "--tower-budget", "0"),
        ("torsion", "90c3", "12", "--tower-budget", "0"),
        ("realize", "fermat-witness", "--tower-budget", "-5"),
        ("fingerprint", "absent.json", "--tower-budget", "0"),
    ],
    ids=lambda argv: argv[0],
)
def test_tower_budget_below_one_is_refused_when_parsed(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --tower-budget: must be an integer of at least 1" in out.err


def test_out_to_an_unwritable_path_is_a_write_error(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "r.txt"
    code, out, err = run_cli(capsys, "reproduce", "thm-main1", "--out", str(target))
    assert code == 2
    assert "result: PASS" in out
    assert err.startswith("error: cannot write %s: " % target)
    assert not target.exists()
