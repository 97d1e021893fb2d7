"""The input boundary, fuzzed: one mutation of a good input file per example.

The good files are ``realize bigon-r4``'s output and the arrangement and spec
files of ``test_cli``.  A mutation drops a key, empties a list or a map,
duplicates a curve or a component, adds a term with a negative exponent, or
puts a float, "1/0", null or a bool in place of a value.  Every case runs
through ``cli.main``.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_cli import _arrangement, _spec4  # noqa: E402

from maxflex.cli import main  # noqa: E402

#: Keys a reader needs.  A spec file has no cubic, so each of its components
#: needs a class, and with it a modulus.
REQUIRED_KEYS = {"curves", "degree", "terms", "name", "minpoly",
                 "d0", "components", "m", "class", "modulus", "divisor"}
#: Lists and maps that may not be empty: an arrangement needs curves, a form
#: terms, a modulus coefficients, and a spec components, each with a divisor
#: and a class.
NONEMPTY = {"curves", "terms", "minpoly", "components", "divisor", "class"}
#: Values no reader takes for a number, a coefficient or a container.
POISON = {"float": 0.5, "zero denominator": "1/0", "null": None, "bool": True}


def _paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, path + (i,))


def _read_as_data(path):
    """False for what no reader takes as a number or a container: P and Q,
    which ``fingerprint`` does not read, a level's name and a divisor
    entry's point label."""
    return not (
        path[0] in ("P", "Q")
        or path[0] == "tower" and path[2:] == ("name",)
        or path[0] == "components" and path[2:3] == ("divisor",) and path[4:] == (0,)
    )


def _mutated(doc, path, mutation):
    """(the document with one mutation at ``path``, whether the result is
    malformed in its structure), or None when the mutation does not apply."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return None
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    value = parent[last]
    if mutation == "drop":
        if not isinstance(parent, dict):
            return None
        del parent[last]
        return doc, last in REQUIRED_KEYS
    if mutation == "empty":
        if not isinstance(value, (list, dict)) or not value:
            return None
        parent[last] = type(value)()
        # a curve, a level or a component without its keys is malformed too
        return doc, last in NONEMPTY or isinstance(value, dict)
    if mutation == "duplicate":
        if len(path) != 2 or path[0] not in ("curves", "components"):
            return None
        parent.append(value)
        return doc, False
    if mutation == "negative exponent":
        if last != "terms":
            return None
        degree = sum(int(e) for e in next(iter(value)).split(","))
        value["-1,%d,1" % degree] = "1/1"
        return doc, True
    parent[last] = POISON[mutation]
    return doc, _read_as_data(path)


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    """The good files: ``realize bigon-r4``'s output, the Fermat arrangement
    over Q(t) and the two spec files above."""
    path = tmp_path_factory.mktemp("fuzz") / "r4.json"
    assert main(["realize", "bigon-r4", "--out", str(path)]) == 0
    spec5 = _spec4()
    spec5["components"][1]["class"] = [0, 3]
    return [
        ("fingerprint", json.loads(path.read_text())),
        ("fingerprint", _arrangement()),
        ("spec", _spec4()),
        ("spec", spec5),
    ]


def test_mutated_input_files_exit_cleanly(capsys, tmp_path, fuzz_bases):
    """No mutation lets an exception escape ``cli.main``, and every file
    malformed in its structure exits 2."""
    capsys.readouterr()
    mutations = ["drop", "empty", "duplicate", "negative exponent"] + list(POISON)
    path = tmp_path / "input.json"

    @settings(max_examples=150, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(range(len(fuzz_bases))), st.data())
    def run(base, data):
        command, doc = fuzz_bases[base]
        target = data.draw(st.sampled_from(list(_paths(doc))))
        case = _mutated(doc, target, data.draw(st.sampled_from(mutations)))
        if case is None:
            return
        doc, malformed_structure = case
        path.write_text(json.dumps(doc))
        argv = ["invariants" if command == "spec" else "fingerprint", str(path)]
        code = main(argv)
        out = capsys.readouterr()
        assert code in (0, 1, 2), out.err
        if malformed_structure:
            assert code == 2 and out.err.startswith("error: "), (target, doc)

    run()
