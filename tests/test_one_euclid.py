"""Every tower inverse and every polynomial gcd runs one remainder sequence,
and each representation has one polynomial division.

An AST scan of every module in ``src/maxflex``, the one of
``test_root_loop``, lists the functions that call ``_zeuclid``,
``_zz_pseudo_divmod`` and ``_pl_divmod``.  ``_zeuclid`` is called only by the
tower inverse ``fields._rinv`` and the gcd ``fields._pl_gcd``.  The integer
pseudo-division, the one division on Z[x], is called only by ``_zeuclid``,
as its step over Q, by ``fields._gf_rem``, the division of the unit
certificate over GF(p), and by ``polysolve.rational_roots``, which counts
each candidate root's multiplicity with it.  ``_pl_divmod``, the one
division on lists of reps, is called only by ``UniPoly.__divmod__``, by
``FieldTower.split`` and by ``fields._reduced_rep``, which moves residues
into a split branch.  The divisions these replaced are gone.
"""

import ast

from test_root_loop import SRC, callers_of


def test_zeuclid_is_called_only_by_the_tower_inverse_and_the_gcd():
    assert callers_of("_zeuclid") == ["fields._pl_gcd", "fields._rinv"]


def test_the_integer_pseudo_division_is_called_only_by_zeuclid_gf_rem_and_rational_roots():
    assert callers_of("_zz_pseudo_divmod") == [
        "fields._gf_rem",
        "fields._zeuclid",
        "polysolve.rational_roots",
    ]


def test_the_rep_division_is_called_only_by_divmod_reduced_rep_and_split():
    assert callers_of("_pl_divmod") == ["fields.__divmod__", "fields._reduced_rep", "fields.split"]


def test_the_replaced_divisions_are_gone():
    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    assert defined
    assert not defined & {"_pl_reduce_inplace", "_qdiv_linear", "_vanishes_at"}
