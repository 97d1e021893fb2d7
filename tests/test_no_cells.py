"""The numerator helpers of ``maxflex.fields`` make no closure cells, and
none of them recurses on the height.

On CPython 3.11 a comprehension or generator expression that reads a
function's locals makes the function build closure cells for them on every
call, even on a branch that never runs it, and these helpers run on every
tower product, inverse and gcd.  So each of them loops, or maps over
``itertools.repeat``, instead: its code object holds no cell variable.  A
self-test shows that the check sees a cell when one is there.

Numerators above int-height 0 are one flat tuple of integers, so a sum, a
scaling, a content or an exact division is one ``map`` or ``gcd`` over it,
and a zero test one ``any``: an AST scan finds no call of any of them in its
own body.
"""

import ast
import inspect
import textwrap
from types import FunctionType

import pytest

from maxflex import fields

#: Every numerator helper and rep helper (``_z*``, ``_r*``, ``_pl_*``), and
#: the helpers that lift, split, join, move or serialize reps or read them
#: into GF(p).
CELL_FREE = sorted(
    name for name, obj in vars(fields).items()
    if isinstance(obj, FunctionType) and name.startswith(("_z", "_r", "_pl_"))
) + [
    "_lift", "_coeffs", "_join", "_gf_eval", "_frame_at", "_certified_unit", "_moved_reps",
    "_nested_data", "rep_to_data", "rep_from_data",
]


@pytest.mark.parametrize("name", CELL_FREE)
def test_numerator_helper_makes_no_closure_cells(name):
    assert getattr(fields, name).__code__.co_cellvars == ()


def test_a_generator_over_a_local_makes_a_cell():
    namespace = {}
    exec(
        "def scaled(xs, c):\n"
        "    return tuple(x * c for x in xs)\n"
        "def mapped(xs, c):\n"
        "    return tuple(map(mul, xs, repeat(c)))\n",
        namespace,
    )
    assert namespace["scaled"].__code__.co_cellvars == ("c",)
    assert namespace["mapped"].__code__.co_cellvars == ()


#: The helpers that once recursed once per level of the height.
FLAT = ("_zany", "_zop", "_zscale", "_zcontent", "_zdiv")


def _called_names(source):
    """The names called in ``source``."""
    tree = ast.parse(textwrap.dedent(source))
    return {node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


@pytest.mark.parametrize("name", FLAT)
def test_flat_helper_does_not_call_itself(name):
    assert name not in _called_names(inspect.getsource(getattr(fields, name)))


def test_the_recursion_scan_sees_a_call_of_itself():
    nested = (
        "def _zany(Z, k):\n"
        "    if k == 0:\n"
        "        return Z != 0\n"
        "    return any(_zany(z, k - 1) for z in Z)\n"
    )
    assert "_zany" in _called_names(nested)
