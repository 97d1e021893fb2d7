"""The numerator helpers of ``maxflex.fields`` make no closure cells.

On CPython 3.11 a comprehension or generator expression that reads a
function's locals makes the function build closure cells for them on every
call, even on a branch that never runs it, and these helpers run on every
tower product, inverse and gcd.  So each of them loops, or maps over
``itertools.repeat``, instead: its code object holds no cell variable.  A
self-test shows that the check sees a cell when one is there.
"""

import pytest

from maxflex import fields

CELL_FREE = (
    "_zany", "_zop", "_zscale", "_zdiv", "_zmul", "_zraw", "_zreduce", "_zz_mul",
    "_zz_pseudo_divmod", "_zcontent", "_znorm", "_zbelow", "_zeuclid", "_rsum", "_rmul", "_rinv",
)


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
