"""Every tower inverse and every polynomial gcd runs one remainder sequence.

An AST scan of every module in ``src/maxflex``, the one of
``test_root_loop``, lists the functions that call ``_zeuclid`` and
``_zz_pseudo_divmod``.  ``_zeuclid`` is called only by the tower inverse
``fields._rinv`` and the gcd ``fields._pl_gcd``; the integer pseudo-division
only by ``_zeuclid``, as its step over Q, and by ``fields._gf_rem``, the
division of the unit certificate over GF(p).
"""

from test_root_loop import callers_of


def test_zeuclid_is_called_only_by_the_tower_inverse_and_the_gcd():
    assert callers_of("_zeuclid") == ["fields._pl_gcd", "fields._rinv"]


def test_the_integer_pseudo_division_is_called_only_by_zeuclid_and_gf_rem():
    assert callers_of("_zz_pseudo_divmod") == ["fields._gf_rem", "fields._zeuclid"]

