"""Resultants over Q against sympy's, on seeded integer polynomials.

sympy is a test-only oracle here; the package never imports it.  Pairs with
a shared factor are included, whose resultant is 0.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from maxflex import QQ, UniPoly  # noqa: E402
from maxflex.polysolve import resultant_bivariate, resultant_univariate  # noqa: E402

X, U = sympy.symbols("x u")


def random_coeffs(rng, degree):
    return [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-3, -2, -1, 1, 2, 3])]


def to_sympy(coeffs, var):
    return sum(c * var**i for i, c in enumerate(coeffs))


def mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def sympy_resultant(F, G, var, df, dg):
    """sympy's resultant in the Sylvester-matrix convention used here.

    When deg F < deg G, sympy computes the resultant of (G, F), which differs
    by (-1)**(deg F * deg G); so the pair goes in higher degree first.
    """
    if df >= dg:
        return sympy.resultant(F, G, var)
    return (-1) ** (df * dg) * sympy.resultant(G, F, var)


def sympy_rational(expr):
    q = sympy.Rational(expr)
    return Fraction(int(q.p), int(q.q))


def univariate_pairs():
    rng = random.Random(20201)
    pairs = []
    for df in range(7):
        for dg in range(7):
            pairs.append((random_coeffs(rng, df), random_coeffs(rng, dg)))
    for _ in range(12):
        shared = random_coeffs(rng, rng.randint(1, 2))
        f = mul(shared, random_coeffs(rng, rng.randint(0, 4)))
        g = mul(shared, random_coeffs(rng, rng.randint(0, 4)))
        pairs.append((f, g))
    return pairs


def test_resultant_univariate_matches_sympy():
    zeros = 0
    for f, g in univariate_pairs():
        got = resultant_univariate(UniPoly(QQ, f), UniPoly(QQ, g)).as_rational()
        want = sympy_rational(
            sympy_resultant(to_sympy(f, X), to_sympy(g, X), X, len(f) - 1, len(g) - 1)
        )
        assert got == want, (f, g)
        zeros += got == 0
    assert zeros >= 12


def bivariate(rng, du, dx):
    """Coefficient rows: entry j lists the coefficients in x of u**j."""
    return [[rng.randint(-5, 5) for _ in range(dx + 1)] for _ in range(du)] + [
        random_coeffs(rng, rng.randint(0, dx))
    ]


def test_resultant_bivariate_matches_sympy_eliminating_u():
    rng = random.Random(7919)
    for du_f, du_g, dx in ((1, 1, 2), (2, 1, 2), (2, 2, 2), (3, 2, 1), (3, 3, 2), (1, 3, 2), (1, 4, 3)):
        f = bivariate(rng, du_f, dx)
        g = bivariate(rng, du_g, dx)
        got = resultant_bivariate(
            [UniPoly(QQ, row) for row in f], [UniPoly(QQ, row) for row in g], QQ
        )
        F = sum(to_sympy(row, X) * U**j for j, row in enumerate(f))
        G = sum(to_sympy(row, X) * U**j for j, row in enumerate(g))
        want = sympy.Poly(sympy_resultant(F, G, U, du_f, du_g), X).all_coeffs()[::-1]
        assert got.rational_coeffs() == [sympy_rational(c) for c in want], (f, g)
