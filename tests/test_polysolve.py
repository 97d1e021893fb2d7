"""Root finding, resultants, and exact linear algebra."""

import random
from fractions import Fraction

import pytest

from maxflex import QQ, UniPoly, extend_field, polysolve, rational_roots, root_packets
from maxflex.polysolve import kernel_basis, resultant_bivariate, resultant_univariate


def qpoly(*coeffs):
    return UniPoly.from_rationals(QQ, coeffs)


def test_rational_roots_simple():
    assert rational_roots(qpoly(6, -5, 1)) == [(Fraction(2), 1), (Fraction(3), 1)]


def test_rational_roots_with_multiplicity_and_zero():
    # 4 t^2 (1 - t)
    f = qpoly(0, 0, 4, -4)
    assert rational_roots(f) == [(Fraction(0), 2), (Fraction(1), 1)]


def test_rational_roots_fractional():
    f = qpoly(Fraction(1, 3), Fraction(-4, 3), 1)
    assert rational_roots(f) == [(Fraction(1, 3), 1), (Fraction(1), 1)]


def test_rational_roots_none():
    assert rational_roots(qpoly(Fraction(-1, 2), 0, 1)) == []


def test_rational_roots_large_coefficients():
    rng = random.Random(3)
    roots = [Fraction(rng.randint(-50, 50)) for _ in range(3)]
    f = qpoly(1)
    for r in roots:
        f = f * qpoly(-r, 1)
    # multiply in an irreducible factor with huge coefficients
    f = f * qpoly(10**40 + 1, 0, 10**39 + 7, 1)
    found = rational_roots(f)
    assert sorted(r for r, _m in found) == sorted(set(roots))


# -- rational_roots against sympy's factorization -----------------------------

def _sympy_rational_roots(f):
    """(root, multiplicity) pairs from the linear factors of sympy's factor_list."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in f.rational_coeffs()]
    _content, factors = sympy.factor_list(sum(c * x**i for i, c in enumerate(coeffs)), x)
    out = []
    for factor, mult in factors:
        poly = sympy.Poly(factor, x)
        if poly.degree() == 1:
            a, b = poly.all_coeffs()
            root = -b / a
            out.append((Fraction(int(root.p), int(root.q)), mult))
    return sorted(out)


def _linear(rng, num, den):
    """v x - u for a random u / v with |u| <= num and 1 <= v <= den."""
    return qpoly(-rng.randint(-num, num), rng.randint(1, den))


def _irreducible_part(rng):
    """x^2 + b x + c or x^3 + b x + c with no rational root (by construction)."""
    while True:
        b, c = rng.randint(-40, 40), rng.choice([-1, 1]) * rng.randint(1, 40)
        f = qpoly(c, b, 0, 1) if rng.random() < 0.5 else qpoly(c, b, 1)
        if all(f.evaluate(QQ.rational(r)).as_rational() != 0 for r in range(-40, 41)):
            return f


def _product(factors):
    f = qpoly(1)
    for g in factors:
        f = f * g
    return f


def _differential_cases():
    rng = random.Random(20231)
    cases = []
    # integer and non-integer linear factors, with irreducible cofactors
    # whose roots mod p lift to candidates that must be refused
    for _ in range(24):
        fs = [_linear(rng, 30, 12) for _ in range(rng.randint(1, 5))]
        fs += [_irreducible_part(rng) for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.3:
            fs.append(qpoly(0, 1))
        cases.append(_product(fs))
    # one integer root of any size against a cofactor with constant term
    # +-1: a_n x then fills the whole bound |a_0 a_n|
    for _ in range(24):
        u = rng.choice([-1, 1]) * rng.randint(2, 10 ** rng.randint(1, 12))
        cofactor = rng.choice([qpoly(1), qpoly(-1, 1, 1), qpoly(1, -3, 0, 1)])
        cases.append(qpoly(-u, 1) * cofactor)
    # repeated rational roots
    for _ in range(6):
        fs = [_linear(rng, 20, 6) for _ in range(rng.randint(1, 3))]
        fs += [fs[0]] * rng.randint(1, 3) + [_irreducible_part(rng)]
        cases.append(_product(fs))
    # a squared irreducible quadratic times a simple rational root
    cases.append(qpoly(1, 1, 1) * qpoly(1, 1, 1) * qpoly(-3, 2))
    cases.append(qpoly(-2, 0, 1) * qpoly(-2, 0, 1) * qpoly(5, 7) * qpoly(0, 1))
    # large coefficients
    for _ in range(6):
        fs = [qpoly(-rng.randint(-10**30, 10**30), rng.randint(1, 10**20))]
        fs += [_linear(rng, 50, 5), qpoly(10**40 + 1, 0, 10**39 + 7, 1)]
        cases.append(_product(fs))
    return cases


def test_rational_roots_match_sympy():
    for f in _differential_cases():
        assert rational_roots(f) == _sympy_rational_roots(f), f.rational_coeffs()


# -- rational_roots against its former check and count ------------------------

#: Cofactors with no rational root: x^2 + 1, x^2 - 2, x^2 + x + 1,
#: x^3 - 3x + 1 and a cubic with coefficients near 10^40.
_IRREDUCIBLE = (
    (1, 0, 1), (-2, 0, 1), (1, 1, 1), (1, -3, 0, 1), (10**40 + 1, 0, 10**39 + 7, 1),
)


def test_rational_roots_match_the_former_route():
    # f = c x^k (v1 x - u1)^m1 ... times cofactors with no rational root;
    # the former route checks the built roots and a few decoys
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    from oracles import former_root_multiplicities

    root = st.one_of(
        st.integers(-30, 30).map(Fraction),
        st.builds(Fraction, st.integers(-40, 40), st.integers(2, 12)),
        st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**6)),
    )
    scale = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**3))
    case = st.tuples(
        st.lists(st.tuples(root, st.integers(1, 4)), max_size=4),
        st.integers(0, 3),
        st.lists(st.sampled_from(_IRREDUCIBLE), max_size=2),
        scale,
        st.lists(root, max_size=3),
    )
    seen = set()

    @hyp.settings(max_examples=80, derandomize=True, database=None, deadline=None,
                  suppress_health_check=[hyp.HealthCheck.too_slow])
    @hyp.given(case)
    def check(drawn):
        linear, k, cofactors, c, decoys = drawn
        f = qpoly(*[0] * k, c)
        for r, m in linear:
            for _ in range(m):
                f = f * qpoly(-r.numerator, r.denominator)
        for g in cofactors:
            f = f * qpoly(*g)
        candidates = [r for r, _m in linear] + decoys + [Fraction(0)]
        found = rational_roots(f)
        assert found == former_root_multiplicities(f.rational_coeffs(), candidates)
        seen.update(("mult", m) for _r, m in found)
        seen.update(
            feature
            for feature, present in (
                ("zero", k > 0),
                ("fraction", any(r.denominator > 1 for r, _m in found)),
                ("1e40", max(abs(q.numerator) for q in f.rational_coeffs()) > 10**40),
                ("cofactor", bool(cofactors)),
            )
            if present
        )

    check()
    assert seen >= {("mult", m) for m in (1, 2, 3, 4)} | {"zero", "fraction", "1e40", "cofactor"}


def test_rational_roots_through_the_squarefree_fallback(monkeypatch):
    calls = []
    real = polysolve.squarefree_part

    def spy(f):
        calls.append(f.degree)
        return real(f)

    monkeypatch.setattr(polysolve, "squarefree_part", spy)
    # a repeated rational root is repeated mod every prime
    f = qpoly(-2, 3) * qpoly(-2, 3) * qpoly(5, 1) * qpoly(-2, 0, 1)
    assert rational_roots(f) == _sympy_rational_roots(f) == [
        (Fraction(-5), 1),
        (Fraction(2, 3), 2),
    ]
    assert calls == [5]
    # squarefree, but every prime up to 41 divides the leading coefficient
    # (2, 3, 5, 7) or the difference of the roots 1 and 1 + M
    calls.clear()
    M = 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41
    f = qpoly(-1, 210) * qpoly(-1, 1) * qpoly(-1 - M, 1)
    assert rational_roots(f) == _sympy_rational_roots(f) == [
        (Fraction(1, 210), 1),
        (Fraction(1), 1),
        (Fraction(1 + M), 1),
    ]
    assert calls == [3]


def test_resultant_of_coprime_and_common_root():
    r = resultant_univariate(qpoly(-1, 0, 1), qpoly(-4, 0, 1))
    assert r.as_rational() == 9
    shared = resultant_univariate(qpoly(-1, 1) * qpoly(-2, 1), qpoly(-1, 1))
    assert shared.is_zero()


def test_resultant_bivariate_eliminates():
    # f = u^2 - x, g = u - x : resultant in u is x^2 - x
    x = UniPoly(QQ, (0, 1))
    one = UniPoly(QQ, (1,))
    f_cols = [-x, UniPoly(QQ, ()), one]
    g_cols = [-x, one]
    r = resultant_bivariate(f_cols, g_cols, QQ)
    assert r.rational_coeffs() == [Fraction(0), Fraction(-1), Fraction(1)]


def test_root_packets_orbit_mode():
    pk = root_packets(qpoly(1, 0, 0, 1), QQ)
    assert sorted(p.orbit for p in pk) == [1, 2]
    # every returned element is a root
    for p in pk:
        f = qpoly(1, 0, 0, 1).embedded(p.tower)
        assert f.evaluate(p.element).is_zero()


def test_root_packets_over_extension():
    k = extend_field(QQ, qpoly(1, 1, 1), name="w", irreducible=True)
    w = k.generator()
    # (t - w)(t - w^2) = t^2 + t + 1 over the tower: no in-tower detection,
    # but the adjoined packet still covers both roots
    f = UniPoly(k, [k.one(), k.one(), k.one()])
    pk = root_packets(f, k)
    assert sum(p.orbit for p in pk) == 2


def test_kernel_basis_dimensions():
    one, zero = QQ.one(), QQ.zero()
    rows = [[one, zero, -one], [zero, one, -one]]
    basis = kernel_basis(rows, 3, QQ)
    assert len(basis) == 1
    v = basis[0]
    assert (v[0] - v[2]).is_zero() and (v[1] - v[2]).is_zero()
