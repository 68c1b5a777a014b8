"""Exact polynomial and rational-function arithmetic."""
from fractions import Fraction

import pytest

from haarmoments.ratfun import Poly, RationalFunction, poly_gcd


def test_poly_str_descending_powers():
    assert str(Poly((0, -1, 0, 1))) == "n^3 - n"
    assert str(Poly((-1, 0, 1))) == "n^2 - 1"
    assert str(Poly((2,))) == "2"
    assert str(Poly(())) == "0"
    assert str(Poly((0, 1))) == "n"
    assert str(Poly((1, -2))) == "-2n + 1"


def test_poly_arithmetic():
    n = Poly((0, 1))
    assert (n + 1) * (n - 1) == Poly((-1, 0, 1))
    assert (n * n * n - n) == Poly((0, -1, 0, 1))
    assert Poly((1, 2, 1)) == (n + 1) * (n + 1)


def test_poly_eval_horner():
    p = Poly((-1, 0, 1))  # n^2 - 1
    assert p(5) == 24
    assert p(1) == 0
    assert Poly(())(7) == 0


def test_poly_exact_division():
    num = Poly((0, -1, 0, 1))  # n^3 - n
    assert num.exact_div(Poly((0, 1))) == Poly((-1, 0, 1))
    with pytest.raises(ValueError):
        Poly((1, 1)).exact_div(Poly((0, 2)))


def test_poly_gcd():
    a = Poly((0, -1, 0, 1))        # n(n-1)(n+1)
    b = Poly((0, 1, 1))            # n(n+1)
    g = poly_gcd(a, b)
    assert g == Poly((0, 1, 1)) or g == b


def test_ratfun_normalization_and_str():
    r = RationalFunction(Poly((0, -2)), Poly((0, 0, 2)))
    assert str(r) == "(-1)/(n)"
    e22 = RationalFunction(Poly((-1,)), Poly((0, -1, 0, 1)))
    assert str(e22) == "(-1)/(n^3 - n)"


def test_ratfun_zero_denominator():
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        RationalFunction(Poly((1,)), Poly(()))


def test_ratfun_equality_cross_multiplied():
    a = RationalFunction(Poly((0, 1)), Poly((0, 0, 1)))   # n/n^2
    b = RationalFunction(Poly((1,)), Poly((0, 1)))        # 1/n
    assert a == b
    assert RationalFunction.from_fraction(Fraction(3, 4)) == Fraction(3, 4)
    assert RationalFunction.one() == 1


def test_ratfun_arithmetic():
    inv_n = RationalFunction(Poly((1,)), Poly((0, 1)))
    inv_n1 = RationalFunction(Poly((1,)), Poly((1, 1)))
    s = inv_n - inv_n1
    assert s == RationalFunction(Poly((1,)), Poly((0, 1, 1)))
    assert inv_n * 2 == RationalFunction(Poly((2,)), Poly((0, 1)))
    assert (inv_n / inv_n1) == RationalFunction(Poly((1, 1)), Poly((0, 1)))


def test_ratfun_eval_at():
    r = RationalFunction(Poly((1,)), Poly((-1, 0, 1)), validity_min_n=2)
    assert r.eval_at(3) == Fraction(1, 8)
    with pytest.raises(ValueError, match="outside validity domain"):
        r.eval_at(1)


def test_validity_propagates_as_max():
    a = RationalFunction(Poly((1,)), Poly((0, 1)), validity_min_n=1)
    b = RationalFunction(Poly((1,)), Poly((-2, 1)), validity_min_n=3)
    assert (a + b).validity_min_n == 3
    assert (a * b).validity_min_n == 3
    assert a.with_validity(5).validity_min_n == 5
