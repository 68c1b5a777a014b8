"""Exact polynomial and rational-function arithmetic."""
import json
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarmoments import (invariants, partitions, ratfun, sphere, suites,
                         weingarten)
from haarmoments.queries import MomentQuery, canonicalize
from haarmoments.ratfun import Poly, RationalFunction, expand

# Reduced str and validity_min_n of every catalog form (fans to degree 8,
# z to multiplicity 4, x4/x5 to t + u = 6, degree 3, E(2)) and of every
# class integral xi_symbolic with p <= 9, as the Euclidean-gcd reduction
# gave them.
PINS = json.loads((Path(__file__).parent / "ratfun_pins.json").read_text())


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


def test_ratfun_normalization_and_str():
    n = Poly((0, 1))
    cases = [
        (Poly((0, -2)), Poly((0, 0, 2)), "(-1)/(n)"),
        (Poly((-1,)), Poly((0, -1, 0, 1)), "(-1)/(n^3 - n)"),
        # repeated factors, negative denominators, common integer content
        (Poly((0, 0, -6)), Poly((0, 0, 0, 4)), "(-3)/(2n)"),
        ((n + 1) * (n + 1), (n + 1) * (n + 1) * (n + 1) * (-2),
         "(-1)/(2n + 2)"),
        ((n - 2) * (n + 3) * 6, (n - 2) * (n - 2) * (n + 3) * (n + 3) * (-4),
         "(-3)/(2n^2 + 2n - 12)"),
        (Poly((4,)), Poly((-6,)), "(-2)/(3)"),
        (Poly((-2, 0, 1)) * (n + 1), (n + 1) * (n - 1) * n * 3,
         "(n^2 - 2)/(3n^2 - 3n)"),
        ((n + 1) * (n + 1) * (n + 1), (n + 1) * (n + 1), "(n + 1)/(1)"),
        (Poly((0, 3)), Poly((0, 0, 9)), "(1)/(3n)"),
    ]
    for num, den, want in cases:
        assert str(RationalFunction(num, den)) == want


def test_ratfun_refuses_denominator_that_does_not_split():
    with pytest.raises(ValueError, match="does not split"):
        RationalFunction(Poly((1,)), Poly((-2, 0, 1)))      # n^2 - 2
    with pytest.raises(ValueError, match="does not split"):
        RationalFunction(Poly((1,)), Poly((1, 0, 1)))       # n^2 + 1
    with pytest.raises(ValueError, match="does not split"):
        RationalFunction(Poly((1,)), Poly((1, 2)))          # 2n + 1
    with pytest.raises(ValueError, match="does not split"):
        RationalFunction.one() / invariants.degree3("6b")
    assert RationalFunction(Poly(()), Poly((-2, 0, 1))).is_zero()


def _pinned_value(key: str) -> RationalFunction:
    family, _, args = key.partition(" ")
    if family == "degree3":
        return invariants.degree3(args)
    if family == "e2":
        return invariants.exchange_e2()
    ints = tuple(int(a) for a in args.split(","))
    if family == "fan":
        return invariants.fan(ints)
    if family == "z":
        return invariants.z_integral(*ints)
    if family in ("x4", "x5"):
        return invariants.x_special(family, *ints)
    assert family == "xi", key
    return weingarten.xi_symbolic(ints)


def test_reduced_forms_pinned():
    assert len(PINS) == 337
    for key, (text, validity) in PINS.items():
        rf = _pinned_value(key)
        assert (str(rf), rf.validity_min_n) == (text, validity), key


def test_ratfun_zero_denominator():
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        RationalFunction(Poly((1,)), Poly(()))
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        RationalFunction.over_linear(Poly((1,)), (0, 1), const=0)


def test_expand_multiplies_out_linear_factors():
    assert expand(1, ()) == [1]
    assert expand(-3, (0,)) == [0, -3]
    assert Poly(expand(2, (-1, 1, 1))) == (
        Poly.const(2) * Poly.n_plus(-1) * Poly.n_plus(1) * Poly.n_plus(1))


@st.composite
def _factored_ratios(draw):
    """(num, shifts, const, validity): shifts with repeats, negative shifts
    and 0; a numerator that is zero or a multiple of some of the factors."""
    shifts = draw(st.lists(st.integers(-5, 5), max_size=7))
    keep = draw(st.lists(st.booleans(), min_size=len(shifts),
                         max_size=len(shifts)))
    cofactor = Poly(draw(st.lists(st.integers(-9, 9), max_size=4)))
    scale = draw(st.integers(1, 12))
    num = cofactor * Poly(expand(scale, (k for k, b in zip(shifts, keep)
                                         if b)))
    const = draw(st.integers(-60, 60).filter(bool))
    return num, shifts, const, draw(st.integers(0, 5))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_factored_ratios())
def test_factored_construction_equals_poly_construction(case):
    num, shifts, const, v = case
    got = RationalFunction.over_linear(num, shifts, v, const)
    want = RationalFunction(num, Poly(expand(const, shifts)), v)
    assert (got.num, got.den, got.validity_min_n) == (
        want.num, want.den, want.validity_min_n)


def _reduced_form_holds(r: RationalFunction) -> None:
    assert list(r.shifts) == sorted(r.shifts) and r.const > 0
    rebuilt = RationalFunction(r.num, r.den)
    assert rebuilt == r and hash(rebuilt) == hash(r)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_factored_ratios(), _factored_ratios())
def test_operators_agree_with_fraction_arithmetic_property(x, y):
    # the divisors are b and its denominator, whose numerator always splits
    a, b = (RationalFunction.over_linear(num, shifts, v, const)
            for num, shifts, const, v in (x, y))
    d = RationalFunction.over_linear(b.den, (), b.validity_min_n)
    ns = [n for n in range(6, 60) if b.is_zero() or b.num(n)][:3]
    results = [(a + b, lambda u, w: u + w), (a - b, lambda u, w: u - w),
               (a * b, lambda u, w: u * w), (a / d, None)]
    if not b.is_zero():
        try:
            results.append((a / b, lambda u, w: u / w))
        except ValueError:
            with pytest.raises(ValueError, match="does not split"):
                ratfun._linear_factors(b.num)
    for r, op in results:
        _reduced_form_holds(r)
        assert r.validity_min_n == max(a.validity_min_n, b.validity_min_n)
        for n in ns:
            want = (a.eval_at(n) / b.den(n) if op is None
                    else op(a.eval_at(n), b.eval_at(n)))
            assert r.eval_at(n) == want, n
    _reduced_form_holds(a)


def test_large_degree_operators_search_only_linear_numerators(monkeypatch):
    # the operators combine the fans' factors, and only the divisor n - 1
    # is searched: searching the degree-6,000 product would fail here
    search = ratfun._linear_factors

    def linear_only(den):
        if den.degree > 1:
            raise AssertionError(f"searched a polynomial of degree "
                                 f"{den.degree} for its linear factors")
        return search(den)

    monkeypatch.setattr(ratfun, "_linear_factors", linear_only)
    a, b = invariants.fan((1500, 1500)), invariants.fan((3000,))
    start = time.perf_counter()
    total, difference, product_ = a + b, a - b, a * b
    quotient = a / Poly((-1, 1))
    equal = a == b
    hash(a), hash(b)
    assert time.perf_counter() - start < 1
    assert not equal and b + a == total and hash(b + a) == hash(total)
    n = 4
    va, vb = a.eval_at(n), b.eval_at(n)
    assert total.eval_at(n) == va + vb
    assert difference.eval_at(n) == va - vb
    assert product_.eval_at(n) == va * vb
    assert quotient.eval_at(n) == va / (n - 1)
    assert len(total.shifts) == 3000 and len(product_.shifts) == 6000
    assert invariants.exchange_e2() == invariants.exchange_e2_by_unitarity()
    for suite in (suites.run_invariant_relations, suites.run_paper_tables):
        assert all(check.ok for check in suite()), suite.__name__


def _catalog_and_small_xi():
    """Every pinned catalog form, and xi_symbolic for p <= 7."""
    for key in PINS:
        family, _, args = key.partition(" ")
        if family != "xi" or sum(map(int, args.split(","))) <= 7:
            yield key, _pinned_value(key)


def test_negation_and_validity_keep_the_reduced_form():
    for key, rf in _catalog_and_small_xi():
        for got, want in (
                (-rf, RationalFunction(-rf.num, rf.den, rf.validity_min_n)),
                (rf.with_validity(11), RationalFunction(rf.num, rf.den, 11))):
            assert (got.num, got.den, got.validity_min_n) == (
                want.num, want.den, want.validity_min_n), key


def test_internal_paths_never_search_for_factors(monkeypatch):
    # closed forms, sphere moments, U(n) dimensions and the symbolic fold
    # know their linear factors; only a polynomial denominator is searched
    def refuse(den):
        raise AssertionError(f"searched for the linear factors of {den}")

    monkeypatch.setattr(ratfun, "_linear_factors", refuse)
    for cached in (invariants.fan, invariants.z_integral, invariants.x_special,
                   invariants.degree3, weingarten.xi_symbolic,
                   weingarten._shape_weights, partitions.dim_unitary):
        cached.cache_clear()
    for p in range(1, 8):
        for shape in partitions.partitions_of(p):
            invariants.fan(shape)
            partitions.dim_unitary(shape)
            weingarten.xi_symbolic(shape)
        sphere.s_single_symbolic(p)
    for ms in product(range(5), repeat=3):
        if any(ms):
            invariants.z_integral(*ms)
    for t, u in product(range(6), repeat=2):
        if t >= 1 and t + u <= 5:
            invariants.x_special("x4", t, u)
        if u >= 1 and t + u <= 5:
            invariants.x_special("x5", t, u)
    for key in invariants.DEGREE3_KEYS:
        invariants.degree3(key)
    q = MomentQuery.make(7, (1, 1, 2, 2, 3, 3, 4), (1, 2, 3, 4, 1, 2, 3),
                         (2, 1, 3, 2, 1, 4, 3), (3, 2, 1, 4, 3, 1, 2))
    rf = weingarten.moment_symbolic(canonicalize(q))
    assert not rf.is_zero() and rf.validity_min_n == 7
    assert RationalFunction.from_fraction(Fraction(-6, 4)) == Fraction(-3, 2)
    assert RationalFunction.zero().is_zero() and RationalFunction.one() == 1


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
