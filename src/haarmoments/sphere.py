"""Exact monomial integrals over the unit hypersphere in R^n.

S(m_1, ..., m_t) is the average of prod_i x_i^(2*m_i) over the sphere
sum x_i^2 = 1 with the rotation-invariant probability measure.  Everything
reduces to the single-coordinate moment

    S(p) = prod_{k=1..p} (2k - 1) / (n + 2k - 2),

obtained by recursion from S(0) = 1, times a counting factor.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .ratfun import Poly, RationalFunction


def s_single(p: int, n: int) -> Fraction:
    """S(p) = <x_1^(2p)> on the sphere in R^n, by the moment recursion."""
    if p < 0:
        raise ValueError("p must be non-negative")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    out = Fraction(1)
    for k in range(1, p + 1):
        out *= Fraction(2 * k - 1, n + 2 * k - 2)
    return out


def s_single_symbolic(p: int) -> RationalFunction:
    """S(p) as a rational function of the ambient dimension n."""
    if p < 0:
        raise ValueError("p must be non-negative")
    num = 1
    for k in range(1, p + 1):
        num *= 2 * k - 1
    return RationalFunction.over_linear(Poly.const(num), range(0, 2 * p, 2), 1)


def s_multi(ms: Sequence[int], n: int) -> Fraction:
    """S(m_1..m_t) = (p!/prod m_i!) (prod (2m_i)! / (2p)!) S(p)."""
    ms = tuple(ms)
    if not all(isinstance(m, int) and m >= 1 for m in ms):
        raise ValueError("multiplicities must be positive integers")
    if len(ms) > n:
        raise ValueError("more coordinates than dimensions")
    p = sum(ms)
    num = factorial(p)
    den = factorial(2 * p)
    for m in ms:
        num *= factorial(2 * m)
        den *= factorial(m)
    return Fraction(num, den) * s_single(p, n)


def sphere_moment(exponents: Sequence[int]) -> Fraction:
    """Average of prod_i x_i^(e_i) over the sphere in R^n, n = len(e).

    Zero whenever any exponent is odd; otherwise the multi-index moment on
    the halved exponents of the coordinates actually present.
    """
    exponents = tuple(exponents)
    n = len(exponents)
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if any(not isinstance(e, int) or e < 0 for e in exponents):
        raise ValueError("exponents must be non-negative integers")
    if any(e % 2 for e in exponents):
        return Fraction(0)
    ms = tuple(e // 2 for e in exponents if e > 0)
    if not ms:
        return Fraction(1)
    return s_multi(ms, n)
