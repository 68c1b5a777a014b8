"""Exact arithmetic for the symbolic results: integer polynomials in the
matrix dimension and reduced ratios of them.

Every symbolic value in this package is a ratio of two integer-coefficient
polynomials in a single symbol ``n`` (the matrix dimension) whose
denominator splits into integer linear factors, c * prod(n + k).  This holds
for every closed form and for the group engine's common denominator
(p!)^2 * prod(n + content), the Jucys–Murphy factorization of the Weingarten
function.  A ratio is held in a unique reduced form: each factor n + k of the
denominator that also divides the numerator is cancelled by synthetic
division (any common factor of the two must be one of them, so the result is
in lowest terms), the numerator and denominator share no integer content,
and the denominator's leading coefficient is positive.

A ratio keeps its denominator as c and the shifts k: a value at fixed n is
c * prod(n + k), and the polynomial ``den`` is multiplied out (``expand``, the
one place that does) only when printing, comparison or arithmetic first reads
it.  A caller that knows its denominator's linear factors passes them to
``RationalFunction.over_linear``, and the ratio is reduced against them
directly.  Only a denominator that arrives as a polynomial — the
``RationalFunction(num, den)`` constructor, and so the arithmetic operators —
is split by a search for its integer roots; one with a root that is not an
integer is refused with ValueError.

A ratio also carries ``validity_min_n``, the smallest integer n at which the
expression is asserted to equal the quantity it stands for — denominators
arising from group sums vanish at small n, so evaluation below the floor is
refused rather than silently wrong.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, prod
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class Poly:
    """Dense integer-coefficient polynomial; ``coeffs[k]`` multiplies n**k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c: int) -> "Poly":
        return cls((c,))

    @classmethod
    def n_plus(cls, k: int) -> "Poly":
        """The monic linear factor n + k."""
        return cls((k, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    @staticmethod
    def _as_poly(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return Poly((other,))
        return NotImplemented

    def __add__(self, other) -> "Poly":
        other = Poly._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other) -> "Poly":
        return self + -other

    def __rsub__(self, other) -> "Poly":
        return -self + other

    def __mul__(self, other) -> "Poly":
        other = Poly._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, n: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = "n" if mag == 1 else f"{mag}n"
            else:
                term = f"n^{k}" if mag == 1 else f"{mag}n^{k}"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append((" - " if c < 0 else " + ") + term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _divide_linear(coeffs: list[int], k: int) -> tuple[list[int], int]:
    """Quotient coefficients and remainder of sum coeffs[i] n^i by n + k."""
    out = []
    acc = 0
    for c in reversed(coeffs):
        acc = c - k * acc
        out.append(acc)
    rem = out.pop()
    out.reverse()
    return out, rem


def _linear_factors(den: Poly) -> tuple[int, list[int]]:
    """Split a nonzero den as c * prod(n + k): return c and the shifts k.

    After the factors of n are taken out, each other shift k divides the
    trailing coefficient, and k^2 is at most the sum of the squares of all
    shifts, (sum k)^2 - 2 e_2, read off the top three coefficients.  The
    candidates are tried in that range; ValueError if some root of den is
    not an integer.
    """
    cs = list(den.coeffs)
    zeros = next(i for i, c in enumerate(cs) if c)
    shifts, cs = [0] * zeros, cs[zeros:]
    if len(cs) > 1:
        lead = cs[-1]
        s1, r1 = divmod(cs[-2], lead)
        s2, r2 = divmod(cs[-3], lead) if len(cs) > 2 else (0, 0)
        if not r1 and not r2 and s1 * s1 >= 2 * s2:
            for a in range(1, isqrt(s1 * s1 - 2 * s2) + 1):
                for k in (a, -a):
                    while len(cs) > 1 and cs[0] % k == 0:
                        q, r = _divide_linear(cs, k)
                        if r:
                            break
                        cs = q
                        shifts.append(k)
        if len(cs) > 1:
            raise ValueError(f"denominator {den} does not split into "
                             "integer linear factors n + k")
    return cs[0], shifts


def expand(const: int, shifts: Iterable[int]) -> list[int]:
    """Coefficients, lowest power first, of const * prod(n + k for k in
    shifts)."""
    out = [const]
    for k in shifts:
        out = [a + k * b for a, b in zip([0] + out, out + [0])]
    return out


def _reduced(num: Poly, const: int,
             shifts: Iterable[int]) -> tuple[Poly, int, tuple[int, ...]]:
    """num / (const * prod(n + k)) in lowest terms, const positive: the
    numerator, const and the shifts left."""
    cs = list(num.coeffs)
    if not cs:
        return num, 1, ()
    left = []
    for k, m in Counter(shifts).items():
        while m and len(cs) > 1:
            q, r = _divide_linear(cs, k)
            if r:
                break
            cs, m = q, m - 1
        left += [k] * m
    g = gcd(const, *cs) if const > 0 else -gcd(const, *cs)
    return Poly(c // g for c in cs), const // g, tuple(left)


class RationalFunction:
    """Reduced ratio of integer polynomials in the matrix dimension."""

    __slots__ = ("num", "const", "shifts", "_den", "validity_min_n")

    def __init__(self, num: Poly, den: Poly, validity_min_n: int = 0):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly((1,))
        self.num, self.const, self.shifts = _reduced(num, *_linear_factors(den))
        self._den = None
        self.validity_min_n = validity_min_n

    @classmethod
    def over_linear(cls, num: Poly, shifts: Iterable[int],
                    validity_min_n: int = 0, const: int = 1) -> "RationalFunction":
        """num / (const * prod(n + k for k in shifts)), reduced against those
        factors without searching for them."""
        if const == 0:
            raise ZeroDivisionError("zero denominator")
        return cls._of_reduced(*_reduced(num, const, shifts), validity_min_n)

    @classmethod
    def _of_reduced(cls, num: Poly, const: int, shifts: tuple[int, ...],
                    validity_min_n: int) -> "RationalFunction":
        """Wrap a ratio that is already in reduced form."""
        out = cls.__new__(cls)
        out.num, out.const, out.shifts = num, const, shifts
        out._den, out.validity_min_n = None, validity_min_n
        return out

    @property
    def den(self) -> Poly:
        """The denominator const * prod(n + k) multiplied out, once."""
        if self._den is None:
            self._den = Poly(expand(self.const, self.shifts))
        return self._den

    @classmethod
    def from_fraction(cls, q: Scalar, validity_min_n: int = 0) -> "RationalFunction":
        q = Fraction(q)
        return cls.over_linear(Poly.const(q.numerator), (), validity_min_n,
                               q.denominator)

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls.over_linear(Poly(()), ())

    @classmethod
    def one(cls) -> "RationalFunction":
        return cls.over_linear(Poly((1,)), ())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def with_validity(self, v: int) -> "RationalFunction":
        return RationalFunction._of_reduced(self.num, self.const,
                                            self.shifts, v)

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_fraction(other)
        if isinstance(other, Poly):
            return RationalFunction.over_linear(other, ())
        return NotImplemented

    def __add__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = max(self.validity_min_n, o.validity_min_n)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den, v)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._of_reduced(-self.num, self.const,
                                            self.shifts, self.validity_min_n)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalFunction":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        v = max(self.validity_min_n, o.validity_min_n)
        return RationalFunction(self.num * o.num, self.den * o.den, v)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        v = max(self.validity_min_n, o.validity_min_n)
        return RationalFunction(self.num * o.den, self.den * o.num, v)

    def __rtruediv__(self, other) -> "RationalFunction":
        return self._coerce(other) / self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalFunction.from_fraction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def eval_at(self, n: int) -> Fraction:
        """Exact value at integer n; refused below the validity floor."""
        if n < self.validity_min_n:
            raise ValueError(
                f"outside validity domain: n={n} < validity_min_n="
                f"{self.validity_min_n}"
            )
        dv = self.const * prod(n + k for k in self.shifts)
        if dv == 0:
            raise ZeroDivisionError(f"denominator vanishes at n={n}")
        return Fraction(self.num(n), dv)

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self}, validity_min_n={self.validity_min_n})"
